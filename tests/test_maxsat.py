import random

from bafsynth.maxsat import (
    HARD_UNSAT,
    OPTIMAL,
    MaxSatInstance,
    MaxSatSession,
    solve_partial_maxsat,
)

from . import oracles


def test_worked_example_hard_unit():
    # hard (y1), soft (not y1), (y1 or not y2), (y2) over y1=1, y2=2
    inst = MaxSatInstance.of([(1,)], [(-1,), (1, -2), (2,)])
    res = solve_partial_maxsat(inst)
    assert res.status == OPTIMAL
    assert res.num_satisfied == 2
    assert res.model == {1: True, 2: True}
    assert res.satisfied_soft == frozenset({1, 2})


def test_complementary_soft_units():
    res = solve_partial_maxsat(MaxSatInstance.of([], [(1,), (-1,)]))
    assert res.status == OPTIMAL
    assert res.num_satisfied == 1


def test_hard_unsatisfiable():
    res = solve_partial_maxsat(MaxSatInstance.of([(1,), (-1,)], [(2,)]))
    assert res.status == HARD_UNSAT
    assert res.model is None


def test_no_softs():
    res = solve_partial_maxsat(MaxSatInstance.of([(1, 2)], []))
    assert res.status == OPTIMAL
    assert res.satisfied_soft == frozenset()


def test_empty_soft_clause_never_satisfied():
    res = solve_partial_maxsat(MaxSatInstance.of([], [(), (1,)]))
    assert res.status == OPTIMAL
    assert res.satisfied_soft == frozenset({1})


def _random_instance(rng, max_vars=10, max_soft=10):
    n = rng.randint(1, max_vars)
    hard = []
    for _ in range(rng.randint(0, 4)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        hard.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    soft = []
    for _ in range(rng.randint(1, max_soft)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        soft.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return n, MaxSatInstance.of(hard, soft)


def test_exactness_against_brute_force():
    rng = random.Random(71)
    for _ in range(500):
        n, inst = _random_instance(rng)
        feasible, best = oracles.maxsat_optimum(inst.hard, inst.soft, range(1, n + 1))
        res = solve_partial_maxsat(inst)
        if not feasible:
            assert res.status == HARD_UNSAT
        else:
            assert res.status == OPTIMAL
            assert res.num_satisfied == best
            assert all(oracles.clause_sat(c, res.model) for c in inst.hard)
            assert res.satisfied_soft == frozenset(
                i for i, c in enumerate(inst.soft) if oracles.clause_sat(c, res.model)
            )


def test_maximality_of_satisfied_set():
    # no excluded soft is satisfiable together with hard and the chosen set
    rng = random.Random(73)
    for _ in range(100):
        n, inst = _random_instance(rng, max_vars=6, max_soft=8)
        res = solve_partial_maxsat(inst)
        if res.status != OPTIMAL:
            continue
        chosen = [inst.soft[i] for i in res.satisfied_soft]
        for i, c in enumerate(inst.soft):
            if i in res.satisfied_soft:
                continue
            joint = list(inst.hard) + chosen + [c]
            assert oracles.cnf_model(joint, range(1, n + 1)) is None


def test_determinism():
    rng = random.Random(83)
    for _ in range(50):
        _, inst = _random_instance(rng)
        a = solve_partial_maxsat(inst)
        b = solve_partial_maxsat(inst)
        assert a.model == b.model and a.satisfied_soft == b.satisfied_soft


def test_one_session_answers_like_fresh_solves():
    # many queries on one session, in random order with repeats, some of
    # them with an unsatisfiable hard part; each must match a fresh solve
    # of the same instance and brute force
    rng = random.Random(89)
    unsat = bounded = 0
    for _ in range(80):
        n, inst = _random_instance(rng, max_soft=8)
        session = MaxSatSession(range(1, n + 1), inst.soft, inst.hard)
        k = len(inst.soft)
        queries = [frozenset(rng.sample(range(k), rng.randint(0, k))) for _ in range(6)]
        queries += rng.choices(queries, k=3)
        rng.shuffle(queries)
        for q in queries:
            hard = [*inst.hard, *(inst.soft[j] for j in sorted(q))]
            soft = [c for j, c in enumerate(inst.soft) if j not in q]
            feasible, best = oracles.maxsat_optimum(hard, soft, range(1, n + 1))
            got = solve_partial_maxsat(session, q)
            fresh = solve_partial_maxsat(MaxSatInstance.of(hard, soft))
            assert got.status == fresh.status == (OPTIMAL if feasible else HARD_UNSAT)
            if not feasible:
                unsat += 1
                continue
            assert q <= got.satisfied_soft
            assert got.num_satisfied == fresh.num_satisfied + len(q) == best + len(q)
            assert set(got.model) == set(range(1, n + 1))
            assert all(oracles.clause_sat(c, got.model) for c in inst.hard)
            assert got.satisfied_soft == frozenset(
                i for i, c in enumerate(inst.soft) if oracles.clause_sat(c, got.model)
            )
            bounded += got.num_satisfied < k  # the descent asked for a bound
    assert unsat > 50 and bounded > 100
