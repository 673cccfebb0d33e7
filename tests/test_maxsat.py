import random

from bafsynth.maxsat import (
    HARD_UNSAT,
    OPTIMAL,
    MaxSatInstance,
    MaxSatSession,
    TableSession,
    solve_partial_maxsat,
)
from bafsynth.model import parse_qdimacs
from bafsynth.synth import back_and_forth, output_session, partition_by_output_variables
from bafsynth.verify import verify_decision_list

from . import oracles
from .conftest import output_chain_qdimacs

SESSIONS = (TableSession, MaxSatSession)


def _every_way(inst: MaxSatInstance):
    """`inst` solved by the library default and by a session of each kind."""
    variables = range(1, inst.max_var() + 1)
    return [
        solve_partial_maxsat(inst),
        *(kind(variables, inst.soft, inst.hard).solve() for kind in SESSIONS),
    ]


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
    inst = MaxSatInstance.of([(1,), (-1,)], [(2,)])
    for res in _every_way(inst):
        assert res.status == HARD_UNSAT
        assert res.model is None


def test_no_softs():
    res = solve_partial_maxsat(MaxSatInstance.of([(1, 2)], []))
    assert res.status == OPTIMAL
    assert res.satisfied_soft == frozenset()


def test_empty_soft_clause_never_satisfied():
    inst = MaxSatInstance.of([], [(), (1,)])
    for res in _every_way(inst):
        assert res.status == OPTIMAL
        assert res.satisfied_soft == frozenset({1})


def test_zero_variables():
    for kind in SESSIONS:
        res = kind((), [(), ()]).solve()
        assert res.status == OPTIMAL
        assert res.model == {} and res.satisfied_soft == frozenset()
        assert kind((), [], [()]).solve().status == HARD_UNSAT
        session = kind((), [()])
        session.require_any([0])  # an empty soft can never hold
        assert session.solve().status == HARD_UNSAT


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
        for a, b in zip(_every_way(inst), _every_way(inst)):
            assert a.model == b.model and a.satisfied_soft == b.satisfied_soft


def test_one_session_answers_like_fresh_solves():
    # many queries on one session, in random order with repeats, some of
    # them with an unsatisfiable hard part; each must match a fresh solve
    # of the same instance and brute force
    for kind in SESSIONS:
        _one_session_answers_like_fresh_solves(kind)


def _one_session_answers_like_fresh_solves(kind):
    rng = random.Random(89)
    unsat = bounded = 0
    for _ in range(80):
        n, inst = _random_instance(rng, max_soft=8)
        session = kind(range(1, n + 1), inst.soft, inst.hard)
        k = len(inst.soft)
        queries = [frozenset(rng.sample(range(k), rng.randint(0, k))) for _ in range(6)]
        queries += rng.choices(queries, k=3)
        rng.shuffle(queries)
        for q in queries:
            hard = [*inst.hard, *(inst.soft[j] for j in sorted(q))]
            soft = [c for j, c in enumerate(inst.soft) if j not in q]
            feasible, best = oracles.maxsat_optimum(hard, soft, range(1, n + 1))
            got = solve_partial_maxsat(session, q)
            fresh = kind(range(1, n + 1), soft, hard).solve()
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
            bounded += got.num_satisfied < k  # the optimum falsifies a soft
    assert unsat > 50 and bounded > 100


def _index(model, variables) -> int:
    """The truth-table index of `model`: variable i sets bit i-1."""
    return sum(1 << i for i, v in enumerate(variables) if model[v])


def test_table_and_cdcl_sessions_agree_with_brute_force():
    # both session kinds side by side over scattered ids in random order,
    # under random required sets and require_any clauses; the table's model
    # is the smallest-index assignment among the optima
    rng = random.Random(97)
    unsat = 0
    for _ in range(150):
        n, inst = _random_instance(rng, max_vars=8, max_soft=10)
        ids = rng.sample(range(1, 60), n)

        def rename(c):
            return tuple(ids[l - 1] if l > 0 else -ids[-l - 1] for l in c)

        soft, hard = [rename(c) for c in inst.soft], [rename(c) for c in inst.hard]
        variables = rng.sample(ids, n)
        table, cdcl = TableSession(variables, soft, hard), MaxSatSession(variables, soft, hard)
        k = len(soft)
        for _ in range(6):
            if rng.random() < 0.3:
                some = rng.sample(range(k), rng.randint(1, k))
                table.require_any(some)
                cdcl.require_any(some)
                hard.append(tuple(l for j in some for l in soft[j]))
                continue
            q = frozenset(rng.sample(range(k), rng.randint(0, min(3, k))))
            must = [*hard, *(soft[j] for j in sorted(q))]
            feasible, best = oracles.maxsat_optimum(must, soft, variables)
            got, ref = table.solve(q), cdcl.solve(q)
            assert got.status == ref.status == (OPTIMAL if feasible else HARD_UNSAT)
            if not feasible:
                unsat += 1
                continue
            assert got.num_satisfied == ref.num_satisfied == best
            for res in (got, ref):
                assert q <= res.satisfied_soft
                assert list(res.model) == list(variables)
                assert all(oracles.clause_sat(c, res.model) for c in must)
                assert res.satisfied_soft == frozenset(
                    j for j, c in enumerate(soft) if oracles.clause_sat(c, res.model)
                )
            optima = [
                _index(a, variables)
                for a in oracles.assignments(variables)
                if all(oracles.clause_sat(c, a) for c in must)
                and sum(oracles.clause_sat(c, a) for c in soft) == best
            ]
            assert _index(got.model, variables) == min(optima)
    assert unsat > 30


def test_few_outputs_get_the_table_and_many_the_solver():
    for k, kind in ((8, TableSession), (25, MaxSatSession)):
        (comp,) = partition_by_output_variables(parse_qdimacs(output_chain_qdimacs(k)))
        assert len(comp.outputs) == k
        assert type(output_session(comp)) is kind
        out = back_and_forth(comp)
        assert out.realizable and out.stats.iterations == 2
        assert verify_decision_list(comp, out.decision_list).verified
