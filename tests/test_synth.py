import random
import time
from itertools import product

import pytest

from bafsynth import dlist, graph, maxsat, sat, synth
from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.errors import LimitError
from bafsynth.graph import build_conflict_graph, enumerate_mis
from bafsynth.maxsat import MaxSatSession, TableSession
from bafsynth.model import Specification, holds, parse_qdimacs
from bafsynth.synth import (
    CoverageQueryState,
    back_and_forth,
    covering_mss,
    next_uncovered_mfs,
    output_session,
    partition_by_output_variables,
    record_mss,
    synth_by_mfs_enumeration,
    synth_by_mss_enumeration,
)
from bafsynth.verify import verify_decision_list

from .conftest import (
    identity_qdimacs,
    output_chain_qdimacs,
    planted_spec_text,
    random_spec_text,
    random_synth_spec_text,
    repeated_ypart_spec_text,
)
from . import oracles
from .oracles import brute_force_mfs_mss, brute_force_synthesize


def _phi_models_bruteforce(k, edges, coverage_clauses):
    """All selector assignments satisfying the coverage query, as index sets."""
    models = []
    for bits in product((False, True), repeat=k):
        chosen = frozenset(i + 1 for i in range(k) if bits[i])
        if any(i in chosen and j in chosen for i, j in edges):
            continue
        if all(any(z in chosen for z in cov) for cov in coverage_clauses):
            models.append(chosen)
    return models


# ----------------------------------------------------------------------
# coverage query


def test_first_uncovered_mfs_example1(example1):
    g = build_conflict_graph(example1)
    state = CoverageQueryState(example1)
    # brute force: with no coverage clauses the all-false model is allowed
    assert frozenset() in _phi_models_bruteforce(4, g.edges(), [])
    assert next_uncovered_mfs(state) == frozenset({1})


def test_uncovered_mfs_after_recording(example1):
    g = build_conflict_graph(example1)
    state = CoverageQueryState(example1)
    record_mss(state, frozenset({1, 3, 4}))  # adds the clause (z2)
    # brute force over the 2^4 selector assignments: every model selects 2
    models = _phi_models_bruteforce(4, g.edges(), [[2]])
    assert models and all(2 in m for m in models)
    got = next_uncovered_mfs(state)
    assert 2 in got
    assert got == frozenset({2, 3})


def test_all_covered_terminates(example1):
    g = build_conflict_graph(example1)
    state = CoverageQueryState(example1)
    record_mss(state, frozenset({1, 3, 4}))
    record_mss(state, frozenset({2, 3}))  # adds (z1 or z4)
    assert _phi_models_bruteforce(4, g.edges(), [[2], [1, 4]]) == []
    assert next_uncovered_mfs(state) is None


def test_record_full_set_rejected(example1):
    state = CoverageQueryState(example1)
    with pytest.raises(ValueError):
        record_mss(state, frozenset({1, 2, 3, 4}))


def test_coverage_query_numbers_inputs_after_the_selectors():
    # width-3 equivalence chain with high variable ids, as a partitioned
    # component of a large spec has: 6 clauses over inputs 101..103
    k = 3
    text = (
        f"p cnf 203 {2 * k}\na 101 102 103 0\ne 201 202 203 0\n"
        + "".join(f"-{100 + i} {200 + i} 0\n{100 + i} -{200 + i} 0\n" for i in range(1, k + 1))
    )
    spec = parse_qdimacs(text)
    state = CoverageQueryState(spec)
    assert state.solver.nvars == spec.num_clauses + 3
    assert next_uncovered_mfs(state) == frozenset({1, 3, 5})


# ----------------------------------------------------------------------
# covering MSS


def test_covering_mss_grows(example1):
    mss, witness = covering_mss(example1, frozenset({1}))
    assert mss == frozenset({1, 3, 4})
    assert witness == {3: True, 4: True}


def test_covering_mss_already_maximal(example1):
    mss, witness = covering_mss(example1, frozenset({2, 3}))
    assert mss == frozenset({2, 3})
    assert witness == {3: False, 4: False}


def test_covering_mss_unrealizable(unrealizable4):
    assert covering_mss(unrealizable4, frozenset({1, 2})) is None


def test_covering_mss_in_brute_force_list(example1):
    _, mss_all = brute_force_mfs_mss(example1)
    for mfs in brute_force_mfs_mss(example1)[0]:
        got = covering_mss(example1, mfs)
        assert got is not None
        assert got[0] in mss_all


def test_one_session_grows_every_mfs_like_a_fresh_one():
    # every MFS, in random order with repeats, through one session per
    # spec: the MSS is an optimum that holds the MFS, as a fresh session's
    rng = random.Random(307)
    unsat = 0
    for spec in _corpus(307, 60, max_in=4, max_out=4, max_clauses=9):
        mfs_all, mss_all = brute_force_mfs_mss(spec)
        queries = mfs_all + rng.choices(mfs_all, k=3)
        rng.shuffle(queries)
        session = output_session(spec)
        for mfs in queries:
            got = covering_mss(spec, mfs, session)
            fresh = covering_mss(spec, mfs)
            above = [m for m in mss_all if mfs <= m]
            if not above:
                assert got is None and fresh is None
                unsat += 1
                continue
            assert got[0] in above and mfs <= got[0]
            assert len(got[0]) == len(fresh[0]) == max(map(len, above))
            assert frozenset(i for i in spec.indices if holds(spec.y_part(i), got[1])) == got[0]
    assert unsat > 20


def test_output_session_is_sized_by_the_component(monkeypatch):
    # output 800 and output 2 each make a one-variable component: its table
    # has one variable, and a solver session over it the same few variables
    made = []

    def recorded(comp):
        made.append((comp, output_session(comp)))
        return made[-1][1]

    monkeypatch.setattr(synth, "output_session", recorded)
    for k in (400, 1):
        last = partition_by_output_variables(parse_qdimacs(identity_qdimacs(k)))[-1]
        assert last.outputs == (2 * k,)
        assert back_and_forth(last).realizable
    assert [type(s) for _, s in made] == [TableSession, TableSession]
    assert [s.variables for _, s in made] == [(800,), (2,)]
    wide = [
        MaxSatSession(c.outputs, [c.y_part(i) for i in c.indices]) for c, _ in made
    ]
    assert wide[0].solver.nvars == wide[1].solver.nvars <= 5


def test_back_and_forth_builds_two_solvers_per_component(monkeypatch):
    made = []
    init = sat.Solver.__init__

    def counted(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(sat.Solver, "__init__", counted)
    rng = random.Random(311)
    checked = 0
    for _ in range(30):
        spec = parse_qdimacs(random_synth_spec_text(rng, max_clauses=10))
        if spec.empty_ypart_indices:
            continue
        for comp in partition_by_output_variables(spec):
            made.clear()
            back_and_forth(comp)
            assert len(made) == 1  # the coverage query; MaxSAT runs on a table
            checked += 1
    assert checked > 25
    # 25 chained outputs are too many for a table: the MaxSAT session is a solver
    (wide,) = partition_by_output_variables(parse_qdimacs(output_chain_qdimacs(25)))
    made.clear()
    assert back_and_forth(wide).realizable
    assert len(made) == 2  # the coverage query and the MaxSAT session


# ----------------------------------------------------------------------
# back and forth


def test_back_and_forth_example1(example1):
    out = back_and_forth(example1)
    assert out.realizable
    assert out.stats.iterations == 2
    assert out.stats.mss_recorded == 2
    decisions = out.decision_list.decisions
    assert [sorted(d.guard) for d in decisions] == [[2], [1, 4]]
    assert decisions[0].output == {3: True, 4: True}
    assert decisions[1].output == {3: False, 4: False}


def test_back_and_forth_zero_clauses():
    spec = parse_qdimacs("p cnf 3 1\na 1 0\ne 2 3 0\n1 -1 0\n")  # tautology drops
    assert spec.num_clauses == 0
    out = back_and_forth(spec)
    assert out.realizable
    assert len(out.decision_list) == 1
    d = out.decision_list.decisions[0]
    assert d.guard == frozenset()
    assert d.output == {2: False, 3: False}


def test_back_and_forth_unrealizable(unrealizable4):
    out = back_and_forth(unrealizable4)
    assert not out.realizable
    assert out.witness_mfs in (frozenset({1, 2}), frozenset({3, 4}))
    # the witness input has no feasible output
    x = out.witness_input
    table = brute_force_synthesize(unrealizable4)
    key = tuple(x[v] for v in unrealizable4.inputs)
    assert table.entries[key] is None


def test_back_and_forth_empty_ypart_detected():
    spec = parse_qdimacs("p cnf 3 2\na 1 2 0\ne 3 0\n1 2 0\n1 3 0\n")
    out = back_and_forth(spec)
    assert not out.realizable
    assert 1 in out.witness_mfs
    assert out.stats.maxsat_calls == 0  # rejected before the main loop
    assert out.witness_input == {1: False, 2: False}


def test_back_and_forth_without_universals():
    # no inputs: every x-part is empty, so one MFS holds all clauses and
    # synthesis reduces to satisfying the whole output side at once
    spec = parse_qdimacs("p cnf 2 2\na 0\ne 1 2 0\n1 0\n2 0\n")
    out = back_and_forth(spec)
    assert out.realizable
    assert len(out.decision_list) == 1
    assert out.decision_list.decisions[0].output == {1: True, 2: True}
    assert dlist.evaluate(out.decision_list, {}) == {1: True, 2: True}


def test_back_and_forth_without_existentials():
    # clauses over inputs only are empty-y-part clauses: unrealizable
    spec = parse_qdimacs("p cnf 2 1\na 1 2 0\ne 0\n1 2 0\n")
    out = back_and_forth(spec)
    assert not out.realizable


def test_back_and_forth_single_full_mss():
    # conflict-free spec: one MFS covering everything, one decision
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    out = back_and_forth(spec)
    assert out.realizable
    assert len(out.decision_list) == 1
    assert out.decision_list.decisions[0].guard == frozenset()


# ----------------------------------------------------------------------
# irredundant decisions

# Four recorded MSS, three decisions: MFS 2 = {2, 5} also lies in the later
# MSS 3 = {2, 3, 5}, and every input that fires decision 2 (guard {1, 3})
# fires decision 1 or 3 as well, so decision 2 is dropped.
DROPPING_TEXT = """\
p cnf 5 5
a 1 2 3 0
e 4 5 0
-2 -4 0
2 4 -5 0
1 5 0
-1 -2 3 -5 0
-1 2 4 0
"""


# Three recorded MSS: every input that fires decision 2 fires decision 1 or
# 3, so it is dropped; every input that fires decision 1 fires decision 2 or
# 3, but once decision 2 is gone some fire decision 1 alone, so it stays.
NEEDED_TEXT = """\
p cnf 6 7
a 1 2 3 0
e 4 5 6 0
-3 -5 0
-1 2 -3 -5 0
1 2 -3 -5 -6 0
-1 2 -6 0
2 -3 -5 6 0
-2 3 -4 6 0
1 4 6 0
"""


def _recorded_steps(monkeypatch):
    """Record every call of `synth.irredundant` as (spec, MFS list, MSS
    list, kept positions)."""
    calls = []
    step = synth.irredundant

    def recorded(spec, mfs_list, mss_list):
        kept = step(spec, mfs_list, mss_list)
        calls.append((spec, mfs_list, mss_list, kept))
        return kept

    monkeypatch.setattr(synth, "irredundant", recorded)
    return calls


def test_irredundant_keeps_what_the_brute_force_greedy_keeps(monkeypatch):
    calls = _recorded_steps(monkeypatch)
    rng = random.Random(5)
    for _ in range(100):
        m, n, k = rng.randint(4, 6), rng.randint(3, 5), rng.randint(12, 24)
        assert back_and_forth(parse_qdimacs(planted_spec_text(rng, m, n, k))).realizable
    dropped = 0
    for spec, _, mss_list, kept in calls:
        assert kept == oracles.irredundant_reference(spec, mss_list)
        dropped += len(mss_list) - len(kept)
    assert dropped > 10


def test_irredundant_drops_every_decision_before_a_full_mss(monkeypatch):
    spec = parse_qdimacs(DROPPING_TEXT)
    calls = _recorded_steps(monkeypatch)
    back_and_forth(spec)
    ((_, mfs_list, mss_list, kept),) = calls
    assert kept == [0, 2, 3]
    # Had MFS 3, which the first two MSS leave uncovered, grown into every
    # clause, the third decision's empty guard would fire on every input.
    mss_list = [*mss_list[:2], frozenset(spec.indices)]
    assert synth.irredundant(spec, mfs_list[:3], mss_list) == [2]
    assert oracles.irredundant_reference(spec, mss_list) == [2]


def test_irredundant_keeps_a_decision_that_only_a_dropped_one_covers(monkeypatch):
    spec = parse_qdimacs(NEEDED_TEXT)
    calls = _recorded_steps(monkeypatch)
    out = back_and_forth(spec)
    ((_, _, mss_list, kept),) = calls
    assert len(mss_list) == 3
    assert kept == oracles.irredundant_reference(spec, mss_list) == [0, 2]
    assert verify_decision_list(spec, out.decision_list).verified


def test_irredundant_needs_no_masks_when_every_decision_has_its_own_input(monkeypatch):
    def no_masks(n):
        raise AssertionError("the prefilter settles every decision")

    monkeypatch.setattr(synth, "variable_masks", no_masks)
    for comp in partition_by_output_variables(parse_qdimacs(identity_qdimacs(4))):
        out = back_and_forth(comp)
        assert len(out.decision_list) == out.stats.iterations == 2


def test_back_and_forth_drops_a_covered_decision():
    spec = parse_qdimacs(DROPPING_TEXT)
    report = run_pipeline(spec, RunConfig())
    assert report["iterations"] == report["mss_recorded"] == 4
    assert report["decisions"] == 3
    assert report["verified"]
    dl = back_and_forth(spec).decision_list
    assert [sorted(d.guard) for d in dl.decisions] == [[2, 4, 5], [1, 4], [3, 5]]
    for x in oracles.assignments(spec.inputs):
        assert spec.evaluate({**x, **dlist.evaluate(dl, x)})
    # mss-enum keeps one decision per MSS
    report = run_pipeline(spec, RunConfig(mode="mss-enum"))
    assert report["decisions"] == report["mss_recorded"] == 4


def test_irredundant_keeps_every_decision_when_the_masks_do_not_fit(monkeypatch):
    spec = parse_qdimacs(DROPPING_TEXT)
    pruned = back_and_forth(spec).decision_list
    calls = _recorded_steps(monkeypatch)
    # the input masks are 5 guarded x-parts and 2 per decision over 3
    # inputs; the output table (5 softs over 2 outputs) fits in far less
    monkeypatch.setattr(maxsat, "TABLE_BITS", (5 + 2 * 4 + 3) << 3)
    assert back_and_forth(spec).decision_list.decisions == pruned.decisions
    monkeypatch.setattr(maxsat, "TABLE_BITS", ((5 + 2 * 4 + 3) << 3) - 1)
    out = back_and_forth(spec)
    (_, (_, _, mss_list, kept)) = calls
    assert kept == [0, 1, 2, 3]
    every = frozenset(spec.indices)
    decisions = out.decision_list.decisions
    assert [d.guard for d in decisions] == [every - m for m in mss_list]
    assert [decisions[i] for i in (0, 2, 3)] == list(pruned.decisions)
    assert out.stats.iterations == len(decisions) == 4
    assert verify_decision_list(spec, out.decision_list).verified


# ----------------------------------------------------------------------
# enumeration modes


def test_mfs_enumeration_example1(example1):
    out = synth_by_mfs_enumeration(example1)
    assert out.realizable
    decisions = out.decision_list.decisions
    assert [sorted(d.guard) for d in decisions] == [[2, 3, 4], [1, 4], [1, 2]]
    assert [d.output for d in decisions] == [
        {3: True, 4: False},
        {3: False, 4: False},
        {3: True, 4: True},
    ]


def test_mfs_enumeration_identity():
    out = synth_by_mfs_enumeration(parse_qdimacs(identity_qdimacs(2)))
    assert out.realizable
    assert len(out.decision_list) == 4


def _original_ids(spec, clauses):
    """`clauses` of a witness solver, which numbers the outputs 1..m in
    ascending id, over the outputs' own ids."""
    ids = sorted(spec.outputs)
    return [tuple(ids[l - 1] if l > 0 else -ids[-l - 1] for l in lits) for lits in clauses]


def test_mfs_enumeration_adds_each_distinct_ypart_once(monkeypatch):
    # clauses 1, 3 and 5 share y-part (5), clauses 2 and 4 share (6); four
    # MFS (1 or 2, 3 or 6, with 4 and 5) of four clauses each
    spec = parse_qdimacs(
        "p cnf 6 6\na 1 2 3 4 0\ne 5 6 0\n1 5 0\n-1 6 0\n2 5 0\n4 6 0\n3 5 0\n-2 -5 6 0\n"
    )
    added = []

    class Recording(sat.Solver):
        def __init__(self):
            super().__init__()
            added.append([])

        def add_clause(self, lits):
            added[-1].append(tuple(lits))
            super().add_clause(lits)

    monkeypatch.setattr(synth, "Solver", Recording)
    out = synth_by_mfs_enumeration(spec)
    assert out.realizable
    guards = [d.guard for d in out.decision_list.decisions]
    assert len(added) == len(guards) == 4
    added = [_original_ids(spec, clauses) for clauses in added]
    for guard, clauses in zip(guards, added):
        expected = []
        for i in spec.indices:
            if i not in guard and spec.y_part(i) not in expected:
                expected.append(spec.y_part(i))
        assert clauses == expected
    assert [len(c) for c in added] == [2, 3, 2, 3]
    assert verify_decision_list(spec, out.decision_list).verified


def test_mfs_witness_solvers_match_the_per_clause_reference(monkeypatch):
    # each witness solver gets the MFS's distinct y-parts in order of their
    # first clause in the MFS, on specs whose clauses share few y-parts
    added = []

    class Recording(sat.Solver):
        def __init__(self):
            super().__init__()
            added.append([])

        def add_clause(self, lits):
            added[-1].append(tuple(lits))
            super().add_clause(lits)

    monkeypatch.setattr(synth, "Solver", Recording)
    rng = random.Random(463)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        spec = parse_qdimacs(repeated_ypart_spec_text(rng, max_clauses=12))
        added.clear()
        out = synth_by_mfs_enumeration(spec)
        mfs = enumerate_mis(build_conflict_graph(spec), 100000).sets[: len(added)]
        assert [_original_ids(spec, clauses) for clauses in added] == [
            list(dict.fromkeys(spec.y_part(i) for i in sorted(m))) for m in mfs
        ]
        if out.realizable:
            assert len(added) == len(out.decision_list)
        else:
            assert mfs[-1] == out.witness_mfs
        outcomes[out.realizable] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_mfs_enumeration_over_the_limit_builds_no_set(monkeypatch):
    spec = parse_qdimacs(identity_qdimacs(17))  # 17 components, 2^17 MFS
    monkeypatch.setattr(graph, "product", None)  # building any MFS raises TypeError
    t0 = time.perf_counter()
    with pytest.raises(LimitError, match="more than 100000"):
        run_pipeline(spec, RunConfig(mode="mfs-enum", partition=False))
    assert time.perf_counter() - t0 < 0.1


def test_mfs_enumeration_searches_each_component_once(monkeypatch):
    searched, search = [], graph._max_cliques

    def recording(nb, n, limit):
        searched.append(n)
        return search(nb, n, limit)

    spec = parse_qdimacs(identity_qdimacs(6))
    monkeypatch.setattr(graph, "_max_cliques", recording)
    report = run_pipeline(spec, RunConfig(mode="mfs-enum", partition=False))
    assert report["decisions"] == 64
    assert searched == [2] * 6


def test_mfs_enumeration_unrealizable(unrealizable4):
    out = synth_by_mfs_enumeration(unrealizable4)
    assert not out.realizable
    assert out.witness_mfs == frozenset({1, 2})


def test_mss_enumeration_example1(example1):
    out = synth_by_mss_enumeration(example1)
    assert out.realizable
    assert (out.stats.maxsat_calls, out.stats.iterations, out.stats.mss_recorded) == (4, 3, 3)
    dl = out.decision_list
    assert len(dl) == 3
    assert sorted(dl.decisions[0].guard) == [2]  # largest MSS first
    found = {frozenset(range(1, 5)) - d.guard for d in dl.decisions}
    assert found == {frozenset({1, 3, 4}), frozenset({2, 3}), frozenset({2, 4})}


def test_mss_enumeration_single_soft():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    dl = synth_by_mss_enumeration(spec).decision_list
    assert len(dl) == 1
    assert dl.decisions[0].guard == frozenset()


def test_mss_enumeration_unrealizable_leaves_uncovered(unrealizable4):
    # the two MSS {1,3} and {2,4} leave both inputs uncovered; the coverage
    # query after the enumeration reports that as unrealizability
    out = synth_by_mss_enumeration(unrealizable4)
    assert not out.realizable
    assert out.decision_list is None
    assert out.witness_mfs in (frozenset({1, 2}), frozenset({3, 4}))
    assert (out.stats.maxsat_calls, out.stats.mss_recorded, out.stats.sat_calls) == (3, 2, 1)
    x = out.witness_input
    assert not any(unrealizable4.evaluate({**x, 2: y}) for y in (False, True))
    table = brute_force_synthesize(unrealizable4)
    assert table.entries[tuple(x[v] for v in table.inputs)] is None


def test_mss_enumeration_agrees_with_brute_force_on_realizability():
    for spec in _corpus(229, 60, max_in=4, max_out=4, max_clauses=8):
        table = brute_force_synthesize(spec)
        out = synth_by_mss_enumeration(spec)
        assert out.realizable == table.realizable
        if out.realizable:
            assert verify_decision_list(spec, out.decision_list).verified
        else:
            x = out.witness_input
            assert table.entries[tuple(x[v] for v in table.inputs)] is None


def test_mss_enumeration_finds_exactly_the_brute_force_mss():
    for spec in _corpus(313, 60, max_in=4, max_out=4, max_clauses=9):
        out = synth_by_mss_enumeration(spec)
        mss_all = brute_force_mfs_mss(spec)[1]
        assert out.stats.mss_recorded == len(mss_all)
        if out.realizable:
            found = {frozenset(spec.indices) - d.guard for d in out.decision_list.decisions}
            assert found == set(mss_all)


# ----------------------------------------------------------------------
# partitioning


def test_partition_identity():
    spec = parse_qdimacs(identity_qdimacs(3))
    parts = partition_by_output_variables(spec)
    assert len(parts) == 3
    assert all(p.num_clauses == 2 for p in parts)
    assert [p.outputs for p in parts] == [(4,), (5,), (6,)]
    assert all(p.inputs == spec.inputs for p in parts)


def test_partition_example1_single_component(example1):
    parts = partition_by_output_variables(example1)
    assert len(parts) == 1
    assert parts[0] == example1


def test_partition_disjoint_outputs():
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    parts = partition_by_output_variables(spec)
    assert len(parts) == 2


def test_partition_puts_unconstrained_outputs_last():
    # outputs 5 and 7 are in no clause: one clause-free component, last
    spec = parse_qdimacs("p cnf 7 2\na 1 2 0\ne 3 4 5 6 7 0\n1 6 0\n2 4 0\n")
    parts = partition_by_output_variables(spec)
    assert [p.outputs for p in parts] == [(6,), (4,), (3, 5, 7)]
    assert [p.num_clauses for p in parts] == [1, 1, 0]
    assert parts[-1].inputs == spec.inputs
    out = back_and_forth(parts[-1])
    assert out.realizable
    assert [d.output for d in out.decision_list.decisions] == [{3: False, 5: False, 7: False}]
    # a specification without clauses is one clause-free component
    (only,) = partition_by_output_variables(parse_qdimacs("p cnf 3 0\na 1 0\ne 2 3 0\n"))
    assert only.outputs == (2, 3) and only.num_clauses == 0


def test_partition_rejects_empty_ypart():
    spec = parse_qdimacs("p cnf 2 1\na 1 2 0\ne 0\n1 2 0\n")
    with pytest.raises(ValueError, match="empty y-part"):
        partition_by_output_variables(spec)


def test_partition_preserves_clauses():
    rng = random.Random(101)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng))
        if spec.empty_ypart_indices:
            continue
        parts = partition_by_output_variables(spec)
        pooled = [c for p in parts for c in p.clauses]
        assert sorted(pooled) == sorted(spec.clauses)


def test_partition_components_pass_the_specification_checks():
    # components skip the constructor's checks; building each one again
    # through the checking constructor must give an equal specification
    rng = random.Random(103)
    for n in range(200):
        make = random_spec_text if n % 2 else repeated_ypart_spec_text
        spec = parse_qdimacs(make(rng))
        if spec.empty_ypart_indices:
            continue
        for c in partition_by_output_variables(spec):
            checked = Specification(c.inputs, c.outputs, c.clauses)
            assert checked == c
            assert checked.digest == c.digest


# ----------------------------------------------------------------------
# invariants on a random corpus


def _corpus(seed, count, **kw):
    rng = random.Random(seed)
    return [parse_qdimacs(random_spec_text(rng, **kw)) for _ in range(count)]


def test_iteration_bound_and_nonredundancy():
    for spec in _corpus(211, 60, max_in=4, max_out=4, max_clauses=10):
        out = back_and_forth(spec)
        mfs_all, mss_all = brute_force_mfs_mss(spec)
        if out.realizable:
            assert out.stats.iterations <= min(len(mfs_all), len(mss_all))
            sets = [frozenset(spec.indices) - d.guard for d in out.decision_list.decisions]
            assert len(set(sets)) == len(sets)
            for s in sets:
                assert s in mss_all


def test_cross_mode_agreement():
    for spec in _corpus(223, 50, max_in=4, max_out=4, max_clauses=8):
        table = brute_force_synthesize(spec)
        baf = back_and_forth(spec)
        assert baf.realizable == table.realizable
        if not table.realizable:
            continue
        mfs_mode = synth_by_mfs_enumeration(spec)
        mss_list = synth_by_mss_enumeration(spec).decision_list
        assert mfs_mode.realizable
        for dl in (baf.decision_list, mfs_mode.decision_list, mss_list):
            assert verify_decision_list(spec, dl).verified
        assert len(baf.decision_list) <= len(mfs_mode.decision_list)
        assert len(baf.decision_list) <= len(mss_list)


def test_partition_correctness_exhaustive():
    for spec in _corpus(227, 40, max_in=4, max_out=4, max_clauses=8):
        if spec.empty_ypart_indices:
            continue
        table = brute_force_synthesize(spec)
        if not table.realizable:
            continue
        parts = partition_by_output_variables(spec)
        outcomes = [back_and_forth(p) for p in parts]
        assert all(o.realizable for o in outcomes)
        combined = dlist.combine([o.decision_list for o in outcomes], spec)
        for xbits, _ in table.entries.items():
            x = dict(zip(spec.inputs, xbits))
            y = dlist.evaluate_combined(combined, x)
            assert y is not None
            assert spec.evaluate({**x, **y})


def test_any_firing_decision_is_sound():
    for spec in _corpus(229, 30, max_in=4, max_out=4, max_clauses=8):
        out = back_and_forth(spec)
        if not out.realizable:
            continue
        for x in oracles.assignments(spec.inputs):
            for dec in out.decision_list.decisions:
                fires = all(holds(spec.x_part(g), x) for g in dec.guard)
                if fires:
                    assert spec.evaluate({**x, **dec.output})


def test_determinism_of_back_and_forth():
    for spec in _corpus(233, 20, max_clauses=10):
        a = back_and_forth(spec)
        b = back_and_forth(spec)
        assert a.status == b.status
        if a.realizable:
            assert a.decision_list == b.decision_list
