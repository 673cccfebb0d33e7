import random
import time
from itertools import product

import pytest

from bafsynth import cli, dlist, graph, maxsat, sat, synth
from bafsynth.cli import MODES, RunConfig, _shape, run_pipeline
from bafsynth.errors import LimitError
from bafsynth.graph import build_conflict_graph, enumerate_mis
from bafsynth.maxsat import MaxSatSession, TableSession
from bafsynth.model import (
    Specification,
    holds,
    index_mask,
    mask_indices,
    numbering,
    parse_qdimacs,
    variables_of,
)
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
    renamed_spec_text,
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
    mss, witness = covering_mss(example1, frozenset({1}), output_session(example1))
    assert mss == frozenset({1, 3, 4})
    assert witness == {3: True, 4: True}


def test_covering_mss_already_maximal(example1):
    mss, witness = covering_mss(example1, frozenset({2, 3}), output_session(example1))
    assert mss == frozenset({2, 3})
    assert witness == {3: False, 4: False}


def test_covering_mss_unrealizable(unrealizable4):
    assert covering_mss(unrealizable4, frozenset({1, 2}), output_session(unrealizable4)) is None


def test_covering_mss_in_brute_force_list(example1):
    _, mss_all = brute_force_mfs_mss(example1)
    for mfs in brute_force_mfs_mss(example1)[0]:
        got = covering_mss(example1, mfs, output_session(example1))
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
            fresh = covering_mss(spec, mfs, output_session(spec))
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


def test_the_maxsat_paths_fixture_reaches_both_sessions(maxsat_paths, example1):
    default = maxsat.TABLE_BITS
    kinds = [(bits, type(output_session(example1))) for bits in maxsat_paths()]
    assert kinds == [(default, TableSession), (0, MaxSatSession)]
    # mfs-enum asks its three MFS on a table, or on a solver each
    calls = []
    for _ in maxsat_paths():
        stats = synth_by_mfs_enumeration(example1).stats
        calls.append((stats.maxsat_calls, stats.sat_calls))
    assert calls == [(3, 0), (0, 3)]
    assert maxsat.TABLE_BITS == default


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
    x = synth.falsifying_input(unrealizable4, out.witness_mfs)
    table = brute_force_synthesize(unrealizable4)
    key = tuple(x[v] for v in unrealizable4.inputs)
    assert table.entries[key] is None


@pytest.mark.parametrize("procedure", [back_and_forth, synth_by_mfs_enumeration])
def test_an_unrealizable_run_counts_the_sets_it_recorded(procedure):
    # MFS {1} grows into MSS {1, 2} (y true); MFS {2, 3} then needs y and
    # not y, so the run fails after recording one set
    spec = parse_qdimacs("p cnf 2 3\na 1 0\ne 2 0\n1 2 0\n-1 2 0\n-1 -2 0\n")
    out = procedure(spec)
    assert not out.realizable
    assert out.witness_mfs == frozenset({2, 3})
    assert out.stats.iterations == 2
    assert out.stats.mss_recorded == out.stats.iterations - 1


def test_back_and_forth_empty_ypart_detected():
    spec = parse_qdimacs("p cnf 3 2\na 1 2 0\ne 3 0\n1 2 0\n1 3 0\n")
    out = back_and_forth(spec)
    assert not out.realizable
    assert 1 in out.witness_mfs
    # the covering query of the MFS that holds the empty y-part is unsatisfiable
    assert out.stats.maxsat_calls == 1
    assert synth.falsifying_input(spec, out.witness_mfs) == {1: False, 2: False}


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


def test_planted_spec_text_raises_when_k_is_out_of_reach():
    # one input and one output allow two clauses: (-x | y) and (x | -y), up
    # to the planted polarity
    rng = random.Random(1)
    assert planted_spec_text(rng, 1, 1, 2).count(" 0\n") == 4
    with pytest.raises(ValueError, match="10 distinct clauses"):
        planted_spec_text(rng, 1, 1, 10)


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


# Clauses 2, 3 and 5 contain clause 1, so the loop runs on clauses 1, 4, 6
# and 7.  Three recorded MSS: every input that fires decision 2 fires
# decision 1 or 3, so it is dropped; every input that fires decision 1 fires
# decision 2 or 3, but once decision 2 is gone some fire decision 1 alone,
# so it stays.
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
    """Record every call of `synth.irredundant` as (spec, MSS list, kept
    positions)."""
    calls = []
    step = synth.irredundant

    def recorded(spec, mss_list):
        kept = step(spec, mss_list)
        calls.append((spec, mss_list, kept))
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
    for spec, mss_list, kept in calls:
        assert kept == oracles.irredundant_reference(spec, mss_list)
        dropped += len(mss_list) - len(kept)
    # subsumption leaves fewer recorded MSS to drop
    assert dropped == 10


def test_irredundant_drops_every_decision_before_a_full_mss(monkeypatch):
    spec = parse_qdimacs(DROPPING_TEXT)
    calls = _recorded_steps(monkeypatch)
    back_and_forth(spec)
    ((_, mss_list, kept),) = calls
    assert kept == [0, 2, 3]
    # Had MFS 3, which the first two MSS leave uncovered, grown into every
    # clause, the third decision's empty guard would fire on every input.
    mss_list = [*mss_list[:2], frozenset(spec.indices)]
    assert synth.irredundant(spec, mss_list) == [2]
    assert oracles.irredundant_reference(spec, mss_list) == [2]


def test_irredundant_keeps_a_decision_that_only_a_dropped_one_covers(monkeypatch):
    spec = parse_qdimacs(NEEDED_TEXT)
    calls = _recorded_steps(monkeypatch)
    out = back_and_forth(spec)
    ((reduced, mss_list, kept),) = calls
    assert reduced.clauses == tuple(spec.clauses[i - 1] for i in (1, 4, 6, 7))
    assert len(mss_list) == 3
    assert kept == oracles.irredundant_reference(reduced, mss_list) == [0, 2]
    assert verify_decision_list(spec, out.decision_list).verified


def test_irredundant_keeps_every_decision_that_has_its_own_input():
    # each value of x fires one decision of y <-> x alone, so both stay
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
    (_, (_, mss_list, kept)) = calls
    assert kept == [0, 1, 2, 3]
    every = frozenset(spec.indices)
    decisions = out.decision_list.decisions
    assert [d.guard for d in decisions] == [every - m for m in mss_list]
    assert [decisions[i] for i in (0, 2, 3)] == list(pruned.decisions)
    assert out.stats.iterations == len(decisions) == 4
    assert verify_decision_list(spec, out.decision_list).verified


# ----------------------------------------------------------------------
# subsumed clauses


def _with_subsumed(rng: random.Random, spec: Specification, count: int) -> Specification:
    """`spec` plus up to `count` clauses, appended, that each add one or two
    literals over unused variables to a clause of `spec`."""
    clauses, ins = list(spec.clauses), set(spec.inputs)
    for _ in range(count):
        x_lits, y_lits = rng.choice(clauses)
        used = {abs(l) for l in x_lits + y_lits}
        free = [v for v in spec.inputs + spec.outputs if v not in used]
        if not free:
            continue
        picked = rng.sample(free, min(len(free), rng.randint(1, 2)))
        extra = [rng.choice((1, -1)) * v for v in picked]
        grown = (
            tuple(sorted([*x_lits, *(l for l in extra if abs(l) in ins)], key=abs)),
            tuple(sorted([*y_lits, *(l for l in extra if abs(l) not in ins)], key=abs)),
        )
        if grown not in clauses:
            clauses.append(grown)
    return Specification(spec.inputs, spec.outputs, tuple(clauses))


def _assert_correct_everywhere(spec: Specification, out) -> None:
    """The outcome is right on every input of `spec`: a realizable list
    gives an output that satisfies `spec` and verifies; an unrealizable
    witness falsifies its MFS on an input that has no output."""
    table = brute_force_synthesize(spec)
    assert out.realizable == table.realizable
    if out.realizable:
        assert verify_decision_list(spec, out.decision_list).verified
        for x in oracles.assignments(spec.inputs):
            y = dlist.evaluate(out.decision_list, x)
            assert y is not None and spec.evaluate({**x, **y})
    else:
        assert out.witness_mfs == oracles.extend_to_mis_reference(spec, out.witness_mfs)
        x = synth.falsifying_input(spec, out.witness_mfs)
        assert table.entries[tuple(x[v] for v in spec.inputs)] is None


def test_subsumed_finds_the_clauses_that_contain_another():
    rng = random.Random(17)
    for n in range(200):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=4, max_clauses=12))
        if n % 2:
            spec = _with_subsumed(rng, spec, rng.randint(1, 4))
        got = list(mask_indices(synth.subsumed(spec)))
        assert got == oracles.subsumed_reference(spec)


def test_back_and_forth_on_planted_subsumed_clauses_is_right_on_every_input(maxsat_paths):
    for _ in maxsat_paths():
        rng = random.Random(23)
        dropped = realizable = 0
        for n in range(120):
            make = planted_spec_text if n % 2 else random_synth_spec_text
            spec = _with_subsumed(rng, parse_qdimacs(make(rng, 4, 3, rng.randint(4, 10))), 5)
            out = back_and_forth(spec)
            assert out.stats.subsumed == len(oracles.subsumed_reference(spec))
            dropped += out.stats.subsumed
            realizable += out.realizable
            _assert_correct_everywhere(spec, out)
        assert dropped > 500 and 0 < realizable < 120


def test_an_unrealizable_witness_maps_back_like_the_set_reference(monkeypatch):
    # the witness of the reduced loop grows on the whole spec's conflict
    # masks to the MFS that the set-based extension grows from it
    calls = []
    extend = synth.extend_to_mis

    def recorded(conflicts, seed):
        seed = list(seed)
        calls.append((len(conflicts), seed))
        return extend(conflicts, seed)

    monkeypatch.setattr(synth, "extend_to_mis", recorded)
    rng = random.Random(29)
    mapped = 0
    for n in range(200):
        make = planted_spec_text if n % 2 else random_synth_spec_text
        spec = _with_subsumed(rng, parse_qdimacs(make(rng, 4, 3, rng.randint(4, 10))), 5)
        calls.clear()
        out = back_and_forth(spec)
        if out.realizable or not out.stats.subsumed:
            continue
        size, seed = calls[-1]  # the mapping back, after the reduced loop's extensions
        assert size == spec.num_clauses + 1
        assert out.witness_mfs == oracles.extend_to_mis_reference(spec, seed)
        mapped += 1
    assert mapped >= 30


# e = (1 | 4), d = (1 2 | 4) and c = (1 2 3 | 4 5): e is within d, and d is
# within c
CHAIN_TEXT = """\
p cnf 5 4
a 1 2 3 0
e 4 5 0
1 2 3 4 5 0
1 2 4 0
1 4 0
-1 -4 0
"""


def test_a_subsumption_chain_maps_back_to_the_component():
    spec = parse_qdimacs(CHAIN_TEXT)
    assert synth.subsumed(spec) == index_mask([1, 2])
    out = back_and_forth(spec)
    assert out.stats.subsumed == 2
    assert out.stats.iterations == out.stats.mss_recorded == 2
    # the decision that sets 4 false has e in its guard, and so d and c,
    # whose y-parts its output falsifies; the other satisfies all three
    assert [(sorted(d.guard), d.output) for d in out.decision_list.decisions] == [
        ([4], {4: True, 5: False}),
        ([1, 2, 3], {4: False, 5: False}),
    ]
    _assert_correct_everywhere(spec, out)


def test_twin_x_parts_are_dropped_only_when_one_y_part_holds_the_other():
    # clauses 1 and 2 share x-part (1) and 2's y-part holds 1's; clauses 3
    # and 4 share x-part (2) with y-parts that do not hold one another
    spec = parse_qdimacs(
        "p cnf 5 5\na 1 2 0\ne 3 4 5 0\n1 3 0\n1 3 4 0\n2 5 0\n2 4 -5 0\n-1 -3 0\n"
    )
    assert list(mask_indices(synth.subsumed(spec))) == [2]
    out = back_and_forth(spec)
    assert out.stats.subsumed == 1
    _assert_correct_everywhere(spec, out)


def test_an_output_of_only_dropped_clauses_stays_an_output_of_the_list():
    # output 4 occurs only in clause 2, which contains clause 1
    spec = parse_qdimacs("p cnf 4 3\na 1 2 0\ne 3 4 0\n1 3 0\n1 2 3 4 0\n-1 -3 0\n")
    out = back_and_forth(spec)
    assert out.stats.subsumed == 1
    assert out.decision_list.outputs == (3, 4)
    assert all(set(d.output) == {3, 4} for d in out.decision_list.decisions)
    _assert_correct_everywhere(spec, out)
    report = run_pipeline(spec, RunConfig())
    assert report["verified"] and report["subsumed"] == 1
    assert report["components"][0]["clauses"] == 3
    for mode in ("mfs-enum", "mss-enum"):  # they keep every clause
        assert run_pipeline(spec, RunConfig(mode=mode))["subsumed"] == 0


def test_an_unrealizable_witness_holds_a_subsumed_clause():
    # clause 1 contains clause 2; clauses 2 and 3 need 3 and not 3 when
    # input 1 is false, and the witness grows to clause 1 on the component
    spec = parse_qdimacs("p cnf 3 3\na 1 2 0\ne 3 0\n1 2 3 0\n1 3 0\n1 -3 0\n")
    out = back_and_forth(spec)
    assert out.stats.subsumed == 1
    assert out.witness_mfs == frozenset({1, 2, 3})
    _assert_correct_everywhere(spec, out)
    # with verification on, `run_pipeline` confirms the witness input
    # (`witness_has_no_output`) before it reports it
    report = run_pipeline(spec, RunConfig())
    assert report["status"] == "unrealizable"
    witness = {"component": 1, "mfs": [1, 2, 3], "input": {"1": False, "2": False}}
    assert report["witness"] == witness


def test_an_empty_clause_subsumes_every_other_and_is_the_witness():
    # the bare `0` line is the empty clause, which every clause contains
    spec = parse_qdimacs("p cnf 3 3\na 1 2 0\ne 3 0\n1 3 0\n0\n-1 2 -3 0\n")
    assert spec.clauses[1] == ((), ())
    assert synth.subsumed(spec) == index_mask([1, 3])
    out = back_and_forth(spec)
    assert not out.realizable
    assert out.stats.subsumed == 2
    assert 2 in out.witness_mfs
    _assert_correct_everywhere(spec, out)


# ----------------------------------------------------------------------
# enumeration modes


def test_mfs_enumeration_example1(monkeypatch, example1):
    monkeypatch.setattr(maxsat, "TABLE_BITS", 0)  # the witness solvers
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
    monkeypatch.setattr(maxsat, "TABLE_BITS", 0)
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
    monkeypatch.setattr(maxsat, "TABLE_BITS", 0)
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


def test_mfs_table_outputs_hold_each_mfs_like_brute_force():
    # at the default budget these components all take the table: each
    # output holds every y-part of its MFS, and the run stops at the first
    # MFS, in enumeration order, whose y-parts no output satisfies
    rng = random.Random(467)
    outcomes = {True: 0, False: 0}
    for n in range(150):
        make = repeated_ypart_spec_text if n % 2 else random_synth_spec_text
        spec = parse_qdimacs(make(rng, max_clauses=12))
        out = synth_by_mfs_enumeration(spec)
        assert out.stats.sat_calls == 0
        assert out.stats.maxsat_calls == out.stats.iterations
        mfs_all, _ = brute_force_mfs_mss(spec)
        unsat = [
            oracles.cnf_model([spec.y_part(i) for i in m], spec.outputs) is None
            for m in mfs_all
        ]
        if out.realizable:
            assert not any(unsat)
            every = frozenset(spec.indices)
            decisions = out.decision_list.decisions
            assert [every - d.guard for d in decisions] == mfs_all
            for m, d in zip(mfs_all, decisions):
                assert all(holds(spec.y_part(i), d.output) for i in m)
        else:
            first = unsat.index(True)
            assert out.witness_mfs == mfs_all[first]
            assert out.stats.iterations == first + 1
        outcomes[out.realizable] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_mfs_enumeration_over_the_limit_builds_no_set(monkeypatch):
    spec = parse_qdimacs(identity_qdimacs(17))  # 17 components, 2^17 MFS
    monkeypatch.setattr(graph, "product", None)  # building any MFS raises TypeError
    t0 = time.perf_counter()
    with pytest.raises(LimitError, match="more than 100000"):
        run_pipeline(spec, RunConfig(mode="mfs-enum", partition=False))
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize(
    "cfg",
    [RunConfig(mode="mfs-enum", mis_limit=0), RunConfig(mode="mss-enum", mss_limit=0)],
    ids=["mfs-enum", "mss-enum"],
)
def test_a_limit_below_one_is_rejected_before_any_query(monkeypatch, example1, cfg):
    # both modes reject it like the CLI does, not as a resource limit
    def no_query(*args):
        raise AssertionError("the limit is checked first")

    monkeypatch.setattr(synth, "solve_partial_maxsat", no_query)
    monkeypatch.setattr(sat.Solver, "solve", no_query)
    with pytest.raises(ValueError, match="limit must be positive"):
        run_pipeline(example1, cfg)


def test_mfs_enumeration_searches_each_component_once(monkeypatch):
    searched, search = [], graph._max_cliques

    def recording(nb, part, limit):
        searched.append(part.bit_count())
        return search(nb, part, limit)

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
    x = synth.falsifying_input(unrealizable4, out.witness_mfs)
    assert not any(unrealizable4.evaluate({**x, 2: y}) for y in (False, True))
    table = brute_force_synthesize(unrealizable4)
    assert table.entries[tuple(x[v] for v in table.inputs)] is None


@pytest.mark.parametrize("mode", ["back-and-forth", "mfs-enum", "mss-enum"])
def test_the_witness_input_is_read_in_the_failing_components_numbering(mode):
    # component 2 holds clauses 2 and 3 as its local clauses 1 and 2; read
    # in the whole spec's numbering, its MFS {1, 2} would set input 1 true
    spec = parse_qdimacs("p cnf 4 3\na 1 2 0\ne 3 4 0\n-1 3 0\n2 4 0\n2 -4 0\n")
    result = run_pipeline(spec, RunConfig(mode=mode))
    witness = result["witness"]
    assert result["status"] == "unrealizable"
    assert witness["component"] == 2
    assert witness["input"] == {"1": False, "2": False}
    comp = partition_by_output_variables(spec)[1]
    x = synth.falsifying_input(comp, frozenset(witness["mfs"]))
    assert witness["input"] == {str(v): b for v, b in x.items()}


def test_mss_enumeration_agrees_with_brute_force_on_realizability(maxsat_paths):
    for _ in maxsat_paths():
        for spec in _corpus(229, 60, max_in=4, max_out=4, max_clauses=8):
            table = brute_force_synthesize(spec)
            out = synth_by_mss_enumeration(spec)
            assert out.realizable == table.realizable
            if out.realizable:
                assert verify_decision_list(spec, out.decision_list).verified
            else:
                x = synth.falsifying_input(spec, out.witness_mfs)
                assert table.entries[tuple(x[v] for v in table.inputs)] is None


def test_mss_enumeration_finds_exactly_the_brute_force_mss(maxsat_paths):
    for _ in maxsat_paths():
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


def test_partition_keeps_an_empty_ypart_clause_as_its_own_component():
    spec = parse_qdimacs("p cnf 2 1\na 1 2 0\ne 0\n1 2 0\n")
    (only,) = partition_by_output_variables(spec)
    assert only.clauses == spec.clauses and only.outputs == ()


def test_partition_matches_the_set_closure_reference():
    # clauses, outputs and order of every component, on random specs (empty
    # y-parts, outputs no clause uses), planted ones, and clause-free ones,
    # each also renamed so that its `e` line is not ascending; the first
    # component is the spec itself exactly when it is the only one, it holds
    # every clause and every output, and the `e` line is ascending
    rng, renaming = random.Random(107), random.Random(108)
    seen = dict.fromkeys(
        ("empty y-part", "unused output", "no clause", "whole", "whole, e not ascending"), 0
    )
    for n in range(300):
        if n % 10 == 0:
            m, k = rng.randint(0, 3), rng.randint(0, 4)
            ids = [str(v) for v in range(1, m + k + 1)]
            text = f"p cnf {m + k} 0\na {' '.join(ids[:m])} 0\ne {' '.join(ids[m:])} 0\n"
        elif n % 2:
            text = random_spec_text(rng, max_clauses=12)
        else:
            text = planted_spec_text(rng, rng.randint(3, 6), rng.randint(1, 6), rng.randint(1, 10))
        for spec in (parse_qdimacs(text), parse_qdimacs(renamed_spec_text(renaming, text))):
            expected = oracles.output_components_reference(spec)
            got = partition_by_output_variables(spec)
            assert [(p.clauses, p.outputs) for p in got] == [
                (tuple(spec.clauses[i - 1] for i in clauses), tuple(outputs))
                for clauses, outputs in expected
            ]
            whole = bool(spec.clauses) and expected == [(list(spec.indices), sorted(spec.outputs))]
            ascending = list(spec.outputs) == sorted(spec.outputs)
            assert any(p is spec for p in got) == (whole and ascending)
            seen["empty y-part"] += bool(spec.empty_ypart_indices)
            seen["unused output"] += bool(expected and not expected[-1][0])
            seen["no clause"] += not spec.clauses
            seen["whole"] += whole and ascending
            seen["whole, e not ascending"] += whole and not ascending
    assert min(seen.values()) >= 20, seen


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


# its second decision's set is {2}, an MSS of the spec less subsumed clause 3
# but not of the spec, whose MSS are {1, 3} and {2, 3}
SUBSUMED_NOT_MSS_TEXT = "p cnf 5 3\na 1 2 3 0\ne 4 5 0\n1 4 0\n-1 -4 0\n1 3 4 5 0\n"


def test_iteration_bound_and_nonredundancy(maxsat_paths):
    for _ in maxsat_paths():
        # the loop runs on the spec less its subsumed clauses, so the bound and
        # the MSS property hold for that reduced spec, in its own numbering
        corpus = _corpus(211, 60, max_in=4, max_out=4, max_clauses=10)
        for spec in [parse_qdimacs(SUBSUMED_NOT_MSS_TEXT), *corpus]:
            out = back_and_forth(spec)
            dropped = set(oracles.subsumed_reference(spec))
            kept = [i for i in spec.indices if i not in dropped]
            renumber = {c: j for j, c in enumerate(kept, 1)}
            mfs_all, mss_all = brute_force_mfs_mss(spec.restrict(kept, spec.outputs))
            if out.realizable:
                assert out.stats.iterations <= min(len(mfs_all), len(mss_all))
                sets = [
                    frozenset(renumber[c] for c in kept if c not in d.guard)
                    for d in out.decision_list.decisions
                ]
                assert len(set(sets)) == len(sets)
                for s in sets:
                    assert s in mss_all


def test_cross_mode_agreement(maxsat_paths):
    for _ in maxsat_paths():
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


def test_partition_correctness_exhaustive(maxsat_paths):
    for _ in maxsat_paths():
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


def test_any_firing_decision_is_sound(maxsat_paths):
    for _ in maxsat_paths():
        for spec in _corpus(229, 30, max_in=4, max_out=4, max_clauses=8):
            out = back_and_forth(spec)
            if not out.realizable:
                continue
            for x in oracles.assignments(spec.inputs):
                for dec in out.decision_list.decisions:
                    fires = all(holds(spec.x_part(g), x) for g in dec.guard)
                    if fires:
                        assert spec.evaluate({**x, **dec.output})


def test_determinism_of_back_and_forth(maxsat_paths):
    for _ in maxsat_paths():
        for spec in _corpus(233, 20, max_clauses=10):
            a = back_and_forth(spec)
            b = back_and_forth(spec)
            assert a.status == b.status
            if a.realizable:
                assert a.decision_list == b.decision_list


# ----------------------------------------------------------------------
# renaming invariance: why `run_pipeline` may reuse a component's list

SYNTHESIZERS = (back_and_forth, synth_by_mfs_enumeration, synth_by_mss_enumeration)


def _renaming(rng: random.Random, comp: Specification) -> tuple[dict[int, int], dict[int, int]]:
    """An input and an output renaming of `comp` onto fresh ids: the
    inputs its x-parts use go in order to a sorted sample, its other
    inputs to the rest of the sample in any order, and its outputs in
    order to a sorted sample of their own."""
    fresh = sorted(rng.sample(range(100, 400), len(comp.inputs)))
    used = variables_of(x_lits for x_lits, _ in comp.clauses)
    at = sorted(rng.sample(range(len(fresh)), len(used)))
    rest = [v for k, v in enumerate(fresh) if k not in at]
    rng.shuffle(rest)
    inputs = dict(zip(used, (fresh[k] for k in at)))
    inputs.update(zip((v for v in comp.inputs if v not in inputs), rest))
    outputs = dict(zip(sorted(comp.outputs), sorted(rng.sample(range(500, 800), len(comp.outputs)))))
    return inputs, outputs


def _renamed_clauses(comp: Specification, inputs: dict[int, int], outputs: dict[int, int]):
    def part(lits, ids):
        return tuple(ids[abs(l)] if l > 0 else -ids[abs(l)] for l in lits)

    return [(part(x, inputs), part(y, outputs)) for x, y in comp.clauses]


def _rename(comp: Specification, inputs: dict[int, int], outputs: dict[int, int]) -> Specification:
    return Specification(
        tuple(map(inputs.get, comp.inputs)),
        tuple(map(outputs.get, comp.outputs)),
        tuple(_renamed_clauses(comp, inputs, outputs)),
    )


def _random_components(seed: int, count: int) -> list[Specification]:
    """`count` components of two or more clauses, from random and planted
    specifications in turn."""
    rng, comps = random.Random(seed), []
    while len(comps) < count:
        if len(comps) % 2:
            text = planted_spec_text(rng, rng.randint(3, 5), rng.randint(1, 4), rng.randint(2, 12))
        else:
            text = random_spec_text(rng, max_in=5, max_out=3, max_clauses=14)
        parts = partition_by_output_variables(parse_qdimacs(text))
        comps += [comp for comp in parts if comp.num_clauses > 1]
    return comps[:count]


def test_an_order_preserving_renaming_changes_no_synthesis(maxsat_paths):
    comps = _random_components(331, 200)
    for _ in maxsat_paths():
        rng = random.Random(337)
        realizable = 0
        for comp in comps:
            inputs, outputs = _renaming(rng, comp)
            twin = _rename(comp, inputs, outputs)
            for synthesize in SYNTHESIZERS:
                a, b = synthesize(comp), synthesize(twin)
                assert (a.status, a.stats, a.witness_mfs) == (b.status, b.stats, b.witness_mfs)
                if a.realizable:
                    realizable += 1
                    da, db = a.decision_list.decisions, b.decision_list.decisions
                    assert [d.guard for d in da] == [d.guard for d in db]
                    assert [{outputs[v]: x for v, x in d.output.items()} for d in da] == [
                        d.output for d in db
                    ]
        assert 100 < realizable < 3 * len(comps)


def _with_renamed_copies(rng: random.Random, spec: Specification, copies: int) -> Specification:
    """`spec`'s components and `copies` renamed copies of them, over a
    shared input block and disjoint output blocks, the components'
    clauses interleaved in a random order that keeps each one's own."""
    comps = partition_by_output_variables(spec)
    pool = list(range(1, 2 * len(spec.inputs) + 1))
    top = len(pool)
    blocks = []
    for n in range(copies + 1):
        for comp in comps:
            used = variables_of(x_lits for x_lits, _ in comp.clauses)
            inputs = dict(zip(used, sorted(rng.sample(pool, len(used))) if n else used))
            outputs = dict(zip(sorted(comp.outputs), range(top + 1, top + len(comp.outputs) + 1)))
            top += len(comp.outputs)
            blocks.append(_renamed_clauses(comp, inputs, outputs))
    clauses = []
    while any(blocks):
        clauses.append(rng.choice([b for b in blocks if b]).pop(0))
    return Specification(tuple(pool), tuple(range(len(pool) + 1, top + 1)), tuple(clauses))


def test_a_reused_component_gets_the_list_synthesis_would_give_it(maxsat_paths):
    rng = random.Random(347)
    specs = []
    while len(specs) < 30:
        make = planted_spec_text if len(specs) % 3 else random_synth_spec_text
        spec = parse_qdimacs(make(rng, 3, 3, rng.randint(2, 6)))
        if not spec.empty_ypart_indices:
            specs.append(_with_renamed_copies(rng, spec, rng.randint(1, 2)))
    for _ in maxsat_paths():
        reused = 0
        for spec, mode in product(specs, sorted(MODES)):
            cfg = RunConfig(mode=mode)
            result = run_pipeline(spec, cfg)
            comps = partition_by_output_variables(spec)
            for ci, (comp, record) in enumerate(zip(comps, result["components"]), 1):
                j = record["reuses"]
                if j is None:
                    continue
                reused += 1
                assert j < ci and _shape(comps[j - 1]) == _shape(comp)
                assert [record[k] for k in ("iterations", "sat_calls", "maxsat_calls")] == [0, 0, 0]
                direct = MODES[mode](comp, cfg)
                if record["status"] == "realizable":
                    assert result["decision_lists"][ci - 1] == dlist.to_json_dict(direct.decision_list)
                    assert record["decisions"] == len(direct.decision_list)
            if result["status"] == "realizable":
                assert result["verified"]
                lists = dlist.parse_many(result["dl_text"], cli._specs_by_digest(spec))
                assert all(verify_decision_list(dl.spec, dl).verified for dl in lists)
        assert reused > 60


def _rebuilt(dl: dlist.DecisionList, comp: Specification) -> dlist.DecisionList:
    """The reference for `cli._renamed`: `dl`'s outputs renamed in ascending
    id order and the list rebuilt for `comp` by `build_decision_list`."""
    rename = dict(zip(sorted(dl.outputs), sorted(comp.outputs)))
    every = frozenset(comp.indices)
    return dlist.build_decision_list(
        comp,
        [every - dec.guard for dec in dl.decisions],
        [{rename[v]: b for v, b in dec.output.items()} for dec in dl.decisions],
    )


def test_a_reused_list_equals_the_list_rebuilt_for_its_component():
    rng = random.Random(36)
    specs = [parse_qdimacs(identity_qdimacs(12))]
    while len(specs) < 40:
        make = planted_spec_text if len(specs) % 3 else random_synth_spec_text
        spec = parse_qdimacs(make(rng, 3, 3, rng.randint(2, 6)))
        if not spec.empty_ypart_indices:
            specs.append(_with_renamed_copies(rng, spec, rng.randint(1, 2)))
    reused = 0
    for spec in specs:
        result = run_pipeline(spec, RunConfig())
        first: dict[tuple, tuple[int, dlist.DecisionList | None]] = {}
        for ci, comp in enumerate(partition_by_output_variables(spec), 1):
            if _shape(comp) not in first:
                first[_shape(comp)] = ci, back_and_forth(comp).decision_list
                continue
            j, source = first[_shape(comp)]
            if source is None:  # unrealizable: the run stops before any reuse
                continue
            reused += 1
            dl, reference = cli._renamed(source, comp), _rebuilt(source, comp)
            assert dl == reference and dl.spec_digest == comp.digest
            assert dl.spec is comp and dl.inputs is comp.inputs
            record = result["components"][ci - 1]
            assert record["reuses"] == j and record["decisions"] == len(reference)
            assert result["decision_lists"][ci - 1] == dlist.to_json_dict(reference)
    assert reused > 60


def test_renaming_a_list_checks_each_output_as_building_it_does():
    # clause 1 is x1 or y2 and clause 2 is -x1 or y3; the hand-built list's
    # outputs 7 and 8 become 2 and 3, and guard {2} leaves clause 1 outside
    comp = Specification((1,), (2, 3), (((1,), (2,)), ((-1,), (3,))))
    every = frozenset(comp.indices)
    rename = {7: 2, 8: 3}
    cases = [
        ({7: False, 8: True}, "witness does not satisfy the y-part of clause 1"),
        ({7: True}, "witness is not total over the outputs"),
    ]
    for output, message in cases:
        dl = dlist.DecisionList((1,), (7, 8), (dlist.Decision(frozenset({2}), output),), "")
        witness = {rename[v]: b for v, b in output.items()}
        with pytest.raises(ValueError, match=message):
            dlist.build_decision_list(comp, [every - {2}], [witness])
        with pytest.raises(ValueError, match=message):
            cli._renamed(dl, comp)
    good = dlist.Decision(frozenset({2}), {7: True, 8: False})
    dl = dlist.DecisionList((1,), (7, 8), (good,), "")
    assert cli._renamed(dl, comp) == _rebuilt(dl, comp)


def _two_dict_shape(comp: Specification) -> tuple:
    """The reference for `cli._shape`: the used inputs and the outputs
    numbered in two dicts."""
    xs = numbering(variables_of(x_lits for x_lits, _ in comp.clauses))
    ys = numbering(sorted(comp.outputs))
    clauses = tuple(
        (tuple(map(xs.__getitem__, x_lits)), tuple(map(ys.__getitem__, y_lits)))
        for x_lits, y_lits in comp.clauses
    )
    return clauses, len(comp.outputs)


def test_the_one_dict_shape_key_equals_the_two_dict_key():
    rng = random.Random(3636)
    texts = [identity_qdimacs(5), output_chain_qdimacs(4)]
    for _ in range(50):
        texts.append(random_spec_text(rng))
        texts.append(random_synth_spec_text(rng))
        texts.append(repeated_ypart_spec_text(rng))
        texts.append(planted_spec_text(rng, 3, 3, rng.randint(1, 6)))
    compared = 0
    for text in texts:
        for variant in (text, renamed_spec_text(rng, text)):
            spec = parse_qdimacs(variant)
            for comp in (spec, *partition_by_output_variables(spec)):
                assert _shape(comp) == _two_dict_shape(comp)
                compared += 1
    assert compared > 1000
