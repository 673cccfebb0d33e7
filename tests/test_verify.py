import dataclasses
import random

import pytest

from bafsynth.dlist import Decision, DecisionList, build_decision_list
from bafsynth.errors import LimitError
from bafsynth.graph import build_conflict_graph, enumerate_mis
from bafsynth.model import Specification, holds, parse_qdimacs
from bafsynth import maxsat, verify
from bafsynth.sat import Solver
from bafsynth.synth import (
    back_and_forth,
    covering_mss,
    output_session,
    partition_by_output_variables,
    synth_by_mfs_enumeration,
)
from bafsynth.verify import COVERAGE, SOUNDNESS, verify_decision_list, witness_has_no_output

from .conftest import (
    identity_qdimacs,
    planted_spec_text,
    random_spec_text,
    random_synth_spec_text,
    repeated_ypart_spec_text,
)
from . import oracles
from .oracles import brute_force_mfs_mss, brute_force_synthesize


def _example3_list(spec):
    return build_decision_list(
        spec,
        [frozenset({1, 3, 4}), frozenset({2, 3})],
        [{3: True, 4: True}, {3: False, 4: False}],
    )


def test_example3_verifies(example1):
    assert verify_decision_list(example1, _example3_list(example1)).verified


def test_flipped_output_is_soundness_counterexample(example1):
    dl = _example3_list(example1)
    broken = DecisionList(
        dl.inputs,
        dl.outputs,
        (dl.decisions[0], Decision(dl.decisions[1].guard, {3: True, 4: False})),
        dl.spec_digest,
        dl.spec,
    )
    report = verify_decision_list(example1, broken)
    assert not report.verified
    assert report.failure_kind == SOUNDNESS
    assert report.decision_index == 2
    # replay: the guard fires at the witness and the clause is violated
    x = report.witness_input
    dec = broken.decisions[1]
    assert all(holds(example1.x_part(g), x) for g in dec.guard)
    j = report.clause_index
    assert not holds(example1.x_part(j), x)
    assert not holds(example1.y_part(j), dec.output)


def test_deleted_decision_is_coverage_gap(example1):
    dl = _example3_list(example1)
    broken = DecisionList(
        dl.inputs, dl.outputs, dl.decisions[1:], dl.spec_digest, dl.spec
    )
    report = verify_decision_list(example1, broken)
    assert not report.verified
    assert report.failure_kind == COVERAGE
    x = report.witness_input
    for dec in broken.decisions:
        assert not all(holds(example1.x_part(g), x) for g in dec.guard)
    # brute force: the surviving guard fails exactly on these two inputs
    uncovered = [
        xa
        for xa in oracles.assignments(example1.inputs)
        if not all(holds(example1.x_part(g), xa) for g in broken.decisions[0].guard)
    ]
    assert uncovered == [{1: False, 2: True}, {1: True, 2: False}]
    assert x in uncovered


def test_digest_mismatch_rejected(example1):
    dl = _example3_list(example1)
    other = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    with pytest.raises(ValueError, match="different specification"):
        verify_decision_list(other, dl)


def test_verifier_agrees_with_exhaustive_evaluation():
    rng = random.Random(401)
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=4, max_clauses=8))
        out = back_and_forth(spec)
        if not out.realizable:
            continue
        dl = out.decision_list
        report = verify_decision_list(spec, dl)
        exhaustive_ok = True
        for x in oracles.assignments(spec.inputs):
            fired = None
            for dec in dl.decisions:
                if all(holds(spec.x_part(g), x) for g in dec.guard):
                    fired = dec
                    break
            if fired is None or not spec.evaluate({**x, **fired.output}):
                exhaustive_ok = False
        assert report.verified == exhaustive_ok


def _fires(spec, guard, x):
    return all(holds(spec.x_part(g), x) for g in guard)


def _random_list(rng, spec):
    """Random guards and total outputs.  Some guards hold every clause whose
    y-part the output falsifies, as synthesized guards do, some leave one of
    those out, and some are empty or plain random subsets."""
    decisions = []
    for _ in range(rng.randint(0, 5)):
        output = {v: rng.random() < 0.5 for v in spec.outputs}
        guard = {i for i in spec.indices if rng.random() < 0.2}
        shape = rng.random()
        if shape < 0.7:
            falsified = [i for i in spec.indices if not holds(spec.y_part(i), output)]
            guard |= set(falsified)
            if falsified and shape < 0.1:
                guard.discard(rng.choice(falsified))
        elif shape < 0.75:
            guard = set()
        decisions.append(Decision(frozenset(guard), output))
    return DecisionList(spec.inputs, spec.outputs, tuple(decisions), spec.digest, spec)


def test_verifier_agrees_with_brute_force_on_arbitrary_lists():
    rng = random.Random(443)
    kinds = {None: 0, SOUNDNESS: 0, COVERAGE: 0}
    for _ in range(400):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=4, max_clauses=8))
        dl = _random_list(rng, spec)
        inputs = list(oracles.assignments(spec.inputs))
        unsound = oracles.first_unsound_pair(spec, dl)
        gap = any(not any(_fires(spec, d.guard, x) for d in dl.decisions) for x in inputs)
        report = verify_decision_list(spec, dl)
        x = report.witness_input
        if unsound:
            assert report.failure_kind == SOUNDNESS
            di, j = unsound
            assert (report.decision_index, report.clause_index) == (di, j)
            dec = dl.decisions[di - 1]
            assert _fires(spec, dec.guard, x)
            assert not holds(spec.x_part(j), x)
            assert not holds(spec.y_part(j), dec.output)
        elif gap:
            assert report.failure_kind == COVERAGE
            assert not any(_fires(spec, d.guard, x) for d in dl.decisions)
        else:
            assert report.verified
        kinds[report.failure_kind] += 1
    assert min(kinds.values()) >= 30, kinds


@pytest.mark.parametrize(
    "change, message",
    [
        ({"decisions": (Decision(frozenset({2, 9}), {3: True, 4: True}),)}, "out of range"),
        ({"inputs": (1,)}, "variables differ"),
        ({"outputs": (3, 4, 7)}, "variables differ"),
        ({"decisions": (Decision(frozenset({2}), {3: True}),)}, "not total"),
    ],
    ids=["guard-index", "inputs", "outputs", "decision-output"],
)
def test_malformed_list_rejected_before_solving(example1, monkeypatch, change, message):
    broken = dataclasses.replace(_example3_list(example1), **change)
    monkeypatch.setattr(verify, "Solver", None)  # any solving would raise TypeError
    with pytest.raises(ValueError, match=message):
        verify_decision_list(example1, broken)


def _record_solvers(monkeypatch) -> list:
    """Every Solver the verifier constructs, in order."""
    made = []

    class Recording(Solver):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(verify, "Solver", Recording)
    return made


def _record_sat_checks(monkeypatch) -> list:
    """The arguments of every coverage check that takes the SAT query."""
    calls, sat_check = [], verify._uncovered_by_sat

    def recording(*args):
        calls.append(args)
        return sat_check(*args)

    monkeypatch.setattr(verify, "_uncovered_by_sat", recording)
    return calls


def _verify_on_sat(monkeypatch, spec, dl):
    """`verify_decision_list(spec, dl)` with `maxsat.TABLE_BITS` at 0, so
    that its coverage check takes the SAT query; the list itself was made
    at the default budget."""
    with monkeypatch.context() as m:
        m.setattr(maxsat, "TABLE_BITS", 0)
        return verify_decision_list(spec, dl)


def _corrupted(rng, dl):
    """`dl` with one random change: an output bit flipped, a guard index
    dropped or added, or a decision deleted."""
    decisions = list(dl.decisions)
    if not decisions:
        return dl
    di = rng.randrange(len(decisions))
    guard, output = set(decisions[di].guard), dict(decisions[di].output)
    change = rng.randrange(4)
    if change == 0 and output:
        v = rng.choice(sorted(output))
        output[v] = not output[v]
    elif change == 1 and guard:
        guard.discard(rng.choice(sorted(guard)))
    elif change == 2:
        guard.add(rng.choice(range(1, dl.spec.num_clauses + 1)))
    else:
        del decisions[di]
        return dataclasses.replace(dl, decisions=tuple(decisions))
    decisions[di] = Decision(frozenset(guard), output)
    return dataclasses.replace(dl, decisions=tuple(decisions))


def _compactly_numbered(clauses):
    """`clauses` with their variables renamed 1..n in ascending id."""
    var = {v: n for n, v in enumerate(sorted({abs(l) for c in clauses for l in c}), 1)}
    return [tuple(var[l] if l > 0 else -var[-l] for l in c) for c in clauses]


def test_grouped_soundness_scan_matches_the_per_clause_reference(monkeypatch):
    # specs whose clauses share few y-parts; synthesized lists, corrupted
    # ones and random ones.  The verifier must query exactly the reference
    # scan's pairs, in its order, up to and including the first unsound one,
    # each query numbered compactly.
    queries = []

    class Recording(Solver):
        def __init__(self):
            super().__init__()
            queries.append([])

        def add_clause(self, lits):
            queries[-1].append(tuple(lits))
            super().add_clause(lits)

    monkeypatch.setattr(verify, "Solver", Recording)
    rng = random.Random(461)
    kinds = {None: 0, SOUNDNESS: 0, COVERAGE: 0}
    for _ in range(300):
        spec = parse_qdimacs(repeated_ypart_spec_text(rng))
        out = back_and_forth(spec)
        if out.realizable and rng.random() < 0.7:
            dl = out.decision_list
            for _ in range(rng.randint(0, 2)):
                dl = _corrupted(rng, dl)
        else:
            dl = _random_list(rng, spec)
        pairs = oracles.soundness_pairs(spec, dl)
        first = oracles.first_unsound_pair(spec, dl)
        expected = pairs[: pairs.index(first) + 1] if first else pairs
        queries.clear()
        report = _verify_on_sat(monkeypatch, spec, dl)
        assert queries[: len(expected)] == [
            _compactly_numbered(
                [
                    *(spec.x_part(g) for g in sorted(dl.decisions[di - 1].guard)),
                    *((-l,) for l in spec.x_part(j)),
                ]
            )
            for di, j in expected
        ]
        if first:
            assert report.failure_kind == SOUNDNESS
            assert (report.decision_index, report.clause_index) == first
            assert len(queries) == len(expected)
        else:
            assert report.failure_kind != SOUNDNESS
            assert len(queries) == len(expected) + 1  # and the coverage query
        kinds[report.failure_kind] += 1
    assert min(kinds.values()) >= 30, kinds


def test_verifying_a_synthesized_list_builds_one_solver(monkeypatch):
    made = _record_solvers(monkeypatch)
    rng = random.Random(409)
    checked = 0
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=4, max_clauses=8))
        out = back_and_forth(spec)
        if not out.realizable:
            continue
        made.clear()
        assert _verify_on_sat(monkeypatch, spec, out.decision_list).verified
        assert len(made) == 1  # the coverage query; every soundness pair is refuted directly
        checked += 1
    assert checked >= 10


def test_coverage_query_has_one_selector_per_clause(monkeypatch):
    made = _record_solvers(monkeypatch)
    spec = parse_qdimacs(identity_qdimacs(10))
    dl = synth_by_mfs_enumeration(spec).decision_list
    assert len(dl) == 1024
    assert _verify_on_sat(monkeypatch, spec, dl).verified
    assert len(made) == 1
    assert made[0].nvars <= max(*spec.inputs, *spec.outputs) + spec.num_clauses


def _scattered(rng, spec):
    """`spec` with its variables renamed to random ids in a range four times
    as wide, inputs and outputs interleaved, so the inputs' own ids are far
    from 1..n and selectors sit well above them."""
    old = (*spec.inputs, *spec.outputs)
    return _renamed(spec, dict(zip(old, rng.sample(range(1, 4 * len(old) + 1), len(old)))))


def _renamed(spec, new):
    """`spec` with every variable v renamed to new[v]."""
    lines = [
        f"p cnf {max(new.values())} {spec.num_clauses}",
        " ".join(["a", *(str(new[v]) for v in spec.inputs), "0"]),
        " ".join(["e", *(str(new[v]) for v in spec.outputs), "0"]),
    ]
    for x_lits, y_lits in spec.clauses:
        lits = (new[l] if l > 0 else -new[-l] for l in x_lits + y_lits)
        lines.append(" ".join([*map(str, lits), "0"]))
    return parse_qdimacs("\n".join(lines) + "\n")


def _scattered_lists():
    """300 synthesized, corrupted and random lists, each with its spec: specs
    with scattered ids, and some of their components, which keep every
    input."""
    rng = random.Random(467)
    for _ in range(300):
        if rng.random() < 0.5:
            text = planted_spec_text(rng, 6, 4, 20)
        else:
            text = random_synth_spec_text(rng, max_clauses=14)
        spec = _scattered(rng, parse_qdimacs(text))
        if rng.random() < 0.3 and not spec.empty_ypart_indices:
            spec = rng.choice([c for c in partition_by_output_variables(spec) if c.clauses])
        out = back_and_forth(spec)
        if out.realizable and rng.random() < 0.7:
            dl = out.decision_list
            for _ in range(rng.randint(0, 2)):
                dl = _corrupted(rng, dl)
        else:
            dl = _random_list(rng, spec)
        yield spec, dl


def test_compact_coverage_query_matches_the_whole_id_reference(monkeypatch):
    # on `_scattered_lists`: same report, and every soundness query and the
    # coverage query make the same decisions and conflicts in no more
    # variables
    made = _record_solvers(monkeypatch)
    kinds = {None: 0, SOUNDNESS: 0, COVERAGE: 0}
    work = {"decisions": 0, "conflicts": 0}
    soundness_work = {"queries": 0, "decisions": 0, "conflicts": 0}
    for spec, dl in _scattered_lists():
        made.clear()
        report = _verify_on_sat(monkeypatch, spec, dl)
        expected, references = oracles.whole_id_verification(spec, dl)
        assert (
            report.status,
            report.failure_kind,
            report.decision_index,
            report.clause_index,
            report.witness_input,
        ) == expected
        assert len(made) == len(references)
        for solver, reference in zip(made, references):
            assert (solver.decisions, solver.conflicts) == (
                reference.decisions,
                reference.conflicts,
            )
            assert solver.nvars <= reference.nvars
        soundness = made if report.failure_kind == SOUNDNESS else made[:-1]
        soundness_work["queries"] += len(soundness)
        for solver in soundness:
            soundness_work["decisions"] += solver.decisions
            soundness_work["conflicts"] += solver.conflicts
        if report.failure_kind != SOUNDNESS:
            work["decisions"] += made[-1].decisions
            work["conflicts"] += made[-1].conflicts
        kinds[report.failure_kind] += 1
    assert min(kinds.values()) >= 30, kinds
    assert min(work.values()) >= 100, work
    assert soundness_work["queries"] >= 30, soundness_work


def _verdict(report):
    return report.status, report.failure_kind, report.decision_index, report.clause_index


def test_table_coverage_matches_the_sat_query_and_brute_force(monkeypatch):
    # on `_scattered_lists`, whose guards use at most 6 inputs: the default
    # budget checks coverage on the truth table, budget 0 with the SAT
    # query, and both give brute force's verdict; a table witness is the
    # lowest input on which no guard fires, read as an index whose bit i is
    # the i-th input the guards use, in ascending id (the others are false)
    sat_checks = _record_sat_checks(monkeypatch)
    kinds = {None: 0, SOUNDNESS: 0, COVERAGE: 0}
    for spec, dl in _scattered_lists():
        sat_checks.clear()
        report = verify_decision_list(spec, dl)
        assert not sat_checks
        verdict = _verdict(report)
        assert verdict == _verdict(_verify_on_sat(monkeypatch, spec, dl))
        assert len(sat_checks) == (report.failure_kind != SOUNDNESS)
        unsound = oracles.first_unsound_pair(spec, dl)
        inputs = list(oracles.assignments(spec.inputs))
        gap = any(not any(_fires(spec, d.guard, x) for d in dl.decisions) for x in inputs)
        if unsound:
            assert verdict[1:] == (SOUNDNESS, *unsound)
        elif gap:
            assert report.failure_kind == COVERAGE
            x = report.witness_input
            assert set(x) == set(spec.inputs)
            assert not any(_fires(spec, d.guard, x) for d in dl.decisions)
            used = sorted({abs(l) for d in dl.decisions for g in d.guard for l in spec.x_part(g)})
            candidates = (
                {v: v in used and a >> used.index(v) & 1 == 1 for v in spec.inputs}
                for a in range(1 << len(used))
            )
            assert x == next(
                c for c in candidates if not any(_fires(spec, d.guard, c) for d in dl.decisions)
            )
        else:
            assert report.verified
        kinds[report.failure_kind] += 1
    assert min(kinds.values()) >= 30, kinds


def test_the_maxsat_paths_fixture_reaches_both_coverage_checks(maxsat_paths, monkeypatch):
    # the verifier shares maxsat.TABLE_BITS: at the default budget every
    # coverage check below is a truth table, at budget 0 a SAT query.
    # table_fits(0, 0) holds even at budget 0, but the table's count of mask
    # operations is never 0 (the test for a gap is one), so no list takes
    # the table there, not even one without decisions or inputs
    sat_checks = _record_sat_checks(monkeypatch)
    rng = random.Random(487)
    specs = [parse_qdimacs(random_synth_spec_text(rng)) for _ in range(40)]
    lists = [(s, out.decision_list) for s in specs if (out := back_and_forth(s)).realizable]
    example = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 0\n")
    one = back_and_forth(example).decision_list
    assert [dec.guard for dec in one.decisions] == [frozenset()]
    lists += [(example, one), (example, dataclasses.replace(one, decisions=()))]
    assert len(lists) >= 20
    counts = []
    for bits in maxsat_paths():
        sat_checks.clear()
        reports = [verify_decision_list(s, dl) for s, dl in lists]
        assert [r.verified for r in reports] == [True] * (len(lists) - 1) + [False]
        assert reports[-1].witness_input == {1: False}
        counts.append((bits, len(sat_checks)))
    assert counts == [(maxsat.TABLE_BITS, 0), (0, len(lists))]


def _nested_xpart_spec(rng):
    """A specification over inputs 1..3 and outputs 4..6 whose x-parts are
    mostly positive literals, so that guards hold twin x-parts (one x-part
    under two y-parts), nested ones, one-literal ones and empty ones."""
    clauses = {}
    for _ in range(rng.randint(3, 12)):
        xs = sorted(rng.sample((1, 2, 3), rng.choice((0, 1, 1, 2, 2, 3))))
        ys = sorted(rng.sample((4, 5, 6), rng.randint(1, 2)))
        x_lits = tuple(v if rng.random() < 0.8 else -v for v in xs)
        clauses[x_lits, tuple(v if rng.random() < 0.5 else -v for v in ys)] = None
    return Specification((1, 2, 3), (4, 5, 6), tuple(clauses))


def _guard_shapes(spec, guard):
    """Which of twin, nested, one-literal and empty x-parts `guard` holds."""
    parts = [spec.x_part(g) for g in guard]
    return {
        "twin": len(set(parts)) < len(parts),
        "nested": any(set(p) < set(q) for p in parts for q in parts),
        "one-literal": any(len(p) == 1 for p in parts),
        "empty": () in parts,
    }


def test_reduced_coverage_query_agrees_with_brute_force():
    # the coverage query keeps only each guard's minimal distinct x-parts;
    # its verdict must still be brute-force coverage, a coverage-gap witness
    # must fire no guard, and correct lists must verify
    rng = random.Random(479)
    kinds = {None: 0, SOUNDNESS: 0, COVERAGE: 0}
    shapes = dict.fromkeys(("twin", "nested", "one-literal", "empty"), 0)
    correct = 0
    for _ in range(400):
        spec = _nested_xpart_spec(rng)
        out = back_and_forth(spec)
        shape = rng.random()
        if out.realizable and shape < 0.3:
            dl = out.decision_list
        elif out.realizable and shape < 0.7:
            dl = _corrupted(rng, out.decision_list)
        else:
            dl = _random_list(rng, spec)
        inputs = list(oracles.assignments(spec.inputs))
        unsound = oracles.first_unsound_pair(spec, dl)
        gap = any(not any(_fires(spec, d.guard, x) for d in dl.decisions) for x in inputs)
        report = verify_decision_list(spec, dl)
        if unsound:
            assert report.failure_kind == SOUNDNESS
        elif gap:
            assert report.failure_kind == COVERAGE
            x = report.witness_input
            assert set(x) == set(spec.inputs)
            assert not any(_fires(spec, d.guard, x) for d in dl.decisions)
        else:
            assert report.verified
            correct += dl is out.decision_list
        kinds[report.failure_kind] += 1
        if not unsound:
            for dec in dl.decisions:
                for name, held in _guard_shapes(spec, dec.guard).items():
                    shapes[name] += held
    assert min(kinds.values()) >= 40, kinds
    assert min(shapes.values()) >= 40, shapes
    assert correct >= 40


def test_coverage_query_is_sized_to_the_component(monkeypatch):
    # each component of the width-40 chain keeps all 40 inputs, but its
    # coverage query has its one input and no selector: its x-parts are the
    # one-literal (x) and (-x), each selected by its own negation
    made = _record_solvers(monkeypatch)
    spec = parse_qdimacs(identity_qdimacs(40))
    for comp in partition_by_output_variables(spec):
        made.clear()
        assert _verify_on_sat(monkeypatch, comp, back_and_forth(comp).decision_list).verified
        assert [s.nvars for s in made] == [1]


def test_soundness_query_is_sized_to_the_component(monkeypatch):
    # the last component of the width-40 chain has the one input 40; with
    # its first guard emptied, the first decision fires everywhere and its
    # output falsifies a clause outside the guard, whose query has one input
    made = _record_solvers(monkeypatch)
    comp = partition_by_output_variables(parse_qdimacs(identity_qdimacs(40)))[-1]
    assert comp.inputs[-1] == 40 and comp.outputs == (80,)
    dl = back_and_forth(comp).decision_list
    first, *rest = dl.decisions
    dl = dataclasses.replace(dl, decisions=(Decision(frozenset(), first.output), *rest))
    report = verify_decision_list(comp, dl)
    assert (report.failure_kind, report.decision_index) == (SOUNDNESS, 1)
    assert report.witness_input == {v: v == 40 and not first.output[80] for v in comp.inputs}
    assert [s.nvars for s in made] == [1]


def test_witness_query_is_sized_to_the_outputs(monkeypatch):
    # output ids up to 10^4, far above the count of outputs: the query
    # numbers the outputs its y-parts use 1..m
    made = _record_solvers(monkeypatch)
    rng = random.Random(503)
    for _ in range(30):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=3, max_clauses=8))
        ids = rng.sample(range(5, 10**4), len(spec.outputs))
        spec = _renamed(spec, {v: v for v in spec.inputs} | dict(zip(spec.outputs, ids)))
        table = brute_force_synthesize(spec)
        for values, output in table.entries.items():
            made.clear()
            x = dict(zip(table.inputs, values))
            assert witness_has_no_output(spec, x) == (output is None)
            assert [s.nvars <= len(spec.outputs) for s in made] == [True]


def test_brute_force_synthesize_example1(example1):
    table = brute_force_synthesize(example1)
    assert table.realizable
    assert len(table.entries) == 4
    for xbits, y in table.entries.items():
        x = dict(zip(example1.inputs, xbits))
        assert example1.evaluate({**x, **y})


def test_brute_force_synthesize_unrealizable(unrealizable4):
    table = brute_force_synthesize(unrealizable4)
    assert not table.realizable
    assert all(v is None for v in table.entries.values())


def test_brute_force_synthesize_zero_clauses():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 -2 0\n")
    table = brute_force_synthesize(spec)
    assert all(v == {2: False} for v in table.entries.values())


def test_brute_force_synthesize_limit():
    spec = parse_qdimacs(identity_qdimacs(10))
    with pytest.raises(LimitError):
        brute_force_synthesize(spec, limit=16)


def test_brute_force_mfs_mss_example1(example1):
    mfs, mss = brute_force_mfs_mss(example1)
    assert mfs == [frozenset({1}), frozenset({2, 3}), frozenset({3, 4})]
    assert mss == [frozenset({1, 3, 4}), frozenset({2, 3}), frozenset({2, 4})]


def test_brute_force_mfs_mss_single_clause():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    mfs, mss = brute_force_mfs_mss(spec)
    assert mfs == [frozenset({1})]
    assert mss == [frozenset({1})]


def test_brute_force_mfs_mss_identity2():
    spec = parse_qdimacs(identity_qdimacs(2))
    mfs, mss = brute_force_mfs_mss(spec)
    assert len(mfs) == 4 and len(mss) == 4


def test_brute_force_mfs_mss_limits():
    spec = parse_qdimacs(identity_qdimacs(12))
    with pytest.raises(LimitError):
        brute_force_mfs_mss(spec, clause_limit=20)
    with pytest.raises(LimitError):
        brute_force_mfs_mss(spec, clause_limit=24, var_limit=10)


def test_brute_force_agrees_with_subset_enumeration():
    rng = random.Random(419)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=9))
        mfs, mss = brute_force_mfs_mss(spec)
        x_parts = [spec.x_part(i) for i in spec.indices]
        y_parts = [spec.y_part(i) for i in spec.indices]
        assert mfs == oracles.subset_enum_mfs(x_parts)
        assert mss == oracles.subset_enum_mss(y_parts, spec.outputs)


def test_mfs_list_equals_mis_enumeration():
    rng = random.Random(421)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=12))
        mfs, _ = brute_force_mfs_mss(spec)
        enum = enumerate_mis(build_conflict_graph(spec), 100000)
        assert list(enum.sets) == mfs


def test_covering_mss_results_are_brute_force_mss():
    rng = random.Random(431)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=4, max_clauses=8))
        mfs_all, mss_all = brute_force_mfs_mss(spec)
        for mfs in mfs_all:
            got = covering_mss(spec, mfs, output_session(spec))
            if got is not None:
                assert got[0] in mss_all


def test_witness_has_no_output_exactly_where_brute_force_has_none():
    rng = random.Random(331)
    witnesses = 0
    for _ in range(60):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_out=3, max_clauses=8))
        table = brute_force_synthesize(spec)
        for values, output in table.entries.items():
            x = dict(zip(table.inputs, values))
            assert witness_has_no_output(spec, x) == (output is None)
            witnesses += output is None
    assert witnesses > 50
