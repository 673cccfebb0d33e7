import dataclasses
import random

import pytest

from bafsynth.dlist import Decision, DecisionList, build_decision_list
from bafsynth.errors import LimitError
from bafsynth.graph import build_conflict_graph, enumerate_mis
from bafsynth.model import parse_qdimacs
from bafsynth import verify
from bafsynth.sat import Solver
from bafsynth.synth import back_and_forth, covering_mss, synth_by_mfs_enumeration
from bafsynth.verify import COVERAGE, SOUNDNESS, verify_decision_list

from .conftest import identity_qdimacs, random_spec_text
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
    assert all(example1.x_part(g).evaluate(x) for g in dec.guard)
    j = report.clause_index
    assert not example1.x_part(j).evaluate(x)
    assert not example1.y_part(j).evaluate(dec.output)


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
        assert not all(example1.x_part(g).evaluate(x) for g in dec.guard)
    # brute force: the surviving guard fails exactly on these two inputs
    uncovered = [
        xa
        for xa in oracles.assignments(example1.inputs)
        if not all(example1.x_part(g).evaluate(xa) for g in broken.decisions[0].guard)
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
                if all(spec.x_part(g).evaluate(x) for g in dec.guard):
                    fired = dec
                    break
            if fired is None or not spec.evaluate({**x, **fired.output}):
                exhaustive_ok = False
        assert report.verified == exhaustive_ok


def _fires(spec, guard, x):
    return all(spec.x_part(g).evaluate(x) for g in guard)


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
            falsified = [i for i in spec.indices if not spec.y_part(i).evaluate(output)]
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
        unsound = [
            (di, j)
            for di, dec in enumerate(dl.decisions, 1)
            for j in spec.indices
            if not spec.y_part(j).evaluate(dec.output)
            and any(_fires(spec, dec.guard, x) and not spec.x_part(j).evaluate(x) for x in inputs)
        ]
        gap = any(not any(_fires(spec, d.guard, x) for d in dl.decisions) for x in inputs)
        report = verify_decision_list(spec, dl)
        x = report.witness_input
        if unsound:
            assert report.failure_kind == SOUNDNESS
            di, j = unsound[0]
            assert (report.decision_index, report.clause_index) == (di, j)
            dec = dl.decisions[di - 1]
            assert _fires(spec, dec.guard, x)
            assert not spec.x_part(j).evaluate(x)
            assert not spec.y_part(j).evaluate(dec.output)
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
        assert verify_decision_list(spec, out.decision_list).verified
        assert len(made) == 1  # the coverage query; every soundness pair is refuted directly
        checked += 1
    assert checked >= 10


def test_coverage_query_has_one_selector_per_clause(monkeypatch):
    made = _record_solvers(monkeypatch)
    spec = parse_qdimacs(identity_qdimacs(10))
    dl = synth_by_mfs_enumeration(spec).decision_list
    assert len(dl) == 1024
    assert verify_decision_list(spec, dl).verified
    assert len(made) == 1
    assert made[0].nvars <= max(*spec.inputs, *spec.outputs) + spec.num_clauses


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
        x_parts = [spec.x_part(i).lits for i in spec.indices]
        y_parts = [spec.y_part(i).lits for i in spec.indices]
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
            got = covering_mss(spec, mfs)
            if got is not None:
                assert got[0] in mss_all
