"""Scaling contracts: the pipeline's work grows with the specification as
its algorithms say it should.

Each contract runs `run_pipeline` with the default configuration on two
families at widths W and 2W: the equivalence chain, and disjoint copies of
one planted component.  It bounds the ratio of exact work counts, never of
times, so a trap that sizes per-component work to the whole specification
fails here deterministically and on small inputs.  The totality check of
`evaluate_combined` is counted as calls, too.  Same-shape copies are
synthesized once and renamed for the rest, so the contracts that measure
synthesis per copy run on copies whose input polarities make each shape
distinct, and the same-shape ones count the synthesis calls (one at either
width) and the verifier calls (one per copy).  The verifier checks the
coverage of these lists on a truth table, with no solver, so the contracts
that count the verifier's solvers run with `maxsat.TABLE_BITS` at 0, where
it builds one coverage solver per component.
"""

import json
import random
from collections import Counter

import pytest

from bafsynth import cli, dlist, maxsat, sat, synth, verify
from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.model import parse_qdimacs
from bafsynth.synth import back_and_forth, partition_by_output_variables

from .conftest import identity_qdimacs, planted_spec_text
from .test_golden_pipeline import strip_ms

W = 100
COPIES = 20
# one planted component: 6 inputs, 3 outputs, 14 clauses, 5 of them
# subsumed, 4 recorded MSS and 4 decisions
PLANTED = parse_qdimacs(planted_spec_text(random.Random(6), 6, 3, 14))


def planted_copies_qdimacs(copies: int, flip: bool = False) -> str:
    """`copies` disjoint copies of PLANTED: the same inputs, and each copy's
    outputs renamed to a block of their own.  With `flip`, copy c also
    negates input i (1-based) wherever bit i-1 of c is set, so no two of
    the first 2^6 copies have the same shape."""
    m, n = len(PLANTED.inputs), len(PLANTED.outputs)
    rename = {y: j for j, y in enumerate(PLANTED.outputs)}
    lines = [f"p cnf {m + copies * n} {copies * PLANTED.num_clauses}"]
    lines.append("a " + " ".join(map(str, PLANTED.inputs)) + " 0")
    lines.append("e " + " ".join(str(m + 1 + j) for j in range(copies * n)) + " 0")
    for c in range(copies):
        for xs, ys in PLANTED.clauses:
            ins = [-l if flip and c >> (abs(l) - 1) & 1 else l for l in xs]
            out = [(m + 1 + c * n + rename[abs(l)]) * (1 if l > 0 else -1) for l in ys]
            lines.append(" ".join(map(str, [*ins, *out])) + " 0")
    return "\n".join(lines) + "\n"


def _measured_run(monkeypatch, text: str, components: int) -> dict:
    """Work counts of one default run on the QDIMACS `text`, which must
    split into `components` components."""
    made, calls = [], Counter()
    init, add_clause = sat.Solver.__init__, sat.Solver.add_clause

    def counting_init(self):
        init(self)
        made.append(self)

    def counting_add_clause(self, lits):
        calls["add_clause"] += 1
        add_clause(self, lits)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    class VerifierSolver(sat.Solver):
        def __init__(self):
            super().__init__()
            calls["verify_solvers"] += 1

    with monkeypatch.context() as m:
        m.setattr(sat.Solver, "__init__", counting_init)
        m.setattr(sat.Solver, "add_clause", counting_add_clause)
        m.setattr(verify, "Solver", VerifierSolver)
        m.setattr(synth, "back_and_forth", counted("synth", synth.back_and_forth))
        m.setattr(verify, "verify_decision_list", counted("verify", verify.verify_decision_list))
        result = run_pipeline(parse_qdimacs(text), RunConfig())
    assert result["verified"] and result["partitions"] == components
    dl_text = result.pop("dl_text")
    # the report as `synth --json` writes it, without the timing fields,
    # whose digits vary from run to run
    report = json.dumps(strip_ms(result), sort_keys=True, indent=2) + "\n"
    return {
        "nvars": sum(s.nvars for s in made),
        "add_clause_calls": calls["add_clause"],
        "synth_calls": calls["synth"],
        "verify_calls": calls["verify"],
        "verify_solvers": calls["verify_solvers"],
        "reused": sum(c["reuses"] is not None for c in result["components"]),
        "decisions": result["decisions"],
        "dl_bytes": len(dl_text.encode("utf-8")),
        "report_bytes": len(report.encode("utf-8")),
    }


def _runs(text, widths: tuple[int, int], table_bits: int | None = None) -> dict:
    """`_measured_run` of `text(w)` at each width w, with `maxsat.TABLE_BITS`
    set to `table_bits` unless it is None."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if table_bits is not None:
            monkeypatch.setattr(maxsat, "TABLE_BITS", table_bits)
        return {w: _measured_run(monkeypatch, text(w), w) for w in widths}


@pytest.fixture(scope="module")
def runs():
    return _runs(identity_qdimacs, (W, 2 * W))


@pytest.fixture(scope="module")
def sat_runs():
    # at budget 0 the verifier checks coverage with a SAT query per component
    return _runs(identity_qdimacs, (W, 2 * W), table_bits=0)


@pytest.fixture(scope="module")
def planted_runs():
    return _runs(planted_copies_qdimacs, (COPIES, 2 * COPIES))


@pytest.fixture(scope="module")
def planted_sat_runs():
    return _runs(planted_copies_qdimacs, (COPIES, 2 * COPIES), table_bits=0)


@pytest.mark.parametrize("measure", ["nvars", "add_clause_calls"])
def test_solver_work_grows_linearly(sat_runs, measure):
    # each component's solvers are sized to its one input and one output;
    # counted with the verifier's coverage check on its SAT query, one
    # solver per component
    small, large = sat_runs[W][measure], sat_runs[2 * W][measure]
    assert small >= W
    assert large <= 2.1 * small, (measure, small, large)


@pytest.mark.parametrize("measure", ["dl_bytes", "report_bytes"])
def test_written_output_grows_at_most_quadratically(runs, measure):
    # Quadratic until each component is projected onto its own inputs: every
    # component's document and report entry still lists all W inputs.  The
    # projection would make this linear, and the bound should then tighten
    # to about 2.1.
    small, large = runs[W][measure], runs[2 * W][measure]
    assert small >= W
    assert large <= 4.1 * small, (measure, small, large)


@pytest.fixture(scope="module")
def flipped_runs():
    return _runs(lambda w: planted_copies_qdimacs(w, flip=True), (COPIES, 2 * COPIES))


@pytest.mark.parametrize("measure", ["nvars", "add_clause_calls", "decisions"])
def test_planted_copies_grow_linearly(planted_runs, planted_sat_runs, measure):
    # each copy is its own component, sized to the copy and not to the
    # specification, and keeps the same 4 decisions; solver work is counted
    # with the verifier's coverage check on its SAT query, one solver per copy
    runs = planted_runs if measure == "decisions" else planted_sat_runs
    small, large = runs[COPIES][measure], runs[2 * COPIES][measure]
    assert small >= COPIES
    assert large <= 2.1 * small, (measure, small, large)


@pytest.mark.parametrize("measure", ["nvars", "add_clause_calls"])
def test_distinct_planted_copies_grow_linearly(flipped_runs, measure):
    # every copy has a shape of its own, so every one is synthesized
    assert [flipped_runs[w]["synth_calls"] for w in (COPIES, 2 * COPIES)] == [COPIES, 2 * COPIES]
    assert flipped_runs[COPIES]["reused"] == flipped_runs[2 * COPIES]["reused"] == 0
    small, large = flipped_runs[COPIES][measure], flipped_runs[2 * COPIES][measure]
    assert small >= COPIES
    assert large <= 2.1 * small, (measure, small, large)


@pytest.mark.parametrize("copies", [COPIES, 2 * COPIES])
def test_same_shape_copies_are_synthesized_once_and_each_verified(planted_runs, copies):
    run = planted_runs[copies]
    assert run["synth_calls"] == planted_runs[COPIES]["synth_calls"] == 1
    assert run["reused"] == copies - 1
    assert run["verify_calls"] == copies


@pytest.mark.parametrize("width", [W, 2 * W])
def test_chain_coverage_is_checked_without_a_verifier_solver(runs, sat_runs, width):
    # every component of the chain is verified, and its coverage check
    # fits the truth table, so the verifier builds no solver at the default
    # budget and one per component at budget 0
    assert runs[width]["verify_calls"] == sat_runs[width]["verify_calls"] == width
    assert runs[width]["verify_solvers"] == 0
    assert sat_runs[width]["verify_solvers"] == width


class KeysCountingInput(dict):
    """An input assignment that counts the `keys()` calls made on it: the
    totality check of `evaluate_combined`."""

    keys_calls = 0

    def keys(self):
        self.keys_calls += 1
        return super().keys()


@pytest.mark.parametrize("width", [W, 2 * W])
def test_evaluate_combined_checks_totality_once_per_call(width):
    # the chain's W component lists share one inputs tuple, whether they are
    # synthesized or parsed back from the written documents
    spec = parse_qdimacs(identity_qdimacs(width))
    comps = partition_by_output_variables(spec)
    synthesized = dlist.combine([back_and_forth(c).decision_list for c in comps], spec)
    text = "".join(map(dlist.serialize, synthesized))
    parsed = dlist.combine(dlist.parse_many(text, cli._specs_by_digest(spec)), spec)
    assert len(synthesized) == len(parsed) == width
    outputs = []
    for parts in (synthesized, parsed):
        x = KeysCountingInput((v, v % 3 == 0) for v in spec.inputs)
        outputs.append(dlist.evaluate_combined(parts, x))
        assert x.keys_calls == 1
    assert outputs[0] == outputs[1]
    assert spec.evaluate({**x, **outputs[0]})
