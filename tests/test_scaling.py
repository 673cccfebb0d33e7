"""Scaling contracts: the pipeline's work grows with the specification as
its algorithms say it should.

Each contract runs `run_pipeline` with the default configuration on two
families at widths W and 2W: the equivalence chain, and disjoint copies of
one planted component.  It bounds the ratio of exact work counts, never of
times, so a trap that sizes per-component work to the whole specification
fails here deterministically and on small inputs.
"""

import json
import random

import pytest

from bafsynth import sat
from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.model import parse_qdimacs

from .conftest import identity_qdimacs, planted_spec_text
from .test_golden_pipeline import _strip_ms

W = 100
COPIES = 20
# one planted component: 6 inputs, 3 outputs, 14 clauses, 5 recorded MSS
# and 4 decisions
PLANTED = parse_qdimacs(planted_spec_text(random.Random(6), 6, 3, 14))


def planted_copies_qdimacs(copies: int) -> str:
    """`copies` disjoint copies of PLANTED: the same inputs, and each copy's
    outputs renamed to a block of their own."""
    m, n = len(PLANTED.inputs), len(PLANTED.outputs)
    rename = {y: j for j, y in enumerate(PLANTED.outputs)}
    lines = [f"p cnf {m + copies * n} {copies * PLANTED.num_clauses}"]
    lines.append("a " + " ".join(map(str, PLANTED.inputs)) + " 0")
    lines.append("e " + " ".join(str(m + 1 + j) for j in range(copies * n)) + " 0")
    for c in range(copies):
        for xs, ys in PLANTED.clauses:
            out = [(m + 1 + c * n + rename[abs(l)]) * (1 if l > 0 else -1) for l in ys]
            lines.append(" ".join(map(str, [*xs, *out])) + " 0")
    return "\n".join(lines) + "\n"


def _measured_run(monkeypatch, text: str, components: int) -> dict:
    """Work counts of one default run on the QDIMACS `text`, which must
    split into `components` components."""
    made, calls = [], [0]
    init, add_clause = sat.Solver.__init__, sat.Solver.add_clause

    def counting_init(self):
        init(self)
        made.append(self)

    def counting_add_clause(self, lits):
        calls[0] += 1
        add_clause(self, lits)

    with monkeypatch.context() as m:
        m.setattr(sat.Solver, "__init__", counting_init)
        m.setattr(sat.Solver, "add_clause", counting_add_clause)
        result = run_pipeline(parse_qdimacs(text), RunConfig())
    assert result["verified"] and result["partitions"] == components
    dl_text = result.pop("dl_text")
    # the report as `synth --json` writes it, without the timing fields,
    # whose digits vary from run to run
    report = json.dumps(_strip_ms(result), sort_keys=True, indent=2) + "\n"
    return {
        "nvars": sum(s.nvars for s in made),
        "add_clause_calls": calls[0],
        "decisions": result["decisions"],
        "dl_bytes": len(dl_text.encode("utf-8")),
        "report_bytes": len(report.encode("utf-8")),
    }


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield {w: _measured_run(monkeypatch, identity_qdimacs(w), w) for w in (W, 2 * W)}


@pytest.fixture(scope="module")
def planted_runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield {
            w: _measured_run(monkeypatch, planted_copies_qdimacs(w), w)
            for w in (COPIES, 2 * COPIES)
        }


@pytest.mark.parametrize("measure", ["nvars", "add_clause_calls"])
def test_solver_work_grows_linearly(runs, measure):
    # each component's solvers are sized to its one input and one output
    small, large = runs[W][measure], runs[2 * W][measure]
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


@pytest.mark.parametrize("measure", ["nvars", "add_clause_calls", "decisions"])
def test_planted_copies_grow_linearly(planted_runs, measure):
    # each copy is its own component, sized to the copy and not to the
    # specification, and keeps the same 4 decisions
    small, large = planted_runs[COPIES][measure], planted_runs[2 * COPIES][measure]
    assert small >= COPIES
    assert large <= 2.1 * small, (measure, small, large)
