"""Scaling contracts: the pipeline's work grows with the specification as
its algorithms say it should.

Each contract runs `run_pipeline` with the default configuration on the
equivalence chain at widths W and 2W and bounds the ratio of exact work
counts, never of times, so a trap that sizes per-component work to the
whole specification fails here deterministically and on small inputs.
"""

import json

import pytest

from bafsynth import sat
from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.model import parse_qdimacs

from .conftest import identity_qdimacs
from .test_golden_pipeline import _strip_ms

W = 100


def _measured_run(monkeypatch, width: int) -> dict:
    """Work counts of one default run on the width-`width` chain."""
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
        result = run_pipeline(parse_qdimacs(identity_qdimacs(width)), RunConfig())
    assert result["verified"] and result["partitions"] == width
    dl_text = result.pop("dl_text")
    # the report as `synth --json` writes it, without the timing fields,
    # whose digits vary from run to run
    report = json.dumps(_strip_ms(result), sort_keys=True, indent=2) + "\n"
    return {
        "nvars": sum(s.nvars for s in made),
        "add_clause_calls": calls[0],
        "dl_bytes": len(dl_text.encode("utf-8")),
        "report_bytes": len(report.encode("utf-8")),
    }


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield {w: _measured_run(monkeypatch, w) for w in (W, 2 * W)}


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
