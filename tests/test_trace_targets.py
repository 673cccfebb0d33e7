"""Guard for the benchmark's tracer.

perfbench/run.py traces the program by replacing module and class
attributes by name.  A refactor that deletes or renames one of them would
only make the benchmark print `perfbench: no ... to trace` and lose that
layer; this test fails instead.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from bafsynth import cli, dlist, graph, maxsat, model, sat, synth, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_exists():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run

    program = SimpleNamespace(
        cli=cli, dlist=dlist, graph=graph, maxsat=maxsat, model=model, sat=sat,
        synth=synth, verify=verify,
    )
    targets = run.trace_targets(program)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in targets
        if getattr(owner, attr, None) is None
    ]
    assert not missing
    assert len(targets) > 20
