"""Guard for the benchmark's tracer.

perfbench/run.py traces the program by replacing module and class
attributes by name.  A refactor that deletes or renames one of them would
only make the benchmark print `perfbench: no ... to trace` and lose that
layer; these tests fail instead.  Some trace hooks also read the traced
functions' results, so one traced round runs them.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

from bafsynth import cli, dlist, graph, maxsat, model, sat, synth, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402  (perfbench's own modules)
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

PROGRAM = SimpleNamespace(
    cli=cli, dlist=dlist, graph=graph, maxsat=maxsat, model=model, sat=sat,
    synth=synth, verify=verify,
)


def test_every_traced_attribute_exists():
    targets = run.trace_targets(PROGRAM)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in targets
        if getattr(owner, attr, None) is None
    ]
    assert not missing
    assert len(targets) > 20


def test_a_traced_graph_structure_round_reads_each_operations_mfs_count():
    # `analyze`, then `synth-mfs-enum`: the hooks read the clique count and
    # the enumerated sets, 2^2 on this instance
    inst = gen._relabel(gen.chain_matching(6, 2), random.Random(3))
    bench = run.Run(PROGRAM, [inst], seed=0)
    tracer = Tracer()
    tracer.install(run.trace_targets(PROGRAM))
    try:
        traced = bench.round(tracer)
    finally:
        tracer.uninstall()
    assert bench.failed == 0 and bench.correct
    assert [counts["graph.mfs_found"] for _, counts in traced["layers"]] == [4, 4]
