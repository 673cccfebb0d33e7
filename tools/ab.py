"""Time two bafsynth checkouts against each other in one process.

    python3 tools/ab.py A B --workload NAME [--seed N] [--passes P]

A and B are checkout roots.  Each one's `src/bafsynth` is imported under its
own module name (`bafsynth_a`, `bafsynth_b`), so both run in this
interpreter and see the same host at nearly the same moments; separate
processes on a busy host can differ by a third.  The corpus is
`gen.WORKLOADS[NAME](N)` from this checkout's perfbench, which is only read,
and each operation is perfbench's own (`run.OPS`).  A pass parses every
instance (untimed) and runs its operations, each after a `gc.collect()`;
the pass time is the sum of the operation times.  Passes alternate between
the sides, A first on even passes and B first on odd ones.  The output is
each side's median pass time and its summed `decisions` over the synth
operations of one pass, the ratio B / A of the medians, and the number of
passes in which B was faster.  The decision count is deterministic, so a
change of list size shows next to the timing; a side whose count differs
between passes is an error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import run  # noqa: E402


def load(root: Path, name: str) -> SimpleNamespace:
    """`root`'s bafsynth package imported as `name`, with the modules the
    operations use."""
    pkg = root / "src" / "bafsynth"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"ab: no bafsynth sources under {root}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(
        **{m: importlib.import_module(f"{name}.{m}") for m in ("cli", "graph", "model")}
    )


def one_pass(p: SimpleNamespace, corpus: list[tuple[str, tuple[str, ...]]]) -> tuple[float, int]:
    """Seconds spent in the operations of one pass over `corpus`, and the
    decisions of its synth operations' reports."""
    total, decisions = 0.0, 0
    for text, ops in corpus:
        spec = p.model.parse_qdimacs(text)
        for kind in ops:
            gc.collect()
            t0 = perf_counter()
            result = run.OPS[kind](p, spec)
            total += perf_counter() - t0
            if isinstance(result, dict):  # a synth report
                decisions += result["decisions"]
    return total, decisions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout root of side A")
    ap.add_argument("b", type=Path, help="checkout root of side B")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=20)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    sides = {"A": load(args.a.resolve(), "bafsynth_a"), "B": load(args.b.resolve(), "bafsynth_b")}
    corpus = [(inst.qdimacs(), inst.ops) for inst in gen.WORKLOADS[args.workload](args.seed)]
    times: dict[str, list[float]] = {"A": [], "B": []}
    counts: dict[str, set[int]] = {"A": set(), "B": set()}
    for k in range(args.passes):
        for side in ("AB" if k % 2 == 0 else "BA"):
            t, decisions = one_pass(sides[side], corpus)
            times[side].append(t)
            counts[side].add(decisions)
    for side, seen in counts.items():
        if len(seen) != 1:
            sys.exit(f"ab: side {side} made {sorted(seen)} decisions in different passes")
    med = {side: statistics.median(ts) for side, ts in times.items()}
    dec = {side: seen.pop() for side, seen in counts.items()}
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.passes} passes")
    print(f"A {args.a}: median {med['A']:.6f} s, {dec['A']} decisions per pass")
    print(f"B {args.b}: median {med['B']:.6f} s, {dec['B']} decisions per pass")
    print(f"B / A = {med['B'] / med['A']:.4f}; B faster in {wins} of {args.passes} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
