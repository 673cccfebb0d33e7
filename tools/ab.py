"""Time two bafsynth checkouts against each other in one process.

    python3 tools/ab.py A B --workload NAME [--seed N] [--passes P]
    python3 tools/ab.py A B --shape MxNxK [--shape MxNxK ...] [--mode M] [--passes P]
    python3 tools/ab.py A B --random MxNxK[:SEED] [--random ...] [--mode M] [--passes P]

A and B are checkout roots.  Each one's `src/bafsynth` is imported under its
own module name (`bafsynth_a`, `bafsynth_b`), so both run in this
interpreter and see the same host at nearly the same moments; separate
processes on a busy host can differ by a third.  The corpus is
`gen.WORKLOADS[NAME](N)` from this checkout's perfbench, which is only read.
With `--shape` in place of `--workload` it is one realizable planted spec
per shape, `gen.planted(random.Random(7), M, N, K, False)` with M inputs, N
outputs and K clauses, to time components wider than the workloads' (the
seed does not apply).  gen.planted draws until it has K distinct clauses,
so a K above `planted_clauses(M, N)`, a bound on the distinct clauses it
can form from M and N alone, is refused with exit status 2.  A K below the
bound can still hang when the planted function allows fewer clauses; only
a bound on gen.planted's draws would turn that into an error.  With
`--random` it is one spec per shape from `qbfgen.random_2qbf(SEED, M, N, K)`
(SEED 0 when left out), the random 2QBF family of tools/qbfgen.py.  Both
corpora are synthesized with `--mode`: back-and-forth (the default) runs
perfbench's `synth` operation, and mfs-enum its `synth-mfs-enum`.  Each
operation is perfbench's own (`run.OPS`).  A pass parses every instance
(untimed) and runs its operations, each after a `gc.collect()`; the pass
time is the sum of the operation times.  Passes alternate between the
sides, A first on even passes and B first on odd ones.  One pass of
perfbench's host-speed kernel (`calib.pass_s`) is timed before the first
pass and after every pass, and each pass time is divided by its host
factor, the mean of the kernel times right before and after it over
`calib.REF_PASS_S`, as perfbench does for its operations: a normalized time
reads in seconds at the reference host speed, so a phase in which the host
runs slower moves the kernel with the pass.  The output is each side's
median normalized pass time and its summed `decisions` over the synth
operations of one pass, the ratio B / A of the medians, and the number of
passes in which B was faster.  The decision count is deterministic, so a
change of list size shows next to the timing; a side whose count differs
between passes is an error.  The last line is the verdict on the
normalized pass times (see `verdict`): B faster, B slower, within noise, or
none below 10 passes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import random
import re
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import calib  # noqa: E402
import gen  # noqa: E402
import qbfgen  # noqa: E402
import run  # noqa: E402

# perfbench's synth operation for each --mode
MODE_OPS = {"back-and-forth": "synth", "mfs-enum": "synth-mfs-enum"}


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


def normalize(t: float, before: float, after: float) -> float:
    """Pass time `t` at the reference host speed: divided by the host
    factor, the mean of the kernel times `before` and `after` it over
    `calib.REF_PASS_S`."""
    return t * calib.REF_PASS_S / ((before + after) / 2)


def verdict(a: list[float], b: list[float]) -> str:
    """The reading of pass times `a` and `b`, where a[k] and b[k] come from
    the same pass.  B is faster (slower) when it wins (loses) at least 9 of
    every 10 passes, ties counting for neither, and its median is lower
    (higher) than A's by more than the distance between A's quartiles."""
    if len(a) < 10:
        return "too few passes for a verdict"
    q1, _, q3 = statistics.quantiles(a, n=4)
    gap = statistics.median(b) - statistics.median(a)
    if 10 * sum(y < x for x, y in zip(a, b)) >= 9 * len(a) and -gap > q3 - q1:
        return "B faster"
    if 10 * sum(y > x for x, y in zip(a, b)) >= 9 * len(a) and gap > q3 - q1:
        return "B slower"
    return "within noise"


def planted_clauses(m: int, n: int) -> int:
    """An upper bound on the distinct clauses gen.planted can form over m
    inputs and n outputs, whatever function it plants.  A clause's x-part
    holds the negated image -img of its first output literal and up to two
    literals of other inputs: s = 1 + 2(m-1) + 4 C(m-1, 2) x-parts per
    image.  Each of the 2n one-literal y-parts has one image, and each of
    the 4 C(n, 2) two-literal y-parts has at most two, one per literal."""
    s = 1 + 2 * (m - 1) + 2 * (m - 1) * (m - 2)
    return (2 * n + 4 * n * (n - 1)) * s


def shape(text: str) -> tuple[int, int, int]:
    """`MxNxK` as (M, N, K).  gen.planted samples up to two inputs and two
    outputs for a clause, so M and N must be at least 2, and it cannot form
    more than `planted_clauses(M, N)` distinct clauses."""
    got = re.fullmatch(r"(\d+)x(\d+)x(\d+)", text)
    dims = tuple(map(int, got.groups())) if got else (0, 0, 0)
    if min(dims[:2]) < 2 or dims[2] < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not MxNxK with M, N >= 2 and K >= 1")
    bound = planted_clauses(*dims[:2])
    if dims[2] > bound:
        raise argparse.ArgumentTypeError(
            f"{text!r} asks for more than the {bound} distinct clauses"
            f" that {dims[0]} inputs and {dims[1]} outputs allow"
        )
    return dims


def shape_corpus(shapes: list[tuple[int, int, int]]) -> list[gen.Instance]:
    """One planted realizable spec per shape, each from its own seed-7 rng."""
    return [gen.planted(random.Random(7), m, n, k, False) for m, n, k in shapes]


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
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    what.add_argument("--shape", type=shape, action="append", help="MxNxK, repeatable")
    what.add_argument(
        "--random", type=qbfgen.shape, action="append", help="MxNxK[:SEED], repeatable"
    )
    ap.add_argument("--seed", type=int, default=1, help="the workload's seed")
    ap.add_argument("--mode", choices=sorted(MODE_OPS), help="synthesis mode of --shape or --random")
    ap.add_argument("--passes", type=int, default=20)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    if args.workload and args.mode:
        ap.error("--mode applies to --shape and --random only")
    sides = {"A": load(args.a.resolve(), "bafsynth_a"), "B": load(args.b.resolve(), "bafsynth_b")}
    ops = (MODE_OPS[args.mode or "back-and-forth"],)
    if args.shape:
        corpus = [(inst.qdimacs(), ops) for inst in shape_corpus(args.shape)]
        title = "shapes " + " ".join("x".join(map(str, dims)) for dims in args.shape)
    elif args.random:
        corpus = [(qbfgen.random_2qbf(seed, m, n, k), ops) for m, n, k, seed in args.random]
        title = "random " + " ".join(f"{m}x{n}x{k}:{seed}" for m, n, k, seed in args.random)
    else:
        instances = gen.WORKLOADS[args.workload](args.seed)
        corpus = [(inst.qdimacs(), inst.ops) for inst in instances]
        title = f"workload {args.workload}, seed {args.seed}"
    if args.mode:
        title += f", {args.mode}"
    times: dict[str, list[float]] = {"A": [], "B": []}
    counts: dict[str, set[int]] = {"A": set(), "B": set()}
    kernel = calib.pass_s()
    for k in range(args.passes):
        for side in ("AB" if k % 2 == 0 else "BA"):
            t, decisions = one_pass(sides[side], corpus)
            before, kernel = kernel, calib.pass_s()
            times[side].append(normalize(t, before, kernel))
            counts[side].add(decisions)
    for side, seen in counts.items():
        if len(seen) != 1:
            sys.exit(f"ab: side {side} made {sorted(seen)} decisions in different passes")
    med = {side: statistics.median(ts) for side, ts in times.items()}
    dec = {side: seen.pop() for side, seen in counts.items()}
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"{title}, {args.passes} passes")
    print(f"A {args.a}: median {med['A']:.6f} s, {dec['A']} decisions per pass")
    print(f"B {args.b}: median {med['B']:.6f} s, {dec['B']} decisions per pass")
    print(f"B / A = {med['B'] / med['A']:.4f}; B faster in {wins} of {args.passes} passes")
    print(f"verdict: {verdict(times['A'], times['B'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
