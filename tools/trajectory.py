"""Record one point of the perf trajectory: perfbench's end-to-end and
per-layer metrics over a fixed seed set, written to BENCH_<pr>.json.

    python3 tools/trajectory.py --pr N [--root DIR] [--seconds S] [--out PATH]

For every workload of BENCHMARK.json and seeds 1-5, one after another, it
runs `perfbench/run.py --workload W --seed S --seconds S --trace 0` of the
checkout at DIR (default: this one), which is only read, and then the same
with `--trace 1` for a third of the seconds.  `--seconds` defaults to
BENCHMARK.json's `run_seconds`.  The file, written at the root of this
checkout unless `--out` names it, holds for each workload and end-to-end
metric the median and quartiles of the seeds' untraced values (perfbench
normalizes its times to a reference host speed) under `workloads`, and the
same for each per-layer metric of the traced runs under `layers` (traced
times are not comparable with untraced ones; files written before the
traced runs have no `layers`); for each run its seed, `trace`, host factor
and rounds (from run.py's summary line) and its `correct`, `attempted` and
`failed`; and the Python version, DIR's commit (`git rev-parse HEAD`) and
whether DIR's tracked files differ from that commit.  A run that exits
non-zero stops the tool before any file is written.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
TRACED_SHARE = 3  # a traced run lasts 1/TRACED_SHARE of the untraced run's seconds
_SUMMARY_RE = re.compile(r"rounds (\d+) .*host factor ([0-9.]+)")


def parse_output(text: str) -> dict:
    """A run's record from run.py's standard output: the rounds and host
    factor of its summary line and the JSON object of its last line."""
    lines = text.splitlines()
    summary = next((m for line in lines if (m := _SUMMARY_RE.search(line))), None)
    if summary is None:
        raise ValueError("run.py printed no summary line")
    doc = json.loads(lines[-1])
    return {
        "rounds": int(summary.group(1)),
        "host_factor": float(summary.group(2)),
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """The median and quartiles of `values`, with `statistics.quantiles`'
    default method, as `tools/ab.py` reads its passes."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """Standard output of one run.py run of the checkout `root`, traced
    when `trace` is 1."""
    run = str(root / "perfbench" / "run.py")
    cmd = [sys.executable, run, "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"trajectory: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _git(root: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--seconds", type=float, default=None, help="seconds per untraced run.py run")
    ap.add_argument("--out", type=Path, default=None, help="file to write")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    workloads, layers, runs = {}, {}, []
    for w in (w["name"] for w in bench["workloads"]):
        untraced, traced = [], []
        for seed in SEEDS:
            for trace, values in ((0, untraced), (1, traced)):
                span = seconds / TRACED_SHARE if trace else seconds
                record = parse_output(run_once(root, w, seed, span, trace))
                values.append(record.pop("metrics"))
                runs.append({"workload": w, "seed": seed, "trace": trace, **record})
        workloads[w] = {name: spread([v[name] for v in untraced]) for name in end_to_end}
        layers[w] = {name: spread([v[name] for v in traced]) for name in per_layer}
    commit = _git(root, "rev-parse", "HEAD")
    doc = {
        "pr": args.pr,
        "commit": commit,
        "modified": commit and bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": workloads,
        "layers": layers,
        "runs": runs,
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
