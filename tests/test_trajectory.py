"""tools/trajectory.py on canned perfbench/run.py output."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "tools" / "trajectory.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", TRAJECTORY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_output(workload: str, seed: int) -> str:
    """What run.py prints for one untraced run: a summary line, one line
    per metric, and the JSON object.  Every metric reads seed times its
    index in BENCHMARK.json's end-to-end list."""
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    metrics = {name: {"value": seed * k, "unit": "s"} for k, name in enumerate(names, 1)}
    lines = [
        f"workload {workload}  seed {seed}  rounds {10 + seed}  operations/round 4  "
        f"host factor {1 + seed / 10:.3f}  untraced wall corpus 0.0500 s"
    ]
    lines += [f"  {name:24s} {m['value']:>14.6g} s" for name, m in metrics.items()]
    doc = {"correct": True, "attempted": 4 * (10 + seed), "failed": 0, "metrics": metrics}
    return "\n".join([*lines, json.dumps(doc)]) + "\n"


def test_the_trajectory_file_holds_each_metrics_median_and_quartiles(tmp_path, monkeypatch):
    tool = _load_trajectory()
    canned = tmp_path / "runs"
    canned.mkdir()
    for w in BENCHMARK["workloads"]:
        for seed in tool.SEEDS:
            (canned / f"{w['name']}-{seed}.txt").write_text(_canned_output(w["name"], seed))
    calls = []

    def replay(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return (canned / f"{workload}-{seed}.txt").read_text()

    monkeypatch.setattr(tool, "run_once", replay)
    out = tmp_path / "BENCH_7.json"
    assert tool.main(["--pr", "7", "--seconds", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert calls == [(ROOT, w, seed, 2.0) for w in workloads for seed in (1, 2, 3, 4, 5)]
    assert doc["pr"] == 7 and doc["seconds"] == 2.0 and doc["seeds"] == [1, 2, 3, 4, 5]
    assert set(doc) >= {"commit", "modified", "python"}
    assert sorted(doc["workloads"]) == sorted(workloads)
    for w in workloads:
        metrics = doc["workloads"][w]
        assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
        for k, name in enumerate((m["name"] for m in BENCHMARK["end_to_end"]), 1):
            # seeds 1..5 give k, 2k, .., 5k: quartiles 1.5k and 4.5k
            assert metrics[name] == {"median": 3 * k, "q1": 1.5 * k, "q3": 4.5 * k}
    assert doc["runs"] == [
        {
            "workload": w,
            "seed": seed,
            "rounds": 10 + seed,
            "host_factor": 1 + seed / 10,
            "correct": True,
            "attempted": 4 * (10 + seed),
            "failed": 0,
        }
        for w in workloads
        for seed in (1, 2, 3, 4, 5)
    ]


def test_a_run_without_a_summary_line_is_an_error():
    with pytest.raises(ValueError, match="no summary line"):
        _load_trajectory().parse_output('{"correct": true}\n')
