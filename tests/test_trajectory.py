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


def _canned_output(workload: str, seed: int, trace: int) -> str:
    """What run.py prints for one run: a summary line, one line per
    metric, and the JSON object.  Every metric reads seed times its index
    in BENCHMARK.json's end-to-end list, or in its per-layer list for a
    traced run."""
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    metrics = {name: {"value": seed * k, "unit": "s"} for k, name in enumerate(names, 1)}
    rounds = 10 + seed + trace
    lines = [
        f"workload {workload}  seed {seed}  rounds {rounds}  operations/round 4  "
        f"host factor {1 + seed / 10:.3f}  untraced wall corpus 0.0500 s"
    ]
    lines += [f"  {name:24s} {m['value']:>14.6g} s" for name, m in metrics.items()]
    doc = {"correct": True, "attempted": 4 * rounds, "failed": 0, "metrics": metrics}
    return "\n".join([*lines, json.dumps(doc)]) + "\n"


def test_the_trajectory_file_holds_each_metrics_median_and_quartiles(tmp_path, monkeypatch):
    tool = _load_trajectory()
    canned = tmp_path / "runs"
    canned.mkdir()
    for w in BENCHMARK["workloads"]:
        for seed in tool.SEEDS:
            for trace in (0, 1):
                text = _canned_output(w["name"], seed, trace)
                (canned / f"{w['name']}-{seed}-{trace}.txt").write_text(text)
    calls = []

    def replay(root, workload, seed, seconds, trace):
        calls.append((root, workload, seed, seconds, trace))
        return (canned / f"{workload}-{seed}-{trace}.txt").read_text()

    monkeypatch.setattr(tool, "run_once", replay)
    out = tmp_path / "BENCH_7.json"
    assert tool.main(["--pr", "7", "--seconds", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert calls == [
        (ROOT, w, seed, seconds, trace)
        for w in workloads
        for seed in (1, 2, 3, 4, 5)
        for trace, seconds in ((0, 3.0), (1, 1.0))
    ]
    assert doc["pr"] == 7 and doc["seconds"] == 3.0 and doc["seeds"] == [1, 2, 3, 4, 5]
    assert set(doc) >= {"commit", "modified", "python"}
    for key, kind in (("workloads", "end_to_end"), ("layers", "per_layer")):
        assert sorted(doc[key]) == sorted(workloads)
        names = [m["name"] for m in BENCHMARK[kind]]
        for w in workloads:
            metrics = doc[key][w]
            assert sorted(metrics) == sorted(names)
            for k, name in enumerate(names, 1):
                # seeds 1..5 give k, 2k, .., 5k: quartiles 1.5k and 4.5k
                assert metrics[name] == {"median": 3 * k, "q1": 1.5 * k, "q3": 4.5 * k}
    assert doc["runs"] == [
        {
            "workload": w,
            "seed": seed,
            "trace": trace,
            "rounds": 10 + seed + trace,
            "host_factor": 1 + seed / 10,
            "correct": True,
            "attempted": 4 * (10 + seed + trace),
            "failed": 0,
        }
        for w in workloads
        for seed in (1, 2, 3, 4, 5)
        for trace in (0, 1)
    ]


def test_a_tiny_traced_run_reports_every_per_layer_metric():
    tool = _load_trajectory()
    record = tool.parse_output(tool.run_once(ROOT, "graph-structure", 1, 0.1, 1))
    assert record["correct"] and record["failed"] == 0 and record["rounds"] >= 2
    assert set(record["metrics"]) >= {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["metrics"]["graph.build_calls"] > 0


def test_a_run_without_a_summary_line_is_an_error():
    with pytest.raises(ValueError, match="no summary line"):
        _load_trajectory().parse_output('{"correct": true}\n')
