"""Smoke tests for tools/ab.py, the in-process A/B timer."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


def _ab(*args):
    return subprocess.run(
        [sys.executable, str(AB), *args], capture_output=True, text=True, timeout=120
    )


def test_ab_times_a_checkout_against_itself():
    res = _ab(str(ROOT), str(ROOT), "--workload", "equiv-chain", "--passes", "2")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "workload equiv-chain, seed 1, 2 passes"
    assert lines[1].startswith("A ") and lines[2].startswith("B ")
    # the chain's 300 outputs get two decisions each on both sides
    assert lines[1].endswith(" s, 600 decisions per pass")
    assert lines[2].endswith(" s, 600 decisions per pass")
    assert lines[3].startswith("B / A = ") and lines[3].endswith("of 2 passes")


def test_ab_counts_the_decisions_of_synth_operations_only():
    # graph-structure runs `analyze` and an mfs-enum `synth` on each
    # instance; only the synth reports have decisions
    res = _ab(str(ROOT), str(ROOT), "--workload", "graph-structure", "--passes", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].endswith(" s, 61 decisions per pass")


def test_ab_rejects_a_directory_without_sources(tmp_path):
    res = _ab(str(ROOT), str(tmp_path), "--workload", "equiv-chain")
    assert res.returncode != 0
    assert "no bafsynth sources" in res.stderr
