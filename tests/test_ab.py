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
    assert lines[3].startswith("B / A = ") and lines[3].endswith("of 2 passes")


def test_ab_rejects_a_directory_without_sources(tmp_path):
    res = _ab(str(ROOT), str(tmp_path), "--workload", "equiv-chain")
    assert res.returncode != 0
    assert "no bafsynth sources" in res.stderr
