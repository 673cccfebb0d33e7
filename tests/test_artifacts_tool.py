"""Guard for tools/artifacts.py, the byte-identity check of refactors.

The tool reads a few private names of the program (`cli._specs_by_digest`,
`cli._stage1_dimacs`).  A rename of one of them would only show when the
tool next runs; this test runs it on one workload instead.  The tool must
also run on an interpreter without pytest, so that its output can be
diffed across the Python versions `pyproject.toml` claims: it imports
nothing from the tests (whose `conftest.py` imports pytest), and the second
test runs it with pytest unimportable.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifacts.py"


def run_tool(*code: str) -> subprocess.CompletedProcess:
    """Run the tool on the graph-structure workload, in a fresh interpreter
    that first executes the statements `code`."""
    argv = [str(TOOL), "--workload", "graph-structure"]
    script = [
        "import runpy, sys",
        *code,
        f"sys.argv = {argv!r}",
        f"runpy.run_path({str(TOOL)!r}, run_name='__main__')",
    ]
    return subprocess.run(
        [sys.executable, "-c", "\n".join(script)], capture_output=True, text=True, timeout=120
    )


def test_artifacts_tool_prints_json_lines():
    run = run_tool()
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        if "decompose" in record:  # every specification gets a composition status
            assert isinstance(record["composition"], str), record["instance"]


def test_artifacts_tool_runs_without_pytest():
    run = run_tool("sys.modules['pytest'] = None  # any `import pytest` now fails")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()
