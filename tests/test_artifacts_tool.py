"""Guard for tools/artifacts.py, the byte-identity check of refactors.

The tool reads a few private names of the program and of the tests
(`cli._specs_by_digest`, `cli._stage1_dimacs`,
`tests.test_golden_pipeline._strip_ms`).  A rename of one of them would
only show when the tool next runs; this test runs it on one workload
instead.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifacts.py"


def test_artifacts_tool_prints_json_lines():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "graph-structure"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        if "decompose" in record:  # every specification gets a composition status
            assert isinstance(record["composition"], str), record["instance"]
