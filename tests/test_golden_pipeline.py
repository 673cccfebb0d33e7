"""Behaviour lock for the synthesis pipeline.

`run_pipeline` is deterministic apart from its timing fields, so its JSON
report (without the `*_ms` keys, with the decision-list text) on a few small
specifications in every mode, with partitioning on and off, is compared
against a committed golden file.  A refactor that is meant to keep behaviour
must leave this test passing unchanged.

Regenerate the golden file, only for an intended change of behaviour, with
    PYTHONPATH=src python -m tests.test_golden_pipeline
"""

import importlib.util
import json
from pathlib import Path

from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.model import parse_qdimacs

from .conftest import EXAMPLE1_TEXT, UNREALIZABLE_TEXT, identity_qdimacs

GOLDEN = Path(__file__).with_name("golden_pipeline.json")
ARTIFACTS = Path(__file__).resolve().parent.parent / "tools" / "artifacts.py"

SPECS = {
    "example1": EXAMPLE1_TEXT,
    "unrealizable4": UNREALIZABLE_TEXT,
    "identity3": identity_qdimacs(3),
    # output 5 occurs in no clause: the partitioner's last, clause-free component
    "unconstrained-outputs": "p cnf 5 2\na 1 2 0\ne 3 4 5 0\n1 3 0\n2 4 0\n",
    # clause 1 has no output literal
    "empty-ypart": "p cnf 3 2\na 1 2 0\ne 3 0\n1 2 0\n1 3 0\n",
}
MODES = ("back-and-forth", "mfs-enum", "mss-enum")


# the report filter is tools/artifacts.py's, so the two cannot drift apart
_tool = importlib.util.spec_from_file_location("artifacts", ARTIFACTS)
artifacts = importlib.util.module_from_spec(_tool)
_tool.loader.exec_module(artifacts)
strip_ms = artifacts.strip_ms


def pipeline_records() -> dict:
    records = {}
    for name, text in SPECS.items():
        spec = parse_qdimacs(text)
        for mode in MODES:
            for partition in (True, False):
                cfg = RunConfig(mode=mode, partition=partition)
                key = f"{name} {mode} partition={partition}"
                records[key] = strip_ms(run_pipeline(spec, cfg))
    return records


def _dump(records: dict) -> str:
    return json.dumps(records, sort_keys=True, indent=1) + "\n"


def test_pipeline_matches_golden():
    assert _dump(pipeline_records()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_dump(pipeline_records()), encoding="utf-8")
