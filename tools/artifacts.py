"""Print bafsynth's deterministic artifacts on the benchmark corpora.

    python3 tools/artifacts.py [--workload NAME]... [--no-partition]

Run from a source checkout: the program is imported from `src/`, and the
instances come from perfbench's generators (`gen.WORKLOADS[name](seed)`,
seeds 1 and 4242), which are only read.  For every instance one JSON line
holds the structural fields of `bafsynth analyze --budget 10000` (clauses,
conflict_edges, consensus_chordal, max_cliques, p_np_fragment), and then, in
modes back-and-forth, mfs-enum and mss-enum, one JSON line each holds the
`run_pipeline` report without its timing (`*_ms`) fields, with the
decision-list text, and the `verify_decision_list` verdict of every
document of that text.  One more line holds the two stage texts that
`bafsynth decompose` writes: stage 1 (`cli._stage1_dimacs`) and stage 2
(the QDIMACS of `decomp.cnf_decompose`'s second-stage specification), with
the composition `status` of `decompose`'s JSON report, run through
`cli.main` as `analyze` is.  All of it is deterministic, so
diffing the output of two checkouts shows whether a change keeps behaviour
byte for byte; the tool uses only names that earlier
checkouts also have, so it can run over either checkout's `src/`.  After
the corpora come the same lines for a few fixed specifications
(workload `inline`, seed 0) whose rendering has edge cases: no inputs (the
`a 0` line and an `in ` line with nothing after the space), no outputs,
outputs that no clause mentions, and a clause with an empty y-part.  For
these, more lines come from `cli.main` alone, run in a scratch directory:
in each mode, `synth --dl --json` (the report without `*_ms` fields, the
`.dl` text and the exit code) and `verify` of that `.dl` (its JSON and exit
code); then `bench --json` with two `--family` classes over a directory of
all of them, once with `--jobs 1` and once with `--jobs 2` (the records
without `time_ms`, the summary and the exit code).  Then come runs that
fail: `synth` of a missing and of a malformed file, `synth --mode mfs-enum
--mis-limit 1` on a spec with two MFS, `verify` against a missing `.dl` and
against a document whose digest matches neither the specification nor any
of its components, and `bench` with the same limit over a directory that
also holds a junk file.  Every command also records its stderr.
`--no-partition` is practical on planted-synth and graph-structure only: an
unpartitioned equivalence chain of width w has 2^w MFS.

The tool imports the program and perfbench's generators and nothing from
the tests, so it runs on an interpreter without pytest; the golden
pipeline test imports `strip_ms` from it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from bafsynth import cli, decomp, dlist, verify  # noqa: E402
from bafsynth.model import parse_qdimacs  # noqa: E402

SEEDS = (1, 4242)
MODES = ("back-and-forth", "mfs-enum", "mss-enum")
ANALYZE_FIELDS = ("clauses", "conflict_edges", "consensus_chordal", "max_cliques", "p_np_fragment")


def strip_ms(value):
    """`value` without its timing fields: every dict key ending in `_ms`
    is dropped, at any depth."""
    if isinstance(value, dict):
        return {k: strip_ms(v) for k, v in value.items() if not k.endswith("_ms")}
    if isinstance(value, list):
        return [strip_ms(v) for v in value]
    return value


def verdicts(spec, dl_text: str | None) -> list[dict]:
    """The verifier's report on each document, matched to its specification
    by digest as `bafsynth verify` does."""
    if dl_text is None:
        return []
    by_digest = cli._specs_by_digest(spec)
    return [
        dataclasses.asdict(verify.verify_decision_list(by_digest[dl.spec_digest], dl))
        for dl in dlist.parse_many(dl_text)
    ]


def command_json(text: str, command: str, *flags: str) -> dict:
    """The JSON report of `bafsynth COMMAND spec.qdimacs FLAGS...` on the
    QDIMACS `text`, run in a scratch directory (where `decompose` writes its
    stage files)."""
    with tempfile.TemporaryDirectory() as tmp, _in_directory(tmp):
        Path("spec.qdimacs").write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "spec.qdimacs", *flags])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"{command} exited {code}")
    return json.loads(out.getvalue())


def analyze(text: str) -> dict:
    """The structural fields of `bafsynth analyze` on the QDIMACS `text`."""
    doc = command_json(text, "analyze", "--budget", "10000")
    return {key: doc[key] for key in ANALYZE_FIELDS}


def emit(head: dict, text: str, partition: bool) -> None:
    """Print the artifact lines of the QDIMACS `text`, each tagged `head`."""
    print(json.dumps({**head, "analyze": analyze(text)}, sort_keys=True), flush=True)
    spec = parse_qdimacs(text)
    pair = decomp.cnf_decompose(spec)
    stages = {
        "stage1": cli._stage1_dimacs(spec, pair),
        "stage2": pair.f2_spec.to_qdimacs(),
    }
    composition = command_json(text, "decompose")["composition"]["status"]
    record = {**head, "composition": composition, "decompose": stages}
    print(json.dumps(record, sort_keys=True), flush=True)
    for mode in MODES:
        cfg = cli.RunConfig(mode=mode, partition=partition)
        report = strip_ms(cli.run_pipeline(spec, cfg))
        record = {
            **head,
            "mode": mode,
            "partition": partition,
            "report": report,
            "verdicts": verdicts(spec, report["dl_text"]),
        }
        print(json.dumps(record, sort_keys=True), flush=True)


# fixed specifications whose texts and lists have rendering edge cases
INLINE = {
    "no-inputs": "p cnf 2 2\na 0\ne 1 2 0\n1 2 0\n-1 -2 0\n",
    "no-outputs": "p cnf 2 0\na 2 1 0\ne 0\n",
    "unconstrained-outputs": "p cnf 6 2\na 3 1 0\ne 6 2 5 4 0\n-1 2 0\n1 3 -4 0\n",
    "empty-ypart": "p cnf 3 2\na 1 2 0\ne 3 0\n1 -2 0\n-1 3 0\n",
}


@contextlib.contextmanager
def _in_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_cli(argv: list[str]) -> dict:
    """`cli.main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _json_or_text(run: dict) -> dict:
    """`run` with its stdout parsed as JSON and stripped of `*_ms` fields
    when it is a JSON document."""
    if run["stdout"].startswith("{"):
        return {**run, "stdout": strip_ms(json.loads(run["stdout"]))}
    return run


def emit_cli(partition: bool) -> None:
    """Print the `cli.main` lines of the INLINE specifications."""
    flags = [] if partition else ["--no-partition"]
    head = {"workload": "inline", "seed": 0, "partition": partition}
    with tempfile.TemporaryDirectory() as tmp, _in_directory(tmp):
        Path("specs").mkdir()
        for name, text in INLINE.items():
            spec = f"specs/{name}.qdimacs"
            Path(spec).write_text(text, encoding="utf-8")
            for mode in MODES:
                dl, report = f"{name}.{mode}.dl", f"{name}.{mode}.json"
                argv = ["synth", spec, "--mode", mode, "--dl", dl, "--json", report, *flags]
                synth = run_cli(argv)
                record = {
                    **head,
                    "instance": name,
                    "mode": mode,
                    "synth": _json_or_text(synth),
                    "json_file_is_stdout": Path(report).read_text() == synth["stdout"],
                    "dl": Path(dl).read_text() if Path(dl).exists() else None,
                    "verify": _json_or_text(run_cli(["verify", spec, dl])),
                }
                print(json.dumps(record, sort_keys=True), flush=True)
        for jobs in ("1", "2"):
            families = ["--family", "none=no-", "--family", "empty=empty-"]
            argv = ["bench", "specs", "--json", "records.jsonl", "--jobs", jobs, *families]
            bench = run_cli([*argv, *flags])
            records = [json.loads(line) for line in Path("records.jsonl").read_text().splitlines()]
            for rec in records:
                del rec["time_ms"]
            record = {**head, "instance": "(all)", "bench": bench, "jobs": jobs, "records": records}
            print(json.dumps(record, sort_keys=True), flush=True)
        emit_cli_failures(head, flags)


# two clauses on one output whose x-parts conflict: two MFS in one component
TWO_MFS_TEXT = "p cnf 3 2\na 1 0\ne 3 0\n1 3 0\n-1 -3 0\n"


def emit_cli_failures(head: dict, flags: list[str]) -> None:
    """Print the `cli.main` lines of runs that fail, from the directory that
    `emit_cli` filled: each command's exit code, stdout and stderr, and for
    `bench` its records without `time_ms`."""
    Path("two-mfs.qdimacs").write_text(TWO_MFS_TEXT, encoding="utf-8")
    Path("malformed.qdimacs").write_text("p cnf x y\n", encoding="utf-8")
    assert run_cli(["synth", "two-mfs.qdimacs", "--dl", "two-mfs.dl"])["code"] == cli.EXIT_OK
    limit = ["--mode", "mfs-enum", "--mis-limit", "1", *flags]
    runs = {
        "synth-missing": ["synth", "missing.qdimacs", *flags],
        "synth-malformed": ["synth", "malformed.qdimacs", *flags],
        "synth-mis-limit": ["synth", "two-mfs.qdimacs", *limit],
        "verify-missing-dl": ["verify", "two-mfs.qdimacs", "missing.dl"],
        "verify-foreign-digest": ["verify", "specs/no-inputs.qdimacs", "two-mfs.dl"],
    }
    for name, argv in runs.items():
        record = {**head, "instance": name, "run": _json_or_text(run_cli(argv))}
        print(json.dumps(record, sort_keys=True), flush=True)
    Path("junk").mkdir()
    Path("junk/a-two-mfs.qdimacs").write_text(TWO_MFS_TEXT, encoding="utf-8")
    Path("junk/b-junk.txt").write_text("not a qdimacs file\n", encoding="utf-8")
    bench = run_cli(["bench", "junk", "--json", "junk.jsonl", *limit])
    records = [json.loads(line) for line in Path("junk.jsonl").read_text().splitlines()]
    for rec in records:
        del rec["time_ms"]
    record = {**head, "instance": "(junk)", "bench": bench, "records": records}
    print(json.dumps(record, sort_keys=True), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--no-partition", dest="partition", action="store_false")
    args = ap.parse_args(argv)
    for workload in args.workload or sorted(gen.WORKLOADS):
        for seed in SEEDS:
            for k, inst in enumerate(gen.WORKLOADS[workload](seed)):
                head = {"workload": workload, "seed": seed, "instance": f"{k:02d}-{inst.name}"}
                emit(head, inst.qdimacs(), args.partition)
    for name, text in INLINE.items():
        emit({"workload": "inline", "seed": 0, "instance": name}, text, args.partition)
    emit_cli(args.partition)
    return 0


if __name__ == "__main__":
    sys.exit(main())
