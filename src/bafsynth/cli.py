"""Command-line surface: synth, analyze, verify, decompose, bench.

Exit codes: 0 success (realizable and, when enabled, verified);
1 unrealizable; 2 usage or parse error; 3 timeout or resource limit;
4 verification failure; 5 internal error (an unexpected exception, reported
as one line on stderr).  `FAILURES` maps each failure to its exit code and
`bench` status; a `bench` record of one, `timeout` too, keeps its message as
`warning`.  Every flag default can be overridden through a BAFSYNTH_*
environment variable (see --help per command).

`RunConfig` holds what `run_pipeline` reads; a command's own settings (the
timeout, output paths, bench's jobs and families) come from its arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from . import decomp as _decomp
from . import dlist as _dlist
from . import graph as _graph
from . import synth as _synth
from . import verify as _verify
from .errors import LimitError, ParseError
from .model import Specification, decode_text, parse_qdimacs

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_VERIFICATION = 4
EXIT_INTERNAL = 5

# failure -> exit code, bench status; first match wins (TimeoutError is an OSError)
FAILURES = (
    (TimeoutError, EXIT_LIMIT, "timeout"),
    (LimitError, EXIT_LIMIT, "limit"),
    (OSError, EXIT_USAGE, "unreadable"),
    (ParseError, EXIT_USAGE, "parse-error"),
)
_FAILURE_TYPES = tuple(kind for kind, _, _ in FAILURES)

# run status (`_status`) -> exit code
STATUS_EXIT = {
    _synth.REALIZABLE: EXIT_OK,
    _synth.UNREALIZABLE: EXIT_UNREALIZABLE,
    "verification-failed": EXIT_VERIFICATION,
}


@dataclass
class RunConfig:
    mode: str = "back-and-forth"
    partition: bool = True
    verify: bool = True
    mis_limit: int = 100000
    mss_limit: int = 100000


def _env(name: str, default):
    """The raw BAFSYNTH_<name> string, or `default`.  argparse converts a
    string default with the option's `type`, so a malformed value is a
    usage error of the command that reads it, like the flag itself."""
    return os.environ.get("BAFSYNTH_" + name, default)


def _env_flag(name: str) -> bool:
    return _env(name, "").strip().lower() in ("1", "true", "yes", "on")


def _positive(cast):
    """argparse type: `cast` of the text, which must be finite and > 0."""

    def parse(text: str):
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _mode(text: str) -> str:
    if text not in MODES:  # argparse checks `choices` on the flag only, not on the env default
        raise argparse.ArgumentTypeError(f"unknown mode {text!r}")
    return text


def _family(text: str) -> tuple[str, str]:
    name, _, prefix = text.partition("=")
    if not name or not prefix:
        raise argparse.ArgumentTypeError(f"expected NAME=PREFIX, got {text!r}")
    return name, prefix


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the main thread after `seconds` of wall time."""

    def handler(signum, frame):
        raise TimeoutError(f"timed out after {seconds} s")

    if seconds <= 0:
        raise ValueError("timeout must be positive")
    old = signal.signal(signal.SIGALRM, handler)
    # a longer interval overflows the platform's time_t; 1e9 s is no limit
    signal.setitimer(signal.ITIMER_REAL, min(seconds, 1e9))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


# ----------------------------------------------------------------------
# synthesis pipeline


# mode name -> synthesis of one component; the procedure is looked up on the
# module at call time, so a wrapper installed on it is seen
MODES = {
    "back-and-forth": lambda comp, cfg: _synth.back_and_forth(comp),
    "mfs-enum": lambda comp, cfg: _synth.synth_by_mfs_enumeration(comp, cfg.mis_limit),
    "mss-enum": lambda comp, cfg: _synth.synth_by_mss_enumeration(comp, cfg.mss_limit),
}


def _input_json(x) -> dict:
    return {str(v): b for v, b in sorted(x.items())}


def _specs_by_digest(spec: Specification) -> dict[str, Specification]:
    """The specification and each of its components, keyed by digest: the
    specifications a written decision-list document can belong to."""
    by_digest = {spec.digest: spec}
    by_digest.update((comp.digest, comp) for comp in _synth.partition_by_output_variables(spec))
    return by_digest


def _failures(key: str, pairs) -> list[dict]:
    """Verify each (specification, list) pair; the records of the lists
    that fail, each numbered from 1 under `key`."""
    failures = []
    for index, (spec, dl) in enumerate(pairs, 1):
        report = _verify.verify_decision_list(spec, dl)
        if not report.verified:
            failures.append(
                {
                    key: index,
                    "kind": report.failure_kind,
                    "decision": report.decision_index,
                    "clause": report.clause_index,
                    "input": _input_json(report.witness_input),
                }
            )
    return failures


# the Stats counters: reported per component and summed into the run totals,
# like the decisions of the component's list, and a `bench` record copies
# those totals
_STATS_COUNTERS = tuple(f.name for f in fields(_synth.Stats))
_REPORT_COUNTERS = (*_STATS_COUNTERS, "decisions")


def _unrealizable(result: dict, t0: float, spec: Specification, ci: int, comp, mfs) -> dict:
    """Report component `ci`'s witness: `mfs`, in the clause numbering of
    `comp` (`spec` itself for component 0), and an input that falsifies it.
    With verification on, first confirm that the whole `spec` has no output
    for that input."""
    x = _synth.falsifying_input(comp, mfs)
    if result["verify"] and not _verify.witness_has_no_output(spec, x):
        raise RuntimeError(f"component {ci}'s unrealizability witness has an output")
    result["status"] = _synth.UNREALIZABLE
    result["witness"] = {"component": ci, "mfs": sorted(mfs), "input": _input_json(x)}
    result["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
    return result


def run_pipeline(spec: Specification, cfg: RunConfig) -> dict:
    """Partition, synthesize each component with the configured mode,
    combine, and verify.  Returns a JSON-ready result dictionary, which
    times the run and each component's synthesis.  A clause with an empty
    y-part is reported as component 0, before any partitioning; this is the
    one place that rule is applied."""
    t0 = time.perf_counter()
    synthesize = MODES.get(cfg.mode)
    if synthesize is None:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    result = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "partition": cfg.partition,
        "status": _synth.REALIZABLE,
        "partitions": 1,
        **dict.fromkeys(_REPORT_COUNTERS, 0),
        "verify": cfg.verify,
        "verified": False,
        "components": [],
        "decision_lists": [],
        "witness": None,
        "verification": None,
        "dl_text": None,
    }

    if spec.empty_ypart_indices:
        # its x-part can be falsified (tautologies are dropped at parsing) and
        # its y-part never satisfied, so an MFS that holds it is the witness
        bad = _graph.extend_to_mis(spec, spec.empty_ypart_indices[:1])
        return _unrealizable(result, t0, spec, 0, spec, bad)

    components = _synth.partition_by_output_variables(spec) if cfg.partition else [spec]
    result["partitions"] = len(components)
    parts: list[_dlist.DecisionList] = []
    for ci, comp in enumerate(components, 1):
        t = time.perf_counter()
        outcome = synthesize(comp, cfg)
        ms = (time.perf_counter() - t) * 1000.0
        counts = {key: getattr(outcome.stats, key) for key in _STATS_COUNTERS}
        counts["decisions"] = len(outcome.decision_list) if outcome.decision_list else 0
        for key, n in counts.items():
            result[key] += n
        result["components"].append(
            {
                "outputs": list(comp.outputs),
                "clauses": comp.num_clauses,
                "status": outcome.status,
                **counts,
                "wall_time_ms": ms,
            }
        )
        if not outcome.realizable:
            return _unrealizable(result, t0, spec, ci, comp, outcome.witness_mfs)
        parts.append(outcome.decision_list)

    _dlist.combine(parts, spec)  # every output in exactly one list
    result["dl_text"] = "".join(_dlist.serialize(dl) for dl in parts)
    result["decision_lists"] = [_dlist.to_json_dict(dl) for dl in parts]

    if cfg.verify:
        failures = _failures("component", zip(components, parts))
        result["verified"] = not failures
        result["verification"] = {"verified": not failures, "failures": failures}
    result["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
    return result


def _status(result: dict) -> str:
    """`verification-failed` if verification ran and failed, else the status."""
    if result["verification"] is not None and not result["verified"]:
        return "verification-failed"
    return result["status"]


# ----------------------------------------------------------------------
# commands


def _write(path: str, text: str) -> bool:
    """Write `text` to `path`; False after printing the error when that
    fails."""
    try:
        Path(path).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _emit_json(doc: dict, path: str | None, code: int = EXIT_OK) -> int:
    """Print `doc` and, when `path` is given, write it there too.  Returns
    `code`, or EXIT_USAGE when the file cannot be written."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    return code if not path or _write(path, text) else EXIT_USAGE


def _read_spec(path: str) -> Specification:
    return parse_qdimacs(Path(path).read_bytes())


def _synth_file(path: str, cfg: RunConfig, timeout: float) -> dict:
    """Parse the specification at `path` and run the pipeline on it in `timeout` s."""
    spec = _read_spec(path)
    with time_limit(timeout):
        return run_pipeline(spec, cfg)


def cmd_synth(args) -> int:
    result = _synth_file(args.file, _config_from_args(args), args.timeout)
    result["instance"] = Path(args.file).name
    dl_text = result.pop("dl_text")
    code = STATUS_EXIT[_status(result)]
    result["dl_path"] = None
    if args.dl and dl_text is not None:
        if _write(args.dl, dl_text):
            result["dl_path"] = args.dl
        else:
            code = EXIT_USAGE
    return _emit_json(result, args.json, code)


def cmd_analyze(args) -> int:
    spec = _read_spec(args.file)
    g = _graph.build_conflict_graph(spec)
    report = _graph.analyze_structure(g, args.budget)
    fragment = "yes" if (report.chordal or report.count is not None) else "unknown"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": Path(args.file).name,
        "clauses": spec.num_clauses,
        "conflict_edges": len(g.edges()),
        "consensus_chordal": report.chordal,
        "max_cliques": report.count if report.count is not None else "budget-exceeded",
        "budget": args.budget,
        "p_np_fragment": fragment,
    }
    return _emit_json(doc, args.json)


def cmd_verify(args) -> int:
    spec = _read_spec(args.spec)
    text = decode_text(Path(args.dl).read_bytes())
    docs = _dlist.parse_many(text, _specs_by_digest(spec))
    for di, dl in enumerate(docs, 1):  # every check that needs no solver comes first
        if dl.spec is None:
            raise ParseError(
                f"document {di} digest matches neither the specification "
                "nor any of its components"
            )
        try:
            _verify.check_decision_list(dl.spec, dl)
        except ValueError as exc:
            raise ParseError(f"document {di}: {exc}") from exc
    try:
        _dlist.combine(docs, spec)  # every output in exactly one document
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    failures = _failures("document", ((dl.spec, dl) for dl in docs))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": Path(args.spec).name,
        "documents": len(docs),
        "verified": not failures,
        "failures": failures,
    }
    return _emit_json(doc, args.json, EXIT_OK if not failures else EXIT_VERIFICATION)


def cmd_decompose(args) -> int:
    spec = _read_spec(args.file)
    pair = _decomp.cnf_decompose(spec)
    out_dir = Path(args.out_dir)
    stem = Path(args.file).stem
    f1_path = out_dir / f"{stem}.f1.cnf"
    f2_path = out_dir / f"{stem}.f2.qdimacs"
    out_dir.mkdir(parents=True, exist_ok=True)
    f1_path.write_text(_stage1_dimacs(spec, pair), encoding="utf-8")
    f2_path.write_text(pair.f2_spec.to_qdimacs(), encoding="utf-8")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": Path(args.file).name,
        "intermediate_vars": len(pair.z_vars),
        "f1_clauses": len(pair.f1_clauses),
        "f2_clauses": pair.f2_spec.num_clauses,
        "f1_path": str(f1_path),
        "f2_path": str(f2_path),
        "good_decomposition": None,
        "composition": None,
    }
    total = len(spec.inputs) + len(spec.outputs) + len(pair.z_vars)
    if not args.no_check and total <= args.limit:
        report = _decomp.check_good_decomposition(spec, pair, limit=args.limit)
        doc["good_decomposition"] = {
            "equivalence_holds": report.equivalence_holds,
            "image_in_domain": report.image_in_domain,
        }
        t0 = time.perf_counter()
        comp = _decomp.compose_and_verify(spec, limit=args.limit)
        doc["composition"] = {
            "status": comp.status,
            "spec_realizable": comp.spec_realizable,
            "wall_time_ms": (time.perf_counter() - t0) * 1000.0,
        }
    return _emit_json(doc, args.json)


def _stage1_dimacs(spec: Specification, pair) -> str:
    max_var = max((*spec.inputs, *pair.z_vars), default=0)
    lines = [
        f"c stage 1: intermediates {pair.z_vars[0]}..{pair.z_vars[-1]} "
        if pair.z_vars
        else "c stage 1: no clauses",
        f"c inputs: {' '.join(str(v) for v in spec.inputs)}",
        f"p cnf {max_var} {len(pair.f1_clauses)}",
    ]
    lines.extend(" ".join(map(str, c)) + " 0" for c in pair.f1_clauses)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# bench harness


def _bench_one(path_str: str, cfg: RunConfig, timeout: float) -> dict:
    record = {
        "instance": Path(path_str).name,
        "mode": cfg.mode,
        "status": "error",
        **dict.fromkeys(_REPORT_COUNTERS, 0),
    }
    t0 = time.perf_counter()
    try:
        result = _synth_file(path_str, cfg, timeout)
        for key in _REPORT_COUNTERS:
            record[key] = result[key]
        record["status"] = _status(result)
    except _FAILURE_TYPES as exc:
        record["status"] = next(status for kind, _, status in FAILURES if isinstance(exc, kind))
        record["warning"] = str(exc)
    except Exception as exc:  # one broken instance must not kill the harness
        record["warning"] = f"{type(exc).__name__}: {exc}"
    record["time_ms"] = (time.perf_counter() - t0) * 1000.0
    return record


def _family_of(name: str, families: dict[str, str]) -> str:
    for fam, prefix in sorted(families.items()):
        if name.startswith(prefix):
            return fam
    return "(other)"


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    paths = sorted(str(p) for p in directory.iterdir() if p.is_file())
    if args.json:  # fail before hours of runs
        Path(args.json).write_bytes(b"")
    if args.jobs > 1 and paths:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        n = len(paths)
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_bench_one, paths, [cfg] * n, [args.timeout] * n))
    else:
        records = [_bench_one(p, cfg, args.timeout) for p in paths]
    records.sort(key=lambda r: r["instance"])

    families = dict(args.family or [])  # name -> filename prefix
    per_family: dict[str, dict[str, int]] = {}
    for rec in records:
        fam = _family_of(rec["instance"], families)
        counts = per_family.setdefault(fam, {})
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    width = max((len(f) for f in per_family), default=6)
    print(f"{'family'.ljust(width)}  instances  statuses")
    for fam in sorted(per_family):
        counts = per_family[fam]
        total = sum(counts.values())
        status_txt = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{fam.ljust(width)}  {total:9d}  {status_txt}")
    print(f"total instances: {len(records)}")
    if args.json:
        jsonl = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
        Path(args.json).write_bytes(jsonl.encode("utf-8"))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        mode=args.mode,
        partition=not args.no_partition,
        verify=not args.no_verify,
        mis_limit=args.mis_limit,
        mss_limit=args.mss_limit,
    )


def _add_synth_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--mode",
        type=_mode,
        choices=MODES,
        default=_env("MODE", RunConfig.mode),
        help="synthesis procedure (env BAFSYNTH_MODE)",
    )
    p.add_argument(
        "--no-partition",
        action="store_true",
        default=_env_flag("NO_PARTITION"),
        help="skip output-disjoint partitioning (env BAFSYNTH_NO_PARTITION)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        default=_env_flag("NO_VERIFY"),
        help="skip post-synthesis verification (env BAFSYNTH_NO_VERIFY)",
    )
    p.add_argument(
        "--timeout",
        type=_positive(float),
        default=_env("TIMEOUT", 3600.0),
        metavar="S",
        help="per-instance wall-time limit in seconds (env BAFSYNTH_TIMEOUT)",
    )
    p.add_argument(
        "--mis-limit",
        type=_positive(int),
        default=_env("MIS_LIMIT", RunConfig.mis_limit),
        help=argparse.SUPPRESS,
    )
    p.add_argument(
        "--mss-limit",
        type=_positive(int),
        default=_env("MSS_LIMIT", RunConfig.mss_limit),
        help=argparse.SUPPRESS,
    )
    p.add_argument("--json", metavar="PATH", default=None, help="also write the JSON report here")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other usage error
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bafsynth",
        description=(
            "Synthesize verified Skolem functions, represented as decision "
            "lists, from 2QBF CNF specifications in QDIMACS."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a decision list from a QDIMACS file")
    p.add_argument("file")
    _add_synth_flags(p)
    p.add_argument("--dl", metavar="PATH", help="write the decision-list document(s) here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="conflict-graph structure report")
    p.add_argument("file")
    p.add_argument(
        "--budget",
        type=_positive(int),
        default=_env("BUDGET", 10000),
        help="maximal-clique counting budget (env BAFSYNTH_BUDGET)",
    )
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="verify a decision-list file against a specification")
    p.add_argument("spec")
    p.add_argument("dl")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="emit the two-stage CNF decomposition")
    p.add_argument("file")
    p.add_argument("--out-dir", default=".", help="directory for the stage files")
    p.add_argument(
        "--limit",
        type=_positive(int),
        default=_env("BF_LIMIT", 16),
        help="brute-force variable budget for the property checks (env BAFSYNTH_BF_LIMIT)",
    )
    p.add_argument("--no-check", action="store_true", help="skip the brute-force checks")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="run every file in a directory and summarize")
    p.add_argument("directory")
    _add_synth_flags(p)
    p.add_argument(
        "--jobs",
        type=_positive(int),
        default=_env("JOBS", 1),
        help="concurrent worker processes (env BAFSYNTH_JOBS)",
    )
    p.add_argument(
        "--family",
        action="append",
        type=_family,
        metavar="NAME=PREFIX",
        help="classify instances whose filename starts with PREFIX (repeatable)",
    )
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FAILURE_TYPES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code, _ in FAILURES if isinstance(exc, kind))
    except Exception as exc:  # a bug must not pass for an outcome such as "unrealizable"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
