"""Command-line surface: synth, analyze, verify, decompose, bench.

Exit codes: 0 success (realizable and, when enabled, verified);
1 unrealizable; 2 usage or parse error; 3 timeout or resource limit;
4 verification failure; 5 internal error (an unexpected exception, reported
as one line on stderr).  Every flag default can be overridden through a
BAFSYNTH_* environment variable (see --help per command).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
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


@dataclass
class RunConfig:
    mode: str = "back-and-forth"
    partition: bool = True
    verify: bool = True
    timeout: float = 3600.0
    mis_limit: int = 100000
    mss_limit: int = 100000
    jobs: int = 1
    json_path: str | None = None
    dl_path: str | None = None
    families: dict[str, str] = field(default_factory=dict)  # name -> filename prefix


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


def _component_specs(spec: Specification) -> list[Specification]:
    """The output-disjoint components of `spec`, plus one clause-free
    component for the outputs no clause mentions, if any.  Raises
    ValueError when a clause has an empty y-part."""
    components = _synth.partition_by_output_variables(spec)
    covered = {v for comp in components for v in comp.outputs}
    leftover = tuple(v for v in spec.outputs if v not in covered)
    if leftover:
        # outputs constrained by no clause: one all-false default document
        components.append(Specification(spec.inputs, leftover, ()))
    return components


def _specs_by_digest(spec: Specification) -> dict[str, Specification]:
    """The specification and each of its components, keyed by digest: the
    specifications a written decision-list document can belong to."""
    by_digest = {spec.digest: spec}
    try:
        by_digest.update((comp.digest, comp) for comp in _component_specs(spec))
    except ValueError:
        pass  # unpartitionable; the whole-spec digest may still match
    return by_digest


def _unrealizable(result: dict, t0: float, spec: Specification, component: int, mfs, x) -> dict:
    """Report the witness; with verification on, first confirm that the
    whole `spec` has no output for its input."""
    if result["verify"] and not _verify.witness_has_no_output(spec, x):
        raise RuntimeError(f"component {component}'s unrealizability witness has an output")
    result["status"] = _synth.UNREALIZABLE
    result["witness"] = {"component": component, "mfs": sorted(mfs), "input": _input_json(x)}
    result["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
    return result


def run_pipeline(spec: Specification, cfg: RunConfig) -> dict:
    """Partition, synthesize each component with the configured mode,
    combine, and verify.  Returns a JSON-ready result dictionary."""
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
        "iterations": 0,
        "sat_calls": 0,
        "maxsat_calls": 0,
        "mss_recorded": 0,
        "decisions": 0,
        "verify": cfg.verify,
        "verified": False,
        "components": [],
        "decision_lists": [],
        "witness": None,
        "verification": None,
        "dl_text": None,
    }

    bad = _synth._empty_ypart_failure(spec)
    if bad is not None:
        return _unrealizable(result, t0, spec, 0, *bad)

    components = _component_specs(spec) if cfg.partition else [spec]
    result["partitions"] = len(components)
    parts: list[_dlist.DecisionList] = []
    for ci, comp in enumerate(components, 1):
        outcome = synthesize(comp, cfg)
        st = outcome.stats
        comp_record = {
            "outputs": list(comp.outputs),
            "clauses": comp.num_clauses,
            "status": outcome.status,
            "iterations": st.iterations,
            "sat_calls": st.sat_calls,
            "maxsat_calls": st.maxsat_calls,
            "mss_recorded": st.mss_recorded,
            "decisions": len(outcome.decision_list) if outcome.decision_list else 0,
            "wall_time_ms": st.wall_time * 1000.0,
        }
        result["components"].append(comp_record)
        for key in ("iterations", "sat_calls", "maxsat_calls", "mss_recorded"):
            result[key] += comp_record[key]
        result["decisions"] += comp_record["decisions"]
        if not outcome.realizable:
            return _unrealizable(result, t0, spec, ci, outcome.witness_mfs, outcome.witness_input)
        parts.append(outcome.decision_list)

    combined = _dlist.combine(parts, spec)
    result["dl_text"] = "".join(_dlist.serialize(dl) for dl in combined.parts)
    result["decision_lists"] = [_dlist.to_json_dict(dl) for dl in combined.parts]

    if cfg.verify:
        failures = []
        for ci, (comp, dl) in enumerate(zip(components, parts), 1):
            report = _verify.verify_decision_list(comp, dl)
            if not report.verified:
                failures.append(
                    {
                        "component": ci,
                        "kind": report.failure_kind,
                        "decision": report.decision_index,
                        "clause": report.clause_index,
                        "input": _input_json(report.witness_input),
                    }
                )
        result["verified"] = not failures
        result["verification"] = {"verified": not failures, "failures": failures}
    result["wall_time_ms"] = (time.perf_counter() - t0) * 1000.0
    return result


def _pipeline_exit_code(result: dict, cfg: RunConfig) -> int:
    if result["status"] == _synth.UNREALIZABLE:
        return EXIT_UNREALIZABLE
    if cfg.verify and not result["verified"]:
        return EXIT_VERIFICATION
    return EXIT_OK


# ----------------------------------------------------------------------
# commands


def _emit_json(doc: dict, path: str | None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _read_spec(path: str) -> Specification | None:
    """The parsed specification at `path`, or None after printing the
    read or parse error."""
    try:
        return parse_qdimacs(Path(path).read_bytes())
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    spec = _read_spec(args.file)
    if spec is None:
        return EXIT_USAGE
    try:
        with time_limit(cfg.timeout):
            result = run_pipeline(spec, cfg)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    result["instance"] = Path(args.file).name
    dl_text = result.pop("dl_text")
    if cfg.dl_path and dl_text is not None:
        Path(cfg.dl_path).write_bytes(dl_text.encode("utf-8"))
        result["dl_path"] = cfg.dl_path
    else:
        result["dl_path"] = None
    _emit_json(result, cfg.json_path)
    return _pipeline_exit_code(result, cfg)


def cmd_analyze(args) -> int:
    spec = _read_spec(args.file)
    if spec is None:
        return EXIT_USAGE
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
        "budget": report.budget,
        "p_np_fragment": fragment,
    }
    _emit_json(doc, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _read_spec(args.spec)
    if spec is None:
        return EXIT_USAGE
    try:
        docs = _dlist.parse_many(decode_text(Path(args.dl).read_bytes()))
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    by_digest = _specs_by_digest(spec)
    failures = []
    for di, dl in enumerate(docs, 1):
        comp = by_digest.get(dl.spec_digest)
        if comp is None:
            print(
                f"error: document {di} digest matches neither the specification "
                "nor any of its components",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            report = _verify.verify_decision_list(comp, dl)
        except ValueError as exc:
            print(f"error: document {di}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not report.verified:
            failures.append(
                {
                    "document": di,
                    "kind": report.failure_kind,
                    "decision": report.decision_index,
                    "clause": report.clause_index,
                    "input": _input_json(report.witness_input),
                }
            )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": Path(args.spec).name,
        "documents": len(docs),
        "verified": not failures,
        "failures": failures,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_decompose(args) -> int:
    spec = _read_spec(args.file)
    if spec is None:
        return EXIT_USAGE
    pair = _decomp.cnf_decompose(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    f1_path = out_dir / f"{stem}.f1.cnf"
    f2_path = out_dir / f"{stem}.f2.qdimacs"
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
        comp = _decomp.compose_and_verify(spec, limit=args.limit)
        doc["composition"] = {
            "status": comp.status,
            "spec_realizable": comp.spec_realizable,
            "wall_time_ms": comp.wall_time * 1000.0,
        }
    _emit_json(doc, args.json)
    return EXIT_OK


def _stage1_dimacs(spec: Specification, pair) -> str:
    max_var = max((*spec.inputs, *pair.z_vars), default=0)
    lines = [
        f"c stage 1: intermediates {pair.z_vars[0]}..{pair.z_vars[-1]} "
        if pair.z_vars
        else "c stage 1: no clauses",
        f"c inputs: {' '.join(str(v) for v in spec.inputs)}",
        f"p cnf {max_var} {len(pair.f1_clauses)}",
    ]
    lines.extend(" ".join(str(l) for l in c.lits) + " 0" for c in pair.f1_clauses)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# bench harness


def _bench_one(path_str: str, cfg: RunConfig) -> dict:
    record = {
        "instance": Path(path_str).name,
        "mode": cfg.mode,
        "status": "error",
        "decisions": 0,
        "iterations": 0,
        "sat_calls": 0,
        "maxsat_calls": 0,
        "time_ms": 0.0,
    }
    t0 = time.perf_counter()
    try:
        spec = parse_qdimacs(Path(path_str).read_bytes())
    except OSError as exc:
        record["status"] = "unreadable"
        record["warning"] = str(exc)
        return record
    except ParseError as exc:
        record["status"] = "parse-error"
        record["warning"] = str(exc)
        return record
    try:
        with time_limit(cfg.timeout):
            result = run_pipeline(spec, cfg)
        record["status"] = result["status"]
        for key in ("decisions", "iterations", "sat_calls", "maxsat_calls"):
            record[key] = result[key]
        if cfg.verify and result["status"] == _synth.REALIZABLE and not result["verified"]:
            record["status"] = "verification-failed"
    except TimeoutError:
        record["status"] = "timeout"
    except LimitError as exc:
        record["status"] = "limit"
        record["warning"] = str(exc)
    except Exception as exc:  # one broken instance must not kill the harness
        record["status"] = "error"
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
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    paths = sorted(str(p) for p in directory.iterdir() if p.is_file())
    if cfg.jobs > 1 and paths:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(_bench_one, paths, [cfg] * len(paths)))
    else:
        records = [_bench_one(p, cfg) for p in paths]
    records.sort(key=lambda r: r["instance"])

    if cfg.json_path:
        with open(cfg.json_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    per_family: dict[str, dict[str, int]] = {}
    for rec in records:
        fam = _family_of(rec["instance"], cfg.families)
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
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        mode=args.mode,
        partition=not args.no_partition,
        verify=not args.no_verify,
        timeout=args.timeout,
        mis_limit=args.mis_limit,
        mss_limit=args.mss_limit,
        jobs=getattr(args, "jobs", 1),
        json_path=args.json,
        dl_path=getattr(args, "dl", None),
        families=dict(getattr(args, "family", None) or []),
    )


def _add_synth_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--mode",
        type=_mode,
        choices=MODES,
        default=_env("MODE", "back-and-forth"),
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
        default=_env("MIS_LIMIT", 100000),
        help=argparse.SUPPRESS,
    )
    p.add_argument(
        "--mss-limit",
        type=_positive(int),
        default=_env("MSS_LIMIT", 100000),
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
        type=int,
        default=_env("BF_LIMIT", 16),
        help="brute-force variable budget for the property checks",
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
    except Exception as exc:  # a bug must not pass for an outcome such as "unrealizable"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
