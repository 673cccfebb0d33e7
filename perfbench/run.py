"""Seeded benchmark of bafsynth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the program is imported from `src/`.  The
workload's instances are generated from the seed (see gen.py), written to
perfbench/out/, and parsed once per round.  Each operation is one CLI
command's work, driven through the calls that command makes: synth is
`cli.run_pipeline(spec, RunConfig(...))`, analyze is
`graph.build_conflict_graph` + `graph.analyze_structure`.  Operations run
one after another; `gc.collect()`, generation and the correctness checks
stay outside the timed region.  Rounds of all operations repeat until S
seconds have passed; every round runs the whole corpus.  Times are
normalized to a reference host speed (see calib.py): a fixed kernel pass
runs before the first operation of a round and after each operation, and
each time of the round is divided by the round's host factor (median pass
time / REF_PASS_S).  An operation's time is its median over the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics of the traced rounds and the
tracing overhead, and writes the spans to perfbench/out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calib
import check
import gen
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_MIN = 15  # fresh interpreters per run for setup_s: one after each round, at least this many
ANALYZE_BUDGET = 10000  # the `analyze --budget` default

# span name -> per-layer self-time metric
SELF_METRICS = {
    "model.parse": "model.parse_s",
    "cli.pipeline": "cli.pipeline_self_s",
    "synth.self": "synth.self_s",
    "synth.partition": "synth.partition_s",
    "synth.coverage": "synth.coverage_s",
    "graph.build": "graph.build_s",
    "graph.cliques": "graph.cliques_s",
    "graph.extend": "graph.extend_s",
    "maxsat": "maxsat.self_s",
    "sat.solve": "sat.solve_s",
    "sat.clause": "sat.clause_s",
    "verify": "verify.self_s",
    "dlist.build": "dlist.build_s",
    "dlist.serialize": "dlist.serialize_s",
    "bench.op": "trace.unattributed_s",
}
COUNT_METRICS = (
    "model.parse_calls",
    "synth.components",
    "synth.coverage_calls",
    "synth.iterations",
    "graph.build_calls",
    "graph.edges",
    "graph.mfs_found",
    "maxsat.calls",
    "maxsat.sat_calls",
    "sat.solve_calls",
    "sat.sat_results",
    "sat.unsat_results",
    "sat.solvers",
    "sat.add_clause_calls",
    "verify.calls",
    "verify.sat_calls",
)


def load_program() -> SimpleNamespace:
    init = SRC / "bafsynth" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no bafsynth sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bafsynth
    from bafsynth import cli, dlist, graph, maxsat, model, sat, synth, verify

    if Path(bafsynth.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported bafsynth from {bafsynth.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli, dlist=dlist, graph=graph, maxsat=maxsat, model=model, sat=sat,
        synth=synth, verify=verify,
    )


# ----------------------------------------------------------------------
# operations: module attributes are looked up at call time, so a traced
# round sees the wrappers


def op_synth(p, spec):
    return p.cli.run_pipeline(spec, p.cli.RunConfig())


def op_synth_mfs_enum(p, spec):
    return p.cli.run_pipeline(spec, p.cli.RunConfig(mode="mfs-enum"))


def op_analyze(p, spec):
    g = p.graph.build_conflict_graph(spec)
    return g, p.graph.analyze_structure(g, ANALYZE_BUDGET)


OPS = {"synth": op_synth, "synth-mfs-enum": op_synth_mfs_enum, "analyze": op_analyze}


def trace_targets(p) -> list:
    def span(name, count=None, after=None, sat=False):
        return lambda tr, fn: tr.wrap(name, fn, count, after, sat)

    def quiet(count=None):
        return lambda tr, fn: tr.quiet("sat.clause", fn, count)

    def components(tr, res, parent):
        tr.counts["synth.components"] += len(res)

    def keep_graph(tr, res, parent):
        tr.graphs.append(res)

    def mis_found(tr, res, parent):
        tr.counts["graph.mfs_found"] += len(res.sets)

    def cliques_counted(tr, res, parent):
        tr.counts["graph.mfs_found"] += res.count or 0

    def solved(tr, res, parent):
        tr.counts["sat.sat_results" if res.satisfiable else "sat.unsat_results"] += 1
        if parent in ("maxsat", "verify"):
            tr.counts[parent + ".sat_calls"] += 1

    synth, graph, dlist, solver = p.synth, p.graph, p.dlist, p.sat.Solver
    build = span("graph.build", "graph.build_calls", keep_graph)
    enum = span("graph.cliques", after=mis_found)
    maxsat = span("maxsat", "maxsat.calls")
    return [
        (p.model, "parse_qdimacs", span("model.parse", "model.parse_calls")),
        (p.cli, "run_pipeline", span("cli.pipeline")),
        (synth, "partition_by_output_variables", span("synth.partition", after=components)),
        (synth, "back_and_forth", span("synth.self")),
        (synth, "synth_by_mfs_enumeration", span("synth.self")),
        (synth, "synth_by_mss_enumeration", span("synth.self")),
        (synth, "covering_mss", span("synth.self")),
        (synth.CoverageQueryState, "__init__", span("synth.coverage")),
        (synth, "next_uncovered_mfs", span("synth.coverage", "synth.coverage_calls")),
        (synth, "record_mss", span("synth.coverage")),
        (graph, "build_conflict_graph", build),
        (synth, "build_conflict_graph", build),
        (graph, "enumerate_mis", enum),
        (synth, "enumerate_mis", enum),
        (graph, "analyze_structure", span("graph.cliques", after=cliques_counted)),
        (graph, "extend_to_mis", span("graph.extend")),
        (synth, "extend_to_mis", span("graph.extend")),
        (p.maxsat, "solve_partial_maxsat", maxsat),
        (synth, "solve_partial_maxsat", maxsat),
        (p.verify, "verify_decision_list", span("verify", "verify.calls")),
        (dlist, "build_decision_list", span("dlist.build")),
        (synth, "build_decision_list", span("dlist.build")),
        (dlist, "combine", span("dlist.build")),
        (dlist, "serialize", span("dlist.serialize")),
        (dlist, "to_json_dict", span("dlist.serialize")),
        (solver, "solve", span("sat.solve", "sat.solve_calls", solved, sat=True)),
        (solver, "__init__", quiet("sat.solvers")),
        (solver, "add_clause", quiet("sat.add_clause_calls")),
        (solver, "ensure_var", quiet()),
    ]


# ----------------------------------------------------------------------
# running


class Run:
    """State of one benchmark run: the corpus, the per-round records and
    the outcome of the checks."""

    def __init__(self, p, instances: list[gen.Instance], seed: int):
        self.p = p
        self.instances = instances
        self.texts = [inst.qdimacs() for inst in instances]
        self.ops = [(i, kind) for i, inst in enumerate(instances) for kind in inst.ops]
        self.check_rng = random.Random(f"check-{seed}")
        self.fingerprints: list = [None] * len(self.ops)
        self.decisions = 0
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def round(self, tracer: Tracer | None = None) -> dict:
        """Run every operation once, with a kernel pass before the first
        and after each.  Returns the per-op wall times, the round's host
        factor and, when traced, per-op self times and counts plus the
        parse totals."""
        times, layers, parse_ns, parse_counts = [], [], defaultdict(int), defaultdict(int)
        passes = [calib.pass_s()]
        k = 0
        for i, inst in enumerate(self.instances):
            spec = self.p.model.parse_qdimacs(self.texts[i])
            if tracer:
                s, c, _ = tracer.take()
                for key, v in s.items():
                    parse_ns[key] += v
                for key, v in c.items():
                    parse_counts[key] += v
            for kind in inst.ops:
                fn = OPS[kind]
                if tracer:
                    fn = tracer.wrap("bench.op", fn)
                gc.collect()
                t0 = perf_counter()
                try:
                    result = fn(self.p, spec)
                except Exception:  # count it, report it, keep measuring the rest
                    result = None
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                dt = perf_counter() - t0
                passes.append(calib.pass_s())
                self.attempted += 1
                times.append(dt)
                if tracer:
                    s, c, graphs = tracer.take()
                    c["graph.edges"] = sum(len(g.edges()) for g in graphs)
                    if kind != "analyze" and result is not None:
                        c["synth.iterations"] = result["iterations"]
                    layers.append((s, c))
                if result is not None:
                    self._check(k, inst, kind, result)
                k += 1
        return {
            "times": times,
            "factor": statistics.median(passes) / calib.REF_PASS_S,
            "layers": layers,
            "parse": (parse_ns, parse_counts),
        }

    def _check(self, k: int, inst: gen.Instance, kind: str, result) -> None:
        """Check an operation's output the first time it is seen; later
        rounds must reproduce it exactly."""
        if kind == "analyze":
            g, report = result
            fingerprint = (report.count, report.chordal, tuple(g.edges()))
        else:
            fingerprint = (
                result["status"],
                result["verified"],
                result["dl_text"],
                json.dumps(result["witness"], sort_keys=True),
            )
        if self.fingerprints[k] is not None:
            if fingerprint != self.fingerprints[k]:
                self._fail(f"{inst.name} {kind}: output differs from the first round")
            return
        self.fingerprints[k] = fingerprint
        try:
            if kind == "analyze":
                check.check_analyze(inst, list(fingerprint[2]), report.count, report.chordal)
            elif inst.realizable:
                n = check.check_realizable(inst, result, self.check_rng)
                if n != result["decisions"]:
                    raise check.CheckFailure(f"read {n} decisions, report says {result['decisions']}")
                self.decisions += n
            else:
                check.check_unrealizable(inst, result)
        except check.CheckFailure as exc:
            self._fail(f"{inst.name} {kind}: {exc}")

    def _fail(self, message: str) -> None:
        self.correct = False
        print(f"perfbench: check failed: {message}", file=sys.stderr)


def time_setup(cmd: list[str]) -> float:
    """Normalized time of one fresh interpreter importing bafsynth and
    parsing the workload's QDIMACS files, with the host factor of kernel
    passes run in that interpreter (see setup_probe.py)."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed:\n{proc.stderr.decode(errors='replace')}")
    done, pass_s = map(float, proc.stdout.split())
    return (done - t0) * calib.REF_PASS_S / pass_s


def median_round(rounds: list[dict], k: int) -> tuple[float, dict]:
    """Operation k's median normalized time over the rounds, and the round
    that gave it (the lower median when the count is even)."""
    ranked = sorted(rounds, key=lambda r: r["times"][k] / r["factor"])
    r = ranked[(len(ranked) - 1) // 2]
    return r["times"][k] / r["factor"], r


def op_times(rounds: list[dict]) -> list[float]:
    return [median_round(rounds, k)[0] for k in range(len(rounds[0]["times"]))]


def layer_metrics(traced: list[dict], untraced_corpus: float) -> dict:
    """Per-layer figures of the traced rounds.  Each operation contributes
    the self times and counts of its median traced round, divided by that
    round's host factor, so the layer self times add up to the traced
    corpus_s."""
    metrics = {}
    layers = []
    for k in range(len(traced[0]["times"])):
        _, r = median_round(traced, k)
        self_ns, counts = r["layers"][k]
        layers.append(({key: v / r["factor"] for key, v in self_ns.items()}, counts))
    by_parse = sorted(traced, key=lambda r: sum(r["parse"][0].values()) / r["factor"])
    parse_r = by_parse[(len(traced) - 1) // 2]
    parse_ns, parse_counts = parse_r["parse"]
    for span_name, metric in SELF_METRICS.items():
        if span_name == "model.parse":
            value = parse_ns.get(span_name, 0) / parse_r["factor"]
        else:
            value = sum(self_ns.get(span_name, 0) for self_ns, _ in layers)
        metrics[metric] = (value / 1e9, "s")
    for metric in COUNT_METRICS:
        value = parse_counts.get(metric, 0) + sum(c.get(metric, 0) for _, c in layers)
        metrics[metric] = (value, "count")
    corpus = sum(op_times(traced))
    metrics["trace.corpus_s"] = (corpus, "s")
    metrics["trace.overhead_s"] = (corpus - untraced_corpus, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    p = load_program()
    instances = gen.WORKLOADS[args.workload](args.seed)
    run = Run(p, instances, args.seed)
    corpus_dir = OUT / f"{args.workload}-seed{args.seed}"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (inst, text) in enumerate(zip(instances, run.texts)):
        files.append(corpus_dir / f"{i:02d}-{inst.name}.qdimacs")
        files[-1].write_text(text, encoding="utf-8")

    metrics: dict[str, tuple[float, str]] = {}
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, files)]
    setup_times: list[float] = []
    if not args.trace:
        time_setup(probe)  # warm-up: the first interpreter may write bytecode caches

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    t_end = perf_counter() + args.seconds
    while True:
        if tracer and len(traced) < len(untraced):
            tracer.install(trace_targets(p))
            try:
                traced.append(run.round(tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(run.round())
            if not args.trace:  # spread the set-up samples over the run
                setup_times.append(time_setup(probe))
        if perf_counter() >= t_end and (not tracer or traced):
            break
    while not args.trace and len(setup_times) < SETUP_MIN:
        setup_times.append(time_setup(probe))

    times = op_times(untraced)
    corpus = sum(times)
    if tracer:
        metrics.update(layer_metrics(traced, corpus))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["corpus_s"] = (corpus, "s")
        metrics["op_p50_s"] = (statistics.median(times), "s")
        metrics["dl_decisions"] = (run.decisions, "count")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    rounds = len(untraced) + len(traced)
    factor = statistics.median(r["factor"] for r in untraced + traced)
    wall = sum(statistics.median(col) for col in zip(*(r["times"] for r in untraced)))
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"operations/round {len(run.ops)}  host factor {factor:.3f}  "
          f"untraced wall corpus {wall:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:>14.6g} {unit}")
    doc = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(doc)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
