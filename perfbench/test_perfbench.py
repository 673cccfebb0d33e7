"""Tests of the benchmark's own generators, checkers and tracer.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import random

import pytest

import check
import gen
import run
from tracing import Tracer

P = run.load_program()


def brute_force_realizable(inst: gen.Instance) -> list[dict[int, bool]]:
    """Inputs with no feasible output, by exhausting both blocks."""
    bad = []
    for xbits in itertools.product((False, True), repeat=len(inst.inputs)):
        x = dict(zip(inst.inputs, xbits))
        if not any(
            all(check._satisfied(c, {**x, **dict(zip(inst.outputs, ybits))}) for c in inst.clauses)
            for ybits in itertools.product((False, True), repeat=len(inst.outputs))
        ):
            bad.append(x)
    return bad


def synth(inst: gen.Instance, mode: str = "back-and-forth") -> dict:
    spec = P.model.parse_qdimacs(inst.qdimacs())
    return P.cli.run_pipeline(spec, P.cli.RunConfig(mode=mode))


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == {
        *run.SELF_METRICS.values(), *run.COUNT_METRICS, "trace.corpus_s", "trace.overhead_s"
    }
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "corpus_s", "op_p50_s", "dl_decisions", "peak_rss_mb"
    }


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    make = gen.WORKLOADS[workload]
    texts = [i.qdimacs() for i in make(7)]
    assert texts == [i.qdimacs() for i in make(7)]
    assert texts != [i.qdimacs() for i in make(8)]
    for inst in make(7):
        spec = P.model.parse_qdimacs(inst.qdimacs())
        assert spec.num_clauses == len(inst.clauses)  # nothing normalised away


def test_small_planted_specs_are_realizable_by_brute_force():
    rng = random.Random(1)
    for _ in range(20):
        assert brute_force_realizable(gen.planted(rng, 4, 3, 12, contradiction=False)) == []
        assert brute_force_realizable(gen.planted(rng, 4, 3, 12, contradiction=True)) != []


def test_relabelling_keeps_realizability_and_structure():
    rng = random.Random(2)
    base = gen.chain_matching(6, 3)
    inst = gen._relabel(base, rng)
    assert brute_force_realizable(gen._relabel(gen.planted(rng, 4, 3, 10, False), rng)) == []
    g = P.graph.build_conflict_graph(P.model.parse_qdimacs(inst.qdimacs()))
    check.check_analyze(inst, g.edges(), 8, False)


def test_realizable_checker_accepts_program_output_and_rejects_corruption():
    inst = gen._relabel(gen.equivalence(3), random.Random(3), flip=False)
    result = synth(inst)
    assert check.check_realizable(inst, result, random.Random(0)) == 6
    lines = result["dl_text"].splitlines()
    d = next(i for i, line in enumerate(lines) if line.startswith("d "))
    lines[d] = lines[d][:-1] + ("0" if lines[d].endswith("1") else "1")
    with pytest.raises(check.CheckFailure):
        check.check_realizable(inst, {**result, "dl_text": "\n".join(lines)}, random.Random(0))
    with pytest.raises(check.CheckFailure):
        check.check_realizable(inst, {**result, "dl_text": "dl 1\nbogus\n"}, random.Random(0))


def test_mfs_checker_rejects_a_missing_decision():
    inst = gen._relabel(gen.chain_matching(5, 2), random.Random(4))
    result = synth(inst, "mfs-enum")
    assert check.check_realizable(inst, result, random.Random(0)) == 4
    text = "\n".join(result["dl_text"].splitlines()[:-1]) + "\n"
    with pytest.raises(check.CheckFailure):
        check.check_realizable(inst, {**result, "dl_text": text}, random.Random(0))


def test_unrealizable_checker_rejects_a_wrong_witness():
    inst = gen.planted(random.Random(5), 4, 3, 10, contradiction=True)
    result = synth(inst)
    check.check_unrealizable(inst, result)
    bad = brute_force_realizable(inst)
    good = next(
        dict(zip(inst.inputs, bits))
        for bits in itertools.product((False, True), repeat=len(inst.inputs))
        if dict(zip(inst.inputs, bits)) not in bad
    )
    wrong = {**result["witness"], "input": {str(v): b for v, b in good.items()}}
    with pytest.raises(check.CheckFailure):
        check.check_unrealizable(inst, {**result, "witness": wrong})
    with pytest.raises(check.CheckFailure):
        check.check_unrealizable(inst, {**result, "status": "realizable"})


def test_analyze_checker_rejects_a_wrong_clique_count_or_chordality():
    inst = gen.chain_matching(4, 2)
    g = P.graph.build_conflict_graph(P.model.parse_qdimacs(inst.qdimacs()))
    report = P.graph.analyze_structure(g, 100)
    check.check_analyze(inst, g.edges(), report.count, report.chordal)
    with pytest.raises(check.CheckFailure):
        check.check_analyze(inst, g.edges(), report.count + 1, report.chordal)
    with pytest.raises(check.CheckFailure):
        check.check_analyze(inst, g.edges(), report.count, not report.chordal)


def test_traced_round_restores_the_program_and_accounts_for_its_time():
    originals = [getattr(owner, attr) for owner, attr, _ in run.trace_targets(P)]
    insts = [gen._relabel(gen.planted(random.Random(6), 5, 4, 14, c), random.Random(6)) for c in (False, True)]
    bench = run.Run(P, insts, seed=0)
    tracer = Tracer()
    tracer.install(run.trace_targets(P))
    try:
        traced = bench.round(tracer)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in run.trace_targets(P)] == originals
    bench.round()
    assert bench.correct and bench.failed == 0 and bench.attempted == 4
    for (self_ns, counts), seconds in zip(traced["layers"], traced["times"]):
        assert sum(self_ns.values()) / 1e9 == pytest.approx(seconds, rel=0.05, abs=1e-3)
        assert counts["sat.solve_calls"] == counts["sat.sat_results"] + counts["sat.unsat_results"]
    roots = [s for s in tracer.spans if s[0] == "bench.op"]
    assert len(roots) == 2 and all(s[3] == -1 for s in roots)


def test_op_times_are_medians_of_host_normalized_times():
    rounds = [
        {"times": [1.0, 4.0], "factor": 1.0},
        {"times": [3.0, 3.0], "factor": 2.0},  # slow host: 1.5, 1.5 at reference speed
        {"times": [0.5, 9.0], "factor": 0.5},  # fast host: 1.0, 18.0
    ]
    assert run.op_times(rounds) == [1.0, 4.0]
    assert run.median_round(rounds, 1)[1] is rounds[0]
