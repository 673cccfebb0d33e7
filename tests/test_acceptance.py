"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.  The random corpora are seeded, so every run checks the
same instances.
"""

import json
import random
import time

import pytest

from bafsynth.cli import main
from bafsynth.dlist import evaluate
from bafsynth.graph import analyze_structure, build_conflict_graph, enumerate_mis
from bafsynth.maxsat import (
    HARD_UNSAT,
    OPTIMAL,
    MaxSatInstance,
    MaxSatSession,
    TableSession,
    solve_partial_maxsat,
)
from bafsynth.model import parse_qdimacs
from bafsynth.synth import back_and_forth, synth_by_mss_enumeration
from bafsynth.verify import verify_decision_list
from bafsynth.decomp import (
    DECOMP_UNREALIZABLE,
    GOOD,
    check_good_decomposition,
    cnf_decompose,
    compose_and_verify,
)

from .conftest import (
    EXAMPLE1_TEXT,
    identity_qdimacs,
    random_spec_text,
    random_synth_spec_text,
)
from . import oracles
from .oracles import brute_force_mfs_mss, brute_force_synthesize

CORPUS_SEED = 20250811
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [parse_qdimacs(random_synth_spec_text(rng)) for _ in range(CORPUS_SIZE)]


def test_criterion_1_worked_example_exactness():
    t0 = time.perf_counter()
    spec = parse_qdimacs(EXAMPLE1_TEXT)
    assert [spec.x_part(i).lits for i in spec.indices] == [
        (1, -2),
        (1, 2),
        (2,),
        (-1, 2),
    ]
    assert [spec.y_part(i).lits for i in spec.indices] == [
        (3,),
        (-3,),
        (3, -4),
        (4,),
    ]
    enum = enumerate_mis(build_conflict_graph(spec), 100)
    assert set(enum.sets) == {frozenset({1}), frozenset({2, 3}), frozenset({3, 4})}
    mss_dl = synth_by_mss_enumeration(spec).decision_list
    found_mss = {frozenset(spec.indices) - d.guard for d in mss_dl.decisions}
    assert found_mss == {frozenset({1, 3, 4}), frozenset({2, 3}), frozenset({2, 4})}
    out = back_and_forth(spec)
    assert out.realizable
    assert out.stats.iterations == 2
    decisions = out.decision_list.decisions
    assert [sorted(d.guard) for d in decisions] == [[2], [1, 4]]
    assert decisions[0].output == {3: True, 4: True}
    assert decisions[1].output == {3: False, 4: False}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: worked-example exactness ({elapsed:.3f} s)")


def test_criterion_2_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    realizable = unrealizable = 0
    for spec in corpus:
        table = brute_force_synthesize(spec)
        out = back_and_forth(spec)
        assert out.realizable == table.realizable
        if table.realizable:
            realizable += 1
            assert verify_decision_list(spec, out.decision_list).verified
            for xbits, _ in table.entries.items():
                x = dict(zip(spec.inputs, xbits))
                y = evaluate(out.decision_list, x)
                assert y is not None
                assert spec.evaluate({**x, **y})
        else:
            unrealizable += 1
            witness_parts = [spec.y_part(i).lits for i in out.witness_mfs]
            assert oracles.cnf_model(witness_parts, spec.outputs) is None
    elapsed = time.perf_counter() - t0
    assert realizable and unrealizable  # the corpus exercises both outcomes
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 2 PASS: {realizable} realizable + {unrealizable} "
        f"unrealizable specs, 100% oracle agreement ({elapsed:.1f} s)"
    )


def test_criterion_3_iteration_bound(corpus):
    strict = 0
    for spec in corpus:
        out = back_and_forth(spec)
        if not out.realizable:
            continue
        mfs_all, mss_all = brute_force_mfs_mss(spec)
        bound = min(len(mfs_all), len(mss_all))
        assert out.stats.iterations <= bound
        if out.stats.iterations < bound:
            strict += 1
    assert strict >= 1
    print(f"\nACCEPTANCE 3 PASS: iteration bound held, strict on {strict} instances")


def test_criterion_4_partitioning_scaling(tmp_path, capsys):
    t0 = time.perf_counter()
    f = tmp_path / "id16.qdimacs"
    f.write_text(identity_qdimacs(16))
    code = main(["synth", str(f), "--dl", str(tmp_path / "id16.dl")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["partitions"] == 16
    assert doc["decisions"] == 32
    assert doc["verified"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    mfs, mss = brute_force_mfs_mss(parse_qdimacs(identity_qdimacs(8)), clause_limit=20)
    assert len(mfs) == 256
    assert len(mss) == 256
    print(
        f"\nACCEPTANCE 4 PASS: width 16 partitioned into 16x2 decisions in "
        f"{elapsed:.2f} s; width 8 has 256 MFS and 256 MSS"
    )


def test_criterion_5_maxsat_exactness():
    rng = random.Random(CORPUS_SEED + 1)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        hard = []
        for _ in range(rng.randint(0, 4)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            hard.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        soft = []
        for _ in range(rng.randint(1, 10)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            soft.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        inst = MaxSatInstance.of(hard, soft)
        feasible, best = oracles.maxsat_optimum(hard, soft, range(1, n + 1))
        variables = range(1, n + 1)
        # the library default, and each session kind whatever the default picks
        for res in (
            solve_partial_maxsat(inst),
            TableSession(variables, soft, hard).solve(),
            MaxSatSession(variables, soft, hard).solve(),
        ):
            if feasible:
                assert res.status == OPTIMAL and res.num_satisfied == best
            else:
                assert res.status == HARD_UNSAT
        checked += 1
    print(f"\nACCEPTANCE 5 PASS: {checked} partial-MaxSAT instances exact, table and solver sessions")


def test_criterion_6_structural_analysis():
    spec = parse_qdimacs(EXAMPLE1_TEXT)
    report = analyze_structure(build_conflict_graph(spec), 10000)
    assert report.count == 3

    rng = random.Random(CORPUS_SEED + 2)
    for _ in range(100):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=12))
        g = build_conflict_graph(spec)
        report = analyze_structure(g, 10**6)
        mfs, _ = brute_force_mfs_mss(spec)
        assert report.count == len(mfs)

    for _ in range(100):
        n = rng.randint(1, 10)
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.45
        ]
        adj = [set() for _ in range(n + 1)]
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        # feed the complement so the consensus side is the sampled graph
        comp_adj = tuple(
            frozenset(
                j
                for j in range(1, n + 1)
                if j != i and j not in adj[i]
            )
            for i in range(0, n + 1)
        )
        from bafsynth.graph import ConflictGraph

        report = analyze_structure(ConflictGraph(n, comp_adj), 10**9)
        assert report.chordal == (not oracles.has_chordless_cycle(adj, n))
    print("\nACCEPTANCE 6 PASS: clique counts and chordality match brute force")


def test_criterion_7_decomposition():
    rng = random.Random(CORPUS_SEED + 3)
    composed = skipped = 0
    for _ in range(100):
        spec = parse_qdimacs(random_spec_text(rng, max_in=5, max_out=5, max_clauses=6))
        pair = cnf_decompose(spec)
        report = check_good_decomposition(spec, pair, limit=16)
        assert report.good
        if not brute_force_synthesize(spec).realizable:
            skipped += 1
            continue
        result = compose_and_verify(spec, limit=16)
        if result.status == DECOMP_UNREALIZABLE:
            # only legitimate when the y-parts are jointly unsatisfiable
            all_parts = [spec.y_part(i).lits for i in spec.indices]
            assert oracles.cnf_model(all_parts, spec.outputs) is None
            skipped += 1
            continue
        assert result.status == GOOD
        composed += 1
    assert composed >= 1
    print(
        f"\nACCEPTANCE 7 PASS: 100 decompositions good; "
        f"{composed} compositions verified, {skipped} out of scope"
    )


def test_criterion_8_determinism(tmp_path, capsys):
    f = tmp_path / "ex1.qdimacs"
    f.write_text(EXAMPLE1_TEXT)
    artifacts = []
    for i in (1, 2):
        dl = tmp_path / f"run{i}.dl"
        js = tmp_path / f"run{i}.json"
        assert main(["synth", str(f), "--dl", str(dl), "--json", str(js)]) == 0
        capsys.readouterr()
        artifacts.append((dl.read_bytes(), json.loads(js.read_text())))

    def strip(doc):
        if isinstance(doc, dict):
            return {
                k: strip(v)
                for k, v in doc.items()
                if not k.endswith("_ms") and k != "dl_path"
            }
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc

    assert artifacts[0][0] == artifacts[1][0]
    assert strip(artifacts[0][1]) == strip(artifacts[1][1])
    print("\nACCEPTANCE 8 PASS: byte-identical artifacts across runs")
