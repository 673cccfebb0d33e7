"""Smoke tests for tools/ab.py, the in-process A/B timer."""

import argparse
import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from bafsynth.cli import RunConfig, run_pipeline
from bafsynth.model import parse_qdimacs

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
    # the chain's 300 outputs get two decisions each on both sides
    assert lines[1].endswith(" s, 600 decisions per pass")
    assert lines[2].endswith(" s, 600 decisions per pass")
    assert lines[3].startswith("B / A = ") and lines[3].endswith("of 2 passes")
    assert lines[4] == "verdict: too few passes for a verdict"


def test_ab_counts_the_decisions_of_synth_operations_only():
    # graph-structure runs `analyze` and an mfs-enum `synth` on each
    # instance; only the synth reports have decisions
    res = _ab(str(ROOT), str(ROOT), "--workload", "graph-structure", "--passes", "1")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].endswith(" s, 61 decisions per pass")


def test_ab_times_planted_shapes_in_place_of_a_workload():
    res = _ab(str(ROOT), str(ROOT), "--shape", "3x2x6", "--shape", "4x3x8", "--passes", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "shapes 3x2x6 4x3x8, 1 passes"
    ab = _load_ab()
    corpus = ab.shape_corpus([(3, 2, 6), (4, 3, 8)])
    assert [inst.name for inst in corpus] == ["planted-3x2-6", "planted-4x3-8"]
    assert all(inst.ops == ("synth",) for inst in corpus)
    decisions = sum(
        run_pipeline(parse_qdimacs(inst.qdimacs()), RunConfig())["decisions"] for inst in corpus
    )
    assert lines[1].endswith(f" s, {decisions} decisions per pass")
    assert lines[2].endswith(f" s, {decisions} decisions per pass")


def _decisions(texts, mode):
    return sum(run_pipeline(parse_qdimacs(t), RunConfig(mode=mode))["decisions"] for t in texts)


def test_ab_synthesizes_shapes_in_the_mode_asked_for():
    res = _ab(str(ROOT), str(ROOT), "--shape", "4x3x8", "--mode", "mfs-enum", "--passes", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "shapes 4x3x8, mfs-enum, 1 passes"
    (inst,) = _load_ab().shape_corpus([(4, 3, 8)])
    decisions = _decisions([inst.qdimacs()], "mfs-enum")
    # one decision per MFS, more than back-and-forth keeps
    assert decisions > _decisions([inst.qdimacs()], "back-and-forth")
    assert lines[1].endswith(f" s, {decisions} decisions per pass")
    assert lines[2].endswith(f" s, {decisions} decisions per pass")


def test_ab_times_random_2qbf_specs():
    res = _ab(str(ROOT), str(ROOT), "--random", "4x4x10:3", "--random", "3x4x6", "--passes", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "random 4x4x10:3 3x4x6:0, 1 passes"
    qbfgen = _load_ab().qbfgen
    texts = [qbfgen.random_2qbf(3, 4, 4, 10), qbfgen.random_2qbf(0, 3, 4, 6)]
    decisions = _decisions(texts, "back-and-forth")
    assert decisions > 0
    assert lines[1].endswith(f" s, {decisions} decisions per pass")
    res = _ab(str(ROOT), str(ROOT), "--random", "3x4x6", "--mode", "mfs-enum", "--passes", "1")
    assert res.returncode == 0, res.stderr
    decisions = _decisions(texts[1:], "mfs-enum")
    assert res.stdout.splitlines()[1].endswith(f" s, {decisions} decisions per pass")


def test_ab_rejects_a_malformed_random_shape_and_a_mode_for_a_workload():
    # tests/test_qbfgen.py checks which shapes are refused
    res = _ab(str(ROOT), str(ROOT), "--random", "2x3x33")
    assert res.returncode == 2
    assert "argument --random: 2x3x33 needs M >= 2, N >= 3 and 1 <= K <= 32" in res.stderr
    res = _ab(str(ROOT), str(ROOT), "--workload", "equiv-chain", "--mode", "mfs-enum")
    assert res.returncode == 2
    assert "--mode applies to --shape and --random only" in res.stderr


def test_ab_rejects_a_malformed_shape():
    shape = _load_ab().shape
    assert shape("12x10x300") == (12, 10, 300)
    for bad in ("3x2", "3x0x6", "1x2x6", "2x1x6", "3x2x0", "axbxc", "3x2x6x1", "-3x2x6"):
        with pytest.raises(argparse.ArgumentTypeError):
            shape(bad)
    res = _ab(str(ROOT), str(ROOT), "--shape", "3x0x6")
    assert res.returncode != 0
    assert "'3x0x6' is not MxNxK" in res.stderr


def _planted_clause_count(m, n, image):
    """The distinct clauses gen.planted can draw over m inputs and n outputs
    when output y copies the literal image[y], found by trying every draw."""
    inputs, outputs = range(1, m + 1), range(m + 1, m + n + 1)
    signs = [(s, t) for s in (1, -1) for t in (1, -1)]
    ylits = [[s * y] for y in outputs for s in (1, -1)]
    ylits += [[s * y, t * z] for y in outputs for z in outputs if y != z for s, t in signs]
    xlits = [set()] + [{s * x} for x in inputs for s in (1, -1)]
    xlits += [{s * x, t * w} for x in inputs for w in inputs if x < w for s, t in signs]
    clauses = set()
    for ys in ylits:
        img = image[abs(ys[0])] * (1 if ys[0] > 0 else -1)
        for xs in xlits:
            if img not in xs:
                clauses.add((frozenset(xs | {-img}), frozenset(ys)))
    return len(clauses)


def test_ab_refuses_more_clauses_than_planted_can_form():
    ab = _load_ab()
    assert ab.planted_clauses(2, 2) == 36
    # the bound holds for every planted function on small shapes
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        literals = [s * x for x in range(1, m + 1) for s in (1, -1)]
        counts = [
            _planted_clause_count(m, n, dict(zip(range(m + 1, m + n + 1), images)))
            for images in itertools.product(literals, repeat=n)
        ]
        assert max(counts) <= ab.planted_clauses(m, n), (m, n)
    assert ab.shape("2x2x36") == (2, 2, 36)
    with pytest.raises(argparse.ArgumentTypeError):
        ab.shape("2x2x37")
    res = _ab(str(ROOT), str(ROOT), "--shape", "2x2x500")
    assert res.returncode == 2
    assert "'2x2x500' asks for more than the 36 distinct clauses" in res.stderr


def test_ab_takes_a_workload_or_shapes_but_not_both():
    res = _ab(str(ROOT), str(ROOT), "--shape", "3x2x6", "--workload", "equiv-chain")
    assert res.returncode != 0
    assert "not allowed with" in res.stderr


def test_ab_rejects_a_directory_without_sources(tmp_path):
    res = _ab(str(ROOT), str(tmp_path), "--workload", "equiv-chain")
    assert res.returncode != 0
    assert "no bafsynth sources" in res.stderr


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_needs_ten_passes_and_nine_wins_beyond_the_spread():
    verdict = _load_ab().verdict
    a = [1.0 + 0.01 * k for k in range(10)]  # quartiles 1.0175 and 1.0725
    assert verdict(a[:9], [t / 2 for t in a[:9]]) == "too few passes for a verdict"
    assert verdict(a, [t - 0.06 for t in a]) == "B faster"
    assert verdict(a, [t + 0.06 for t in a]) == "B slower"
    # every pass won, but by less than A's interquartile range
    assert verdict(a, [t - 0.05 for t in a]) == "within noise"
    # far faster in 8 of 10 passes, and a tie, and a loss
    b = [t - 0.5 for t in a[:8]] + [a[8], a[9] + 1]
    assert verdict(a, b) == "within noise"
    b[8] -= 0.5  # 9 of 10
    assert verdict(a, b) == "B faster"
    assert verdict(b, a) == "B slower"
    assert verdict(a, a) == "within noise"  # ties count for neither side


def test_each_pass_is_divided_by_the_kernel_times_around_it():
    ab = _load_ab()
    ref = ab.calib.REF_PASS_S
    assert ab.normalize(0.5, ref, ref) == pytest.approx(0.5)
    # a host twice as slow doubles both the pass and the kernel
    assert ab.normalize(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    # the factor is the mean of the kernel passes before and after
    assert ab.normalize(0.75, ref, 2 * ref) == pytest.approx(0.5)
    assert ab.normalize(0.75, 2 * ref, ref) == pytest.approx(0.5)
    # a slow phase that hits every B pass reads within noise once normalized
    a = [1.0 + 0.01 * k for k in range(10)]
    raw = [2 * t for t in a]
    assert ab.verdict(a, raw) == "B slower"
    assert ab.verdict(a, [ab.normalize(t, 2 * ref, 2 * ref) for t in raw]) == "within noise"
