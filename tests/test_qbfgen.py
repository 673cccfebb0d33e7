"""tools/qbfgen.py, the random 2QBF generator."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from bafsynth.model import parse_qdimacs

QBFGEN = Path(__file__).resolve().parent.parent / "tools" / "qbfgen.py"


def _load_qbfgen():
    spec = importlib.util.spec_from_file_location("qbfgen", QBFGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_clause_has_two_inputs_and_three_outputs_and_none_repeats():
    qbfgen = _load_qbfgen()
    for seed in range(5):
        spec = parse_qdimacs(qbfgen.random_2qbf(seed, 4, 5, 30))
        assert spec.inputs == (1, 2, 3, 4) and spec.outputs == (5, 6, 7, 8, 9)
        assert spec.num_clauses == 30
        for x_lits, y_lits in spec.clauses:
            assert len({abs(l) for l in x_lits}) == len(x_lits) == 2
            assert len({abs(l) for l in y_lits}) == len(y_lits) == 3
        assert len({frozenset(x + y) for x, y in spec.clauses}) == 30


def test_every_distinct_clause_can_be_drawn():
    qbfgen = _load_qbfgen()
    # 2 inputs and 3 outputs: one variable choice, 2^5 sign choices
    assert qbfgen.distinct_clauses(2, 3) == 32
    assert qbfgen.distinct_clauses(4, 5) == 6 * 10 * 32
    spec = parse_qdimacs(qbfgen.random_2qbf(1, 2, 3, 32))
    assert len({frozenset(x + y) for x, y in spec.clauses}) == 32
    for m, n, k in ((1, 3, 1), (2, 2, 1), (2, 3, 0), (2, 3, 33)):
        with pytest.raises(ValueError, match="needs M >= 2, N >= 3"):
            qbfgen.random_2qbf(0, m, n, k)


def test_a_seed_draws_the_same_spec_and_another_seed_another():
    qbfgen = _load_qbfgen()
    texts = [qbfgen.random_2qbf(seed, 5, 5, 20) for seed in (0, 0, 1)]
    assert texts[0] == texts[1] != texts[2]


def test_a_shape_reads_an_optional_seed():
    shape = _load_qbfgen().shape
    assert shape("20x20x130") == (20, 20, 130, 0)
    assert shape("20x20x130:7") == (20, 20, 130, 7)
    for bad in ("20x20", "20x20x130:", "20x20x130:-1", "axbxc", "2x2x1"):
        with pytest.raises(argparse.ArgumentTypeError):
            shape(bad)
