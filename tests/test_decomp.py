import random

import pytest

from bafsynth.decomp import (
    COUNTEREXAMPLE,
    DECOMP_UNREALIZABLE,
    GOOD,
    DecomposedPair,
    check_good_decomposition,
    cnf_decompose,
    compose_and_verify,
    stage1_evaluate,
)
from bafsynth.errors import LimitError
from bafsynth.model import Specification, holds, parse_qdimacs

from .conftest import identity_qdimacs, random_spec_text
from . import oracles
from .oracles import brute_force_synthesize


def test_decompose_example1(example1):
    pair = cnf_decompose(example1)
    assert pair.z_vars == (5, 6, 7, 8)
    # clause 3 has x-part (x2): biconditional clauses plus the stage-2 guard
    assert (-2, -7) in pair.f1_clauses
    assert (2, 7) in pair.f1_clauses
    assert pair.f2_spec.x_part(3) == (-7,)
    assert pair.f2_spec.y_part(3) == (3, -4)
    assert pair.f2_spec.inputs == (5, 6, 7, 8)
    assert pair.f2_spec.outputs == (3, 4)


def test_decompose_empty_xpart_forces_unit():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 0\n")
    pair = cnf_decompose(spec)
    assert (3,) in pair.f1_clauses  # z forced true


def test_decompose_zero_clauses():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 -2 0\n")
    pair = cnf_decompose(spec)
    assert pair.f1_clauses == ()
    assert pair.f2_spec.num_clauses == 0


def test_stage1_is_total_and_functional():
    rng = random.Random(443)
    for _ in range(20):
        spec = parse_qdimacs(random_spec_text(rng, max_in=3, max_out=3, max_clauses=5))
        pair = cnf_decompose(spec)
        for x in oracles.assignments(spec.inputs):
            z = stage1_evaluate(spec, pair, x)
            merged = {**x, **z}
            assert all(holds(c, merged) for c in pair.f1_clauses)
            # no other intermediate assignment satisfies stage 1
            count = sum(
                1
                for zv in oracles.assignments(pair.z_vars)
                if all(holds(c, {**x, **zv}) for c in pair.f1_clauses)
            )
            assert count == 1


def test_good_decomposition_example1(example1):
    pair = cnf_decompose(example1)
    report = check_good_decomposition(example1, pair)
    assert report.equivalence_holds and report.image_in_domain


def test_corrupted_pair_violates_equivalence(example1):
    # drop the clause forcing the first intermediate true when clause 1's
    # x-part fails; the projection then admits pairs outside the original CNF
    pair = cnf_decompose(example1)
    dropped = (1, -2, 5)
    assert dropped in pair.f1_clauses
    kept = tuple(c for c in pair.f1_clauses if c != dropped)
    broken = DecomposedPair(kept, pair.f2_spec, pair.z_vars)
    report = check_good_decomposition(example1, broken)
    assert not report.equivalence_holds
    assert report.equivalence_witness is not None
    # the witness really distinguishes the two sides
    w = report.equivalence_witness
    lhs = example1.evaluate(w)
    rhs = any(
        all(holds(c, {**w, **zv}) for c in kept)
        and broken.f2_spec.evaluate({**zv, **w})
        for zv in oracles.assignments(pair.z_vars)
    )
    assert lhs != rhs


def test_corrupted_pair_leaves_the_stage2_domain():
    # stage 2 gains (-z1 or -y3): with both x-parts false, z1 and z2 hold,
    # and stage 2 demands y3 and not y3, though the input is feasible
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    pair = cnf_decompose(spec)
    z1 = pair.z_vars[0]
    f2 = pair.f2_spec
    broken_f2 = Specification(f2.inputs, f2.outputs, (*f2.clauses, ((-z1,), (-3,))))
    broken = DecomposedPair(pair.f1_clauses, broken_f2, pair.z_vars)
    report = check_good_decomposition(spec, broken)
    assert report.image_in_domain is False
    w = report.image_witness
    assert w == {1: False, 2: False, 5: True, 6: True}
    x = {v: w[v] for v in spec.inputs}
    z = {v: w[v] for v in pair.z_vars}
    assert all(holds(c, w) for c in pair.f1_clauses)  # z is reachable from x
    assert any(spec.evaluate({**x, **y}) for y in oracles.assignments(spec.outputs))
    assert not any(broken_f2.evaluate({**z, **y}) for y in oracles.assignments(spec.outputs))


def test_good_decomposition_zero_clauses():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n2 -2 0\n")
    report = check_good_decomposition(spec, cnf_decompose(spec))
    assert report.equivalence_holds and report.image_in_domain


def test_good_decomposition_limit():
    spec = parse_qdimacs(identity_qdimacs(8))
    with pytest.raises(LimitError):
        check_good_decomposition(spec, cnf_decompose(spec), limit=16)


def test_good_decomposition_random():
    rng = random.Random(449)
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_in=3, max_out=3, max_clauses=6))
        report = check_good_decomposition(spec, cnf_decompose(spec), limit=14)
        assert report.equivalence_holds and report.image_in_domain


def test_compose_jointly_satisfiable_yparts():
    # the second stage is realizable exactly when all y-parts are jointly
    # satisfiable (the all-true intermediate assignment demands every one)
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n-2 4 0\n")
    report = compose_and_verify(spec)
    assert report.status == GOOD
    assert report.spec_realizable is True


def test_compose_example1_stage2_unrealizable(example1):
    # all four y-parts of the worked example are jointly unsatisfiable, so
    # the full-domain second stage cannot be synthesized even though the
    # original specification is realizable
    report = compose_and_verify(example1)
    assert report.status == DECOMP_UNREALIZABLE
    out = report.stage2_outcome
    assert out.witness_mfs == frozenset({1, 2, 3, 4})


def test_compose_identity2_stage2_unrealizable():
    report = compose_and_verify(parse_qdimacs(identity_qdimacs(2)))
    assert report.status == DECOMP_UNREALIZABLE


def test_compose_decomposition_unrealizable():
    # realizable overall, but the two intermediates are never both reachable
    # while the second stage must handle that joint value and cannot
    spec = parse_qdimacs("p cnf 3 2\na 1 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n")
    assert brute_force_synthesize(spec).realizable
    report = compose_and_verify(spec)
    assert report.status == DECOMP_UNREALIZABLE
    assert report.stage2_outcome is not None and not report.stage2_outcome.realizable


def test_compose_random_specs():
    rng = random.Random(457)
    statuses = set()
    for _ in range(40):
        spec = parse_qdimacs(random_spec_text(rng, max_in=3, max_out=3, max_clauses=6))
        report = compose_and_verify(spec)
        statuses.add(report.status)
        assert report.status in (GOOD, DECOMP_UNREALIZABLE)
        assert report.status != COUNTEREXAMPLE  # composition is never wrong
    assert GOOD in statuses
