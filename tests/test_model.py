import random

import pytest

from bafsynth.errors import ParseError
from bafsynth.model import (
    Specification,
    fals,
    holds,
    index_mask,
    mask_indices,
    parse_qdimacs,
    true_literals,
)
from bafsynth.synth import partition_by_output_variables

from .conftest import random_spec_text, random_synth_spec_text, repeated_ypart_spec_text
from . import oracles


def test_single_clause_split():
    spec = parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    assert spec.inputs == (1,)
    assert spec.outputs == (2,)
    assert spec.num_clauses == 1
    assert spec.x_part(1) == (1,)
    assert spec.y_part(1) == (2,)


def test_example1_split_parts(example1):
    assert [example1.x_part(i) for i in example1.indices] == [
        (1, -2),
        (1, 2),
        (2,),
        (-1, 2),
    ]
    assert [example1.y_part(i) for i in example1.indices] == [
        (3,),
        (-3,),
        (3, -4),
        (4,),
    ]


def test_quantifier_order_rejected():
    with pytest.raises(ParseError, match="precede"):
        parse_qdimacs("p cnf 2 1\ne 2 0\na 1 0\n1 2 0\n")


def test_more_than_one_alternation_rejected():
    with pytest.raises(ParseError):
        parse_qdimacs("p cnf 3 1\na 1 0\ne 2 0\na 3 0\n1 2 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 3 1\na 1 0\ne 2 0\ne 3 0\n1 2 0\n", "more than one existential line"),
        ("p cnf 2 0\ne 1 2 0\n", r"missing universal \(`a`\) line"),
        ("p cnf 2 0\na 1 2 0\n", r"missing existential \(`e`\) line"),
        ("p cnf 2 1\na 1 1 0\ne 2 0\n1 2 0\n", "duplicate variable in quantifier line"),
    ],
    ids=["second-e", "no-a", "no-e", "repeated-id"],
)
def test_a_quantifier_prefix_needs_one_line_of_each_block_without_repeats(text, message):
    with pytest.raises(ParseError, match=message):
        parse_qdimacs(text)


def test_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_qdimacs("p dnf 2 1\na 1 0\ne 2 0\n1 2 0\n")


def test_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse_qdimacs("")
    with pytest.raises(ParseError, match="empty"):
        parse_qdimacs("c just a comment\n")


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse_qdimacs("p cnf 3 1\na 1 0\ne 2 0\n1 2 3 0\n")


def test_variable_in_both_blocks_rejected():
    with pytest.raises(ParseError, match="both"):
        parse_qdimacs("p cnf 2 1\na 1 2 0\ne 2 0\n1 2 0\n")


def test_unterminated_clause_rejected():
    with pytest.raises(ParseError, match="terminated"):
        parse_qdimacs("p cnf 2 1\na 1 0\ne 2 0\n1 2\n")


def test_tautologies_dropped_and_duplicates_merged():
    spec = parse_qdimacs(
        "p cnf 2 4\na 1 0\ne 2 0\n1 -1 2 0\n1 2 0\n1 2 0\n2 -2 0\n"
    )
    assert spec.num_clauses == 1
    assert spec.clauses == (((1,), (2,)),)


def test_bytes_input_accepted():
    spec = parse_qdimacs(b"p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n")
    assert spec.num_clauses == 1


def test_empty_clause_retained_and_flagged():
    spec = parse_qdimacs("p cnf 2 2\na 1 0\ne 2 0\n0\n1 2 0\n")
    assert spec.num_clauses == 2
    assert spec.clauses[0] == ((), ())
    assert spec.empty_ypart_indices == (1,)


def test_fals_example1(example1):
    assert fals(example1, {1: False, 2: True}) == frozenset({1})
    assert fals(example1, {1: True, 2: True}) == frozenset()
    assert fals(example1, {1: False, 2: False}) == frozenset({2, 3})


def test_fals_empty_xpart_always_included():
    spec = parse_qdimacs("p cnf 3 2\na 1 0\ne 2 3 0\n2 3 0\n1 3 0\n")
    for x1 in (False, True):
        assert 1 in fals(spec, {1: x1})


def test_fals_requires_total_assignment(example1):
    with pytest.raises(ValueError, match="total"):
        fals(example1, {1: True})


def test_split_roundtrip_and_disjointness():
    rng = random.Random(7)
    for _ in range(50):
        spec = parse_qdimacs(random_spec_text(rng))
        for x_lits, y_lits in spec.clauses:
            for part, block in ((x_lits, spec.inputs), (y_lits, spec.outputs)):
                variables = [abs(l) for l in part]
                assert variables == sorted(set(variables))  # canonical: strictly ascending
                assert set(variables) <= set(block)
        for line, (x_lits, y_lits) in zip(spec.to_qdimacs().splitlines()[3:], spec.clauses):
            merged = sorted(x_lits + y_lits, key=lambda l: (abs(l), l))
            assert [int(t) for t in line.split()[:-1]] == merged


def test_fals_monotonicity_implies_mustsat_monotonicity():
    # the y-parts an output must satisfy at x are those indexed by fals(x), so
    # fals(xa) <= fals(xb) means every output that works for xb works for xa
    rng = random.Random(11)
    for _ in range(25):
        spec = parse_qdimacs(random_spec_text(rng, max_in=4, max_clauses=8))
        points = list(oracles.assignments(spec.inputs))
        ys = list(oracles.assignments(spec.outputs))
        works = [{k for k, y in enumerate(ys) if spec.evaluate({**x, **y})} for x in points]
        for a, xa in enumerate(points):
            for b, xb in enumerate(points):
                if fals(spec, xa) <= fals(spec, xb):
                    assert works[b] <= works[a]


def test_serialize_parse_fixpoint():
    rng = random.Random(13)
    for _ in range(50):
        spec = parse_qdimacs(random_spec_text(rng))
        again = parse_qdimacs(spec.to_qdimacs())
        assert again == spec
        assert again.digest == spec.digest


def test_normalization_preserves_semantics():
    rng = random.Random(17)
    for _ in range(30):
        text = random_spec_text(rng, max_in=3, max_out=3, max_clauses=8)
        spec = parse_qdimacs(text)
        # reparse the raw clause lines independently of the normalization
        raw = []
        for line in text.splitlines()[3:]:
            lits = [int(t) for t in line.split()[:-1]]
            raw.append(lits)
        variables = list(spec.inputs) + list(spec.outputs)
        for a in oracles.assignments(variables):
            original = all(oracles.clause_sat(c, a) for c in raw)
            assert spec.evaluate(a) == original


def test_specification_validation():
    with pytest.raises(ValueError, match="overlap"):
        Specification((1,), (1,), ())
    with pytest.raises(ValueError, match="duplicate variable in a quantifier block"):
        Specification((1, 1), (2,), ())
    with pytest.raises(ValueError, match="variable ids must be positive"):
        Specification((0, 1), (2,), ())
    with pytest.raises(ValueError, match="duplicate clause"):
        clause = ((1,), (2,))
        Specification((1,), (2,), (clause, clause))
    with pytest.raises(ValueError, match="non-input"):
        Specification((1,), (2,), (((2,), ()),))


@pytest.mark.parametrize(
    "clause, message",
    [
        (((0,), (3,)), "literal 0"),
        (((), (3, 0)), "literal 0"),
        (((-1, 1), (3,)), "complementary"),
        (((1,), (3, -3)), "complementary"),
        (((1, 1), (3,)), "repeats literal 1"),
        (((1,), (-4, -4)), "repeats literal -4"),
        (((2, 1), (3,)), "x-part is not sorted"),
        (((1,), (4, -3)), "y-part is not sorted"),
        (((1, 3), (4,)), "x-part uses a non-input variable"),
        (((1,), (2,)), "y-part uses a non-output variable"),
    ],
)
def test_specification_checks_each_part(clause, message):
    with pytest.raises(ValueError, match=message):
        Specification((1, 2), (3, 4), (((2,), (3,)), clause))


@pytest.mark.parametrize(
    "clause, message",
    [
        (([1], [3]), "x-part is not a tuple"),
        (((1,), [3]), "y-part is not a tuple"),
        ([(1,), (3,)], r"not an \(x-part, y-part\) pair"),
        (((1,), (3,), ()), r"not an \(x-part, y-part\) pair"),
    ],
    ids=["x-list", "y-list", "clause-list", "triple"],
)
def test_specification_names_a_part_that_is_not_a_tuple(clause, message):
    with pytest.raises(ValueError, match=message):
        Specification((1, 2), (3, 4), (((2,), (3,)), clause))


def test_specification_accepts_canonical_parts():
    spec = Specification((1, 2), (3, 4), (((-1, 2), (3, -4)), ((), (4,)), ((1,), ())))
    assert spec.x_part(1) == (-1, 2) and spec.y_part(3) == ()
    assert parse_qdimacs(spec.to_qdimacs()) == spec


def test_unused_declared_variables_are_retained():
    spec = parse_qdimacs("p cnf 4 1\na 1 2 0\ne 3 4 0\n1 3 0\n")
    assert spec.inputs == (1, 2)
    assert spec.outputs == (3, 4)


def test_declared_variable_exceeding_header_count_rejected():
    with pytest.raises(ParseError, match="exceeds"):
        parse_qdimacs("p cnf 2 1\na 1 0\ne 5 0\n1 5 0\n")


def test_empty_quantifier_blocks_allowed():
    spec = parse_qdimacs("p cnf 2 2\na 0\ne 1 2 0\n1 0\n2 0\n")
    assert spec.inputs == ()
    assert spec.num_clauses == 2
    assert fals(spec, {}) == frozenset({1, 2})


def test_ypart_groups_index_the_clauses_by_output_part():
    rng = random.Random(89)
    for _ in range(300):
        spec = parse_qdimacs(repeated_ypart_spec_text(rng))
        groups = spec.ypart_groups
        assert [lits for lits, _ in groups] == list(
            dict.fromkeys(spec.y_part(i) for i in spec.indices)
        )
        for lits, mask in groups:
            assert sorted(mask_indices(mask)) == list(mask_indices(mask))
            assert list(mask_indices(mask)) == [
                i for i in spec.indices if spec.y_part(i) == lits
            ]
            assert index_mask(mask_indices(mask)) == mask
        assert sum(mask for _, mask in groups) == spec.full_mask
        assert list(mask_indices(spec.full_mask)) == list(spec.indices)


def test_xpart_groups_index_each_xpart_by_the_clauses_that_contain_it():
    rng = random.Random(97)
    nested = 0
    for _ in range(300):
        spec = parse_qdimacs(random_spec_text(rng, max_in=3, max_out=3, max_clauses=14))
        groups = spec.xpart_groups
        assert [lits for lits, _ in groups] == list(
            dict.fromkeys(spec.x_part(i) for i in spec.indices)
        )
        for lits, mask in groups:
            assert list(mask_indices(mask)) == [
                i for i in spec.indices if set(lits) < set(spec.x_part(i))
            ]
            nested += mask != 0
    assert nested >= 300


def test_occurs_and_holders_match_a_set_reference():
    # every component is checked too: `restrict` must not hand a component
    # its parent's index, which numbers the parent's clauses
    rng = random.Random(101)
    generators = (random_spec_text, random_synth_spec_text, repeated_ypart_spec_text)
    components = held_by_several = 0
    for n in range(300):
        whole = parse_qdimacs(generators[n % 3](rng))
        parts = partition_by_output_variables(whole)
        components += len(parts)
        for spec in (whole, *parts):
            held = {i: set(spec.x_part(i) + spec.y_part(i)) for i in spec.indices}
            lits = set().union(*held.values())
            assert set(spec.occurs) == lits
            for l in lits:
                assert spec.occurs[l] == index_mask(i for i in spec.indices if l in held[i])
            assert spec.holders(()) == spec.full_mask == index_mask(spec.indices)
            variables = spec.inputs + spec.outputs
            queries = [tuple(held[i]) for i in spec.indices]
            for _ in range(10):
                chosen = rng.sample(variables, rng.randint(0, min(3, len(variables))))
                queries.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
            for query in queries:
                expected = index_mask(i for i in spec.indices if held[i] >= set(query))
                assert spec.holders(query) == expected
                held_by_several += expected.bit_count() > 1
    assert components > 300
    assert held_by_several > 300


def test_true_literals_agree_with_clause_evaluation():
    rng = random.Random(83)
    for _ in range(500):
        variables = range(1, rng.randint(1, 6) + 1)
        chosen = rng.sample(variables, rng.randint(0, len(variables)))
        clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        assignment = {v: rng.random() < 0.5 for v in variables}
        true = true_literals(assignment)
        assert (not true.isdisjoint(clause)) == holds(clause, assignment)
