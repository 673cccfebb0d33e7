import dataclasses
import random

import pytest

from bafsynth.dlist import (
    build_decision_list,
    combine,
    evaluate,
    evaluate_combined,
    parse,
    parse_many,
    serialize,
    to_json_dict,
)
from bafsynth.errors import ParseError
from bafsynth.model import Specification, holds, parse_qdimacs
from bafsynth.synth import back_and_forth, partition_by_output_variables

from .conftest import identity_qdimacs, random_spec_text, repeated_ypart_spec_text
from . import oracles


def _example3_list(spec):
    return build_decision_list(
        spec,
        [frozenset({1, 3, 4}), frozenset({2, 3})],
        [{3: True, 4: True}, {3: False, 4: False}],
    )


def test_build_guards_are_complements(example1):
    dl = _example3_list(example1)
    assert [sorted(d.guard) for d in dl.decisions] == [[2], [1, 4]]


def test_build_single_full_set():
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    dl = build_decision_list(spec, [frozenset({1, 2})], [{3: True, 4: True}])
    # full index set leaves an empty guard that always fires
    assert dl.decisions[0].guard == frozenset()


def test_build_example2_list_keeps_redundant_decision(example1):
    dl = build_decision_list(
        example1,
        [frozenset({1, 3, 4}), frozenset({2, 3}), frozenset({2, 4})],
        [{3: True, 4: True}, {3: False, 4: False}, {3: False, 4: True}],
    )
    assert len(dl) == 3
    assert sorted(dl.decisions[2].guard) == [1, 3]
    # its guard can still fire even though earlier decisions shadow it
    assert evaluate(dl, {1: True, 2: True}) == {3: True, 4: True}


def test_build_rejects_bad_witness(example1):
    with pytest.raises(ValueError, match="witness"):
        build_decision_list(example1, [frozenset({1})], [{3: False, 4: False}])


def test_grouped_witness_check_matches_the_per_clause_reference():
    # specs whose clauses share few y-parts; each index set holds clauses
    # whose y-part its witness satisfies and, now and then, one it falsifies
    rng = random.Random(467)
    rejected = 0
    for _ in range(400):
        spec = parse_qdimacs(repeated_ypart_spec_text(rng))
        index_sets, witnesses = [], []
        for _ in range(rng.randint(1, 5)):
            wit = {v: rng.random() < 0.5 for v in spec.outputs}
            sat = [j for j in spec.indices if holds(spec.y_part(j), wit)]
            sel = {j for j in sat if rng.random() < 0.8}
            if rng.random() < 0.25:
                sel |= set(rng.sample(spec.indices, min(spec.num_clauses, rng.randint(1, 3))))
            index_sets.append(frozenset(sel))
            witnesses.append(wit)
        first = oracles.first_unsatisfied_ypart(spec, index_sets, witnesses)
        if first is None:
            dl = build_decision_list(spec, index_sets, witnesses)
            every = frozenset(spec.indices)
            assert [d.guard for d in dl.decisions] == [every - s for s in index_sets]
            continue
        di, j = first
        build_decision_list(spec, index_sets[: di - 1], witnesses[: di - 1])
        with pytest.raises(ValueError, match=rf"y-part of clause {j}$"):
            build_decision_list(spec, index_sets, witnesses)
        rejected += 1
    assert 100 <= rejected <= 300, rejected


def test_evaluate_first_match(example1):
    dl = _example3_list(example1)
    # oracle: whatever fires must satisfy the CNF
    for x in oracles.assignments(example1.inputs):
        y = evaluate(dl, x)
        assert y is not None
        assert example1.evaluate({**x, **y})
    assert evaluate(dl, {1: True, 2: False}) == {3: True, 4: True}  # first fires
    assert evaluate(dl, {1: False, 2: False}) == {3: False, 4: False}


def test_evaluate_empty_guard_always_fires():
    spec = parse_qdimacs("p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    dl = build_decision_list(spec, [frozenset(spec.indices)], [{3: True, 4: True}])
    for x in oracles.assignments(spec.inputs):
        assert evaluate(dl, x) == {3: True, 4: True}


def test_evaluate_requires_total_input(example1):
    dl = _example3_list(example1)
    with pytest.raises(ValueError, match="total"):
        evaluate(dl, {1: True})


def test_guard_fires_iff_no_guard_clause_falsified(example1):
    from bafsynth.model import fals

    dl = _example3_list(example1)
    for x in oracles.assignments(example1.inputs):
        for dec in dl.decisions:
            fires = all(holds(example1.x_part(g), x) for g in dec.guard)
            assert fires == (not (fals(example1, x) & dec.guard))


def test_serialize_roundtrip(example1):
    dl = _example3_list(example1)
    text = serialize(dl)
    assert text.splitlines() == [
        "dl 1",
        f"spec {example1.digest}",
        "in 1 2",
        "out 3 4",
        "d 2 | 3=1 4=1",
        "d 1 4 | 3=0 4=0",
    ]
    back = parse(text, example1)
    assert back == dl


def test_serialize_roundtrip_random():
    rng = random.Random(307)
    for _ in range(30):
        spec = parse_qdimacs(random_spec_text(rng, max_clauses=8))
        out = back_and_forth(spec)
        if not out.realizable:
            continue
        dl = out.decision_list
        assert parse(serialize(dl), spec) == dl


def _unshared(dl):
    """`dl` unbound, over a copy of its inputs, so `serialize` renders them."""
    return dataclasses.replace(dl, inputs=tuple(list(dl.inputs)), spec=None)


@pytest.mark.parametrize(
    "text",
    [
        identity_qdimacs(12),
        "p cnf 6 2\na 3 1 0\ne 6 2 5 4 0\n-1 2 0\n1 3 -4 0\n",
        "p cnf 2 2\na 0\ne 1 2 0\n1 2 0\n-1 -2 0\n",
    ],
    ids=["equiv-chain", "unconstrained-outputs", "no-inputs"],
)
def test_components_render_with_the_parents_input_ids(text):
    spec = parse_qdimacs(text)
    for comp in partition_by_output_variables(spec):
        assert comp.inputs is spec.inputs and comp.input_ids is spec.input_ids
        assert comp.max_input == spec.max_input
        fresh = Specification(tuple(list(comp.inputs)), comp.outputs, comp.clauses)
        assert comp.to_qdimacs() == fresh.to_qdimacs()
        dl = back_and_forth(comp).decision_list
        assert serialize(dl) == serialize(_unshared(dl))


def test_rendering_without_inputs_or_outputs():
    no_inputs = parse_qdimacs("p cnf 2 2\na 0\ne 1 2 0\n1 2 0\n-1 -2 0\n")
    assert no_inputs.to_qdimacs() == "p cnf 2 2\na 0\ne 1 2 0\n1 2 0\n-1 -2 0\n"
    (comp,) = partition_by_output_variables(no_inputs)
    dl = back_and_forth(comp).decision_list
    assert serialize(dl).splitlines()[2] == "in "
    assert serialize(dl) == serialize(_unshared(dl))

    no_outputs = Specification((2, 1), (), ())
    assert no_outputs.to_qdimacs() == "p cnf 2 0\na 2 1 0\ne 0\n"
    dl = back_and_forth(no_outputs).decision_list
    assert serialize(dl).splitlines()[2:] == ["in 2 1", "out ", "d |"]
    assert serialize(dl) == serialize(_unshared(dl))


def test_serialize_renders_inputs_that_differ_from_the_bound_spec(example1):
    dl = dataclasses.replace(_example3_list(example1), inputs=(2, 1))
    assert dl.spec is example1
    assert serialize(dl).splitlines()[2] == "in 2 1"


def test_parse_empty_outputs_document():
    text = "dl 1\nspec abc\nin 1\nout\nd 1 |\n"
    dl = parse(text)
    assert dl.outputs == ()
    assert dl.decisions[0].output == {}


def test_parse_truncated_document():
    with pytest.raises(ParseError):
        parse("dl 1\nspec abc\nin 1\n")


def test_parse_malformed_decision_line():
    with pytest.raises(ParseError):
        parse("dl 1\nspec abc\nin 1\nout 2\nd 1 2=1\n")


def test_parse_digest_mismatch_warns(example1):
    dl = _example3_list(example1)
    text = serialize(dl).replace(example1.digest, "0" * 64)
    with pytest.warns(UserWarning, match="digest"):
        parse(text, example1)


def test_unbound_list_cannot_evaluate():
    dl = parse("dl 1\nspec abc\nin 1\nout 2\nd | 2=0\n")
    with pytest.raises(ValueError, match="not bound"):
        evaluate(dl, {1: True})


def test_parse_many_roundtrip():
    spec = parse_qdimacs(identity_qdimacs(2))
    parts = partition_by_output_variables(spec)
    outs = [back_and_forth(p) for p in parts]
    blob = "".join(serialize(o.decision_list) for o in outs)
    docs = parse_many(blob, {p.digest: p for p in parts})
    assert len(docs) == 2
    assert all(d.spec is not None for d in docs)


def test_parsed_lists_of_one_partition_share_their_inputs():
    spec = parse_qdimacs(identity_qdimacs(200))
    parts = partition_by_output_variables(spec)
    lists = combine([back_and_forth(p).decision_list for p in parts], spec)
    blob = "".join(serialize(dl) for dl in lists)
    docs = parse_many(blob, {p.digest: p for p in parts})
    assert len(docs) == 200
    assert all(d.inputs is spec.inputs for d in docs)
    rng = random.Random(17)
    for _ in range(5):
        x = {v: rng.random() < 0.5 for v in spec.inputs}
        y = evaluate_combined(tuple(docs), x)
        assert y == evaluate_combined(lists, x) == {200 + v: x[v] for v in spec.inputs}
    # a document whose `in` line differs from its specification's keeps its own
    other = blob.split("dl ")[1].replace("in 1 2 ", "in 2 1 ", 1)
    (doc,) = parse_many("dl " + other, {p.digest: p for p in parts})
    assert doc.inputs[:2] == (2, 1) and doc.spec is parts[0]


def test_combine_identity_family():
    spec = parse_qdimacs(identity_qdimacs(2))
    parts = partition_by_output_variables(spec)
    outs = [back_and_forth(p) for p in parts]
    lists = combine([o.decision_list for o in outs], spec)
    for x in oracles.assignments(spec.inputs):
        y = evaluate_combined(lists, x)
        assert y == {3: x[1], 4: x[2]}  # the combined map is the identity


def test_combine_single_component(example1):
    out = back_and_forth(example1)
    lists = combine([out.decision_list], example1)
    assert lists == (out.decision_list,)
    for x in oracles.assignments(example1.inputs):
        assert evaluate_combined(lists, x) == evaluate(out.decision_list, x)


def test_combine_defaults_unconstrained_output():
    # output 5 is in no clause: the partitioner's last, clause-free
    # component holds it, and its list sets it false
    spec = parse_qdimacs("p cnf 5 2\na 1 2 0\ne 3 4 5 0\n1 3 0\n2 4 0\n")
    parts = partition_by_output_variables(spec)
    outs = [back_and_forth(p) for p in parts]
    lists = combine([o.decision_list for o in outs], spec)
    assert lists[-1].outputs == (5,)
    for x in oracles.assignments(spec.inputs):
        y = evaluate_combined(lists, x)
        assert y is not None and set(y) == {3, 4, 5} and y[5] is False


def test_evaluate_combined_requires_total_input():
    spec = parse_qdimacs(identity_qdimacs(3))
    lists = combine(
        [back_and_forth(p).decision_list for p in partition_by_output_variables(spec)], spec
    )
    assert evaluate_combined(lists, {1: True, 2: False, 3: True}) == {4: True, 5: False, 6: True}
    # one missing, one extra, and one of each
    for x in ({1: True, 2: False}, {1: True, 2: True, 3: True, 7: True}, {1: True, 2: True, 7: True}):
        with pytest.raises(ValueError, match="total"):
            evaluate_combined(lists, x)


def test_combine_rejects_missing_output():
    spec = parse_qdimacs("p cnf 5 2\na 1 2 0\ne 3 4 5 0\n1 3 0\n2 4 0\n")
    lists = [back_and_forth(p).decision_list for p in partition_by_output_variables(spec)]
    with pytest.raises(ValueError, match="no decision list covers outputs 5$"):
        combine(lists[:-1], spec)
    with pytest.raises(ValueError, match="covers outputs 3 4 5$"):
        combine([], spec)


def test_combine_rejects_foreign_output(example1):
    out = back_and_forth(example1)
    narrow = Specification(example1.inputs, (3,), ())
    with pytest.raises(ValueError, match="outputs 4 are not outputs"):
        combine([out.decision_list], narrow)


def test_combine_rejects_overlap(example1):
    out = back_and_forth(example1)
    with pytest.raises(ValueError, match="overlap"):
        combine([out.decision_list, out.decision_list], example1)


def test_json_shape(example1):
    doc = to_json_dict(_example3_list(example1))
    assert doc["decisions"][0] == {"guard": [2], "output": {"3": True, "4": True}}
