"""Property tests: the two document parsers on arbitrary input, and the
whole pipeline against the brute-force oracle on small random
specifications."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bafsynth import cli, dlist
from bafsynth.errors import ParseError
from bafsynth.model import decode_text, parse_qdimacs
from bafsynth.synth import back_and_forth

from .conftest import EXAMPLE1_TEXT
from .oracles import assignments, brute_force_synthesize


def _parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@st.composite
def _mutants(draw, valid: str, tokens: list[str]):
    """A valid document with a few tokens replaced, inserted or deleted, so
    that examples reach every line of the parser."""
    token = st.sampled_from(tokens)
    lines = [line.split(" ") for line in valid.splitlines()]
    for _ in range(draw(st.integers(1, 5))):
        words = lines[draw(st.integers(0, len(lines) - 1))]
        j = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert" or j == len(words):
            words.insert(j, draw(token))
        elif edit == "replace":
            words[j] = draw(token)
        else:
            del words[j]
    return "\n".join(" ".join(words) for words in lines) + "\n"


QDIMACS_LIKE = _mutants(
    EXAMPLE1_TEXT,
    ["p", "cnf", "a", "e", "c", "0", "-0", "-2", "9", "1e3", "+1", "x"]
    + ["\x00", "\n", "\u0663", "9" * 5000],
)
DLIST_LIKE = _mutants(
    dlist.serialize(back_and_forth(parse_qdimacs(EXAMPLE1_TEXT)).decision_list) * 2,
    ["dl", "spec", "in", "out", "d", "|", "3=1", "4=0", "x=1", "=1", "3=", "0", "-1"]
    + ["\n", "\u0663", "9" * 5000 + "=1"],
)


@settings(max_examples=300)
@given(st.one_of(st.text(), QDIMACS_LIKE))
def test_qdimacs_parser_raises_only_parse_error_on_text(text):
    _parses_or_raises_parse_error(parse_qdimacs, text)


@settings(max_examples=300)
@given(st.one_of(st.binary(), QDIMACS_LIKE.map(str.encode)))
def test_qdimacs_parser_raises_only_parse_error_on_bytes(data):
    _parses_or_raises_parse_error(parse_qdimacs, data)


@settings(max_examples=300)
@given(st.one_of(st.text(), DLIST_LIKE))
def test_dlist_parser_raises_only_parse_error_on_text(text):
    _parses_or_raises_parse_error(dlist.parse_many, text)


@settings(max_examples=300)
@given(st.one_of(st.binary(), DLIST_LIKE.map(str.encode)))
def test_dlist_parser_raises_only_parse_error_on_bytes(data):
    _parses_or_raises_parse_error(lambda d: dlist.parse_many(decode_text(d)), data)


@st.composite
def small_specs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    literal = st.integers(1, m + n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=9))
    lines = [
        f"p cnf {m + n} {len(clauses)}",
        "a " + " ".join(str(v) for v in range(1, m + 1)) + " 0",
        "e " + " ".join(str(v) for v in range(m + 1, m + n + 1)) + " 0",
        *(" ".join(map(str, c)) + " 0" for c in clauses),
    ]
    return parse_qdimacs("\n".join(lines) + "\n")


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.sampled_from(sorted(cli.MODES)), st.booleans())
def test_synth_verify_and_brute_force_agree(maxsat_paths, spec, mode, partition):
    for _ in maxsat_paths():
        result = cli.run_pipeline(spec, cli.RunConfig(mode=mode, partition=partition))
        table = brute_force_synthesize(spec)
        assert (result["status"] == "realizable") == table.realizable
        if not table.realizable:
            x = {int(v): b for v, b in result["witness"]["input"].items()}
            assert not any(spec.evaluate({**x, **y}) for y in assignments(spec.outputs))
            continue
        assert result["verified"]
        parts = dlist.parse_many(result["dl_text"], cli._specs_by_digest(spec))
        impl = dlist.combine(parts, spec)
        for x in assignments(spec.inputs):
            y = dlist.evaluate_combined(impl, x)
            assert y is not None and spec.evaluate({**x, **y})
