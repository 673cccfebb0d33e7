import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

from bafsynth import cli, graph, sat, synth, verify
from bafsynth.cli import main
from bafsynth.dlist import parse_many
from bafsynth.model import parse_qdimacs
from bafsynth.synth import partition_by_output_variables

from . import oracles
from .conftest import EXAMPLE1_TEXT, UNREALIZABLE_TEXT, identity_qdimacs
from .oracles import brute_force_synthesize


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip().startswith("{") else None
    return code, doc


def test_synth_example1(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f, "--dl", str(tmp_path / "ex1.dl")])
    assert code == 0
    assert doc["status"] == "realizable"
    assert doc["iterations"] == 2
    assert doc["mss_recorded"] == 2
    assert doc["partitions"] == 1
    assert doc["verified"] is True
    text = (tmp_path / "ex1.dl").read_text()
    assert text.splitlines()[4] == "d 2 | 3=1 4=1"


def test_synth_unrealizable(tmp_path, capsys):
    f = _write(tmp_path, "bad.qdimacs", UNREALIZABLE_TEXT)
    dl = tmp_path / "bad.dl"
    code, doc = _run(capsys, ["synth", f, "--dl", str(dl)])
    assert code == 1
    assert doc["status"] == "unrealizable"
    assert doc["witness"]["mfs"] in ([1, 2], [3, 4])
    assert doc["dl_path"] is None and not dl.exists()


@pytest.mark.parametrize("extra", [[], ["--no-verify"], ["--no-partition"]])
def test_synth_mss_enum_unrealizable(tmp_path, capsys, extra):
    f = _write(tmp_path, "bad.qdimacs", UNREALIZABLE_TEXT)
    code, doc = _run(capsys, ["synth", f, "--mode", "mss-enum", *extra])
    assert code == 1
    assert doc["status"] == "unrealizable"
    assert doc["witness"]["mfs"] in ([1, 2], [3, 4])
    assert doc["verification"] is None


@pytest.mark.parametrize("mode", ["back-and-forth", "mfs-enum", "mss-enum"])
def test_an_unrealizable_spec_with_output_id_2_to_the_63_reports_its_witness(
    tmp_path, capsys, mode
):
    # the witness check numbers its outputs compactly; sized to the output
    # id, its solver could not even be built
    big = 2**63
    f = _write(tmp_path, "big.qdimacs", f"p cnf {big} 2\na 1 0\ne {big} 0\n1 {big} 0\n1 -{big} 0\n")
    code, doc = _run(capsys, ["synth", f, "--mode", mode])
    assert code == 1
    assert doc["status"] == "unrealizable"
    assert doc["witness"] == {"component": 1, "mfs": [1, 2], "input": {"1": False}}


def test_synth_identity_partitioning(tmp_path, capsys):
    f = _write(tmp_path, "id16.qdimacs", identity_qdimacs(16))
    code, doc = _run(capsys, ["synth", f, "--dl", str(tmp_path / "id16.dl")])
    assert code == 0
    assert doc["partitions"] == 16
    assert doc["decisions"] == 32
    assert doc["verified"] is True
    spec = parse_qdimacs(identity_qdimacs(16))
    parts = partition_by_output_variables(spec)
    docs = parse_many((tmp_path / "id16.dl").read_text(), {p.digest: p for p in parts})
    assert len(docs) == 16


def test_synth_reports_decision_lists_as_json(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f])
    assert code == 0
    assert doc["decision_lists"][0]["decisions"][0] == {
        "guard": [2],
        "output": {"3": True, "4": True},
    }


def test_synth_defaults_document_for_unconstrained_outputs(tmp_path, capsys):
    f = _write(
        tmp_path, "spare.qdimacs", "p cnf 5 2\na 1 2 0\ne 3 4 5 0\n1 3 0\n2 4 0\n"
    )
    code, doc = _run(capsys, ["synth", f, "--dl", str(tmp_path / "spare.dl")])
    assert code == 0
    assert doc["partitions"] == 3  # two clause components plus the defaults
    assert doc["decisions"] == 3
    docs = parse_many((tmp_path / "spare.dl").read_text())
    assert [d.outputs for d in docs] == [(3,), (4,), (5,)]
    assert docs[2].decisions[0].guard == frozenset()
    assert docs[2].decisions[0].output == {5: False}
    capsys.readouterr()
    assert main(["verify", f, str(tmp_path / "spare.dl")]) == 0


def test_synth_parse_error(tmp_path, capsys):
    f = _write(tmp_path, "broken.qdimacs", "p cnf x y\n")
    assert main(["synth", f]) == 2


def test_synth_missing_file(capsys):
    assert main(["synth", "/nonexistent/x.qdimacs"]) == 2


def test_synth_modes_agree_on_status(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    for mode in ("back-and-forth", "mfs-enum", "mss-enum"):
        code, doc = _run(capsys, ["synth", f, "--mode", mode])
        assert code == 0
        assert doc["verified"] is True


def test_synth_no_verify_flag(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f, "--no-verify"])
    assert code == 0
    assert doc["verification"] is None


def test_synth_resource_limit_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "id8.qdimacs", identity_qdimacs(8))
    code = main(
        ["synth", f, "--mode", "mfs-enum", "--no-partition", "--mis-limit", "10"]
    )
    assert code == 3


def test_an_mss_limit_exits_3_with_one_line_and_is_a_bench_limit_record(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    f = _write(d, "ex1.qdimacs", EXAMPLE1_TEXT)
    flags = ["--mode", "mss-enum", "--mss-limit", "1"]
    assert main(["synth", f, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than 1 maximal satisfiable subsets\n"
    out = tmp_path / "records.jsonl"
    assert main(["bench", str(d), *flags, "--json", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["status"] == "limit"
    assert record["warning"] == "more than 1 maximal satisfiable subsets"


def test_synth_takes_a_mis_limit_above_sys_maxsize(tmp_path, capsys, monkeypatch):
    f = _write(tmp_path, "id3.qdimacs", identity_qdimacs(3))
    limit = str(sys.maxsize * 10**4)
    code, doc = _run(capsys, ["synth", f, "--mode", "mfs-enum", "--mis-limit", limit])
    assert code == 0 and doc["verified"]
    monkeypatch.setenv("BAFSYNTH_MIS_LIMIT", limit)
    code, doc = _run(capsys, ["synth", f, "--mode", "mfs-enum", "--no-partition"])
    assert code == 0 and doc["verified"] and doc["decisions"] == 8


def test_synth_timeout(tmp_path, capsys):
    # without partitioning the equivalence family needs one iteration per
    # output pattern, far beyond a one-second budget at width 16
    f = _write(tmp_path, "id16.qdimacs", identity_qdimacs(16))
    code, _ = _run(capsys, ["synth", f, "--no-partition", "--timeout", "1"])
    assert code == 3


def _slow_parse(monkeypatch):
    """Make parsing outlast a 0.05 s timeout: the alarm cuts the sleep."""
    parse = cli.parse_qdimacs

    def slow(data):
        time.sleep(2)
        return parse(data)

    monkeypatch.setattr(cli, "parse_qdimacs", slow)


def test_the_synth_timeout_covers_parsing(tmp_path, capsys, monkeypatch):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    _slow_parse(monkeypatch)
    code = main(["synth", f, "--timeout", "0.05"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "timed out" in captured.err


def test_the_bench_timeout_covers_parsing(tmp_path, capsys, monkeypatch):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "ex1.qdimacs").write_text(EXAMPLE1_TEXT)
    out = tmp_path / "records.jsonl"
    _slow_parse(monkeypatch)
    assert main(["bench", str(d), "--timeout", "0.05", "--json", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["status"] for r in records] == ["timeout"]
    assert records[0]["warning"] == "timed out after 0.05 s"


def test_internal_error_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    def crash(spec, cfg):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run_pipeline", crash)
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    assert main(["synth", f]) == 5
    err = capsys.readouterr().err
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_a_witness_with_an_output_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a covering query that wrongly finds no output makes back-and-forth call
    # the realizable example unrealizable; the witness check refuses it
    monkeypatch.setattr(synth, "covering_mss", lambda spec, mfs, session=None: None)
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    assert main(["synth", f]) == 5
    assert capsys.readouterr().err == (
        "internal error: RuntimeError: component 1's unrealizability witness has an output\n"
    )
    code, doc = _run(capsys, ["synth", f, "--no-verify"])
    assert code == 1 and doc["status"] == "unrealizable"


def test_a_failed_verification_exits_4_and_is_its_own_bench_status(tmp_path, capsys, monkeypatch):
    fail = verify.VerificationReport(verify.COUNTEREXAMPLE, verify.COVERAGE, witness_input={})
    monkeypatch.setattr(verify, "verify_decision_list", lambda spec, dl: fail)
    d = tmp_path / "bench"
    d.mkdir()
    f = _write(d, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f])
    assert code == 4 and doc["status"] == "realizable" and doc["verified"] is False
    assert main(["synth", f, "--no-verify"]) == 0
    out = tmp_path / "records.jsonl"
    assert main(["bench", str(d), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "verification-failed"


EMPTY_YPART_TEXT = "p cnf 4 3\na 1 2 0\ne 3 4 0\n1 2 0\n-1 3 0\n2 4 0\n"


def test_synth_empty_ypart_witness_is_component_zero(tmp_path, capsys):
    f = _write(tmp_path, "empty.qdimacs", EMPTY_YPART_TEXT)
    for extra in ([], ["--no-partition"]):
        code, doc = _run(capsys, ["synth", f, *extra])
        assert code == 1
        assert doc["status"] == "unrealizable"
        assert doc["witness"] == {"component": 0, "mfs": [1, 3], "input": {"1": False, "2": False}}


def _count_graph_builds(monkeypatch) -> list:
    built = []
    original = graph.build_conflict_graph

    def counting(spec):
        built.append(spec.num_clauses)
        return original(spec)

    monkeypatch.setattr(graph, "build_conflict_graph", counting)
    monkeypatch.setattr(synth, "build_conflict_graph", counting)
    return built


def test_pipeline_builds_no_conflict_graph_outside_mfs_enum(monkeypatch):
    built = _count_graph_builds(monkeypatch)
    for mode in ("back-and-forth", "mss-enum"):
        result = cli.run_pipeline(parse_qdimacs(identity_qdimacs(16)), cli.RunConfig(mode=mode))
        assert result["status"] == "realizable" and result["partitions"] == 16
    assert built == []


def test_empty_ypart_witness_builds_no_conflict_graph(monkeypatch):
    built = _count_graph_builds(monkeypatch)
    result = cli.run_pipeline(parse_qdimacs(EMPTY_YPART_TEXT), cli.RunConfig())
    assert result["witness"]["component"] == 0
    assert built == []


def test_pipeline_rejects_unknown_mode_before_any_work(monkeypatch):
    built = _count_graph_builds(monkeypatch)
    for text in (EXAMPLE1_TEXT, EMPTY_YPART_TEXT):
        with pytest.raises(ValueError, match="'nope'"):
            cli.run_pipeline(parse_qdimacs(text), cli.RunConfig(mode="nope"))
    assert built == []


# output 3 equals input 1 (two clauses); output 4 is implied by input 2
TWO_SHAPES_TEXT = "p cnf 4 3\na 1 2 0\ne 3 4 0\n-1 3 0\n1 -3 0\n-2 4 0\n"


@pytest.mark.parametrize(
    "mode, name",
    [
        ("back-and-forth", "back_and_forth"),
        ("mfs-enum", "synth_by_mfs_enumeration"),
        ("mss-enum", "synth_by_mss_enumeration"),
    ],
)
def test_modes_look_up_procedures_at_call_time(monkeypatch, mode, name):
    # a wrapper installed on the synth module (as a tracer does) must be seen
    seen = []
    original = getattr(synth, name)

    def wrapped(comp, *args):
        seen.append(comp.outputs)
        return original(comp, *args)

    monkeypatch.setattr(synth, name, wrapped)
    # two components of different shapes, so each one is synthesized
    cli.run_pipeline(parse_qdimacs(TWO_SHAPES_TEXT), cli.RunConfig(mode=mode))
    assert seen == [(3,), (4,)]


def test_analyze_example1(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["analyze", f, "--budget", "100"])
    assert code == 0
    assert doc["max_cliques"] == 3
    assert doc["consensus_chordal"] is True
    assert doc["p_np_fragment"] == "yes"
    assert doc["budget"] == 100


def test_analyze_budget_exceeded(tmp_path, capsys):
    f = _write(tmp_path, "id12.qdimacs", identity_qdimacs(12))
    code, doc = _run(capsys, ["analyze", f, "--budget", "1000"])
    assert code == 0
    assert doc["max_cliques"] == "budget-exceeded"
    assert doc["p_np_fragment"] == "unknown"


def test_analyze_counts_conflict_edges_without_listing_them(tmp_path, capsys, monkeypatch):
    edges = len(graph.build_conflict_graph(parse_qdimacs(EXAMPLE1_TEXT)).edges())

    def listing(self):
        raise AssertionError("analyze lists the conflict edges")

    monkeypatch.setattr(graph.ConflictGraph, "edges", listing)
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["analyze", f])
    assert code == 0 and doc["conflict_edges"] == edges == 4


def test_analyze_edgeless(tmp_path, capsys):
    f = _write(tmp_path, "free.qdimacs", "p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n")
    code, doc = _run(capsys, ["analyze", f, "--budget", "100"])
    assert doc["max_cliques"] == 1
    assert doc["p_np_fragment"] == "yes"


def test_verify_command_roundtrip(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    dl = str(tmp_path / "ex1.dl")
    assert main(["synth", f, "--dl", dl]) == 0
    capsys.readouterr()
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 0
    assert doc["verified"] is True


def test_verify_command_detects_tampering(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    dl = str(tmp_path / "ex1.dl")
    main(["synth", f, "--dl", dl])
    capsys.readouterr()
    text = (tmp_path / "ex1.dl").read_text()
    tampered = text.replace("d 2 | 3=1 4=1", "d 2 | 3=0 4=1")
    (tmp_path / "ex1.dl").write_text(tampered)
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 4
    assert doc["verified"] is False
    assert doc["failures"][0]["kind"] == "soundness"


# example 3's list for example1, with one fault each; the digest is right
_EX3_DECISIONS = "d 2 | 3=1 4=1\nd 1 4 | 3=0 4=0\n"


@pytest.mark.parametrize(
    "body",
    [
        "in 1 2\nout 3 4\nd 2 9 | 3=1 4=1\nd 1 4 | 3=0 4=0\n",
        "in 1 2\nout 3\nd 2 | 3=1\nd 1 4 | 3=0\n",
        "in 1\nout 3 4\n" + _EX3_DECISIONS,
        "in 1 2\nout 3 4 7\nd 2 | 3=1 4=1 7=0\nd 1 4 | 3=0 4=0 7=0\n",
    ],
    ids=["guard-index-9", "output-missing", "input-missing", "output-extra"],
)
def test_verify_rejects_malformed_document(tmp_path, capsys, body):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    header = f"dl 1\nspec {parse_qdimacs(EXAMPLE1_TEXT).digest}\n"
    good = _write(tmp_path, "good.dl", header + "in 1 2\nout 3 4\n" + _EX3_DECISIONS)
    assert main(["verify", f, good]) == 0
    capsys.readouterr()
    bad = _write(tmp_path, "bad.dl", header + body)
    assert main(["verify", f, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: document 1: ")


def test_verify_rejects_a_document_that_names_a_variable_twice(tmp_path, capsys):
    # on the one clause (x1 or y2), each of these documents assigns output 2
    # a value that would verify, but names a variable twice
    text = "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n"
    f = _write(tmp_path, "one.qdimacs", text)
    header = f"dl 1\nspec {parse_qdimacs(text).digest}\n"
    good = _write(tmp_path, "good.dl", header + "in 1\nout 2\nd | 2=1\n")
    assert main(["verify", f, good]) == 0
    capsys.readouterr()
    for body in (
        "in 1\nout 2\nd | 2=0 2=1\n",
        "in 1 1\nout 2\nd | 2=1\n",
        "in 1\nout 2 2\nd | 2=1\n",
    ):
        bad = _write(tmp_path, "bad.dl", header + body)
        assert main(["verify", f, bad]) == 2, body
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_multidoc_partitioned(tmp_path, capsys):
    f = _write(tmp_path, "id4.qdimacs", identity_qdimacs(4))
    dl = str(tmp_path / "id4.dl")
    main(["synth", f, "--dl", dl])
    capsys.readouterr()
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 0
    assert doc["documents"] == 4


# a clause with an empty y-part is a component of its own without outputs,
# so no document has to hold it: the first specification is that clause
# alone, checked against no document, and the second adds it to (x1 or y2),
# checked against the document of clause 1's component only
EMPTY_YPART_CASES = [
    ("p cnf 1 1\na 1 0\ne 0\n1 0\n", None),
    ("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n1 0\n", "in 1\nout 2\nd | 2=1\n"),
]


@pytest.mark.parametrize("text, body", EMPTY_YPART_CASES, ids=["alone", "beside-a-component"])
def test_verify_fails_a_clause_with_an_empty_ypart_that_no_document_holds(
    tmp_path, capsys, text, body
):
    spec = parse_qdimacs(text)
    f = _write(tmp_path, "spec.qdimacs", text)
    assert main(["synth", f]) == 1
    capsys.readouterr()
    document = ""
    if body is not None:
        document = f"dl 1\nspec {spec.restrict([1]).digest}\n{body}"
    dl = _write(tmp_path, "spec.dl", document)
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 4
    assert doc["verified"] is False
    [failure] = doc["failures"]
    clause = spec.num_clauses  # the empty y-part is the last clause in both
    assert spec.y_part(clause) == ()
    assert failure == {
        "document": None,
        "kind": "soundness",
        "decision": None,
        "clause": clause,
        "input": {"1": False},
    }
    x = tuple(failure["input"][str(v)] for v in spec.inputs)
    assert not oracles.clause_sat(spec.x_part(clause), dict(zip(spec.inputs, x)))
    assert brute_force_synthesize(spec).entries[x] is None  # no output satisfies the spec


def test_verify_fails_a_whole_specification_document_on_its_empty_ypart(tmp_path, capsys):
    text, body = EMPTY_YPART_CASES[1]
    spec = parse_qdimacs(text)
    f = _write(tmp_path, "spec.qdimacs", text)
    dl = _write(tmp_path, "spec.dl", f"dl 1\nspec {spec.digest}\n{body}")
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 4
    assert doc["failures"] == [
        {"document": 1, "kind": "soundness", "decision": 1, "clause": 2, "input": {"1": False}}
    ]


# two clauses over outputs 3 and 4: two components, one document each
TWO_OUTPUTS_TEXT = "p cnf 4 2\na 1 2 0\ne 3 4 0\n1 3 0\n2 4 0\n"


@pytest.mark.parametrize("extra, documents", [([], 2), (["--no-partition"], 1)])
def test_synth_documents_verify(tmp_path, capsys, extra, documents):
    f = _write(tmp_path, "two.qdimacs", TWO_OUTPUTS_TEXT)
    dl = str(tmp_path / "two.dl")
    assert main(["synth", f, "--dl", dl, *extra]) == 0
    capsys.readouterr()
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 0 and doc["verified"] is True
    assert doc["documents"] == documents


@pytest.mark.parametrize(
    "which, error",
    [
        ("empty", "no decision list covers outputs 3 4"),
        ("first-only", "no decision list covers outputs 4"),
        ("twice", "decision lists overlap on outputs 3"),
    ],
)
def test_verify_rejects_documents_that_do_not_cover_each_output_once(
    tmp_path, capsys, which, error
):
    f = _write(tmp_path, "two.qdimacs", TWO_OUTPUTS_TEXT)
    dl = tmp_path / "two.dl"
    assert main(["synth", f, "--dl", str(dl)]) == 0
    text = dl.read_text()
    first = text[: text.index("dl 1", 1)]
    bodies = {"empty": "", "first-only": first, "twice": text + text}
    bad = _write(tmp_path, "bad.dl", bodies[which])
    capsys.readouterr()
    assert main(["verify", f, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "which, error",
    [
        ("twice", "error: decision lists overlap on outputs 3\n"),
        (
            "second-malformed",
            "error: document 2: decision list variables differ from the specification's\n",
        ),
    ],
    ids=["twice", "second-malformed"],
)
def test_verify_rejects_before_constructing_a_solver(tmp_path, capsys, monkeypatch, which, error):
    f = _write(tmp_path, "two.qdimacs", TWO_OUTPUTS_TEXT)
    dl = tmp_path / "two.dl"
    assert main(["synth", f, "--dl", str(dl)]) == 0
    text = dl.read_text()
    second = text.index("dl 1", 1)
    bodies = {
        "twice": text + text,
        "second-malformed": text[:second] + text[second:].replace("in 1 2\n", "in 1\n"),
    }
    bad = _write(tmp_path, "bad.dl", bodies[which])
    capsys.readouterr()
    made = []
    init = sat.Solver.__init__
    monkeypatch.setattr(sat.Solver, "__init__", lambda self: made.append(self) or init(self))
    assert main(["verify", f, bad]) == 2
    assert made == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == error


# {spec}: example1, {dl}: its synthesized list, {dir}: a directory holding
# the spec, {missing}: a path in a directory that does not exist
@pytest.mark.parametrize(
    "argv",
    [
        "synth {spec} --dl {missing}",
        "synth {spec} --json {missing}",
        "analyze {spec} --json {missing}",
        "verify {spec} {dl} --json {missing}",
        "bench {dir} --json {missing}",
        "decompose {spec} --out-dir {spec}",
        "decompose {spec} --out-dir {dir} --json {missing}",
    ],
)
def test_unwritable_output_paths_exit_2_with_one_line(tmp_path, capsys, argv):
    paths = {
        "spec": _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT),
        "dl": str(tmp_path / "ex1.dl"),
        "dir": str(tmp_path / "dir"),
        "missing": str(tmp_path / "no-such-dir" / "out"),
    }
    assert main(["synth", paths["spec"], "--dl", paths["dl"]]) == 0
    (tmp_path / "dir").mkdir()
    _write(tmp_path / "dir", "ex1.qdimacs", EXAMPLE1_TEXT)
    capsys.readouterr()
    code = main(argv.format(**paths).split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if argv.startswith("synth"):  # the report still reaches stdout
        doc = json.loads(captured.out)
        assert doc["verified"] is True and doc["dl_path"] is None


def test_decompose_command(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["intermediate_vars"] == 4
    assert doc["good_decomposition"] == {
        "equivalence_holds": True,
        "image_in_domain": True,
    }
    assert doc["composition"]["status"] == "verified"
    f2 = parse_qdimacs((tmp_path / "ex1.f2.qdimacs").read_text())
    assert f2.inputs == (5, 6, 7, 8)
    f1_text = (tmp_path / "ex1.f1.cnf").read_text()
    assert f1_text.splitlines()[2].startswith("p cnf 8 ")


# 3 inputs and 3 outputs with 11 clauses: 17 variables with the
# intermediates, too many to check by enumerating their assignments
WIDE_DECOMPOSE_TEXT = """\
p cnf 6 11
a 1 2 3 0
e 4 5 6 0
1 4 0
2 4 0
3 4 0
-1 5 0
-2 5 0
-3 5 0
1 2 6 0
1 3 6 0
2 3 6 0
-1 -2 6 0
-1 -3 6 0
"""


def test_decompose_composes_within_its_own_budget(tmp_path, capsys):
    f = _write(tmp_path, "wide.qdimacs", WIDE_DECOMPOSE_TEXT)
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["intermediate_vars"] == 11
    assert doc["good_decomposition"] == {"equivalence_holds": True, "image_in_domain": True}
    assert doc["composition"].keys() == {"status", "wall_time_ms"}
    assert doc["composition"]["status"] == "verified"


def test_decompose_a_spec_without_clauses(tmp_path, capsys):
    # its only clause is a tautology, so stage 1 has no intermediates
    f = _write(tmp_path, "taut.qdimacs", "p cnf 2 1\na 1 0\ne 2 0\n2 -2 0\n")
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["intermediate_vars"] == 0
    assert (tmp_path / "taut.f1.cnf").read_text().splitlines() == [
        "c stage 1: no clauses",
        "c inputs: 1",
        "p cnf 1 0",
    ]
    assert doc["good_decomposition"] == {"equivalence_holds": True, "image_in_domain": True}
    assert doc["composition"]["status"] == "verified"


def test_decompose_no_check_runs_no_synthesis(tmp_path, capsys, monkeypatch):
    def fails(spec):
        raise AssertionError("decompose --no-check synthesized")

    monkeypatch.setattr(synth, "back_and_forth", fails)
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path), "--no-check"])
    assert code == 0
    assert doc["good_decomposition"] is None and doc["composition"] is None
    assert parse_qdimacs((tmp_path / "ex1.f2.qdimacs").read_text()).num_clauses == 4


def test_decompose_checks_a_width_12_chain(tmp_path, capsys):
    # 24 variables and 24 intermediates: 2^48 assignments, far past any
    # check that enumerates them
    f = _write(tmp_path, "id12.qdimacs", identity_qdimacs(12))
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["intermediate_vars"] == 24
    assert doc["good_decomposition"] == {"equivalence_holds": True, "image_in_domain": True}
    assert doc["composition"]["status"] == "verified"


def test_decompose_synthesizes_each_shape_once(tmp_path, capsys, monkeypatch):
    # the 12 components of the chain share one shape, so one synthesis
    # serves all of them
    original, calls = synth.back_and_forth, []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(synth, "back_and_forth", counted)
    f = _write(tmp_path, "id12.qdimacs", identity_qdimacs(12))
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["composition"]["status"] == "verified"
    assert len(calls) == 1


def test_bench_directory(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a_ex1.qdimacs").write_text(EXAMPLE1_TEXT)
    (d / "b_unreal.qdimacs").write_text(UNREALIZABLE_TEXT)
    (d / "c_id2.qdimacs").write_text(identity_qdimacs(2))
    (d / "junk.txt").write_text("not a qdimacs file\n")
    out = tmp_path / "records.jsonl"
    code = main(
        ["bench", str(d), "--json", str(out), "--family", "ex=a_", "--family", "id=c_"]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["instance"] for r in records] == [
        "a_ex1.qdimacs",
        "b_unreal.qdimacs",
        "c_id2.qdimacs",
        "junk.txt",
    ]
    statuses = [r["status"] for r in records]
    assert statuses == ["realizable", "unrealizable", "realizable", "parse-error"]
    for r in records:
        for key in ("decisions", "iterations", "sat_calls", "maxsat_calls", "time_ms"):
            assert key in r
    table = capsys.readouterr().out
    assert "ex" in table and "id" in table


def test_bench_files_an_instance_under_its_longest_matching_prefix(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    for name in ("c_id2.qdimacs", "c_x.qdimacs", "d.qdimacs"):
        (d / name).write_text(identity_qdimacs(2))
    # `a` sorts first but has the shorter prefix; `id` and `z` tie on theirs
    families = ["--family", "a=c_", "--family", "z=c_id", "--family", "id=c_id"]
    assert main(["bench", str(d), *families]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:2] for row in rows[1:-1]] == [["(other)", "1"], ["a", "1"], ["id", "1"]]
    assert cli._family_of("c_id2.qdimacs", {"a": "c_", "z": "c_id", "id": "c_id"}) == "id"
    assert cli._family_of("b.qdimacs", {"a": "c_"}) == "(other)"


def test_bench_empty_directory(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["bench", str(d)]) == 0


def test_bench_timeout_record(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "big.qdimacs").write_text(identity_qdimacs(16))
    out = tmp_path / "records.jsonl"
    code = main(["bench", str(d), "--no-partition", "--timeout", "1", "--json", str(out)])
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records[0]["status"] == "timeout"
    assert records[0]["warning"] == "timed out after 1.0 s"


def test_bench_records_an_unexpected_exception_and_goes_on(tmp_path, capsys, monkeypatch):
    original, calls = synth.back_and_forth, []

    def first_call_fails(spec):
        calls.append(spec)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return original(spec)

    monkeypatch.setattr(synth, "back_and_forth", first_call_fails)
    d = tmp_path / "bench"
    d.mkdir()
    for name in ("a_ex1.qdimacs", "b_ex1.qdimacs"):
        (d / name).write_text(EXAMPLE1_TEXT)
    out = tmp_path / "records.jsonl"
    assert main(["bench", str(d), "--json", str(out)]) == 0
    first, second = [json.loads(l) for l in out.read_text().splitlines()]
    assert first["status"] == "error" and first["warning"] == "RuntimeError: boom"
    assert second["status"] == "realizable"


@pytest.mark.parametrize("relative", [False, True])
def test_bench_leaves_its_own_records_out_of_the_instances(tmp_path, capsys, monkeypatch, relative):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a_ex1.qdimacs").write_text(EXAMPLE1_TEXT)
    (d / "b_unreal.qdimacs").write_text(UNREALIZABLE_TEXT)
    argv = ["bench", str(d), "--json", str(d / "records.jsonl")]
    if relative:  # the same file, named from the directory itself
        monkeypatch.chdir(d)
        argv = ["bench", ".", "--json", "records.jsonl"]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        records = [json.loads(l) for l in (d / "records.jsonl").read_text().splitlines()]
        for rec in records:
            del rec["time_ms"]
        runs.append((capsys.readouterr().out, records))
    assert runs[0] == runs[1]
    assert runs[0][0].endswith("total instances: 2\n")
    assert [r["instance"] for r in runs[0][1]] == ["a_ex1.qdimacs", "b_unreal.qdimacs"]


def test_bench_parallel_jobs(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    for k in (1, 2, 3):
        (d / f"id{k}.qdimacs").write_text(identity_qdimacs(k))
    out = tmp_path / "records.jsonl"
    code = main(["bench", str(d), "--jobs", "2", "--json", str(out)])
    assert code == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["status"] == "realizable" for r in records)


def test_bench_starts_no_more_workers_than_files(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    started = []

    class Pool:  # runs in this process, and records the pool size asked for
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    d = tmp_path / "bench"
    d.mkdir()
    for k in (1, 2, 3):
        (d / f"id{k}.qdimacs").write_text(identity_qdimacs(k))
    assert main(["bench", str(d), "--jobs", "8"]) == 0
    assert main(["bench", str(d), "--jobs", "2"]) == 0
    assert started == [3, 2]
    assert "total instances: 3" in capsys.readouterr().out


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BAFSYNTH_MODE", "mfs-enum")
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f])
    assert code == 0
    assert doc["mode"] == "mfs-enum"
    assert doc["decisions"] == 3


def test_determinism_of_artifacts(tmp_path, capsys):
    f = _write(tmp_path, "id4.qdimacs", identity_qdimacs(4))
    outs = []
    for i in (1, 2):
        dl = tmp_path / f"run{i}.dl"
        js = tmp_path / f"run{i}.json"
        assert main(["synth", f, "--dl", str(dl), "--json", str(js)]) == 0
        capsys.readouterr()
        outs.append((dl.read_bytes(), json.loads(js.read_text())))

    def strip_times(doc):
        if isinstance(doc, dict):
            return {
                k: strip_times(v)
                for k, v in doc.items()
                if not k.endswith("_ms") and k != "dl_path"
            }
        if isinstance(doc, list):
            return [strip_times(v) for v in doc]
        return doc

    assert outs[0][0] == outs[1][0]
    assert strip_times(outs[0][1]) == strip_times(outs[1][1])


# {spec}: example1, {dl}: its synthesized list, {dir}: a directory holding
# the spec, {latin1}/{latin1_dl}: a spec and a list that are not UTF-8
@pytest.mark.parametrize(
    "argv, env",
    [
        ("synth {spec} --timeout 0", {}),
        ("synth {spec} --timeout nan", {}),
        ("synth {spec} --mode mfs-enum --mis-limit 0", {}),
        ("synth {spec} --mode mss-enum --mss-limit -1", {}),
        ("analyze {spec} --budget 0", {}),
        ("bench {dir} --family bad", {}),
        ("bench {dir} --jobs 0", {}),
        ("synth {spec}", {"BAFSYNTH_TIMEOUT": "abc"}),
        ("synth {spec}", {"BAFSYNTH_MODE": "bogus"}),
        ("analyze {spec}", {"BAFSYNTH_BUDGET": "-3"}),
        ("bench {dir}", {"BAFSYNTH_JOBS": "x"}),
        ("synth {latin1}", {}),
        ("analyze {latin1}", {}),
        ("decompose {latin1} --out-dir {dir}", {}),
        ("verify {latin1} {dl}", {}),
        ("verify {spec} {latin1_dl}", {}),
        ("bench {spec}", {}),
    ],
)
def test_bad_arguments_and_files_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, env):
    paths = {
        "spec": _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT),
        "dl": str(tmp_path / "ex1.dl"),
        "dir": str(tmp_path / "dir"),
        "latin1": str(tmp_path / "latin1.qdimacs"),
        "latin1_dl": str(tmp_path / "latin1.dl"),
    }
    assert main(["synth", paths["spec"], "--dl", paths["dl"]]) == 0
    (tmp_path / "dir").mkdir()
    _write(tmp_path / "dir", "ex1.qdimacs", EXAMPLE1_TEXT)
    latin1 = EXAMPLE1_TEXT.replace("example", "exemple \xe9").encode("latin-1")
    (tmp_path / "latin1.qdimacs").write_bytes(latin1)
    (tmp_path / "latin1.dl").write_bytes((tmp_path / "ex1.dl").read_bytes() + b"\xff\n")
    capsys.readouterr()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        code = main(argv.format(**paths).split())
    except SystemExit as exc:  # argparse rejects the argument
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_timeout_past_the_timer_range_means_no_limit(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["synth", f, "--timeout", "1e12"])
    assert code == 0 and doc["verified"] is True
    with pytest.raises(ValueError, match="timeout must be positive"):
        with cli.time_limit(0):
            pass


def test_verify_reads_no_bench_only_environment(tmp_path, capsys, monkeypatch):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    dl = str(tmp_path / "ex1.dl")
    assert main(["synth", f, "--dl", dl]) == 0
    capsys.readouterr()
    monkeypatch.setenv("BAFSYNTH_JOBS", "x")
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 0 and doc["verified"] is True


def test_bench_records_a_non_utf8_file_as_parse_error(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    _write(d, "a_ok.qdimacs", EXAMPLE1_TEXT)
    (d / "b_latin1.qdimacs").write_bytes(b"c caf\xe9\n" + EXAMPLE1_TEXT.encode())
    out = tmp_path / "records.jsonl"
    assert main(["bench", str(d), "--json", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["instance"], r["status"]) for r in records] == [
        ("a_ok.qdimacs", "realizable"),
        ("b_latin1.qdimacs", "parse-error"),
    ]
    assert "not UTF-8" in records[1]["warning"]


def test_bench_records_every_report_counter(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    _write(d, "a_ex1.qdimacs", EXAMPLE1_TEXT)
    _write(d, "b_junk.qdimacs", "not a qdimacs file\n")
    out = tmp_path / "records.jsonl"
    assert main(["bench", str(d), "--json", str(out)]) == 0
    ok, junk = [json.loads(line) for line in out.read_text().splitlines()]
    report = cli.run_pipeline(parse_qdimacs(EXAMPLE1_TEXT), cli.RunConfig())
    counters = [f.name for f in dataclasses.fields(synth.Stats)]
    assert "mss_recorded" in counters
    for key in (*counters, "decisions"):
        assert ok[key] == report[key]
        assert junk[key] == 0
    assert ok["mss_recorded"] > 0


# run in tmp_path, which holds example1 as ex1.qdimacs, its list as ex1.dl,
# the unrealizable spec as unreal.qdimacs and a malformed one as bad.qdimacs
@pytest.mark.parametrize(
    "argv, code, err",
    [
        ("synth missing.qdimacs", 2, "[Errno 2] No such file or directory: 'missing.qdimacs'"),
        ("synth bad.qdimacs", 2, "line 1: malformed header: 'p cnf x y'"),
        (
            "synth ex1.qdimacs --mode mfs-enum --mis-limit 1",
            3,
            "more than 1 maximal falsifiable subsets",
        ),
        ("verify ex1.qdimacs missing.dl", 2, "[Errno 2] No such file or directory: 'missing.dl'"),
        (
            "verify unreal.qdimacs ex1.dl",
            2,
            "document 1 digest matches neither the specification nor any of its components",
        ),
    ],
)
def test_a_failing_command_prints_one_error_line(tmp_path, capsys, monkeypatch, argv, code, err):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    _write(tmp_path, "unreal.qdimacs", UNREALIZABLE_TEXT)
    _write(tmp_path, "bad.qdimacs", "p cnf x y\n")
    assert main(["synth", "ex1.qdimacs", "--dl", "ex1.dl"]) == 0
    capsys.readouterr()
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_bench_records_the_warning_of_each_failure(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    _write(d, "a_ex1.qdimacs", EXAMPLE1_TEXT)
    _write(d, "b_junk.txt", "not a qdimacs file\n")
    out = tmp_path / "records.jsonl"
    argv = ["bench", str(d), "--json", str(out), "--mode", "mfs-enum", "--mis-limit", "1"]
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["status"], r["warning"]) for r in records] == [
        ("limit", "more than 1 maximal falsifiable subsets"),
        ("parse-error", "line 1: expected `p cnf` header before 'not a qdimacs file'"),
    ]


def test_importing_the_cli_loads_no_process_pool():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    probe = "import sys, bafsynth.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout == "False\n"
