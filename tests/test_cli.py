import json

import pytest

from bafsynth import cli, graph, synth
from bafsynth.cli import main
from bafsynth.dlist import parse_many
from bafsynth.model import parse_qdimacs
from bafsynth.synth import partition_by_output_variables

from .conftest import EXAMPLE1_TEXT, UNREALIZABLE_TEXT, identity_qdimacs


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
    code, doc = _run(capsys, ["synth", f])
    assert code == 1
    assert doc["status"] == "unrealizable"
    assert doc["witness"]["mfs"] in ([1, 2], [3, 4])


@pytest.mark.parametrize("extra", [[], ["--no-verify"], ["--no-partition"]])
def test_synth_mss_enum_unrealizable(tmp_path, capsys, extra):
    f = _write(tmp_path, "bad.qdimacs", UNREALIZABLE_TEXT)
    code, doc = _run(capsys, ["synth", f, "--mode", "mss-enum", *extra])
    assert code == 1
    assert doc["status"] == "unrealizable"
    assert doc["witness"]["mfs"] in ([1, 2], [3, 4])
    assert doc["verification"] is None


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


def test_synth_timeout(tmp_path, capsys):
    # without partitioning the equivalence family needs one iteration per
    # output pattern, far beyond a one-second budget at width 16
    f = _write(tmp_path, "id16.qdimacs", identity_qdimacs(16))
    code, _ = _run(capsys, ["synth", f, "--no-partition", "--timeout", "1"])
    assert code == 3


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
    cli.run_pipeline(parse_qdimacs(identity_qdimacs(2)), cli.RunConfig(mode=mode))
    assert seen == [(3,), (4,)]


def test_analyze_example1(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["analyze", f, "--budget", "100"])
    assert code == 0
    assert doc["max_cliques"] == 3
    assert doc["consensus_chordal"] is True
    assert doc["p_np_fragment"] == "yes"


def test_analyze_budget_exceeded(tmp_path, capsys):
    f = _write(tmp_path, "id12.qdimacs", identity_qdimacs(12))
    code, doc = _run(capsys, ["analyze", f, "--budget", "1000"])
    assert code == 0
    assert doc["max_cliques"] == "budget-exceeded"
    assert doc["p_np_fragment"] == "unknown"


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


def test_verify_multidoc_partitioned(tmp_path, capsys):
    f = _write(tmp_path, "id4.qdimacs", identity_qdimacs(4))
    dl = str(tmp_path / "id4.dl")
    main(["synth", f, "--dl", dl])
    capsys.readouterr()
    code, doc = _run(capsys, ["verify", f, dl])
    assert code == 0
    assert doc["documents"] == 4


def test_decompose_command(tmp_path, capsys):
    f = _write(tmp_path, "ex1.qdimacs", EXAMPLE1_TEXT)
    code, doc = _run(capsys, ["decompose", f, "--out-dir", str(tmp_path)])
    assert code == 0
    assert doc["intermediate_vars"] == 4
    assert doc["good_decomposition"] == {
        "equivalence_holds": True,
        "image_in_domain": True,
    }
    assert doc["composition"]["status"] == "decomposition-unrealizable"
    f2 = parse_qdimacs((tmp_path / "ex1.f2.qdimacs").read_text())
    assert f2.inputs == (5, 6, 7, 8)
    f1_text = (tmp_path / "ex1.f1.cnf").read_text()
    assert f1_text.splitlines()[2].startswith("p cnf 8 ")


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
