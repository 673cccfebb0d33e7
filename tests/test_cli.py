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


def test_pipeline_builds_one_conflict_graph_per_component(monkeypatch):
    built = _count_graph_builds(monkeypatch)
    result = cli.run_pipeline(parse_qdimacs(identity_qdimacs(16)), cli.RunConfig())
    assert result["status"] == "realizable" and result["partitions"] == 16
    assert built == [2] * 16


def test_pipeline_builds_whole_spec_graph_only_for_empty_ypart(monkeypatch):
    built = _count_graph_builds(monkeypatch)
    result = cli.run_pipeline(parse_qdimacs(EMPTY_YPART_TEXT), cli.RunConfig())
    assert result["witness"]["component"] == 0
    assert built == [3]


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
