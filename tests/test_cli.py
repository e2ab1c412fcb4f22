import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csm
from csm.cli import main
from csm.dsl import emit_json, emit_text, parse_json
from csm.fixtures import fixture_path, fixture_text, load


@pytest.fixture
def write_json(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def fx(name: str) -> str:
    return str(fixture_path(name))


class TestValidate:
    def test_clean_model_exits_zero(self, capsys):
        assert main(["validate", fx("gp_lab")]) == 0
        assert capsys.readouterr().out == ""

    def test_warnings_only_exit_zero(self, capsys):
        assert main(["validate", fx("healthcare")]) == 0
        lines = capsys.readouterr().out.splitlines()
        docs = [json.loads(line) for line in lines]
        assert [(d["code"], d["site"]) for d in docs] == [("W-FP", "class=ReportOfPatient")]
        assert docs[0]["severity"] == "warning"

    def test_rule_errors_exit_one(self, capsys):
        assert main(["validate", fx("bad_c3")]) == 1
        [doc] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert doc["code"] == "E-C3" and doc["suggestion"].startswith("add reference")

    def test_parse_errors_go_to_stderr(self, tmp_path, capsys):
        path = tmp_path / "broken.csm"
        path.write_text('model "m" { role }')
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "E-SYN" in err and "broken.csm" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/no/such/file.csm"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_model_input(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(emit_json(load("gp_lab")))
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("processes", "inputs", 5),
            ("processes", "outputs", 5),
            ("processes", "owners", 5),
            ("processes", "responsibles", 5),
            ("processes", "transforms", 5),
            ("classes", "status_points", 5),
            ("grants", "privileges", 5),
            ("classes", "dynamic", "false"),
        ],
    )
    def test_json_value_of_wrong_type_exits_one(self, tmp_path, capsys, section, key, value):
        doc = json.loads(emit_json(load("healthcare")))
        doc[section][0][key] = value
        blob = json.dumps(doc)
        assert [d.code for d in parse_json(blob).diagnostics] == ["E-JSON"]
        path = tmp_path / "model.json"
        path.write_text(blob)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "E-JSON" in err and "Traceback" not in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_python_dash_m(self, capsys):
        paths = [str(Path(csm.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "csm", "validate", fx("healthcare")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code = main(["validate", fx("healthcare")])
        assert proc.stdout == capsys.readouterr().out != ""
        assert proc.returncode == code == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestClassify:
    def test_table(self, capsys):
        assert main(["classify", fx("hotel_agency")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["LEVEL", "PRODUCER", "CONSUMER", "ARTIFACT"]
        assert "very tight  Hotel" in out

    def test_json(self, capsys):
        assert main(["classify", fx("healthcare"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pair_summary"]["GP->Laboratory"] == ["loose"]

    def test_invalid_model_exits_one(self, capsys):
        assert main(["classify", fx("bad_c1")]) == 1
        assert "E-C1" in capsys.readouterr().err


class TestSimulate:
    def test_script_outcomes(self, capsys, write_json):
        seed = write_json("seed.json", [{"object": "r", "class": "OccupiedRoom"}])
        script = write_json(
            "script.json",
            [
                {"process": "CleanRoom", "object": "r"},
                {"process": "DischargeHospital", "object": "r"},
                {"process": "CleanRoom", "object": "r"},
            ],
        )
        assert main(["simulate", fx("hospital_cleaning"), "--seed", seed, "--script", script]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [d["outcome"] for d in docs] == ["fired", "fired", "not-enabled"]

    def test_strict_mode(self, capsys, write_json):
        seed = write_json("seed.json", [])
        script = write_json("script.json", [{"process": "CarePatient", "object": "p"}])
        args = ["simulate", fx("gp_lab"), "--seed", seed, "--script", script]
        assert main(args) == 0
        assert main([*args, "--strict"]) == 1

    def test_malformed_seed_exits_two(self, capsys, write_json, tmp_path):
        bad = tmp_path / "seed.json"
        bad.write_text("{oops")
        script = write_json("script.json", [])
        assert main(["simulate", fx("gp_lab"), "--seed", str(bad), "--script", script]) == 2

    def test_seed_entry_shape_checked(self, capsys, write_json):
        seed = write_json("seed.json", [{"object": "r"}])
        script = write_json("script.json", [])
        assert main(["simulate", fx("gp_lab"), "--seed", seed, "--script", script]) == 2

    @pytest.mark.parametrize("value", [5, None])
    @pytest.mark.parametrize("bad_file", ["seed", "script"])
    def test_non_string_entry_exits_two(self, capsys, write_json, value, bad_file):
        seed_doc = [{"object": value, "class": "TestRequest"}] if bad_file == "seed" else []
        script_doc = [{"process": value, "object": "p"}] if bad_file == "script" else []
        seed = write_json("seed.json", seed_doc)
        script = write_json("script.json", script_doc)
        assert main(["simulate", fx("gp_lab"), "--seed", seed, "--script", script]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["simulate", "explore"])
    @pytest.mark.parametrize(
        "entries, message",
        [
            ([{"object": "r", "class": "Lobby"}], "names no declared class: 'Lobby'"),
            (
                [{"object": "r", "class": "OccupiedRoom"}] * 2,
                "repeats 'r' in 'OccupiedRoom'",
            ),
        ],
    )
    def test_bad_seed_entry_exits_two(self, capsys, write_json, command, entries, message):
        seed = write_json("seed.json", entries)
        script = write_json("script.json", [])
        argv = [command, fx("hospital_cleaning"), "--seed", seed]
        assert main(argv + (["--script", script] if command == "simulate" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed file {seed} {message}\n"


class TestExplore:
    def test_queries(self, capsys, write_json):
        seed = write_json("seed.json", [{"object": "r", "class": "OccupiedRoom"}])
        query = write_json(
            "query.json",
            [
                {"type": "sequence", "first": "DischargeHospital", "then": "CleanRoom"},
                {"type": "sequence", "first": "CleanRoom", "then": "DischargeHospital"},
            ],
        )
        code = main(["explore", fx("hospital_cleaning"), "--seed", seed, "--query", query])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete"] is True
        assert [q["reachable"] for q in doc["queries"]] == [False, True]

    @pytest.mark.parametrize(
        "query",
        [
            {"type": "sequence", "first": "CleanRoom"},
            {"type": "sequence", "first": "CleanRoom", "then": 5},
            {"type": "sequence", "first": "CleanRoom", "then": "Ghost"},
            {"type": "sequence", "first": "CleanRoom", "then": "CleanRoom", "note": ""},
            {"type": "co_occurrence", "classes": ["OccupiedRoom"]},
            {"type": "co_occurrence", "classes": "OccupiedRoom"},
            {"type": "co_occurrence", "classes": ["OccupiedRoom", 1]},
            {"type": "co_occurrence", "classes": ["OccupiedRoom", "Ghost"]},
            {"type": "deadlock"},
            ["sequence", "CleanRoom", "CleanRoom"],
        ],
    )
    def test_bad_query_exits_two(self, capsys, write_json, query):
        seed = write_json("seed.json", [{"object": "r", "class": "OccupiedRoom"}])
        path = write_json("query.json", [query])
        assert main(["explore", fx("hospital_cleaning"), "--seed", seed, "--query", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_stats_go_to_stderr(self, capsys, write_json):
        seed = write_json("seed.json", [{"object": "r", "class": "OccupiedRoom"}])
        query = write_json(
            "query.json", [{"type": "sequence", "first": "CleanRoom", "then": "DischargeHospital"}]
        )
        argv = ["explore", fx("hospital_cleaning"), "--seed", seed, "--query", query]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out and plain.err == ""
        [line] = captured.err.splitlines()
        stats = json.loads(line)
        assert set(stats) == {"states", "edges", "frontier", "build_s", "query_s", "stop"}
        assert stats["states"] == json.loads(plain.out)["state_count"] == sum(stats["frontier"])
        assert stats["stop"] == "closed" and stats["edges"] > 0
        assert stats["build_s"] >= 0 and stats["query_s"] >= 0

    def test_stats_name_the_object_bound(self, capsys, write_json):
        seed = write_json("seed.json", [{"object": "p", "class": "CaredPatient"}])
        argv = ["explore", fx("gp_lab"), "--seed", seed, "--max-objects", "1", "--stats"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["complete"] is False
        assert json.loads(captured.err)["stop"] == "object_bound_pruned"

    @pytest.mark.parametrize(
        "option, value", [("--max-steps", "0"), ("--max-objects", "-1")]
    )
    def test_bound_below_one_exits_two(self, capsys, write_json, option, value):
        seed = write_json("seed.json", [])
        assert main(["explore", fx("gp_lab"), "--seed", seed, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be at least 1: {value}\n"

    def test_defaults_without_query(self, capsys, write_json):
        seed = write_json("seed.json", [])
        assert main(["explore", fx("gp_lab"), "--seed", seed]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state_count"] > 1


def _reading(kind: str, path: str, write_json) -> list[str]:
    """A command line that reads ``path`` as a file of the given kind."""
    seed = write_json("seed.json", [])
    script = write_json("script.json", [])
    if kind == "model":
        return ["validate", path]
    if kind == "seed":
        return ["simulate", fx("gp_lab"), "--seed", path, "--script", script]
    if kind == "script":
        return ["simulate", fx("gp_lab"), "--seed", seed, "--script", path]
    return ["explore", fx("gp_lab"), "--seed", seed, "--query", path]


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "kind, name",
        [("model", "m.csm"), ("model", "m.json"), ("seed", "s.json"),
         ("script", "t.json"), ("query", "q.json")],
    )
    def test_non_utf8_file_exits_two(self, capsys, tmp_path, write_json, kind, name):
        path = tmp_path / name
        path.write_bytes(b'model "a\xff" { }' if kind == "model" else b'["a\xff"]')
        assert main(_reading(kind, str(path), write_json)) == 2
        label = str(path) if kind == "model" else f"{kind} file {path}"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {label}: not valid UTF-8 (byte ")
        assert "Traceback" not in captured.err

    def test_too_deeply_nested_model_is_e_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E-JSON [error] document: malformed JSON: ")
        assert err.endswith(f"error: {path}: model has errors\n")

    @pytest.mark.parametrize("kind", ["seed", "script", "query"])
    def test_too_deeply_nested_json_file_exits_two(self, capsys, tmp_path, write_json, kind):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(_reading(kind, str(path), write_json)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed {kind} file {path}: ")
        assert "Traceback" not in captured.err


def test_import_leaves_out_heavy_stdlib_modules():
    """``import csm.cli`` loads every csm module and none of the stdlib
    modules whose import dominated start-up (a module set, not a timing)."""
    src = str(Path(csm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import csm.cli, sys, json; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "typing", "inspect", "pathlib"}
    assert {
        "csm.classifier", "csm.diagnostics", "csm.dsl", "csm.model",
        "csm.render", "csm.simulator", "csm.validator",
    } <= loaded


class TestRenderAndFmt:
    def test_render_dot_to_stdout(self, capsys):
        assert main(["render", fx("gp_lab"), "--format", "dot"]) == 0
        check = capsys.readouterr().out
        assert check.startswith('digraph "gp_lab" {')

    def test_render_mermaid_to_file(self, tmp_path, capsys):
        out = tmp_path / "d.mmd"
        assert main(["render", fx("gp_lab"), "--format", "mermaid", "-o", str(out)]) == 0
        assert out.read_text().startswith("flowchart LR")
        assert capsys.readouterr().out == ""

    def test_render_into_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "d.dot"
        assert main(["render", fx("gp_lab"), "--format", "dot", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_render_requires_format(self, capsys):
        assert main(["render", fx("gp_lab")]) == 2

    def test_render_invalid_model(self, capsys):
        assert main(["render", fx("bad_c5"), "--format", "dot"]) == 1

    def test_fmt_emits_canonical_text(self, capsys):
        assert main(["fmt", fx("hotel_agency")]) == 0
        assert capsys.readouterr().out == emit_text(load("hotel_agency"))

    def test_fmt_is_a_fixpoint(self, tmp_path, capsys):
        assert main(["fmt", fx("healthcare")]) == 0
        once = capsys.readouterr().out
        path = tmp_path / "h.csm"
        path.write_text(once)
        assert main(["fmt", str(path)]) == 0
        assert capsys.readouterr().out == once
