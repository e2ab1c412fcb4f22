import ast
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csm
from csm import simulator
from csm.classifier import classify_all
from csm.cli import main
from csm.dsl import emit_json, emit_text, parse_json
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_path, load
from helpers import A4_SEEDS, BAD_QUERIES, load_bench
from properties_core import reference_report_json


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

    @pytest.mark.parametrize("suffix", [".csm", ".json"])
    @pytest.mark.parametrize("name", FIXTURES + BAD_FIXTURES)
    def test_json_bytes(self, capsys, tmp_path, name, suffix):
        # The report is the indented, key-sorted dump of its document, byte
        # for byte, as the reference in tests/helpers.py builds it.
        path = fx(name)
        if suffix == ".json":
            path = tmp_path / f"{name}.json"
            path.write_bytes(emit_json(load(name)))
        code = main(["classify", "--json", str(path)])
        captured = capsys.readouterr()
        if name in BAD_FIXTURES:
            assert (code, captured.out) == (1, "")
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        else:
            report = classify_all(load(name))
            assert code == 0
            assert captured.out == reference_report_json(report) + "\n"


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
            (
                # A witness step on it would read as a mint request.
                [{"object": "new", "class": "OccupiedRoom"}],
                "uses the reserved object id 'new'",
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
        # The last entry is at fault, at its class only when that is undeclared.
        at = f"/{len(entries) - 1}/{'class' if 'class' in message else 'object'}"
        assert captured.err == f"error: seed file {seed} at {at} {message}\n"


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

    @pytest.mark.parametrize("query", BAD_QUERIES)
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

    @pytest.mark.parametrize("cycle", ["DiagnosedPatient", "TestRequest", "SentTestResult"])
    def test_corpus_explore_is_counted(self, capsys, write_json, monkeypatch, cycle):
        # One patient on the diagnose/test/review cycle, 40 steps, 5 objects:
        # the space is counted from lifecycles, never enumerated.
        def enumerate_(*args):
            raise AssertionError("explore enumerated the global states")

        monkeypatch.setattr(simulator, "_enumerate", enumerate_)
        seed = write_json("seed.json", [{"object": "pat", "class": "CaredPatient"},
                                        {"object": "pat", "class": cycle}])
        argv = ["explore", fx("healthcare"), "--seed", seed,
                "--max-steps", "40", "--max-objects", "5", "--stats"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.err)
        assert (stats["states"], stats["edges"], stats["stop"]) == (
            16806, 104843, "object_bound_pruned"
        )
        assert json.loads(captured.out)["state_count"] == 16806

    @pytest.mark.parametrize(
        "option, value", [("--max-steps", "0"), ("--max-objects", "-1")]
    )
    def test_bound_below_one_exits_two(self, capsys, write_json, option, value):
        seed = write_json("seed.json", [])
        assert main(["explore", fx("gp_lab"), "--seed", seed, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be at least 1: {value}\n"

    def test_shortest_witness_over_every_object(self, capsys, write_json):
        # The seeded patient needs 4 steps; a minted one would need 6.
        seed = write_json("seed.json", [{"object": "p", "class": "CaredPatient"},
                                        {"object": "p", "class": "DiagnosedPatient"}])
        query = write_json(
            "query.json", [{"type": "sequence", "first": "ReviewResult", "then": "RequestTest"}]
        )
        argv = ["explore", fx("healthcare"), "--seed", seed, "--query", query,
                "--max-steps", "40", "--max-objects", "5"]
        assert main(argv) == 0
        [result] = json.loads(capsys.readouterr().out)["queries"]
        assert result["witness"] == [
            ["RequestTest", "p"], ["PerformTest", "p"], ["ReviewResult", "p"], ["RequestTest", "p"]
        ]

    def test_query_holding_in_the_seed_has_an_empty_witness(self, capsys, write_json):
        # [] is "holds with no step"; null is kept for "unreachable".
        seed = write_json("seed.json", [{"object": "r", "class": "OccupiedRoom"}])
        query = write_json(
            "query.json",
            [{"type": "co_occurrence", "classes": ["OccupiedRoom", "OccupiedRoom"]},
             {"type": "sequence", "first": "DischargeHospital", "then": "CleanRoom"}],
        )
        argv = ["explore", fx("hospital_cleaning"), "--seed", seed, "--query", query,
                "--max-steps", "8", "--max-objects", "1"]
        assert main(argv) == 0
        held, unreachable = json.loads(capsys.readouterr().out)["queries"]
        assert (held["reachable"], held["witness"]) == (True, [])
        assert (unreachable["reachable"], unreachable["witness"]) == (False, None)

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


@pytest.mark.parametrize("kind", ["seed", "script", "query"])
def test_json_file_that_is_not_an_array_exits_two(capsys, tmp_path, write_json, kind):
    path = tmp_path / "doc.json"
    path.write_text('{"object": "r"}')
    assert main(_reading(kind, str(path), write_json)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind} file {path} must be a JSON array\n"


_SEED_NEEDS = "entries need string values for 'object' and 'class'"
_SCRIPT_NEEDS = "entries need string values for 'process' and 'object'"
_QUERY_TYPE = "query type must be 'co_occurrence' or 'sequence'"


@pytest.mark.parametrize(
    "kind, entries, message",
    [
        ("seed", ["r"], f"at /0: {_SEED_NEEDS}: 'r'"),
        (
            "seed",
            [{"class": "TestRequest"}],
            f"at /0/object: {_SEED_NEEDS}: {{'class': 'TestRequest'}}",
        ),
        (
            "seed",
            [{"object": "r", "class": 5}],
            f"at /0/class: {_SEED_NEEDS}: {{'object': 'r', 'class': 5}}",
        ),
        (
            "seed",
            [{"object": "new", "class": "TestRequest"}],
            "at /0/object uses the reserved object id 'new'",
        ),
        (
            "seed",
            [{"object": "r", "class": "Lobby"}],
            "at /0/class names no declared class: 'Lobby'",
        ),
        (
            "seed",
            [{"object": "r", "class": "TestRequest"}] * 2,
            "at /1/object repeats 'r' in 'TestRequest'",
        ),
        (
            "script",
            [{"process": "RequestTest", "object": "p"}, None],
            f"at /1: {_SCRIPT_NEEDS}: None",
        ),
        (
            "script",
            [{"process": None, "object": 1}],
            f"at /0/process: {_SCRIPT_NEEDS}: {{'process': None, 'object': 1}}",
        ),
        ("query", [[]], f"at /0: {_QUERY_TYPE}: []"),
        ("query", [{"type": "deadlock"}], f"at /0/type: {_QUERY_TYPE}: {{'type': 'deadlock'}}"),
        (
            "query",
            [{"type": "sequence", "first": "RequestTest"}],
            "at /0/then: sequence query needs exactly the keys first, then, type: "
            "{'type': 'sequence', 'first': 'RequestTest'}",
        ),
        (
            # A key holding "~" or "/" is escaped as RFC 6901 says.
            "query",
            [{"type": "co_occurrence", "a/b~c": 1, "classes": []}],
            "at /0/a~1b~0c: co_occurrence query needs exactly the keys classes, type: "
            "{'type': 'co_occurrence', 'a/b~c': 1, 'classes': []}",
        ),
        (
            "query",
            [{"type": "co_occurrence", "classes": ["TestRequest"]}],
            "at /0/classes: 'classes' must be an array of two class names: "
            "{'type': 'co_occurrence', 'classes': ['TestRequest']}",
        ),
        (
            "query",
            [{"type": "co_occurrence", "classes": ["TestRequest", "Lobby"]}],
            "at /0/classes/1: query names no declared class: 'Lobby'",
        ),
        (
            "query",
            [{"type": "sequence", "first": 5, "then": "PerformTest"}],
            "at /0/first: query names no declared process: 5",
        ),
        (
            "query",
            [{"type": "sequence", "first": "PerformTest", "then": "PerformTest"},
             {"type": "sequence", "first": "PerformTest", "then": "Ghost"}],
            "at /1/then: query names no declared process: 'Ghost'",
        ),
        (
            # The type is judged a string before it is looked up.
            "query",
            [{"type": ["co_occurrence"]}],
            f"at /0/type: {_QUERY_TYPE}: {{'type': ['co_occurrence']}}",
        ),
    ],
)
def test_side_file_entry_error_names_its_file_and_pointer(
    capsys, tmp_path, write_json, kind, entries, message
):
    path = tmp_path / f"{kind}-entries.json"
    path.write_text(json.dumps(entries))
    assert main(_reading(kind, str(path), write_json)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind} file {path} {message}\n"


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


    # Python 3.11 and later refuse to decode an integer of more than 4 300
    # digits; an interpreter without that limit reads a value of the wrong
    # type. Either way the file is refused with its exit code.
    def test_number_past_the_digit_limit_in_a_model_is_e_json(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        doc = json.loads(emit_json(load("gp_lab")))
        doc["classes"][0]["dynamic"] = "@"
        path.write_text(json.dumps(doc).replace('"@"', "9" * 5000))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("E-JSON [error] ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, entry",
        [("seed", '{"object": %s, "class": "TestRequest"}'),
         ("script", '{"process": %s, "object": "p"}'),
         ("query", '{"type": "sequence", "first": %s, "then": "PerformTest"}')],
        ids=["seed", "script", "query"],
    )
    def test_number_past_the_digit_limit_in_a_json_file_exits_two(
        self, capsys, tmp_path, write_json, kind, entry
    ):
        path = tmp_path / "big.json"
        path.write_text(f"[{entry % ('9' * 5000)}]")
        assert main(_reading(kind, str(path), write_json)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv", [["validate"], ["fmt"], ["render", "--format", "dot"]], ids=lambda a: a[0]
    )
    def test_model_name_that_is_not_utf8_is_e_json(self, capsys, tmp_path, argv):
        # A lone surrogate decodes from a JSON escape, but no output can hold it.
        doc = json.loads(emit_json(load("gp_lab")))
        doc["name"] = "\ud800"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "E-JSON [error] document: 'name' must encode as UTF-8\n"
            f"error: {path}: model has errors\n"
        )

@pytest.mark.parametrize("argv", [["classify", "--json"], ["validate"]])
def test_closed_stdout_exits_two(argv):
    # Python ignores SIGPIPE, so a write to a pipe nobody reads raises
    # BrokenPipeError, at the latest when the output is flushed at exit.
    src = str(Path(csm.__file__).parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "csm", *argv, fx("healthcare")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def _entry_child(argv):
    """stdout, stderr and exit code of the ``csm`` script's process, its
    stdout block-buffered as in any run without PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(csm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "from csm.cli import entry; entry()", *argv],
        capture_output=True, env=env, timeout=60,
    )
    return proc.stdout, proc.stderr, proc.returncode


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode(), err.getvalue().encode(), code


@pytest.mark.parametrize(
    "argv, want_code",
    [
        (["fmt", "@synth"], 0),
        (["classify", "--json", "@synth"], 0),
        (["render", fx("healthcare"), "--format", "dot", "-o", "@out"], 0),
        (["validate", fx("bad_c1")], 1),
        (["validate", "@missing"], 2),
    ],
)
def test_entry_exits_with_what_main_wrote(argv, want_code, tmp_path, monkeypatch):
    # entry ends the process with _exit, so whatever main wrote must be
    # flushed first; the synth outputs are larger than one stdio buffer.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
    synth = load_bench("synth")
    model_path = tmp_path / "synth.csm"
    model_path.write_text(synth.to_text(synth.generate(24, 100, 100, 0.08, 511)["model"]))
    files = {"@synth": str(model_path), "@missing": str(tmp_path / "missing.csm")}
    results = []
    for name, run in (("child", _entry_child), ("main", _main_in_process)):
        out_path = tmp_path / f"{name}.dot"
        out, err, code = run([files.get(a, str(out_path) if a == "@out" else a) for a in argv])
        results.append((out, err, code, out_path.read_bytes() if out_path.exists() else None))
    assert results[0] == results[1]
    assert results[0][2] == want_code
    if "@synth" in argv:
        assert len(results[0][0]) > 8192


def test_no_reference_cycle_per_explored_state(capsys, write_json):
    # entry turns the cyclic collector off: garbage cycles made per state
    # would grow with the explored space and show only as memory.
    seed = write_json("seed.json", [{"object": "pat", "class": "CaredPatient"},
                                    {"object": "pat", "class": "DiagnosedPatient"}])
    query = write_json(
        "query.json", [{"type": "sequence", "first": "ReviewResult", "then": "RequestTest"}]
    )
    found = []
    gc.disable()
    try:
        gc.collect()
        for steps, objects in (("4", "2"), ("40", "5")):
            argv = ["explore", fx("healthcare"), "--seed", seed, "--query", query,
                    "--max-steps", steps, "--max-objects", objects]
            assert main(argv) == 0
            capsys.readouterr()
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found[0] == found[1]


# Every command line shape the benchmark runs, and the options it leaves
# out; "@name" stands for a file in the test's directory.
BENCH_SHAPES = [
    ["validate", "@model"],
    ["classify", "--json", "@model"],
    ["simulate", "@model", "--seed", "@seed", "--script", "@script"],
    ["simulate", "@model", "--seed", "@seed", "--script", "@script", "--strict"],
    ["explore", "@model", "--seed", "@seed", "--query", "@query",
     "--max-steps", "40", "--max-objects", "5"],
    ["explore", "@model", "--seed", "@seed", "--query", "@query",
     "--max-steps", "4", "--max-objects", "2", "--stats"],
    ["render", "@model", "--format", "dot"],
    ["render", "@model", "--format", "mermaid"],
    ["render", "@model", "--format", "dot", "-o", "@out", "--show-privileges"],
    ["fmt", "@model"],
    ["explain", "E-C1"],
]
# Stdlib modules, by top-level name, that no command line the benchmark
# runs may load: argparse and what its help and messages pull in, the
# modules the token parser and malformed JSON need (re, json, enum, and
# bisect for a diagnostic's line and column), what namedtuple and
# cached_property load, os, and the stdlib's heavier packages.
FORBIDDEN = {
    "argparse", "bisect", "bz2", "collections", "dataclasses", "enum", "fnmatch",
    "functools", "gettext", "inspect", "json", "locale", "lzma", "operator", "os",
    "pathlib", "re", "shutil", "types", "typing", "zlib",
}


def _main_in_child(lines, prelude="", watched=()):
    """``(exit code, stdout, stderr, modules)`` of each command line, run by
    ``csm.cli.main`` in turn in one ``python -S`` child that runs
    ``prelude`` and then imports only ``io``, ``sys`` and ``csm.cli``;
    ``modules`` are those loaded after the line whose top-level name is in
    ``watched``."""
    src = str(Path(csm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, sys\n"
         f"{prelude}\n"
         "import csm.cli\n"
         "watched = set(sys.argv[2].split())\n"
         "runs = []\n"
         "for line in sys.argv[1].split('\\x1e'):\n"
         "    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
         "    code = csm.cli.main(line.split('\\x1f'))\n"
         "    out, err = sys.stdout.getvalue(), sys.stderr.getvalue()\n"
         "    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
         "    runs.append((code, out, err, sorted(\n"
         "        m for m in sys.modules if m.partition('.')[0] in watched)))\n"
         "print(repr(runs))",
         "\x1e".join("\x1f".join(line) for line in lines),
         " ".join(watched)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_benchmark_commands_load_no_forbidden_module(write_json, tmp_path):
    """Every command line the benchmark runs, on ``healthcare.csm`` and on
    its JSON form, in one ``python -S`` child that imports only ``io``,
    ``sys`` and ``csm.cli``: ``import csm.cli`` loads every csm layer, and
    each line exits 0, writes its output and loads no ``FORBIDDEN`` module.
    ``sys.modules`` only grows, so the child records after each line what
    it holds; the first record that lists a module names the line that
    loaded it. Last comes an abbreviated option, which only argparse reads:
    that line loads argparse."""
    model_json = tmp_path / "healthcare.json"
    model_json.write_bytes(emit_json(load("healthcare")))
    files = {
        "@seed": write_json("seed.json", [{"object": "p", "class": "CaredPatient"}]),
        "@script": write_json("script.json", [{"process": "CheckUp", "object": "new"}]),
        "@query": write_json(
            "query.json", [{"type": "sequence", "first": "ReviewResult", "then": "RequestTest"}]
        ),
    }
    outs = [tmp_path / "out_csm.dot", tmp_path / "out_json.dot"]
    lines = [
        [{**files, "@model": model, "@out": str(out)}.get(a, a) for a in shape]
        for model, out in zip((fx("healthcare"), str(model_json)), outs)
        for shape in BENCH_SHAPES
    ]
    lines.append(["classify", "--js", fx("healthcare")])
    runs = _main_in_child(lines, watched=FORBIDDEN | {"csm"})
    assert [code for code, *_ in runs] == [0] * len(lines), list(zip(lines, runs))
    assert runs[0][1].startswith('{"code": "W-FP"')
    assert {
        "csm.classifier", "csm.diagnostics", "csm.dsl", "csm.model",
        "csm.render", "csm.simulator", "csm.validator",
    } <= set(runs[0][3])
    loaded = [{m for m in modules if m.partition(".")[0] in FORBIDDEN} for *_, modules in runs]
    assert loaded[:-1] == [set()] * len(lines[:-1]), list(zip(lines, loaded))
    assert "argparse" in loaded[-1]

    for line, (_, out, err, _) in zip(lines, runs):
        assert out or "-o" in line, line
        if "--stats" not in line:
            assert err == "", (line, err)
            continue
        # The stats line is what json.dumps(sort_keys=True) writes.
        stats = err[:-1]
        assert err == stats + "\n" and "\n" not in stats, (line, err)
        assert stats == json.dumps(json.loads(stats), sort_keys=True)
        assert set(json.loads(stats)) == {
            "build_s", "edges", "frontier", "query_s", "states", "stop"
        }
    for path in outs:
        assert path.read_text().startswith("digraph "), path


@pytest.mark.parametrize("missing", ["_json", "_collections"])
def test_fallbacks_write_the_same_bytes(missing, tmp_path):
    """With CPython's ``_json`` or ``_collections`` gone, ``diagnostics``
    takes its ``ImportError`` branch: ``json``'s own ``loads`` and
    encoder, or a ``property`` per record field in place of
    ``_tuplegetter``. Each command prints the same bytes, with the same exit
    codes, as it does with the accelerator. ``cli``'s other branch, ``os``'s
    ``_exit`` for an interpreter without ``posix``, cannot be forced on
    Linux, where ``os`` itself imports ``posix``."""
    model_json = tmp_path / "healthcare.json"
    model_json.write_bytes(emit_json(load("healthcare")))
    lines = [
        ["validate", fx("healthcare")],
        ["classify", "--json", fx("healthcare")],
        ["render", fx("healthcare"), "--format", "dot"],
        ["fmt", fx("healthcare")],
        ["validate", str(model_json)],
        ["classify", "--json", str(model_json)],
    ]
    want = _main_in_child(lines, watched={"json"})
    got = _main_in_child(lines, prelude=f"sys.modules[{missing!r}] = None", watched={"json"})
    assert [run[:3] for run in got] == [run[:3] for run in want]
    # Only the fallback decoder is json's own.
    assert all(("json" in run[3]) == (missing == "_json") for run in got)
    assert not any(run[3] for run in want)


def _import_csm(prelude: str) -> list[str]:
    """What a ``python -S`` child that runs ``prelude`` and then ``import
    csm`` prints: whether the collector is on, whether a collection started
    while the layers were imported (from the first ``csm.`` submodule to
    ``csm.validator``, the last), whether one started from then on through
    the end of the import and 100 container allocations after it, and the
    freeze count before and after the import. A collection that starts
    before any layer is loaded, as importlib compiles ``csm/__init__.py``
    when it has no valid bytecode, comes before any csm statement runs and
    is not counted."""
    src = str(Path(csm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import gc, sys\n"
         f"{prelude}\n"
         "early, late = [], []\n"
         "def seen(phase, info):\n"
         "    loaded = [name for name in sys.modules if name.startswith('csm.')]\n"
         "    if phase == 'start' and loaded:\n"
         "        (late if 'csm.validator' in loaded else early).append(True)\n"
         "gc.callbacks.append(seen)\n"
         "frozen = gc.get_freeze_count()\n"
         "import csm\n"
         "made = [[] for _ in range(100)]\n"
         "print(gc.isenabled(), any(early), any(late), frozen, gc.get_freeze_count())"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_found(enabled):
    """``import csm`` runs no collection while it imports its layers, leaves
    the cyclic collector on or off as it found it, and moves what it made
    out of generation 0 without a sweep, so none starts right after it
    either. A collection just before the import starts its count anew.
    What the import made is not left frozen. An interpreter that froze
    objects at start-up (Python 3.12.1 does, and its next full collection
    freezes them again) would skip that move, as for a caller's frozen
    objects, so the prelude unfreezes them after collecting."""
    on, early, late, before, after = _import_csm(
        f"gc.enable() if {enabled} else gc.disable()\ngc.collect()\ngc.unfreeze()"
    )
    assert (on, early, late) == (str(enabled), "False", "False")
    assert after == before == "0"


def test_import_keeps_a_callers_frozen_objects():
    """Objects the caller froze before ``import csm`` stay frozen, and the
    import adds none to them."""
    on, early, _, before, after = _import_csm("gc.enable()\ngc.collect()\ngc.freeze()")
    assert (on, early) == ("True", "False")
    assert int(before) > 0 and after == before


@pytest.mark.parametrize("module", sorted(p.name for p in Path(csm.__file__).parent.glob("*.py")))
def test_source_keeps_the_python_3_10_floor(module):
    """``pyproject.toml`` says ``requires-python >=3.10``: no module uses
    syntax that Python 3.10 cannot parse."""
    source = (Path(csm.__file__).parent / module).read_text(encoding="utf-8")
    ast.parse(source, filename=module, feature_version=(3, 10))


def test_traced_functions_exist():
    """Every ``(module, function)`` that ``csmbench/spans.py`` wraps is
    defined, so a rename in csm cannot silently break a traced run."""
    for module, function in load_bench("spans").TRACED:
        target = getattr(importlib.import_module(f"csm.{module}"), function, None)
        assert callable(target), (module, function)


@pytest.mark.parametrize(
    "name, seed, max_steps, max_objects",
    [
        *((name, A4_SEEDS[name], 8, 2) for name in FIXTURES),  # criterion 4's inputs
        ("healthcare", [], 4, 2),
        ("healthcare", [("p", "CaredPatient")], 6, 3),
    ],
)
def test_traced_graph_counts_are_the_counted_space(name, seed, max_steps, max_objects):
    """A traced run counts the edges of what ``build_graph`` returns by
    reading ``edges``, the explicit graph's one view left in csm; its counts
    equal the counted ``state_count`` and ``edge_count``."""
    graph = simulator.build_graph(load(name), seed, max_steps, max_objects)
    counts = load_bench("spans")._counts("simulator.build_graph", (), graph)
    assert counts == {"states": graph.state_count, "edges": graph.edge_count}


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
