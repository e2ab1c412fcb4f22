"""The CLI's no-traceback contract as a fuzz gate: every input ends in a
result or a diagnostic with exit code 0, 1 or 2, never in a traceback.

Each case starts from one base model: a bundled fixture or a random valid
one. The model file is its text (the fixture's own or ``emit_text``'s) as
it is, that text or its ``emit_json`` document with a few random edits, or
the document with one value replaced. Seed, script and query files hold
random JSON values or entries that name the base model's classes and
processes, or, in a query entry, a random JSON value as its type or any
name. The argument lists draw on every command and option, the
exploration bounds from -1 to 6 included, and on every form the argv
reader reads: ``-h``, ``--``, ``=`` values, unique and ambiguous option
prefixes, option-like values and extra positionals. The same JSON pieces
check the CLI's JSON decoder against ``json.loads``, and the random values
check that ``run_query`` answers any query document or raises ``ModelError``.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csm.cli import main
from csm.diagnostics import _loads
from csm.dsl import emit_json, emit_text
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text, load
from csm.model import ModelError
from csm.simulator import QueryResult, build_graph, run_query
from helpers import json_outcome, random_valid_model

_rng = random.Random(16)
_RANDOM = [random_valid_model(_rng) for _ in range(3)]
BASES = [load(name) for name in (*FIXTURES, *BAD_FIXTURES)] + _RANDOM
TEXTS = [fixture_text(name) for name in (*FIXTURES, *BAD_FIXTURES)]
TEXTS += [emit_text(m) for m in _RANDOM]
JSONS = [emit_json(m).decode("utf-8") for m in BASES]

TEXT_PIECES = [
    "model", "role", "class", "dynamic", "process", "owner", "responsible",
    "input", "output", "transform", "remaining", "leaving", "grant", "on",
    "waiting", "fail", "decision", "creation", "reference", "reference+",
    "modification+", "suppression+", "{", "}", ",", "->", '"', "# note\n",
    "\n", " ", "\x00", " ", "é", "Ghost", "9",
]
JSON_PIECES = [
    "{", "}", "[", "]", ":", ",", '"', "null", "true", "0", "-1", "1e999",
    '"\\u0000"', '"name"', '"roles"', '"classes"', '"dynamic"', '"owners"',
    '"inputs"', '"transforms"', '"mode"', '"privileges"', '"a b"',
    # A lone surrogate, which no UTF-8 stream can hold, and a number past
    # the interpreter's int-string limit (4 300 digits since Python 3.11).
    '"\\ud800"', "9" * 5000,
]
KEYS = ["object", "class", "process", "type", "classes", "first", "then"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
objects = st.sampled_from(["o1", "r1", "new", ""])

# Placeholders starting with "@" stand for files in the work directory.
REQUIRED = {
    "validate": [],
    "classify": [],
    "fmt": [],
    "render": [["--format", "dot"]],
    "simulate": [["--seed", "@seed"], ["--script", "@script"]],
    "explore": [["--seed", "@seed"]],
}
OWN_OPTIONS = {
    "validate": [],
    "classify": [["--json"]],
    "fmt": [],
    "render": [["--format", "mermaid"], ["--show-privileges"], ["-o", "@out"], ["-o", "@dir"]],
    "simulate": [["--strict"], ["--seed", "@missing"], ["--script", "@model"]],
    "explore": [
        ["--query", "@query"], ["--query", "@model"], ["--stats"], ["--seed", "@missing"],
        *(["--max-steps", str(n)] for n in range(-1, 7)),
        *(["--max-objects", str(n)] for n in range(-1, 7)),
    ],
}
ANY_OPTION = [
    *(group for groups in OWN_OPTIONS.values() for group in groups),
    ["--format", "svg"], ["--max-steps"], ["--max-objects", "x"], ["--help"], ["--bogus"],
    ["-h"], ["--"], ["--", "@model"], ["--format=dot"], ["--max-steps=3"], ["--out", "@out"],
    ["--max", "3"], ["--max-s", "3"], ["--js"], ["--st"], ["--seed", "--stats"],
    ["--seed", "-1"], ["--seed=--"], ["--max-steps=--"], ["@model"], ["extra"],
]


def _edit(text: str, edits) -> str:
    for where, cut, piece in edits:
        i = int(where * len(text))
        text = text[:i] + piece + text[i + cut :]
    return text


def _graft(text: str, steps, value) -> str:
    """The JSON document with the value at the path ``steps`` picks replaced."""
    doc = node = json.loads(text)
    for depth, step in enumerate(steps):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = keys[step % len(keys)]
        if depth == len(steps) - 1 or not isinstance(node[key], (dict, list)):
            node[key] = value
            break
        node = node[key]
    return json.dumps(doc, indent=2)


def _edits(pieces):
    piece = st.sampled_from(pieces) | st.text(max_size=3)
    return st.lists(st.tuples(st.floats(0, 1), st.integers(0, 8), piece), max_size=4)


@st.composite
def cases(draw):
    """An argument list and the (file name, text) of each input it names."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    groups = REQUIRED[command] if draw(st.integers(0, 4)) else []
    if OWN_OPTIONS[command]:
        groups = groups + draw(st.lists(st.sampled_from(OWN_OPTIONS[command]), max_size=3))
    if not draw(st.integers(0, 5)):
        groups = groups + [draw(st.sampled_from(ANY_OPTION))]
    groups = draw(st.permutations(groups))
    model = draw(st.sampled_from(["@model"] * 8 + ["@missing", "@dir"]))
    argv = [command, model, *(token for group in groups for token in group)]

    i = draw(st.integers(0, len(BASES) - 1))
    classes = st.sampled_from([c.name for c in BASES[i].classes] + ["Ghost"])
    processes = st.sampled_from([p.name for p in BASES[i].processes] + ["Ghost"])
    inputs = {
        "@seed": json_values
        | st.lists(st.fixed_dictionaries({"object": objects, "class": classes}), max_size=3),
        "@script": json_values
        | st.lists(st.fixed_dictionaries({"process": processes, "object": objects}), max_size=4),
        "@query": json_values
        | st.lists(
            st.fixed_dictionaries({
                "type": st.just("co_occurrence") | json_values,
                "classes": st.lists(classes | json_values, max_size=3),
            })
            | st.fixed_dictionaries({
                "type": st.just("sequence") | json_values,
                "first": processes | json_values,
                "then": processes | json_values,
            }),
            max_size=2,
        ),
    }
    files = {}
    for token in argv:
        if token == "@model" and token not in files:
            form = draw(st.sampled_from(["as is", "text", "json", "graft"]))
            if form == "as is":
                files[token] = "model.csm", TEXTS[i]
            elif form == "text":
                files[token] = "model.csm", _edit(TEXTS[i], draw(_edits(TEXT_PIECES)))
            elif form == "json":
                files[token] = "model.json", _edit(JSONS[i], draw(_edits(JSON_PIECES)))
            else:
                steps = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5))
                files[token] = "model.json", _graft(JSONS[i], steps, draw(json_values))
        elif token in inputs and token not in files:
            files[token] = token[1:] + ".json", json.dumps(draw(inputs[token]))
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_BIG = "9" * 5000
_SURROGATE_NAME = JSONS[0].replace(json.dumps(BASES[0].name), '"\\ud800"', 1)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# The pieces above seldom land where they matter; these cases put each one
# there: a model name no stream can write, and the long number in a model
# and in a seed file.
@example(case=(["fmt", "@model"], {"@model": ("model.json", _SURROGATE_NAME)}))
@example(case=(["render", "@model", "--format", "dot"],
               {"@model": ("model.json", _SURROGATE_NAME)}))
@example(case=(["validate", "@model"],
               {"@model": ("model.json", JSONS[0].replace("false", _BIG, 1))}))
@example(case=(
    ["simulate", "@model", "--seed", "@seed", "--script", "@script"],
    {"@model": ("model.csm", TEXTS[0]), "@seed": ("seed.json", f'[{{"object": {_BIG}}}]'),
     "@script": ("script.json", "[]")},
))
# A query type that is not a string, which no dict can look up.
@example(case=(
    ["explore", "@model", "--seed", "@seed", "--query", "@query"],
    {"@model": ("model.csm", TEXTS[0]), "@seed": ("seed.json", "[]"),
     "@query": ("query.json", '[{"type": ["co_occurrence"]}]')},
))
def test_cli_ends_in_an_exit_code_without_a_traceback(workdir, case):
    argv, files = case
    paths = {"@out": workdir / "out.txt", "@dir": workdir, "@missing": workdir / "missing.json"}
    for token, (name, text) in files.items():
        paths[token] = workdir / name
        paths[token].write_text(text, encoding="utf-8")
    argv = [str(paths[a]) if a in paths else a for a in argv]
    # stdout encodes as the real stream does, so a string it cannot hold
    # fails here as it would in a terminal.
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


# JSON-ish soups: a model document with a few random edits, pieces and
# whitespace strung together, or a random value written out.
soups = (
    st.builds(_edit, st.sampled_from(JSONS), _edits(JSON_PIECES))
    | st.lists(st.sampled_from([*JSON_PIECES, " ", "\n", "\t", "\ufeff", "x"]), max_size=12)
    .map("".join)
    | json_values.map(json.dumps)
)


@settings(max_examples=300, deadline=None)
@given(soups)
def test_loads_agrees_with_json_loads(text):
    """The CLI's decoder (``diagnostics._loads``) gives what ``json.loads``
    gives on any text: an equal value, or the same error and message."""
    assert json_outcome(_loads, text) == json_outcome(json.loads, text)


_GRAPH = build_graph(load("hospital_cleaning"), [("r", "OccupiedRoom")], 4, 2)
_NAMES = st.sampled_from(["OccupiedRoom", "CleanedRoom", "CleanRoom", "Ghost"]) | json_values


@settings(max_examples=300, deadline=None)
@given(
    json_values
    | st.fixed_dictionaries({"type": st.just("co_occurrence") | json_values,
                             "classes": st.lists(_NAMES, max_size=3) | json_values})
    | st.fixed_dictionaries({"type": st.just("sequence") | json_values,
                             "first": _NAMES, "then": _NAMES})
)
def test_run_query_answers_or_raises_model_error(query):
    try:
        result = run_query(_GRAPH, query)
    except ModelError:
        return
    assert isinstance(result, QueryResult)
