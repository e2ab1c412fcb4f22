import copy
import json
import keyword
import pickle
import re

import pytest

from csm.classifier import classify_all, classify_pair
from csm.dsl import emit_json, emit_text, parse_json, parse_text
from csm.fixtures import fixture_text
from csm.model import (
    _IDENT,
    ClassDef,
    DuplicateName,
    InvalidModelName,
    InvalidTransform,
    Model,
    ModelError,
    ProcessDef,
    SharedClass,
    Transform,
    UnknownClass,
    UnknownProcess,
    UnknownRole,
    UnresolvedReference,
    _identifier_problem,
    canonicalize,
    shared_classes,
)
from csm.render import to_dot, to_mermaid
from csm.simulator import build_graph, explore, run_script
from csm.validator import ensure_valid, validate
from helpers import reversed_members


def test_identifier_test_agrees_with_the_grammar():
    # The one identifier test, made of str methods, against the grammar's
    # own pattern: every character up to U+0800 alone, after a letter and
    # before one, and words that str.isidentifier takes but the grammar does
    # not (non-ASCII letters and digits, a leading underscore), keywords.
    chars = [chr(c) for c in range(0x800)]
    words = [
        "", "a", "A", "z9", "a_", "_a", "_", "__a", "a__b", "9a", "a-b", "a b", "a\n",
        "é", "aé", "ǅ", "aǅ", "٣", "a٣", "Ａ", "aＡ", "\u212a", "ª", "ſ",
        *keyword.kwlist, "None", "match", "model", "role", "dynamic",
        *chars, *("a" + c for c in chars), *(c + "a" for c in chars),
    ]
    for word in words:
        grammar = re.fullmatch(_IDENT, word) is not None
        assert (_identifier_problem("role", word) is None) == grammar, repr(word)


def _tiny(**overrides) -> Model:
    base = dict(
        name="tiny",
        roles=("B", "A"),
        classes=(ClassDef("Y", dynamic=True), ClassDef("X", dynamic=True)),
        processes=(
            ProcessDef(
                "P",
                inputs=("Y",),
                outputs=("X",),
                transforms=(Transform("Y", "X", "leaving"),),
                owners=("A",),
            ),
        ),
        class_grants={("A", "X"): frozenset({"reference"})},
    )
    base.update(overrides)
    return Model(**base)


def _transforming(*transforms: Transform) -> ProcessDef:
    """``_tiny``'s process with the given transforms."""
    return ProcessDef("P", ("Y",), ("X",), transforms, ("A",))


class TestCanonicalize:
    def test_sorts_all_members(self):
        m = canonicalize(_tiny())
        assert m.roles == ("A", "B")
        assert m.class_names == ("X", "Y")

    def test_idempotent(self):
        once = canonicalize(_tiny())
        assert canonicalize(once) == once

    def test_equality_is_order_insensitive(self):
        a = canonicalize(_tiny())
        b = canonicalize(_tiny(roles=("A", "B")))
        assert a == b

    def test_drops_empty_grants(self):
        m = canonicalize(_tiny(class_grants={("A", "X"): frozenset()}))
        assert m.class_grants == {}

    @pytest.mark.parametrize("name", ['say "hi"', "two\nlines", '"', "\n"])
    def test_unquotable_name_rejected(self, name):
        with pytest.raises(InvalidModelName):
            canonicalize(_tiny(name=name))
        assert parse_json(_raw_json(_tiny(name=name))).model is None

    @pytest.mark.parametrize("name", [3, None, b"m", ("m",)])
    def test_name_that_is_not_a_string_rejected(self, name):
        with pytest.raises(InvalidModelName, match="model name must be a string"):
            canonicalize(_tiny(name=name))

    def test_name_that_does_not_encode_as_utf8_rejected(self):
        # A lone surrogate: neither form can be written as UTF-8.
        with pytest.raises(InvalidModelName) as raised:
            canonicalize(_tiny(name="a\ud800"))
        assert str(raised.value) == "model name 'a\\ud800' must encode as UTF-8"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(classes=(ClassDef("Y", True), ClassDef("X", True, {"waitng"}))),
             "class=X: status points must be words of STATUS_POINTS"),
            (dict(classes=(ClassDef("X", True, {"fail", "creation"}),
                           ClassDef("Y", True))),
             "class=X: status points must be words of STATUS_POINTS"),
            (dict(class_grants={("A", "X"): frozenset({"refrence"})}),
             "grant role=A class=X: privileges must be words of PRIVILEGES"),
            (dict(class_grants={("B", "Y"): {"reference", "waiting"}}),
             "grant role=B class=Y: privileges must be words of PRIVILEGES"),
            (dict(processes=(_transforming(Transform("Y", "X", "sideways")),)),
             "process=P: transform modes must be words of TRANSFORM_MODES"),
            (dict(processes=(_transforming(Transform("Y", "X", "leaving"),
                                           Transform("Y", "X", "reference")),)),
             "process=P: transform modes must be words of TRANSFORM_MODES"),
        ],
        ids=["point string", "point of another kind", "privilege string",
             "privilege of another kind", "mode string", "mode of another kind"],
    )
    def test_members_of_the_wrong_kind_rejected(self, overrides, message):
        # Emitted, such a word would be a listing or a transform mode that
        # no parser reads.
        with pytest.raises(ModelError) as raised:
            canonicalize(_tiny(**overrides))
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["a#b", "back\\slash", "ends\\", "# \\ #", ""])
    def test_hash_and_backslash_names_round_trip(self, name):
        m = canonicalize(_tiny(name=name))
        assert parse_text(emit_text(m)).model == m
        assert parse_json(emit_json(m)).model == m

    def test_duplicate_role_rejected(self):
        with pytest.raises(DuplicateName):
            canonicalize(_tiny(roles=("A", "A")))

    def test_duplicate_class_rejected(self):
        with pytest.raises(DuplicateName):
            canonicalize(_tiny(classes=(ClassDef("X"), ClassDef("X"), ClassDef("Y"))))

    def test_undeclared_grant_role_rejected(self):
        with pytest.raises(UnresolvedReference):
            canonicalize(_tiny(class_grants={("Ghost", "X"): frozenset({"reference"})}))

    def test_undeclared_process_class_rejected(self):
        bad = ProcessDef("P", inputs=("Ghost",), owners=("A",))
        with pytest.raises(UnresolvedReference):
            canonicalize(_tiny(processes=(bad,)))

    def test_transform_source_must_be_input(self):
        bad = ProcessDef(
            "P",
            inputs=("Y",),
            outputs=("X",),
            transforms=(Transform("X", "Y", "leaving"),),
        )
        with pytest.raises(InvalidTransform):
            canonicalize(_tiny(processes=(bad,)))

    def test_self_transform_rejected(self):
        bad = ProcessDef(
            "P",
            inputs=("Y",),
            outputs=("Y",),
            transforms=(Transform("Y", "Y", "leaving"),),
        )
        with pytest.raises(InvalidTransform):
            canonicalize(_tiny(processes=(bad,)))


class TestCanonicalMark:
    """A model out of name resolution is canonical as it stands."""

    @pytest.fixture(params=["text", "json"])
    def parsed(self, request):
        if request.param == "text":
            return parse_text(fixture_text("hotel_agency")).model
        return parse_json(emit_json(parse_text(fixture_text("hotel_agency")).model)).model

    def test_parsed_model_is_returned_as_is(self, parsed):
        assert canonicalize(parsed) is parsed

    def test_hand_built_model_is_still_sorted(self):
        m = _tiny()
        assert canonicalize(m) is not m
        assert canonicalize(m).roles == ("A", "B")
        assert canonicalize(m).class_names == ("X", "Y")

    def test_mark_does_not_survive_replace(self, parsed):
        # Every process owner is left undeclared.
        with pytest.raises(UnresolvedReference):
            canonicalize(parsed._replace(roles=("Nobody",)))
        unsorted = parsed._replace(roles=parsed.roles[::-1])
        assert canonicalize(unsorted) == parsed

    def test_copies_stay_equal(self, parsed):
        for clone in (copy.copy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert clone == parsed
            assert canonicalize(clone) == parsed
            assert emit_text(clone) == emit_text(parsed)


def _raw_json(m: Model) -> str:
    """The JSON form of ``m`` as given, without canonicalizing it first."""
    return json.dumps(
        {
            "name": m.name,
            "roles": list(m.roles),
            "classes": [{"name": c.name, "dynamic": c.dynamic} for c in m.classes],
            "processes": [
                {
                    "name": p.name,
                    "inputs": list(p.inputs),
                    "outputs": list(p.outputs),
                    "transforms": [
                        {"from": t.source, "to": t.target, "mode": t.mode}
                        for t in p.transforms
                    ],
                    "owners": list(p.owners),
                    "responsibles": list(p.responsibles),
                }
                for p in m.processes
            ],
            "grants": [
                {"role": r, "class": c, "privileges": list(privs)}
                for (r, c), privs in m.class_grants.items()
            ],
        }
    )


def _process(
    inputs=("Y",), outputs=("X",), transform=("Y", "X"), owners=("A",), responsibles=()
) -> ProcessDef:
    return ProcessDef(
        "P",
        inputs=inputs,
        outputs=outputs,
        transforms=(Transform(*transform, "leaving"),),
        owners=owners,
        responsibles=responsibles,
    )


_REFERENCE = frozenset({"reference"})

SINGLE_FAULTS = {
    "duplicate role": dict(roles=("A", "B", "A")),
    "duplicate class": dict(classes=(ClassDef("X"), ClassDef("Y"), ClassDef("X"))),
    "duplicate process": dict(processes=(_process(), ProcessDef("P"))),
    "undeclared process role": dict(processes=(_process(owners=("Ghost",)),)),
    "owner also responsible": dict(processes=(_process(responsibles=("A",)),)),
    "owner twice": dict(processes=(_process(owners=("A", "A")),)),
    "undeclared input": dict(processes=(_process(inputs=("Y", "Ghost")),)),
    "undeclared output": dict(processes=(_process(outputs=("X", "Ghost")),)),
    "undeclared grant role": dict(class_grants={("Ghost", "X"): _REFERENCE}),
    "undeclared grant class": dict(class_grants={("A", "Ghost"): _REFERENCE}),
    "self transform": dict(processes=(_process(outputs=("Y",), transform=("Y", "Y")),)),
    "source not an input": dict(processes=(_process(outputs=("X", "Y"), transform=("X", "Y")),)),
    "target not an output": dict(processes=(_process(inputs=("X", "Y"), transform=("X", "Y")),)),
}

_CODE_OF = {DuplicateName: "E-DUP", UnresolvedReference: "E-REF", InvalidTransform: "E-TRF-END"}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_canonicalize_and_parse_json_name_the_same_rule(fault):
    model = _tiny(**SINGLE_FAULTS[fault])
    with pytest.raises(ModelError) as raised:
        canonicalize(model)
    result = parse_json(_raw_json(model))
    assert result.model is None
    [diag] = result.diagnostics
    assert _CODE_OF[type(raised.value)] == diag.code
    assert str(raised.value) == f"{diag.site}: {diag.message}"


@pytest.mark.parametrize("name", ["a b", 'A"x', "C 1", "", "1a", "_a", "x-y", "caf\u00e9", "A\n"])
@pytest.mark.parametrize("kind", ["role", "class", "process"])
def test_non_identifier_names_rejected_like_parse_json(kind, name):
    # The name is declared and referenced nowhere: only the name rule fails.
    declared = {
        "role": dict(roles=("B", "A", name)),
        "class": dict(classes=(ClassDef("Y", True), ClassDef("X", True), ClassDef(name))),
        "process": dict(processes=(_process(), ProcessDef(name))),
    }
    model = _tiny(**declared[kind])
    with pytest.raises(InvalidModelName) as raised:
        canonicalize(model)
    [diag] = parse_json(_raw_json(model)).diagnostics
    assert diag.code == "E-JSON"
    assert str(raised.value) == diag.message == f"{kind} name must be an identifier, got {name!r}"


class TestLookups:
    def test_unknown_names_raise(self):
        m = canonicalize(_tiny())
        with pytest.raises(UnknownClass):
            m.class_def("Nope")
        with pytest.raises(UnknownProcess):
            m.process_def("Nope")
        with pytest.raises(UnknownRole):
            m.require_role("Nope")

    def test_grants_default_empty(self):
        m = canonicalize(_tiny())
        assert m.grants("B", "X") == frozenset()


class TestQueries:
    def test_shared_classes_directional(self, scenarios):
        m = scenarios["hotel_agency"]
        shared = shared_classes(m, "Hotel", "Agency")
        assert shared == {
            SharedClass("Booking", "Hotel", "Agency"),
            SharedClass("Booking", "Agency", "Hotel"),
        }

    def test_generator_flag(self, scenarios):
        m = scenarios["gp_lab"]
        assert m.process_def("RequestTest").is_generator
        assert not m.process_def("PerformTest").is_generator

    def test_status_points_parsed(self, scenarios):
        m = scenarios["healthcare"]
        assert m.class_def("SentTestResult").status_points == {
            "waiting",
            "fail",
            "decision",
        }


def _graph_facts(g) -> tuple:
    """What a ``ReachabilityGraph`` holds, with its class bits in order."""
    return list(g.classes.items()), g.held, g.processes, g.frontier, g.stop, g.edges


_PATIENT = [("p", "CheckUpPatient")]
_SCRIPT = [("CheckUp", "new"), ("Diagnose", "obj1"), ("RequestTest", "obj1"),
           ("PerformTest", "obj1"), ("Diagnose", "p"), ("QuickCare", "p")]
_QUERIES = [
    {"type": "co_occurrence", "classes": ["DiagnosedPatient", "TestRequest"]},
    {"type": "sequence", "first": "Diagnose", "then": "ReviewResult"},
]

# Every function that takes a model, called with arguments that fit the
# healthcare fixture.
ENTRY_POINTS = {
    "validate": validate,
    "ensure_valid": ensure_valid,
    "classify_all": classify_all,
    "classify_pair": lambda m: classify_pair(m, "GP", "Laboratory"),
    "to_dot": lambda m: to_dot(m, show_privileges=True),
    "to_mermaid": to_mermaid,
    "run_script": lambda m: run_script(m, _PATIENT, _SCRIPT),
    "build_graph": lambda m: _graph_facts(build_graph(m, _PATIENT, 4, 2)),
    "explore": lambda m: explore(m, _PATIENT, 6, 2, _QUERIES).to_json(),
    "shared_classes": lambda m: shared_classes(m, "GP", "Laboratory"),
    "emit_text": emit_text,
    "emit_json": emit_json,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_reads_the_model_through_canonicalize(entry, scenarios):
    # A hand-built model gets the parsed model's result or canonicalize's error.
    call, m = ENTRY_POINTS[entry], scenarios["healthcare"]
    assert call(reversed_members(m)) == call(m)
    first, *rest = m.processes
    with pytest.raises(DuplicateName):
        call(m._replace(processes=(*m.processes, first)))
    ghost = first._replace(inputs=(*first.inputs, "Ghost"))
    with pytest.raises(UnresolvedReference):
        call(m._replace(processes=(ghost, *rest)))
