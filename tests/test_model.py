import json

import pytest

from csm.dsl import emit_json, emit_text, parse_json, parse_text
from csm.model import (
    ClassDef,
    DuplicateName,
    InvalidModelName,
    InvalidTransform,
    Model,
    ModelError,
    Privilege,
    ProcessDef,
    ProcessPrivilege,
    SharedClass,
    StatusPoint,
    Transform,
    TransformMode,
    UnknownClass,
    UnknownProcess,
    UnknownRole,
    UnresolvedReference,
    canonicalize,
    privilege_from_text,
    privilege_sort_key,
    shared_classes,
)


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
                transforms=(Transform("Y", "X", TransformMode.LEAVING),),
                role_privileges={"A": ProcessPrivilege.OWNER},
            ),
        ),
        class_grants={("A", "X"): frozenset({Privilege.REFERENCE})},
    )
    base.update(overrides)
    return Model(**base)


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
            canonicalize(_tiny(class_grants={("Ghost", "X"): frozenset({Privilege.REFERENCE})}))

    def test_undeclared_process_class_rejected(self):
        bad = ProcessDef("P", inputs=("Ghost",), role_privileges={"A": ProcessPrivilege.OWNER})
        with pytest.raises(UnresolvedReference):
            canonicalize(_tiny(processes=(bad,)))

    def test_transform_source_must_be_input(self):
        bad = ProcessDef(
            "P",
            inputs=("Y",),
            outputs=("X",),
            transforms=(Transform("X", "Y", TransformMode.LEAVING),),
        )
        with pytest.raises(InvalidTransform):
            canonicalize(_tiny(processes=(bad,)))

    def test_self_transform_rejected(self):
        bad = ProcessDef(
            "P",
            inputs=("Y",),
            outputs=("Y",),
            transforms=(Transform("Y", "Y", TransformMode.LEAVING),),
        )
        with pytest.raises(InvalidTransform):
            canonicalize(_tiny(processes=(bad,)))


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
                        {"from": t.source, "to": t.target, "mode": t.mode.value}
                        for t in p.transforms
                    ],
                    "owners": list(p.owners),
                    "responsibles": list(p.responsibles),
                }
                for p in m.processes
            ],
            "grants": [
                {"role": r, "class": c, "privileges": [pv.value for pv in privs]}
                for (r, c), privs in m.class_grants.items()
            ],
        }
    )


def _process(inputs=("Y",), outputs=("X",), transform=("Y", "X"), owner="A") -> ProcessDef:
    return ProcessDef(
        "P",
        inputs=inputs,
        outputs=outputs,
        transforms=(Transform(*transform, TransformMode.LEAVING),),
        role_privileges={owner: ProcessPrivilege.OWNER},
    )


_REFERENCE = frozenset({Privilege.REFERENCE})

SINGLE_FAULTS = {
    "duplicate role": dict(roles=("A", "B", "A")),
    "duplicate class": dict(classes=(ClassDef("X"), ClassDef("Y"), ClassDef("X"))),
    "duplicate process": dict(processes=(_process(), ProcessDef("P"))),
    "undeclared process role": dict(processes=(_process(owner="Ghost"),)),
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

    def test_privilege_text_round_trip(self):
        for p in Privilege:
            assert privilege_from_text(p.value) is p
        order = sorted(Privilege, key=privilege_sort_key)
        assert order[0] is Privilege.CREATION
        assert order[-1] is Privilege.SUPPRESSION_PLUS


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
            StatusPoint.WAITING,
            StatusPoint.FAIL,
            StatusPoint.DECISION,
        }
