"""The contracts of the immutable model and result records.

Construction by keyword with defaults, the coercions applied on
construction, immutability, equality and hashing, the cached model index
and ``repr``.
"""

import itertools
import json

import pytest

from csm.classifier import CollaborationReport, LevelFinding
from csm.diagnostics import Diagnostic, SourceSpan
from csm.dsl import ParseResult, parse_text
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text, load
from csm.model import (
    ClassDef,
    Model,
    ProcessDef,
    Transform,
    canonicalize,
)
from csm.simulator import (
    QueryResult,
    ReachabilitySummary,
    TraceEvent,
    explore,
    run_script,
)
from csm.validator import validate
from helpers import A4_SEEDS
from properties_core import (
    reference_diagnostic_json,
    reference_event_json,
    reference_summary_json,
)

LEAVE = Transform(source="A", target="B", mode="leaving")
OWNER = ("R",)


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert ClassDef(name="X") == ClassDef("X", False, frozenset())
        assert ProcessDef(name="P") == ProcessDef("P", (), (), (), (), ())
        p = ProcessDef(name="P", owners=["R"], responsibles=["S"])
        assert (p.owners, p.responsibles) == (("R",), ("S",))
        assert Model(name="m") == Model("m", (), (), (), {})
        assert SourceSpan(file="f", line=1, column=2).length == 0
        d = Diagnostic(code="E-X", severity="error", site="s", message="m")
        assert (d.suggestion, d.span) == (None, None)
        assert TraceEvent(step=1, process="P", object_id="o", outcome="fired").detail == ""
        summary = ReachabilitySummary(state_count=3, complete=True)
        assert (summary.queries, summary.stats) == ((), {})

    def test_fields_by_keyword(self):
        t = Transform(source="A", target="B", mode="remaining")
        assert (t.source, t.target, t.mode) == ("A", "B", "remaining")
        f = LevelFinding(
            producer="R1", consumer="R2", artifact="P", artifact_kind="process",
            level="tight", evidence=("e",),
        )
        assert (f.producer, f.consumer, f.artifact, f.artifact_kind, f.level, f.evidence) == (
            "R1", "R2", "P", "process", "tight", ("e",)
        )
        assert CollaborationReport(findings=(f,)).findings == (f,)
        assert ParseResult(model=None, diagnostics=[]).ok is False
        assert ParseResult(model=Model("m"), diagnostics=[]).ok is True
        q = QueryResult(predicate="p", reachable=True, witness=(("P", "o"),))
        assert (q.predicate, q.reachable, q.witness) == ("p", True, (("P", "o"),))
        span = SourceSpan("f", 1, 2, 3)
        assert (span.file, span.line, span.column, span.length) == ("f", 1, 2, 3)


class TestCoercion:
    def test_status_points_become_a_frozenset(self):
        c = ClassDef("X", True, ["waiting", "waiting"])
        assert c.status_points == frozenset({"waiting"})
        assert isinstance(c.status_points, frozenset)

    def test_dynamic_becomes_a_bool(self):
        assert ClassDef("X", dynamic=1).dynamic is True
        assert ClassDef("X", 0).dynamic is False
        assert ClassDef("X", dynamic=1) == ClassDef("X", dynamic=True)

    def test_process_sequences_become_tuples_and_privileges_are_copied(self):
        owners, responsibles = ["R"], iter(["S"])
        p = ProcessDef("P", ["A"], ["B"], [LEAVE], owners, responsibles)
        assert p == ("P", ("A",), ("B",), (LEAVE,), ("R",), ("S",))
        owners.append("T")
        assert p.owners == OWNER

    def test_model_sequences_become_tuples_and_grants_are_copied(self):
        grants = {("R", "X"): {"reference"}}
        m = Model("m", ["R"], [ClassDef("X")], [ProcessDef("P")], grants)
        assert (m.roles, m.classes, m.processes) == (("R",), (ClassDef("X"),), (ProcessDef("P"),))
        assert m.class_grants == {("R", "X"): frozenset({"reference"})}
        assert isinstance(m.class_grants[("R", "X")], frozenset)
        grants[("R", "Y")] = {"creation"}
        assert list(m.class_grants) == [("R", "X")]


# Each record with one of its fields.
RECORDS = [
    (ClassDef("X"), "name"),
    (LEAVE, "mode"),
    (ProcessDef("P"), "inputs"),
    (Model("m"), "classes"),
    (SourceSpan("f", 1, 1), "line"),
    (Diagnostic("E-X", "error", "s", "m"), "message"),
    (ParseResult(None, []), "model"),
    (LevelFinding("R1", "R2", "P", "process", "tight", ()), "level"),
    (CollaborationReport(()), "findings"),
    (TraceEvent(1, "P", "o", "fired"), "outcome"),
    (QueryResult("p", False, None), "reachable"),
    (ReachabilitySummary(0, True), "state_count"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


class TestEqualityAndHashing:
    def test_class_defs(self):
        a = ClassDef("X", True, ["fail"])
        b = ClassDef("X", True, frozenset({"fail"}))
        assert a == b and hash(a) == hash(b)
        assert a != ClassDef("X", False, ["fail"])
        assert len({a, b, ClassDef("Y")}) == 2

    def test_transforms(self):
        other = Transform("A", "B", "leaving")
        assert LEAVE == other and hash(LEAVE) == hash(other)
        assert LEAVE != Transform("A", "B", "remaining")
        assert len({LEAVE, other}) == 1

    def test_process_defs_compare_and_hash_by_value(self):
        a = ProcessDef("P", ("A",), ("B",), (LEAVE,), OWNER)
        b = ProcessDef("P", ["A"], ["B"], [LEAVE], list(OWNER))
        assert a == b and hash(a) == hash(b)
        assert a != ProcessDef("P", ("A",), ("B",), (LEAVE,), (), OWNER)
        assert len({a, b, ProcessDef("Q")}) == 2
        parsed = parse_text(fixture_text("gp_lab")).model.processes
        assert len(set(parsed)) == len(parsed)

    def test_summaries_differing_only_in_stats_are_equal(self):
        q = (QueryResult("p", False, None),)
        a = ReachabilitySummary(5, False, q, {"states": 5})
        b = ReachabilitySummary(5, False, q, {"states": 5, "stop": "step_bound"})
        assert a == b
        assert a != ReachabilitySummary(6, False, q, {"states": 5})


# The four levels and the four step outcomes, in no particular order.
LEVELS = ("very tight", "tight", "loose", "very loose")
OUTCOMES = ("fired", "not-enabled", "blocked-waiting", "aborted")


class TestListingOrder:
    def test_level_sets_list_in_sorted_order(self):
        # Set order follows the hash; the report lists levels sorted
        # whatever order the findings came in.
        findings = [
            LevelFinding("A", "B", f"X{i}", "process", level, ("e",))
            for i, level in enumerate(LEVELS)
        ]
        expected = sorted(LEVELS)
        for order in itertools.permutations(findings):
            report = CollaborationReport(order)
            assert json.loads(report.to_json())["pair_summary"] == {"A->B": expected}
            assert report.levels_between("B", "A") == frozenset(LEVELS)

    def test_resolved_transforms_list_in_sorted_order(self):
        transforms = [
            Transform("A", "B", "leaving"),
            Transform("A", "B", "remaining"),
            Transform("A", "C", "remaining"),
            Transform("D", "B", "leaving"),
        ]
        classes = tuple(ClassDef(name, dynamic=True) for name in "ABCD")
        for order in itertools.permutations(transforms):
            process = ProcessDef("P", ("A", "D"), ("B", "C"), order, OWNER)
            model = canonicalize(Model("m", ("R",), classes, (process,)))
            assert list(model.processes[0].transforms) == transforms


def test_model_class_index_is_cached():
    m = Model("m", ("R",), (ClassDef("X"),), (), {("R", "X"): {"creation"}})
    first = m.class_index
    assert m.class_index is first
    assert first["X"].creators == frozenset({"R"})


def test_repr():
    assert repr(LEAVE) == (
        "Transform(source='A', target='B', mode='leaving')"
    )
    assert repr(ClassDef("X", True, ["waiting"])) == (
        "ClassDef(name='X', dynamic=True, "
        "status_points=frozenset({'waiting'}))"
    )


class TestDiagnosticJson:
    """``Diagnostic.to_json`` writes the key-sorted dump of
    ``helpers.diagnostic_doc`` byte for byte, as ``csm validate`` prints it."""

    AWKWARD = (
        "", 'say "hi"', "back\\slash\\", "\x00\x1f\t\n\r\x7f", "caf\u00e9 \u6f22 \U0001f600",
        "\ud800", "a\udfffb",
    )

    @staticmethod
    def check(diag):
        assert diag.to_json() == reference_diagnostic_json(diag)

    def test_validate_on_every_fixture(self):
        severities = set()
        for name in FIXTURES + BAD_FIXTURES:
            for d in validate(parse_text(fixture_text(name), f"{name}.csm").model):
                self.check(d)
                severities.add(d.severity)
        assert severities == {"error", "warning"}

    def test_parse_diagnostics_carry_spans(self):
        text = 'model "m" {\n  role A\n  role A\n  grant B on "C\\" { ref }\n}'
        diags = parse_text(text, 'dir\\"f".csm').diagnostics
        assert len(diags) > 1 and all(d.span is not None for d in diags)
        for d in diags:
            self.check(d)

    @pytest.mark.parametrize("text", AWKWARD)
    def test_awkward_strings_everywhere(self, text):
        spans = (None, SourceSpan(text, 3, 7, 2), SourceSpan(text, 1, 1))
        for severity, span, suggestion in itertools.product(("error", "warning"), spans, (None, text)):
            self.check(Diagnostic(text, severity, text, text, suggestion, span))
            self.check(Diagnostic("E-C1", severity, "site", text, suggestion, span))


class TestSimulatorJson:
    """``TraceEvent.to_json`` and ``ReachabilitySummary.to_json`` write the
    key-sorted dumps of ``helpers.event_doc`` and ``helpers.summary_doc``
    byte for byte, as ``csm simulate`` and ``csm explore`` print them, and
    ``stats_json`` that of ``stats``."""

    AWKWARD = TestDiagnosticJson.AWKWARD

    def test_every_fixture_run_and_explore(self):
        outcomes, witnesses = set(), set()
        for name in FIXTURES + BAD_FIXTURES:
            m = load(name)
            seed = A4_SEEDS.get(name) or [("a", m.class_names[0])]
            # Each generator mints once, every other process fires twice on
            # every object, and the first generator fires on an existing one.
            makers = [p.name for p in m.processes if not p.inputs]
            ids = [oid for oid, _ in seed] + [f"obj{i}" for i in range(1, len(makers) + 1)]
            script = [(g, "new") for g in makers] + [
                (p.name, oid) for _ in range(2) for p in m.processes if p.inputs for oid in ids
            ] + [(g, ids[-1]) for g in makers[:1]]
            for event in run_script(m, seed, script):
                assert event.to_json() == reference_event_json(event)
                outcomes.add(event.outcome)
            queries = [
                {"type": "co_occurrence", "classes": [a, b]}
                for a in m.class_names[:4] for b in m.class_names[-4:]
            ] + [{"type": "co_occurrence", "classes": [c, c]} for _, c in seed] + [
                {"type": "sequence", "first": a, "then": b}
                for a in m.process_names[:4] for b in m.process_names[-4:]
            ]
            for bounds in ((6, 2), (1, 1)):
                summary = explore(m, seed, *bounds, queries)
                assert summary.to_json() == reference_summary_json(summary)
                witnesses.update(q.witness if q.witness is None else len(q.witness)
                                 for q in summary.queries)
        assert outcomes == set(OUTCOMES)
        assert {None, 0, 1, 2} <= witnesses

    def test_stats_line(self):
        # The line that `explore --stats` writes to stderr.
        for name in FIXTURES + BAD_FIXTURES:
            m = load(name)
            seed = A4_SEEDS.get(name) or [("a", m.class_names[0])]
            for bounds in ((6, 2), (1, 1)):
                summary = explore(m, seed, *bounds)
                assert summary.stats_json() == json.dumps(summary.stats, sort_keys=True)
        for seconds, frontier, stop in itertools.product(
            (0.0, 1e-06, 5e-05, 0.000123, 0.1, 2.5, 12.345678, 123456.0, 1e16),
            ([], [1], [1, 0, 12345]),
            ("closed", "step_bound", "object_bound_pruned", *self.AWKWARD),
        ):
            stats = {"states": 12345, "edges": 0, "frontier": frontier,
                     "build_s": seconds, "query_s": round(seconds / 3, 6), "stop": stop}
            summary = ReachabilitySummary(12345, False, (), stats)
            assert summary.stats_json() == json.dumps(stats, sort_keys=True)

    @pytest.mark.parametrize("text", AWKWARD)
    def test_awkward_trace_events(self, text):
        for step, outcome in zip((1, 7, 10**6, 0), OUTCOMES):
            for event in (
                TraceEvent(step, text, text, outcome, text),
                TraceEvent(step, "P", text, outcome),
            ):
                assert event.to_json() == reference_event_json(event)

    @pytest.mark.parametrize("text", AWKWARD)
    def test_awkward_summaries(self, text):
        queries = (
            QueryResult(text, False, None),
            QueryResult(text, True, ()),
            QueryResult("p", True, ((text, text),)),
            QueryResult(text, True, (("P", "o"), (text, "obj1"), ("Q", text))),
        )
        for complete, count, picked in itertools.product(
            (True, False), (0, 1, 12345), ((), queries[:1], queries[1:2], queries)
        ):
            summary = ReachabilitySummary(count, complete, picked, {"states": count})
            assert summary.to_json() == reference_summary_json(summary)
