"""The contracts of the immutable model and result records.

Construction by keyword with defaults, the coercions applied on
construction, immutability, equality and hashing, the cached model index
and ``repr``; and, for every record class, agreement with a
``collections.namedtuple`` class of the same fields.
"""

import collections
import copy
import inspect
import itertools
import json
import pickle
import sys

import pytest

import csm.cli  # noqa: F401  (loads every layer, so every record class is found)
from csm.classifier import CollaborationReport, LevelFinding
from csm.diagnostics import Diagnostic, SourceSpan, _Record
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
    build_graph,
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
        d = Diagnostic(code="E-X", site="s", message="m")
        assert (d.suggestion, d.span) == (None, None)
        assert TraceEvent(step=1, process="P", object_id="o", outcome="fired").detail == ""
        summary = ReachabilitySummary(frontier=(1, 2), stop="closed", edge_count=3)
        assert (summary.queries, summary.state_count, summary.complete) == ((), 3, True)

    def test_fields_by_keyword(self):
        t = Transform(source="A", target="B", mode="remaining")
        assert (t.source, t.target, t.mode) == ("A", "B", "remaining")
        f = LevelFinding(
            producer="R1", consumer="R2", artifact="P", level="tight", evidence=("e",)
        )
        assert (f.producer, f.consumer, f.artifact, f.level, f.evidence) == (
            "R1", "R2", "P", "tight", ("e",)
        )
        assert CollaborationReport(findings=(f,)).findings == (f,)
        assert ParseResult(model=None, diagnostics=[]).ok is False
        assert ParseResult(model=Model("m"), diagnostics=[]).ok is True
        q = QueryResult(predicate="p", witness=(("P", "o"),))
        assert (q.predicate, q.witness) == ("p", (("P", "o"),))
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


class TestEqualityAndHashing:
    def test_class_defs(self):
        a = ClassDef("X", True, ["fail"])
        b = ClassDef("X", True, frozenset({"fail"}))
        assert a == b and hash(a) == hash(b)
        assert a != ClassDef("X", False, ["fail"])
        assert len({a, b, ClassDef("Y")}) == 2

    def test_process_defs_compare_and_hash_by_value(self):
        a = ProcessDef("P", ("A",), ("B",), (LEAVE,), OWNER)
        b = ProcessDef("P", ["A"], ["B"], [LEAVE], list(OWNER))
        assert a == b and hash(a) == hash(b)
        assert a != ProcessDef("P", ("A",), ("B",), (LEAVE,), (), OWNER)
        assert len({a, b, ProcessDef("Q")}) == 2
        parsed = parse_text(fixture_text("gp_lab")).model.processes
        assert len(set(parsed)) == len(parsed)

    def test_summaries_read_state_count_and_complete_from_their_fields(self):
        # One form per fact: the state count is the frontier's sum and the
        # search closed exactly when the stop word is "closed".
        q = (QueryResult("p", None),)
        a = ReachabilitySummary((1, 3), "step_bound", 4, q)
        assert (a.state_count, a.complete) == (4, False)
        assert a == ReachabilitySummary((1, 3), "step_bound", 4, q) == ((1, 3), "step_bound", 4, q)
        assert len({a, ReachabilitySummary((1, 3), "step_bound", 4, q)}) == 1
        assert a != ReachabilitySummary((1, 3), "closed", 4, q)
        assert ReachabilitySummary((1, 3), "closed", 4, q).complete
        assert not ReachabilitySummary((), "object_bound_pruned", 0).complete
        # A plain record: no constructor, copier or instance state of its own.
        assert not {"__new__", "_make", "_replace", "__dict__"} & set(vars(ReachabilitySummary))


# The four levels and the four step outcomes, in no particular order.
LEVELS = ("very tight", "tight", "loose", "very loose")
OUTCOMES = ("fired", "not-enabled", "blocked-waiting", "aborted")


class TestListingOrder:
    def test_level_sets_list_in_sorted_order(self):
        # Set order follows the hash; the report lists levels sorted
        # whatever order the findings came in.
        findings = [
            LevelFinding("A", "B", f"X{i}", level, ("e",))
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
        codes = (text, "E-C1", "W-FP")
        for code, span, suggestion in itertools.product(codes, spans, (None, text)):
            self.check(Diagnostic(code, text, text, suggestion, span))
            self.check(Diagnostic(code, "site", text, suggestion, span))


class TestSimulatorJson:
    """``TraceEvent.to_json`` and ``ReachabilitySummary.to_json`` write the
    key-sorted dumps of ``helpers.event_doc`` and ``helpers.summary_doc``
    byte for byte, as ``csm simulate`` and ``csm explore`` print them, and
    ``stats_json`` that of the dict of its counts and the two timings."""

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
            for bounds in ((6, 2), (1, 1), (3, 3)):
                summary = explore(m, seed, *bounds)
                graph = build_graph(m, seed, *bounds)
                stats = {"states": graph.state_count, "edges": graph.edge_count,
                         "frontier": graph.frontier, "build_s": 0.25, "query_s": 1e-06,
                         "stop": graph.stop}
                assert summary.stats_json(0.25, 1e-06) == json.dumps(stats, sort_keys=True)
        for seconds, frontier, stop in itertools.product(
            (0.0, 1e-06, 5e-05, 0.000123, 0.1, 2.5, 12.345678, 123456.0, 1e16, 0.1234567891),
            ((), (1,), (1, 0, 12345)),
            ("closed", "step_bound", "object_bound_pruned", *self.AWKWARD),
        ):
            # The timings are rounded to 6 digits; the counts are the fields.
            summary = ReachabilitySummary(frontier, stop, 7)
            stats = {"states": sum(frontier), "edges": 7, "frontier": list(frontier),
                     "build_s": round(seconds, 6), "query_s": round(seconds / 3, 6),
                     "stop": stop}
            assert summary.stats_json(seconds, seconds / 3) == json.dumps(stats, sort_keys=True)

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
            QueryResult(text, None),
            QueryResult(text, ()),
            QueryResult("p", ((text, text),)),
            QueryResult(text, (("P", "o"), (text, "obj1"), ("Q", text))),
        )
        for stop, frontier, picked in itertools.product(
            ("closed", "step_bound", "object_bound_pruned"), ((), (1,), (1, 0, 12344)),
            ((), queries[:1], queries[1:2], queries)
        ):
            summary = ReachabilitySummary(frontier, stop, 0, picked)
            assert summary.to_json() == reference_summary_json(summary)


# Every record class in src: what each module binds that ``_record`` built.
RECORD_CLASSES = sorted(
    {
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("csm.")
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, _Record) and obj is not _Record
    },
    key=lambda cls: (cls.__module__, cls.__name__),
)


def namedtuple_oracle(cls):
    """``cls`` built on ``collections.namedtuple``: a namedtuple of
    its ``_fields`` with the defaults its signature gives, and, for a class
    statement on top of ``_record``, that statement's own body on top of it."""
    fields = cls._fields
    params = inspect.signature(cls).parameters
    defaults = [params[f].default for f in fields if params[f].default is not params[f].empty]
    base = collections.namedtuple(cls.__name__, fields, defaults=defaults)
    if cls.__bases__ == (_Record,):
        return base
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    return type(cls.__name__, (base,), body)


def outcome(call):
    """What ``call()`` gives: its value, or the type and text of what it raised."""
    try:
        return "value", call()
    except Exception as exc:
        return "raised", type(exc), str(exc)


def sample(fields):
    """A value per field that every constructor takes as it is or coerces
    alike on both sides: a pair in a 1-tuple reads as a tuple, a frozenset, a
    true bool and a dict of one entry."""
    return tuple(((f"{field}-key", f"{field}-value"),) for field in fields)


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORD_CLASSES}
    assert {"Model", "ProcessDef", "Diagnostic", "ReachabilitySummary", "_Token"} <= names
    assert len(names) == len(RECORD_CLASSES) == 16


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=[c.__name__ for c in RECORD_CLASSES])
def test_agrees_with_namedtuple(cls):
    oracle = namedtuple_oracle(cls)
    fields = cls._fields
    values = sample(fields)
    record, expected = cls(*values), oracle(*values)
    assert type(record) is cls

    # Positional and keyword construction, and the defaults.
    assert tuple(record) == tuple(expected)
    assert tuple(cls(**dict(zip(fields, values)))) == tuple(expected)
    params = inspect.signature(cls).parameters
    required = sum(params[f].default is params[f].empty for f in fields)
    for k in range(required, len(fields) + 1):
        assert tuple(cls(*values[:k])) == tuple(oracle(*values[:k])), k
    if required:
        assert outcome(lambda: cls(*values[:required - 1]))[:2] == ("raised", TypeError)
        assert outcome(lambda: oracle(*values[:required - 1]))[:2] == ("raised", TypeError)

    # Equality and hash as the plain tuple; a dict field makes both unhashable.
    plain = tuple(record)
    assert record == plain and plain == record and not record != plain
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(plain))
    assert outcome(lambda: hash(expected)) == outcome(lambda: hash(plain))

    assert repr(record) == repr(expected)
    assert cls.__match_args__ == oracle.__match_args__ == fields

    # _replace, unknown fields included, and the instance state a copy keeps.
    last = {fields[-1]: "changed"}
    changed = record._replace(**last)
    assert type(changed) is cls and tuple(changed) == tuple(expected._replace(**last))
    state = getattr(expected._replace(**last), "__dict__", None)
    assert getattr(changed, "__dict__", None) == state
    assert outcome(lambda: record._replace(nope=1)) == outcome(lambda: expected._replace(nope=1))
    assert outcome(lambda: record._replace(**last, nope=1)) == outcome(
        lambda: expected._replace(**last, nope=1)
    )

    # _make, with its length check.
    made = cls._make(values)
    assert type(made) is cls and tuple(made) == tuple(oracle._make(values))
    for wrong in (values[:-1], values + values[:1]):
        assert outcome(lambda: cls._make(wrong)) == outcome(lambda: oracle._make(wrong))
        assert outcome(lambda: cls._make(wrong))[:2] == ("raised", TypeError)

    # copy and pickle give an equal record of the same class.
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record
        assert getattr(clone, "__dict__", None) == getattr(record, "__dict__", None)

    for field in fields:
        for r in (record, expected):
            with pytest.raises(AttributeError):
                setattr(r, field, None)
            with pytest.raises(AttributeError):
                delattr(r, field)


def test_model_copies_carry_no_cache_and_no_mark():
    parsed = load("healthcare")
    parsed.class_index, parsed.class_def(parsed.class_names[0])
    assert {"_canonical", "class_index", "_classes_by_name"} <= set(vars(parsed))
    for copied in (parsed._replace(), parsed._replace(name="other"), Model._make(parsed)):
        assert vars(copied) == {}
        assert copied.class_index == parsed.class_index
