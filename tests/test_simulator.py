import pytest

from csm.dsl import parse_text
from csm.simulator import (
    DuplicateToken,
    NotEnabled,
    Outcome,
    SimState,
    StaleObject,
    Token,
    build_graph,
    enabled,
    explore,
    fire,
    init_state,
    run_script,
    run_query,
)
from csm.model import ModelError, UnknownClass


def outcomes(events):
    return [e.outcome for e in events]


def _inline(text: str):
    result = parse_text(text)
    assert result.ok, [d.render() for d in result.diagnostics]
    return result.model


JOIN = _inline(
    'model "join" { role R class A dynamic class B dynamic class C dynamic '
    "process Join { responsible R input A input B output C transform A -> C leaving } }"
)

MIXED = _inline(
    # One input feeding two outputs with mixed modes: leaving dominates.
    'model "mixed" { role R class A dynamic class B dynamic class C dynamic '
    "process Split { responsible R input A output B output C "
    "transform A -> B leaving transform A -> C remaining } }"
)


class TestState:
    def test_init_state_holds_seed(self, scenarios):
        state = init_state(scenarios["hospital_cleaning"], [("room1", "OccupiedRoom")])
        assert state.tokens == {Token("room1", "OccupiedRoom")}
        assert state.classes_of("room1") == {"OccupiedRoom"}

    def test_duplicate_seed_rejected(self, scenarios):
        with pytest.raises(DuplicateToken):
            init_state(
                scenarios["hospital_cleaning"],
                [("r", "OccupiedRoom"), ("r", "OccupiedRoom")],
            )

    def test_unknown_seed_class_rejected(self, scenarios):
        with pytest.raises(UnknownClass):
            init_state(scenarios["hospital_cleaning"], [("r", "Lobby")])


class TestEnabled:
    def test_conjunctive_over_inputs(self):
        partial = SimState(frozenset({Token("o", "A")}))
        full = SimState(frozenset({Token("o", "A"), Token("o", "B")}))
        assert enabled(JOIN, partial, "o") == frozenset()
        assert enabled(JOIN, full, "o") == {"Join"}

    def test_generators_excluded(self, scenarios):
        m = scenarios["gp_lab"]
        state = init_state(m, [("p", "TestRequest")])
        assert enabled(m, state, "p") == {"PerformTest"}

    def test_per_object(self, scenarios):
        m = scenarios["hospital_cleaning"]
        state = init_state(m, [("r1", "OccupiedRoom")])
        assert enabled(m, state, "r2") == frozenset()


class TestFire:
    def test_remaining_keeps_the_source_token(self, scenarios):
        m = scenarios["hospital_cleaning"]
        state = init_state(m, [("r", "OccupiedRoom")])
        nxt = fire(m, state, "CleanRoom", "r")
        assert nxt.classes_of("r") == {"OccupiedRoom", "CleanedRoom"}

    def test_leaving_consumes_the_source_token(self, scenarios):
        m = scenarios["hospital_cleaning"]
        state = init_state(m, [("r", "OccupiedRoom")])
        nxt = fire(m, state, "DischargeHospital", "r")
        assert nxt.classes_of("r") == {"VacantRoom"}

    def test_leaving_dominates_mixed_modes(self):
        state = SimState(frozenset({Token("o", "A")}))
        nxt = fire(MIXED, state, "Split", "o")
        assert nxt.classes_of("o") == {"B", "C"}

    def test_pure_read_input_without_transform_persists(self):
        state = SimState(frozenset({Token("o", "A"), Token("o", "B")}))
        nxt = fire(JOIN, state, "Join", "o")
        # A leaves (transform), B is a pure read and stays.
        assert nxt.classes_of("o") == {"B", "C"}

    def test_not_enabled_lists_missing_inputs(self):
        state = SimState(frozenset({Token("o", "B")}))
        with pytest.raises(NotEnabled) as exc:
            fire(JOIN, state, "Join", "o")
        assert exc.value.missing == ("A",)
        assert exc.value.blocked_waiting is False

    def test_blocked_waiting_flagged(self, scenarios):
        m = scenarios["gp_lab"]
        with pytest.raises(NotEnabled) as exc:
            fire(m, init_state(m, []), "CarePatient", "p")
        assert exc.value.blocked_waiting is True

    def test_generator_mints_only_fresh_objects(self, scenarios):
        m = scenarios["gp_lab"]
        state = init_state(m, [("p", "TestRequest")])
        with pytest.raises(StaleObject):
            fire(m, state, "RequestTest", "p")
        nxt = fire(m, state, "RequestTest", "q")
        assert nxt.classes_of("q") == {"TestRequest"}

    def test_other_objects_untouched(self, scenarios):
        m = scenarios["hospital_cleaning"]
        state = init_state(m, [("r1", "OccupiedRoom"), ("r2", "OccupiedRoom")])
        nxt = fire(m, state, "DischargeHospital", "r1")
        assert nxt.classes_of("r2") == {"OccupiedRoom"}


class TestRunScript:
    def test_new_mints_deterministic_ids(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(
            m, [], [("RequestTest", "new"), ("RequestTest", "new"), ("PerformTest", "obj1")]
        )
        assert outcomes(events) == [Outcome.FIRED] * 3
        assert [e.object_id for e in events] == ["obj1", "obj2", "obj1"]

    def test_minting_skips_seeded_ids(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [("obj1", "CaredPatient")], [("RequestTest", "new")])
        assert events[0].object_id == "obj2"

    def test_failed_step_is_skipped_not_fatal(self, scenarios):
        m = scenarios["hospital_cleaning"]
        events = run_script(
            m,
            [("r", "OccupiedRoom")],
            [
                ("DischargeHospital", "r"),
                ("CleanRoom", "r"),  # discharged: no longer occupied
                ("DischargeHospital", "ghost"),
            ],
        )
        assert outcomes(events) == [Outcome.FIRED, Outcome.NOT_ENABLED, Outcome.NOT_ENABLED]
        assert "OccupiedRoom" in events[1].detail

    def test_blocked_waiting_outcome(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("CarePatient", "p")])
        assert outcomes(events) == [Outcome.BLOCKED_WAITING]

    def test_unknown_process_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("Nope", "p"), ("RequestTest", "new")])
        assert outcomes(events) == [Outcome.ABORTED]

    def test_new_with_non_generator_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("PerformTest", "new")])
        assert outcomes(events) == [Outcome.ABORTED]

    def test_stale_generator_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [("p", "TestRequest")], [("RequestTest", "p")])
        assert outcomes(events) == [Outcome.ABORTED]

    def test_noop_readd_is_reported(self, scenarios):
        m = scenarios["hospital_cleaning"]
        events = run_script(m, [("r", "OccupiedRoom")], [("CleanRoom", "r")] * 2)
        assert outcomes(events) == [Outcome.FIRED, Outcome.FIRED]
        assert "already present in CleanedRoom" in events[1].detail

    def test_events_are_json_ready(self, scenarios):
        m = scenarios["hospital_cleaning"]
        [event] = run_script(m, [("r", "OccupiedRoom")], [("CleanRoom", "r")])
        doc = event.to_dict()
        assert doc["step"] == 1 and doc["outcome"] == "fired"


class TestExplore:
    def test_graph_is_deterministic(self, scenarios):
        m = scenarios["hotel_agency"]
        g1 = build_graph(m, [], max_steps=5, max_objects=2)
        g2 = build_graph(m, [], max_steps=5, max_objects=2)
        assert g1.edges == g2.edges and g1.parents == g2.parents

    def test_complete_when_space_is_closed(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        assert graph.complete and graph.state_count == 4

    def test_incomplete_when_bound_hit(self, scenarios):
        m = scenarios["hotel_agency"]
        graph = build_graph(m, [], max_steps=1, max_objects=2)
        assert not graph.complete
        summary = explore(m, [], max_steps=1, max_objects=2)
        assert not summary.complete

    def test_object_bound_respected(self, scenarios):
        m = scenarios["gp_lab"]
        graph = build_graph(m, [], max_steps=8, max_objects=1)
        for succs in graph.edges.values():
            for _, (tokens, _) in succs:
                assert len({t.object_id for t in tokens}) <= 1

    def test_bounds_must_be_positive(self, scenarios):
        with pytest.raises(ValueError):
            build_graph(scenarios["gp_lab"], [], max_steps=0, max_objects=1)

    def test_co_occurrence_query(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        hit = run_query(graph, {"type": "co_occurrence", "classes": ["OccupiedRoom", "CleanedRoom"]})
        assert hit.reachable and hit.witness == (("CleanRoom", "r"),)
        miss = run_query(graph, {"type": "co_occurrence", "classes": ["VacantRoom", "OccupiedRoom"]})
        assert not miss.reachable and miss.witness is None

    def test_sequence_query_with_witness_replay(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        result = run_query(graph, {"type": "sequence", "first": "CleanRoom", "then": "DischargeHospital"})
        assert result.reachable
        events = run_script(m, [("r", "OccupiedRoom")], list(result.witness))
        assert all(e.outcome is Outcome.FIRED for e in events)
        fired = [e.process for e in events]
        assert fired.index("CleanRoom") < fired.index("DischargeHospital")

    def test_sequence_must_use_the_same_object(self, scenarios):
        # Each booking has one fate; with two bookings both processes can
        # fire, but never on the same object.
        m = scenarios["hotel_agency"]
        graph = build_graph(m, [], max_steps=6, max_objects=2)
        result = run_query(graph, {"type": "sequence", "first": "Cancel", "then": "CheckIn"})
        assert not result.reachable

    def test_unknown_query_type(self, scenarios):
        graph = build_graph(scenarios["gp_lab"], [], max_steps=2, max_objects=1)
        with pytest.raises(ModelError):
            run_query(graph, {"type": "eventually"})

    def test_explore_summary_document(self, scenarios):
        m = scenarios["hospital_cleaning"]
        summary = explore(
            m,
            [("r", "OccupiedRoom")],
            max_steps=8,
            max_objects=1,
            queries=[{"type": "sequence", "first": "DischargeHospital", "then": "CleanRoom"}],
        )
        doc = summary.to_dict()
        assert doc["complete"] is True
        assert doc["queries"][0]["reachable"] is False
