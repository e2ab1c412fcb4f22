import random

import pytest

from csm.dsl import parse_text
from csm.fixtures import FIXTURES
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
from csm.model import (
    ClassDef,
    Model,
    ModelError,
    ProcessDef,
    Transform,
    TransformMode,
    UnknownClass,
)
from helpers import (
    A4_SEEDS,
    brute_explore,
    brute_fire,
    brute_init_state,
    brute_run_script,
    random_model,
    random_valid_model,
)


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
        decode = lambda g: [(g.tokens(s), g.states[s][1]) for s in range(g.state_count)]
        assert decode(g1) == decode(g2)

    def test_complete_when_space_is_closed(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        assert graph.complete and graph.state_count == 4

    def test_incomplete_when_bound_hit(self, scenarios):
        m = scenarios["hotel_agency"]
        graph = build_graph(m, [], max_steps=1, max_objects=2)
        assert not graph.complete and graph.stop == "step_bound"
        summary = explore(m, [], max_steps=1, max_objects=2)
        assert not summary.complete

    def test_object_bound_respected(self, scenarios):
        m = scenarios["gp_lab"]
        graph = build_graph(m, [], max_steps=8, max_objects=1)
        for succs in graph.edges.values():
            for _, target in succs:
                assert len({t.object_id for t in graph.tokens(target)}) <= 1

    def test_pruned_generator_is_not_a_proof(self, scenarios):
        # The seed fills the object bound, so CheckUp can never mint.
        m = scenarios["healthcare"]
        seed = [("a", "CaredPatient"), ("b", "CaredPatient")]
        query = {"type": "sequence", "first": "CheckUp", "then": "Diagnose"}
        summary = explore(m, seed, max_steps=8, max_objects=2, queries=[query])
        assert not summary.complete and summary.stats["stop"] == "object_bound_pruned"
        assert not summary.queries[0].reachable
        assert explore(m, seed, max_steps=8, max_objects=3, queries=[query]).queries[0].reachable

    def test_full_object_bound_without_generator_is_complete(self, scenarios):
        m = scenarios["hospital_cleaning"]
        seed = [("r1", "OccupiedRoom"), ("r2", "OccupiedRoom")]
        graph = build_graph(m, seed, max_steps=8, max_objects=2)
        assert graph.complete and graph.stop == "closed"

    def test_a_generator_always_meets_the_object_bound(self, scenarios):
        # Below the bound a generator can always mint a fresh object, so a
        # model with one closes only when the bound stops it.
        graph = build_graph(scenarios["gp_lab"], [], max_steps=30, max_objects=2)
        assert graph.stop == "object_bound_pruned" and not graph.complete

    def test_frontier_counts_every_state_once(self, scenarios):
        graph = build_graph(scenarios["healthcare"], [], max_steps=30, max_objects=2)
        assert graph.frontier == [1, 1, 3, 6, 10, 12, 12, 8, 4]
        assert sum(graph.frontier) == graph.state_count

    def test_successors_by_process_then_object(self, scenarios):
        m = scenarios["hospital_cleaning"]
        seed = [("r2", "OccupiedRoom"), ("r1", "OccupiedRoom")]
        graph = build_graph(m, seed, max_steps=1, max_objects=2)
        assert [action for action, _ in graph.edges[graph.initial]] == [
            ("CleanRoom", "r1"),
            ("CleanRoom", "r2"),
            ("DischargeHospital", "r1"),
            ("DischargeHospital", "r2"),
        ]
        assert graph.parents[1:] == [(graph.initial, a) for a, _ in graph.edges[graph.initial]]

    def test_tokens_decodes_a_state(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        assert graph.tokens(graph.initial) == {Token("r", "OccupiedRoom")}
        [(action, target)] = [s for s in graph.edges[graph.initial] if s[0][0] == "CleanRoom"]
        assert graph.tokens(target) == brute_fire(
            m, brute_init_state(m, [("r", "OccupiedRoom")]), "CleanRoom", "r"
        ).tokens

    def test_undeclared_names_are_unreachable(self, scenarios):
        graph = build_graph(scenarios["gp_lab"], [], max_steps=4, max_objects=1)
        for query in (
            {"type": "co_occurrence", "classes": ["Ghost", "TestRequest"]},
            {"type": "sequence", "first": "Ghost", "then": "PerformTest"},
            {"type": "sequence", "first": "RequestTest", "then": "Ghost"},
        ):
            result = run_query(graph, query)
            assert not result.reachable and result.witness is None

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


def _all_queries(model) -> list[dict]:
    """Every co-occurrence and sequence query over declared names, pairs with
    themselves included."""
    return [
        {"type": "co_occurrence", "classes": [a, b]}
        for a in model.class_names
        for b in model.class_names
    ] + [
        {"type": "sequence", "first": a, "then": b}
        for a in model.process_names
        for b in model.process_names
    ]


def _random_queries(rng: random.Random, model) -> list[dict]:
    classes = [*model.class_names, "Ghost"]
    processes = [*model.process_names, "Ghost"]
    queries = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            queries.append({"type": "co_occurrence", "classes": rng.choices(classes, k=2)})
        else:
            first = rng.choice(processes)
            then = first if rng.random() < 0.25 else rng.choice(processes)
            queries.append({"type": "sequence", "first": first, "then": then})
    return queries


# Minted objects are obj1, obj2, ...; seeded ids sort before, between and after them.
SEED_IDS = ("a", "obj1", "obj2", "obj10", "objz", "zz")


class TestReferenceOracle:
    """``explore`` on class masks agrees with ``brute_explore`` on token sets."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, scenarios):
        m = scenarios[name]
        queries = _all_queries(m)
        for max_steps, max_objects in ((8, 2), (6, 3), (12, 1)):
            got = explore(m, A4_SEEDS[name], max_steps, max_objects, queries).to_dict()
            assert got == brute_explore(m, A4_SEEDS[name], max_steps, max_objects, queries)

    @pytest.mark.parametrize("name", ["gp_lab", "healthcare", "hotel_agency"])
    def test_seed_ids_around_minted_ids(self, name, scenarios):
        m = scenarios[name]
        queries = _all_queries(m)
        for ids in (("a",), ("zz",), ("obj1",), ("obj2", "zz"), ("a", "obj10")):
            seed = [(oid, m.class_names[i % len(m.class_names)]) for i, oid in enumerate(ids)]
            got = explore(m, seed, 5, 3, queries).to_dict()
            assert got == brute_explore(m, seed, 5, 3, queries)

    @pytest.mark.parametrize("generate", [random_model, random_valid_model])
    def test_random_models(self, generate):
        rng = random.Random(4)
        reachable = 0
        for _ in range(300):
            m = generate(rng)
            seed = sorted({
                (rng.choice(SEED_IDS), rng.choice(m.class_names))
                for _ in range(rng.randint(0, 4))
            })
            bounds = rng.randint(1, 8), rng.randint(1, 4)
            queries = _random_queries(rng, m)
            got = explore(m, seed, *bounds, queries).to_dict()
            assert got == brute_explore(m, seed, *bounds, queries), (m, seed, bounds)
            reachable += sum(q["reachable"] for q in got["queries"])
        assert reachable > 100


def _result(fn, *args):
    """What a call returns, or the type and message of the ``ModelError`` it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return type(exc), str(exc)


def _consume_inputs(p: ProcessDef) -> ProcessDef:
    leaving = (Transform(c, "Gone", TransformMode.LEAVING) for c in p.inputs)
    return ProcessDef(p.name, p.inputs, (), leaving, p.role_privileges)


class TestTokenOracle:
    """Scripted runs and ``fire``/``enabled`` on class masks agree with the
    firing rule on token sets (``brute_run_script``, ``brute_fire``)."""

    @pytest.mark.parametrize("generate", [random_model, random_valid_model])
    def test_random_scripts(self, generate):
        rng = random.Random(6)
        seen = {"fired": 0, "emptied": 0, "stale": 0, "seed error": 0}
        for _ in range(500):
            m = generate(rng)
            # Hand-built variants: class bits follow declaration order, not
            # name order; and a process that consumes every input without
            # outputs can empty an object.
            classes, processes = m.classes, m.processes
            if rng.random() < 0.5:
                classes = classes[::-1]
            if rng.random() < 0.3:
                processes = tuple(_consume_inputs(p) if p.inputs else p for p in processes)
            m = Model(m.name, m.roles, classes, processes, m.class_grants)
            seed = sorted({
                (rng.choice(SEED_IDS), rng.choice(m.class_names))
                for _ in range(rng.randint(0, 3))
            })
            if rng.random() < 0.1:
                seed.insert(rng.randint(0, len(seed)), ("a", "Lobby"))
            if seed and rng.random() < 0.1:
                seed.append(rng.choice(seed))
            names = m.process_names or ("Ghost",)
            ids = [*SEED_IDS, "new", "x"]
            script = [
                (rng.choice(names) if rng.random() > 0.05 else "Ghost", rng.choice(ids))
                for _ in range(rng.randint(0, 10))
            ]
            events = _result(run_script, m, seed, script)
            assert events == _result(brute_run_script, m, seed, script), (m, seed, script)
            if not isinstance(events, list):
                seen["seed error"] += 1
                continue
            # Walk the fired steps on token sets, checking ``fire`` and
            # ``enabled`` at every state on the way.
            state = brute_init_state(m, seed)
            for e in events:
                held = state.classes_of(e.object_id)
                want = {p.name for p in m.processes if p.inputs and set(p.inputs) <= held}
                assert enabled(m, state, e.object_id) == want
                nxt = _result(brute_fire, m, state, e.process, e.object_id)
                assert _result(fire, m, state, e.process, e.object_id) == nxt
                seen["stale"] += "existing object" in e.detail
                if e.outcome is Outcome.FIRED:
                    seen["fired"] += 1
                    seen["emptied"] += e.object_id in state.object_ids - nxt.object_ids
                    state = nxt
        assert min(seen.values()) >= 5, seen

    def test_first_of_duplicate_processes_wins(self):
        # A hand-built model that repeats a process name, as process_def reads it.
        m = Model(
            "dup", ("R",), (ClassDef("A", True), ClassDef("B", True)),
            (ProcessDef("P", ("A",), ("B",)), ProcessDef("P", ("B",), ("A",))),
        )
        script = [("P", "o"), ("P", "o")]
        events = run_script(m, [("o", "A")], script)
        assert events == brute_run_script(m, [("o", "A")], script)
        assert [e.detail for e in events] == ["object o", "object o; already present in B"]
