import json
import random
import tracemalloc
from collections.abc import Mapping

import pytest

from csm import simulator
from csm.dsl import parse_text
from csm.fixtures import FIXTURES
from csm.simulator import (
    DuplicateToken,
    build_graph,
    explore,
    run_script,
    run_query,
)
from csm.model import (
    ClassDef,
    Model,
    ModelError,
    ProcessDef,
    UnknownClass,
)
from helpers import (
    A4_SEEDS,
    BAD_QUERIES,
    Token,
    brute_explore,
    brute_fire,
    brute_graph,
    brute_init_state,
    brute_run_script,
    classes_of,
    object_ids,
    random_model,
    random_valid_model,
    step_enabled,
    step_tokens,
    summary_doc,
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


def _seeded(model, seed) -> dict[str, list[str]]:
    """Each seeded object's classes, as ``run_script`` encodes the seed."""
    bits = simulator._class_bits(model)
    return {
        oid: simulator._decode(bits, mask)
        for oid, mask in simulator._encode(bits, seed).items()
    }


class TestState:
    def test_init_state_holds_seed(self, scenarios):
        seed = [("room1", "OccupiedRoom")]
        assert _seeded(scenarios["hospital_cleaning"], seed) == {"room1": ["OccupiedRoom"]}

    def test_duplicate_seed_rejected(self, scenarios):
        with pytest.raises(DuplicateToken):
            run_script(
                scenarios["hospital_cleaning"],
                [("r", "OccupiedRoom"), ("r", "OccupiedRoom")],
                [],
            )

    def test_unknown_seed_class_rejected(self, scenarios):
        with pytest.raises(UnknownClass):
            run_script(scenarios["hospital_cleaning"], [("r", "Lobby")], [])


def _fires(model, seed, object_id) -> set[str]:
    """The processes other than generators that fire on the object as the
    first step of a scripted run."""
    return {
        p.name for p in model.processes
        if not p.is_generator
        and run_script(model, seed, [(p.name, object_id)])[0].outcome == "fired"
    }


class TestEnabled:
    def test_conjunctive_over_inputs(self):
        assert _fires(JOIN, [("o", "A")], "o") == set()
        assert _fires(JOIN, [("o", "A"), ("o", "B")], "o") == {"Join"}
        partial = frozenset({Token("o", "A")})
        assert step_enabled(JOIN, partial, "o") == frozenset()
        assert step_enabled(JOIN, partial | {Token("o", "B")}, "o") == {"Join"}

    def test_generators_excluded(self, scenarios):
        m = scenarios["gp_lab"]
        assert _fires(m, [("p", "TestRequest")], "p") == {"PerformTest"}

    def test_per_object(self, scenarios):
        m = scenarios["hospital_cleaning"]
        assert _fires(m, [("r1", "OccupiedRoom")], "r2") == set()


class TestFire:
    """One firing on one object's class mask (``_step``), seen as tokens."""

    def test_remaining_keeps_the_source_token(self, scenarios):
        m = scenarios["hospital_cleaning"]
        nxt = step_tokens(m, {Token("r", "OccupiedRoom")}, "CleanRoom", "r")
        assert classes_of(nxt, "r") == {"OccupiedRoom", "CleanedRoom"}

    def test_leaving_consumes_the_source_token(self, scenarios):
        m = scenarios["hospital_cleaning"]
        nxt = step_tokens(m, {Token("r", "OccupiedRoom")}, "DischargeHospital", "r")
        assert classes_of(nxt, "r") == {"VacantRoom"}

    def test_leaving_dominates_mixed_modes(self):
        nxt = step_tokens(MIXED, {Token("o", "A")}, "Split", "o")
        assert classes_of(nxt, "o") == {"B", "C"}

    def test_pure_read_input_without_transform_persists(self):
        nxt = step_tokens(JOIN, {Token("o", "A"), Token("o", "B")}, "Join", "o")
        # A leaves (transform), B is a pure read and stays.
        assert classes_of(nxt, "o") == {"B", "C"}

    def test_not_enabled_lists_missing_inputs(self):
        assert step_tokens(JOIN, {Token("o", "B")}, "Join", "o") is None
        [event] = run_script(JOIN, [("o", "B")], [("Join", "o")])
        assert (event.outcome, event.detail) == ("not-enabled", "missing input tokens: A")

    def test_blocked_waiting_flagged(self, scenarios):
        m = scenarios["gp_lab"]
        assert step_tokens(m, frozenset(), "CarePatient", "p") is None
        [event] = run_script(m, [], [("CarePatient", "p")])
        assert (event.outcome, event.detail) == (
            "blocked-waiting", "missing input tokens: SentTestResult"
        )

    def test_generator_mints_only_fresh_objects(self, scenarios):
        m = scenarios["gp_lab"]
        tokens = {Token("p", "TestRequest")}
        assert step_tokens(m, tokens, "RequestTest", "p") is None
        script = [("RequestTest", "p"), ("RequestTest", "q")]
        events = run_script(m, [("p", "TestRequest")], script)
        assert [(e.outcome, e.detail) for e in events] == [
            ("aborted", "generator 'RequestTest' fired with existing object 'p'")
        ]
        nxt = step_tokens(m, tokens, "RequestTest", "q")
        assert classes_of(nxt, "q") == {"TestRequest"}

    def test_other_objects_untouched(self, scenarios):
        # After r1 leaves OccupiedRoom, r2 still holds it and r1 does not.
        m = scenarios["hospital_cleaning"]
        seed = [("r1", "OccupiedRoom"), ("r2", "OccupiedRoom")]
        script = [("DischargeHospital", "r1"), ("CleanRoom", "r2"), ("CleanRoom", "r1")]
        assert outcomes(run_script(m, seed, script)) == [
            "fired", "fired", "not-enabled"
        ]


class TestRunScript:
    def test_new_mints_deterministic_ids(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(
            m, [], [("RequestTest", "new"), ("RequestTest", "new"), ("PerformTest", "obj1")]
        )
        assert outcomes(events) == ["fired"] * 3
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
        assert outcomes(events) == ["fired", "not-enabled", "not-enabled"]
        assert "OccupiedRoom" in events[1].detail

    def test_blocked_waiting_outcome(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("CarePatient", "p")])
        assert outcomes(events) == ["blocked-waiting"]

    def test_unknown_process_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("Nope", "p"), ("RequestTest", "new")])
        assert outcomes(events) == ["aborted"]

    def test_new_with_non_generator_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [], [("PerformTest", "new")])
        assert outcomes(events) == ["aborted"]

    def test_stale_generator_aborts(self, scenarios):
        m = scenarios["gp_lab"]
        events = run_script(m, [("p", "TestRequest")], [("RequestTest", "p")])
        assert outcomes(events) == ["aborted"]

    def test_noop_readd_is_reported(self, scenarios):
        m = scenarios["hospital_cleaning"]
        events = run_script(m, [("r", "OccupiedRoom")], [("CleanRoom", "r")] * 2)
        assert outcomes(events) == ["fired", "fired"]
        assert "already present in CleanedRoom" in events[1].detail

    def test_events_are_json_ready(self, scenarios):
        m = scenarios["hospital_cleaning"]
        [event] = run_script(m, [("r", "OccupiedRoom")], [("CleanRoom", "r")])
        doc = json.loads(event.to_json())
        assert doc["step"] == 1 and doc["outcome"] == "fired"


class TestExplore:
    def test_graph_is_deterministic(self, scenarios):
        m = scenarios["hotel_agency"]
        g1 = build_graph(m, [], max_steps=5, max_objects=2)
        g2 = build_graph(m, [], max_steps=5, max_objects=2)
        assert g1.edges == g2.edges

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
        # The counted space is the token-set graph's, where no state holds
        # more objects than the bound.
        m = scenarios["gp_lab"]
        graph = build_graph(m, [], max_steps=8, max_objects=1)
        brute = brute_graph(m, [], max_steps=8, max_objects=1)
        assert all(len(object_ids(tokens)) <= 1 for tokens, _ in brute.states)
        assert (graph.state_count, graph.frontier) == (len(brute.states), brute.frontier)

    def test_pruned_generator_is_not_a_proof(self, scenarios):
        # The seed fills the object bound, so CheckUp can never mint.
        m = scenarios["healthcare"]
        seed = [("a", "CaredPatient"), ("b", "CaredPatient")]
        query = {"type": "sequence", "first": "CheckUp", "then": "Diagnose"}
        summary = explore(m, seed, max_steps=8, max_objects=2, queries=[query])
        assert not summary.complete and summary.stop == "object_bound_pruned"
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

    def test_cost_follows_the_states_not_the_step_bound(self, scenarios):
        # Eight states, all within four steps: a bound of a million steps
        # must not cost memory per step.
        m, seed = scenarios["healthcare"], [("p", "CaredPatient")]
        small = build_graph(m, seed, max_steps=8, max_objects=2)
        tracemalloc.start()
        try:
            big = build_graph(m, seed, max_steps=10**6, max_objects=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        counts = lambda g: (g.state_count, g.edge_count, g.frontier, g.stop)
        assert counts(big) == counts(small) == (8, 10, [1, 1, 2, 2, 2], "object_bound_pruned")

    def test_successors_by_process_then_object(self, scenarios):
        m = scenarios["hospital_cleaning"]
        seed = [("r2", "OccupiedRoom"), ("r1", "OccupiedRoom")]
        graph = build_graph(m, seed, max_steps=1, max_objects=2)
        edges = graph.edges
        assert [action for action, _ in edges[0]] == [
            ("CleanRoom", "r1"),
            ("CleanRoom", "r2"),
            ("DischargeHospital", "r1"),
            ("DischargeHospital", "r2"),
        ]
        # States are numbered in discovery order: the seed state 0, then its successors.
        assert [target for _, target in edges[0]] == [1, 2, 3, 4]

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
        hit = run_query(
            graph, {"type": "co_occurrence", "classes": ["OccupiedRoom", "CleanedRoom"]}
        )
        assert hit.reachable and hit.witness == (("CleanRoom", "r"),)
        miss = run_query(
            graph, {"type": "co_occurrence", "classes": ["VacantRoom", "OccupiedRoom"]}
        )
        assert not miss.reachable and miss.witness is None

    def test_sequence_query_with_witness_replay(self, scenarios):
        m = scenarios["hospital_cleaning"]
        graph = build_graph(m, [("r", "OccupiedRoom")], max_steps=8, max_objects=1)
        result = run_query(
            graph, {"type": "sequence", "first": "CleanRoom", "then": "DischargeHospital"}
        )
        assert result.reachable
        events = run_script(m, [("r", "OccupiedRoom")], list(result.witness))
        assert all(e.outcome == "fired" for e in events)
        fired = [e.process for e in events]
        assert fired.index("CleanRoom") < fired.index("DischargeHospital")

    def test_sequence_must_use_the_same_object(self, scenarios):
        # Each booking has one fate; with two bookings both processes can
        # fire, but never on the same object.
        m = scenarios["hotel_agency"]
        graph = build_graph(m, [], max_steps=6, max_objects=2)
        result = run_query(graph, {"type": "sequence", "first": "Cancel", "then": "CheckIn"})
        assert not result.reachable

    def test_witness_fits_the_step_bound(self):
        # P0 reads C3 and outputs it again: firing it twice takes two steps.
        m = Model("reread", ("R",), (ClassDef("C3", True),), (ProcessDef("P0", ("C3",), ("C3",)),))
        query = {"type": "sequence", "first": "P0", "then": "P0"}
        [result] = explore(m, [("o", "C3")], 1, 1, queries=[query]).queries
        assert not result.reachable and result.witness is None
        [result] = explore(m, [("o", "C3")], 2, 1, queries=[query]).queries
        assert result.witness == (("P0", "o"), ("P0", "o"))

    @pytest.mark.parametrize(
        "first, then",
        [
            ("Void", "Mint"),  # a generator `then` fires on an object that does not exist
            ("Void", "Read"),  # a `first` from a generator without outputs makes none
        ],
    )
    def test_sequence_needs_an_existing_object(self, first, then):
        # Void mints obj2 (obj1 is seeded) without outputs, so obj2 does not
        # exist, and Mint would mint obj2 next.
        m = Model(
            "ghosts", ("R",), (ClassDef("A", True),),
            (ProcessDef("Void", (), ()), ProcessDef("Mint", (), ("A",)),
             ProcessDef("Read", ("A",), ("A",))),
        )
        queries = [{"type": "sequence", "first": first, "then": then},
                   {"type": "sequence", "first": "Mint", "then": "Read"}]
        summary = explore(m, [("obj1", "A")], max_steps=4, max_objects=3, queries=queries)
        mint_then_read = (("Mint", "obj2"), ("Read", "obj2"))
        assert [q.witness for q in summary.queries] == [None, mint_then_read]

    def test_explore_builds_the_graph_through_the_module(self, scenarios, monkeypatch):
        # Tracing wraps ``csm.simulator.build_graph`` and reads the state
        # count and the edges of what it returns.
        results = []

        def traced(*args):
            results.append(build_graph(*args))
            return results[-1]

        monkeypatch.setattr(simulator, "build_graph", traced)
        summary = explore(scenarios["hospital_cleaning"], [("r", "OccupiedRoom")], 8, 1)
        [graph] = results
        assert summary.state_count == graph.state_count == 4
        assert isinstance(graph.edges, Mapping)
        assert all(isinstance(succs, list) for succs in graph.edges.values())
        assert summary.edge_count == sum(len(succs) for succs in graph.edges.values())

    def test_explore_compiles_each_process_once(self, scenarios, monkeypatch):
        # The counts and the queries read one compiled space.
        compiled = []
        compile_ = simulator._compile

        def counted(bits, p):
            compiled.append(p.name)
            return compile_(bits, p)

        monkeypatch.setattr(simulator, "_compile", counted)
        m = scenarios["healthcare"]
        explore(m, [("p", "CaredPatient")], 8, 2, _all_queries(m))
        assert sorted(compiled) == sorted(set(m.process_names))

    def test_unknown_query_type(self, scenarios):
        graph = build_graph(scenarios["gp_lab"], [], max_steps=2, max_objects=1)
        with pytest.raises(ModelError):
            run_query(graph, {"type": "eventually"})

    @pytest.mark.parametrize(
        "query",
        [q for q in BAD_QUERIES if "Ghost" not in repr(q)]
        + [{"type": "co_occurrence", "classes": [["a"], "b"]}],
    )
    def test_malformed_query_is_a_model_error(self, scenarios, query):
        # The CLI's query file rules, bar the declared names.
        graph = build_graph(scenarios["hospital_cleaning"], [], max_steps=2, max_objects=1)
        with pytest.raises(ModelError, match="^query"):
            run_query(graph, query)

    def test_malformed_query_names_its_pointer(self, scenarios):
        graph = build_graph(scenarios["hospital_cleaning"], [], max_steps=2, max_objects=1)
        query = {"type": "co_occurrence", "classes": ["OccupiedRoom", 1]}
        with pytest.raises(ModelError) as caught:
            run_query(graph, query)
        assert str(caught.value) == "query at /classes/1: query names no declared class: 1"
        with pytest.raises(ModelError) as caught:
            run_query(graph, ["sequence"])
        assert str(caught.value) == (
            "query: query type must be 'co_occurrence' or 'sequence': ['sequence']"
        )

    def test_seed_object_new_is_refused(self, scenarios):
        # A witness step on it would read as a mint request.
        m, seed = scenarios["hospital_cleaning"], [("new", "OccupiedRoom")]
        message = "^at /0/object uses the reserved object id 'new'$"
        with pytest.raises(ModelError, match=message):
            explore(m, seed, 8, 2)
        with pytest.raises(ModelError, match=message):
            build_graph(m, seed, 8, 2)
        with pytest.raises(ModelError, match=message):
            run_script(m, seed, [])

    def test_explore_summary_document(self, scenarios):
        m = scenarios["hospital_cleaning"]
        summary = explore(
            m,
            [("r", "OccupiedRoom")],
            max_steps=8,
            max_objects=1,
            queries=[{"type": "sequence", "first": "DischargeHospital", "then": "CleanRoom"}],
        )
        doc = json.loads(summary.to_json())
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
            got = summary_doc(explore(m, A4_SEEDS[name], max_steps, max_objects, queries))
            assert got == brute_explore(m, A4_SEEDS[name], max_steps, max_objects, queries)

    @pytest.mark.parametrize("name", ["gp_lab", "healthcare", "hotel_agency"])
    def test_seed_ids_around_minted_ids(self, name, scenarios):
        m = scenarios[name]
        queries = _all_queries(m)
        for ids in (("a",), ("zz",), ("obj1",), ("obj2", "zz"), ("a", "obj10")):
            seed = [(oid, m.class_names[i % len(m.class_names)]) for i, oid in enumerate(ids)]
            got = summary_doc(explore(m, seed, 5, 3, queries))
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
            got = summary_doc(explore(m, seed, *bounds, queries))
            assert got == brute_explore(m, seed, *bounds, queries), (m, seed, bounds)
            for q in got["queries"]:
                # A witness is a run within the step bound that fires as listed.
                witness = [tuple(step) for step in q["witness"] or ()]
                assert len(witness) <= bounds[0]
                events = run_script(m, seed, witness)
                assert all(e.outcome == "fired" for e in events), (m, seed, q)
                assert [(e.process, e.object_id) for e in events] == witness
            reachable += sum(q["reachable"] for q in got["queries"])
        assert reachable > 100


GZ = Model(
    # G mints an object in C, Z mints none: both take a step and a mint id.
    "gz", ("R",), (ClassDef("C", True),), (ProcessDef("G", (), ("C",)), ProcessDef("Z", (), ())),
)


class TestCountedSpace:
    """``build_graph`` counts states, edges, the frontier and the stop reason
    from per-object lifecycles; they equal those of ``brute_graph``, the
    explicit graph on token sets, and ``edges`` agrees with the edge count."""

    def _check(self, m, seed, max_steps, max_objects):
        g = build_graph(m, seed, max_steps, max_objects)
        brute = brute_graph(m, seed, max_steps, max_objects)
        counted = (g.state_count, g.edge_count, g.frontier, g.stop)
        expected = (
            len(brute.states),
            sum(len(succs) for succs in brute.edges.values()),
            brute.frontier,
            brute.stop(max_steps),
        )
        assert counted == expected, (m, seed, max_steps, max_objects)
        assert sum(len(succs) for succs in g.edges.values()) == g.edge_count
        return g

    @pytest.mark.parametrize(
        "seed_id, states, frontier", [("obj1", 6, [1, 2, 3]), ("a", 7, [1, 2, 4])]
    )
    def test_mint_orders_meeting_a_seed_id(self, seed_id, states, frontier):
        # With obj1 seeded, G then Z and Z then G both mint obj2 only; with
        # a seeded, they mint obj1 and obj2, two states.
        g = self._check(GZ, [(seed_id, "C")], 2, 3)
        assert (g.state_count, g.frontier) == (states, frontier)

    @pytest.mark.parametrize("generate", [random_model, random_valid_model])
    def test_random_models(self, generate):
        rng = random.Random(9)
        stops = set()
        for _ in range(500):
            m = generate(rng)
            # Hand-built variants: classes out of name order, and a
            # generator without outputs.
            classes, processes = m.classes, m.processes
            if rng.random() < 0.5:
                classes = classes[::-1]
            if rng.random() < 0.3:
                processes = (*processes, ProcessDef("Void", (), ()))
            m = Model(m.name, m.roles, classes, processes, m.class_grants)
            seed = sorted({
                (rng.choice(SEED_IDS), rng.choice(m.class_names))
                for _ in range(rng.randint(0, 4))
            })
            bounds = rng.randint(1, 9), rng.randint(1, 5)
            stops.add(self._check(m, seed, *bounds).stop)
        assert stops == {"closed", "step_bound", "object_bound_pruned"}


def _result(fn, *args):
    """What a call returns, or the type and message of the ``ModelError`` it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return type(exc), str(exc)


class TestTokenOracle:
    """Scripted runs and each firing on class masks (``_step``) agree with
    the firing rule on token sets (``brute_run_script``, ``brute_fire``)."""

    @pytest.mark.parametrize("generate", [random_model, random_valid_model])
    def test_random_scripts(self, generate):
        rng = random.Random(6)
        seen = {"fired": 0, "stale": 0, "seed error": 0}
        for _ in range(500):
            m = generate(rng)
            # A hand-built variant with the classes out of name order.
            if rng.random() < 0.5:
                m = Model(m.name, m.roles, m.classes[::-1], m.processes, m.class_grants)
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
            # Walk the fired steps on token sets, checking the mask rule's
            # enabled set and successor at every state on the way.
            state = brute_init_state(m, seed)
            for e in events:
                held = classes_of(state, e.object_id)
                want = {p.name for p in m.processes if p.inputs and set(p.inputs) <= held}
                assert step_enabled(m, state, e.object_id) == want
                nxt = _result(brute_fire, m, state, e.process, e.object_id)
                assert _result(step_tokens, m, state, e.process, e.object_id) == nxt
                seen["stale"] += "existing object" in e.detail
                if e.outcome == "fired":
                    seen["fired"] += 1
                    state = nxt
        assert min(seen.values()) >= 5, seen
