"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import itertools
import random
import shutil
import subprocess
import time

import pytest

import properties_core as core
from csm.classifier import Level, classify_all
from csm.diagnostics import Severity
from csm.dsl import emit_json, emit_text, parse_json, parse_text
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text, load
from csm.model import Model
from csm.render import to_dot, to_mermaid
from csm.simulator import (
    NEW_OBJECT,
    Outcome,
    _mint_id,
    build_graph,
    explore,
    run_script,
    SimState,
)
from csm.validator import validate
from helpers import (
    A4_SEEDS,
    brute_fire,
    brute_validate,
    check_dot_syntax,
    check_mermaid_syntax,
    random_model,
)


def _report(number: int, description: str, fn, budget: float | None = None) -> None:
    started = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\n[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert budget is None or elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    )
    print(f"\n[criterion {number}] PASS: {description} ({elapsed:.2f}s)")


# -- 1: collaboration level reproduction -------------------------------------

EXPECTED_LEVELS = {
    "hotel_agency": {("Hotel", "Agency"): {Level.VERY_TIGHT}},
    "airline_alliance": {("AirlineA", "AirlineB"): {Level.TIGHT}},
    "gp_lab": {
        ("GP", "Laboratory"): {Level.LOOSE},
        ("Laboratory", "GP"): {Level.LOOSE},
    },
    "gp_hospital": {
        ("GP", "Hospital"): {Level.VERY_LOOSE},
        ("Hospital", "GP"): {Level.VERY_LOOSE},
    },
}


def test_criterion_1_level_reproduction(scenarios):
    def run():
        for name, expected in EXPECTED_LEVELS.items():
            summary = classify_all(scenarios[name]).pair_summary
            assert summary == expected, f"{name}: {summary}"
        report = classify_all(scenarios["healthcare"])
        assert report.levels_between("GP", "Laboratory") == {Level.LOOSE}
        assert report.levels_between("GP", "Hospital") == {Level.VERY_LOOSE}

    _report(1, "collaboration levels match on all five level scenarios", run, budget=1.0)


# -- 2: constraint engine -----------------------------------------------------

def test_criterion_2_constraint_engine():
    expected = {
        "bad_c1": "E-C1",
        "bad_c2": "E-C2",
        "bad_c3": "E-C3",
        "bad_c4": "E-C4",
        "bad_c5": "E-C5",
        "bad_orphan": "E-ORPHAN-P",
    }

    def run():
        for name in BAD_FIXTURES:
            codes = [
                d.code for d in validate(load(name)) if d.severity is Severity.ERROR
            ]
            assert codes == [expected[name]], f"{name}: {codes}"
        rng = random.Random(20260823)
        for _ in range(1000):
            model = random_model(rng)
            got = sorted((d.code, d.site) for d in validate(model))
            assert got == brute_validate(model)

    _report(
        2,
        "negative fixtures hit exactly their rule; validator agrees with the "
        "brute-force oracle on 1000 random models",
        run,
        budget=30.0,
    )


# -- 3: token semantics --------------------------------------------------------

def test_criterion_3_token_semantics(scenarios):
    def run():
        cleaning = scenarios["hospital_cleaning"]
        events = run_script(
            cleaning,
            [("room1", "OccupiedRoom")],
            [
                ("CleanRoom", "room1"),
                ("CleanRoom", "room1"),
                ("DischargeHospital", "room1"),
                ("CleanRoom", "room1"),
            ],
        )
        assert [e.outcome for e in events] == [
            Outcome.FIRED,
            Outcome.FIRED,
            Outcome.FIRED,
            Outcome.NOT_ENABLED,
        ]
        hotel = scenarios["hotel_agency"]
        for first, second in (("Cancel", "CheckIn"), ("CheckIn", "Cancel")):
            events = run_script(
                hotel, [("b1", "Booking")], [(first, "b1"), (second, "b1")]
            )
            assert [e.outcome for e in events] == [Outcome.FIRED, Outcome.NOT_ENABLED]

    _report(3, "scripted traces reproduce both worked token scenarios", run)


# -- 4: oracle equivalence ------------------------------------------------------

MAX_OBJECTS = 2
MAX_STEPS = 8
SCRIPT_BUDGET = 8000  # enumerated scripts per fixture


def _alphabet(model: Model, seed: list) -> list:
    ids = sorted({oid for oid, _ in seed} | {f"obj{k}" for k in range(1, MAX_OBJECTS + 1)})
    actions = []
    for p in model.processes:
        if p.is_generator:
            actions.append((p.name, NEW_OBJECT))
        else:
            actions.extend((p.name, oid) for oid in ids)
    return sorted(actions)


def _decoded(graph, state: int) -> tuple:
    """A graph state as (token set, count of minted objects)."""
    return graph.tokens(state), graph.states[state][1]


def _graph_path_exists(graph, script) -> bool:
    state = graph.initial
    for process, oid in script:
        tokens, minted = _decoded(graph, state)
        if oid == NEW_OBJECT:
            oid = _mint_id(frozenset(t.object_id for t in tokens), minted)
        state = dict(graph.edges.get(state, ())).get((process, oid))
        if state is None:
            return False
    return True


def _assert_edges_match_fire(model: Model, graph) -> None:
    """Every expanded state agrees with ``brute_fire``, the firing rule on
    token sets, and lists its successors by process name, then by object id.

    Per-transition agreement at every reachable state extends the script
    equivalence to all scripts within the exploration bounds by induction.
    Distinct state ids must decode to distinct token configurations.
    """
    decoded = [_decoded(graph, s) for s in range(graph.state_count)]
    assert len(set(decoded)) == len(decoded)
    for sid, succs in graph.edges.items():
        tokens, minted = decoded[sid]
        state = SimState(tokens)
        expected = {}
        for p in model.processes:
            if p.is_generator:
                if len(state.object_ids) < MAX_OBJECTS:
                    oid = _mint_id(state.object_ids, minted)
                    expected[(p.name, oid)] = (
                        brute_fire(model, state, p.name, oid).tokens,
                        minted + 1,
                    )
            else:
                for oid in sorted(state.object_ids):
                    if set(p.inputs) <= state.classes_of(oid):
                        expected[(p.name, oid)] = (
                            brute_fire(model, state, p.name, oid).tokens,
                            minted,
                        )
        assert [(action, decoded[target]) for action, target in succs] == list(expected.items())


def test_criterion_4_oracle_equivalence(scenarios):
    def run():
        for name in FIXTURES:
            model = scenarios[name]
            seed = A4_SEEDS[name]
            graph = build_graph(model, seed, max_steps=MAX_STEPS, max_objects=MAX_OBJECTS)
            _assert_edges_match_fire(model, graph)

            alphabet = _alphabet(model, seed)
            depth, total = 0, 0
            while depth < MAX_STEPS and total + len(alphabet) ** (depth + 1) <= SCRIPT_BUDGET:
                depth += 1
                total += len(alphabet) ** depth
            new_budget = MAX_OBJECTS - len(seed)
            for length in range(1, depth + 1):
                for script in itertools.product(alphabet, repeat=length):
                    mints = sum(1 for _, oid in script if oid == NEW_OBJECT)
                    if mints > new_budget:
                        continue  # outside the two-object bound
                    events = run_script(model, seed, list(script))
                    all_fired = len(events) == length and all(
                        e.outcome is Outcome.FIRED for e in events
                    )
                    assert all_fired == _graph_path_exists(graph, script), (
                        name,
                        script,
                    )

    _report(
        4,
        "exploration graph and scripted runs agree (per-state induction plus "
        "exhaustive short-script enumeration) on every scenario",
        run,
        budget=60.0,
    )


# -- 5: directional asymmetry ----------------------------------------------------

def test_criterion_5_directional_asymmetry(scenarios):
    def run():
        summary = explore(
            scenarios["hospital_cleaning"],
            [("room1", "OccupiedRoom")],
            max_steps=8,
            max_objects=1,
            queries=[
                {"type": "sequence", "first": "DischargeHospital", "then": "CleanRoom"},
                {"type": "sequence", "first": "CleanRoom", "then": "DischargeHospital"},
            ],
        )
        assert summary.complete
        discharge_then_clean, clean_then_discharge = summary.queries
        assert not discharge_then_clean.reachable
        assert clean_then_discharge.reachable
        assert clean_then_discharge.witness is not None

    _report(
        5,
        "cleaning after discharge is proven unreachable; the reverse order "
        "has a witness",
        run,
    )


# -- 6: round-trips and rendering --------------------------------------------------

def test_criterion_6_round_trips(scenarios):
    def run():
        for name in (*FIXTURES, *BAD_FIXTURES):
            model = parse_text(fixture_text(name)).model
            text = emit_text(model)
            assert parse_text(text).model == model
            assert emit_text(parse_text(text).model) == text
            blob = emit_json(model)
            assert parse_json(blob).model == model
            assert emit_json(parse_json(blob).model) == blob
        rng = random.Random(60623)
        for _ in range(1000):
            m = random_model(rng)
            assert parse_text(emit_text(m)).model == m
            assert parse_json(emit_json(m)).model == m
        for name in FIXTURES:
            m = scenarios[name]
            dot, mermaid = to_dot(m), to_mermaid(m)
            assert dot == to_dot(m) and mermaid == to_mermaid(m)
            check_dot_syntax(dot)
            check_dot_syntax(to_dot(m, show_privileges=True))
            check_mermaid_syntax(mermaid)
            if shutil.which("dot"):
                subprocess.run(
                    ["dot", "-Tsvg", "-o", "/dev/null"], input=dot.encode(), check=True
                )

    _report(
        6,
        "text and JSON forms round-trip on fixtures and 1000 random models; "
        "diagram output is deterministic and well-formed",
        run,
    )


# -- 7: property suites ---------------------------------------------------------

def test_criterion_7_property_suites():
    def run():
        rng = random.Random(777)
        for check in core.ALL_CHECKS:
            for _ in range(500):
                check(rng.randrange(2**48))

    _report(
        7,
        "five semantic properties hold over 500 generated cases each",
        run,
    )
