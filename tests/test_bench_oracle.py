"""The benchmark's own oracle (``csmbench/oracle.py``), run in the test suite.

The oracle shares no code with ``csm``: it reads both model forms with
readers of its own, checks diagrams statement by statement and answers
reachability from per-object lifecycles without any bound. A change that
would turn the benchmark's ``correct`` flag false fails here first.
"""

import random

from csm.dsl import emit_json, emit_text
from csm.render import to_dot, to_mermaid
from csm.simulator import explore
from helpers import load_bench, model_doc, random_valid_model, summary_doc

oracle = load_bench("oracle")


def test_readers_and_diagram_checkers_agree_with_csm():
    rng = random.Random(1018)
    for _ in range(300):
        m = random_valid_model(rng)
        doc = oracle.canonical(model_doc(m))
        assert oracle.read_text(emit_text(m)) == doc
        assert oracle.read_json(emit_json(m).decode("utf-8")) == doc
        assert oracle.check_dot(to_dot(m), doc) is None
        assert oracle.check_mermaid(to_mermaid(m), doc) is None


def _queries(rng: random.Random, m) -> list[dict]:
    """Random queries over declared names and one undeclared name."""
    classes = [*m.class_names, "Ghost"]
    processes = [*m.process_names, "Ghost"]
    return [
        {"type": "co_occurrence", "classes": rng.choices(classes, k=2)}
        if rng.random() < 0.5
        else {"type": "sequence", "first": rng.choice(processes), "then": rng.choice(processes)}
        for _ in range(rng.randint(1, 6))
    ]


def test_explore_verdicts_and_witnesses_agree_with_lifecycles():
    # At 12 steps with one object to spare, these models never meet a bound
    # on the way to a witness, so each verdict is the unbounded one.
    rng = random.Random(1019)
    reachable = unreachable = 0
    for _ in range(300):
        m = random_valid_model(rng)
        lifecycles = oracle.Lifecycles(oracle.canonical(model_doc(m)))
        seed = sorted({
            (rng.choice(("a", "b", "obj1")), rng.choice(m.class_names))
            for _ in range(rng.randint(0, 3))
        })
        seeded: dict[str, frozenset] = {}
        for oid, c in seed:
            seeded[oid] = seeded.get(oid, frozenset()) | {c}
        queries = _queries(rng, m)
        summary = summary_doc(explore(m, seed, 12, len(seeded) + 1, queries))
        for q, res in zip(queries, summary["queries"], strict=True):
            assert res["reachable"] == lifecycles.verdict(list(seeded.values()), q), (m, seed, q)
            if res["reachable"]:
                # A query that holds in the seed state has no steps, written as null.
                witness = res["witness"] or []
                assert lifecycles.witness_holds(seed, q, witness) is None, (m, seed, q)
                reachable += 1
            else:
                unreachable += 1
    assert reachable > 100 and unreachable > 100
