"""Seeded property checks, shared by the property and acceptance suites.

Each function derives its inputs from an integer seed so the same checks
can run under hypothesis (which supplies and shrinks seeds) and in plain
fixed-count loops for the acceptance gate.
"""

from __future__ import annotations

import json
import random

from csm.classifier import CollaborationReport, classify_all
from csm.dsl import emit_json
from csm.model import ClassDef, Model, ProcessDef, Transform, canonicalize
from csm.simulator import explore, run_script
from csm.validator import InvalidModel, validate

from helpers import (
    Token,
    apply_suggestion,
    diagnostic_doc,
    event_doc,
    model_doc,
    random_model,
    random_valid_model,
    report_doc,
    step_enabled,
    step_tokens,
    summary_doc,
    toggle_waiting,
)


def check_canonicalize_idempotent(seed: int) -> None:
    rng = random.Random(seed)
    m = random_model(rng)
    shuffled = Model(
        m.name,
        tuple(reversed(m.roles)),
        tuple(reversed(m.classes)),
        tuple(reversed(m.processes)),
        dict(m.class_grants),
    )
    once = canonicalize(shuffled)
    assert once == m
    assert canonicalize(once) == once


def check_enabled_monotone(seed: int) -> None:
    """Adding tokens can only enable more processes, never fewer."""
    rng = random.Random(seed)
    m = random_model(rng)
    objects = ("a", "b")
    base = frozenset(
        Token(rng.choice(objects), rng.choice(m.class_names))
        for _ in range(rng.randint(0, 6))
    )
    extra = base | frozenset(
        Token(rng.choice(objects), rng.choice(m.class_names))
        for _ in range(rng.randint(1, 4))
    )
    for o in objects:
        assert step_enabled(m, base, o) <= step_enabled(m, extra, o)


def check_leaving_removes_exactly_one(seed: int) -> None:
    """Firing a single leaving transform consumes exactly its source token."""
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(rng.randint(2, 6))]
    classes = tuple(ClassDef(n, dynamic=True) for n in names)
    src = rng.choice(names)
    others = [n for n in names if n != src]
    tgt = rng.choice(others)
    pure_reads = [c for c in others if c != tgt and rng.random() < 0.4]
    outputs = sorted({tgt, *(c for c in others if rng.random() < 0.4)})
    proc = ProcessDef(
        "P",
        inputs=(src, *pure_reads),
        outputs=tuple(outputs),
        transforms=(Transform(src, tgt, "leaving"),),
        responsibles=("R",),
    )
    m = canonicalize(Model("m", ("R",), classes, (proc,)))
    tokens = {Token("o", c) for c in proc.inputs}
    tokens |= {
        Token(rng.choice(("o", "x")), rng.choice(names))
        for _ in range(rng.randint(0, 4))
    }
    before = frozenset(tokens)
    after = step_tokens(m, before, "P", "o")
    assert before - after == {Token("o", src)}
    assert after - before <= {Token("o", c) for c in outputs}


def check_waiting_toggle_swaps_levels(seed: int) -> None:
    """Toggling a waiting point swaps loose and very loose on that class only."""
    rng = random.Random(seed)
    m = random_valid_model(rng)
    target = rng.choice(m.class_names)

    def level_map(model):
        return {
            (f.producer, f.consumer, f.artifact, f.artifact_kind): f.level
            for f in classify_all(model).findings
        }

    base = level_map(m)
    toggled = level_map(toggle_waiting(m, target))
    assert base.keys() == toggled.keys()
    swap = {"loose": "very loose", "very loose": "loose"}
    for key, level in base.items():
        _, _, artifact, kind = key
        if kind == "class" and artifact == target:
            assert toggled[key] == swap[level]
        else:
            assert toggled[key] == level


def check_c2_repair_monotone(seed: int) -> None:
    """Applying a creation-implies-reference repair never adds errors."""
    rng = random.Random(seed)
    m = random_model(rng)

    def error_set(model):
        return {
            (d.code, d.site)
            for d in validate(model)
            if d.severity == "error"
        }

    before = error_set(m)
    for diag in validate(m):
        if diag.code != "E-C2":
            continue
        fixed = apply_suggestion(m, diag.suggestion)
        after = error_set(fixed)
        assert (diag.code, diag.site) not in after
        assert after <= before - {(diag.code, diag.site)}


def reference_report_json(report) -> str:
    """The report text that ``CollaborationReport.to_json`` must equal."""
    return json.dumps(report_doc(report), indent=2, sort_keys=True)


def reference_emit_json(model: Model) -> bytes:
    """The model bytes that ``emit_json`` must equal."""
    return (json.dumps(model_doc(model), indent=2, sort_keys=True) + "\n").encode("utf-8")


def reference_diagnostic_json(diag) -> str:
    """The line that ``Diagnostic.to_json`` must equal."""
    return json.dumps(diagnostic_doc(diag), sort_keys=True)


def reference_event_json(event) -> str:
    """The line that ``TraceEvent.to_json`` must equal."""
    return json.dumps(event_doc(event), sort_keys=True)


def reference_summary_json(summary) -> str:
    """The text that ``ReachabilitySummary.to_json`` must equal."""
    return json.dumps(summary_doc(summary), indent=2, sort_keys=True)


def check_diagnostic_json(seed: int) -> None:
    """The direct diagnostic writer equals the key-sorted dump on every
    diagnostic of a random model and of a random valid one."""
    rng = random.Random(seed)
    for m in (random_valid_model(rng), random_model(rng)):
        for d in validate(m):
            assert d.to_json() == reference_diagnostic_json(d)


def check_report_json(seed: int) -> None:
    """The direct report writer equals the indented, key-sorted dump; also on
    a report built with its findings in reverse."""
    rng = random.Random(seed)
    for m in (random_valid_model(rng), random_model(rng)):
        try:
            report = classify_all(m)
        except InvalidModel:
            continue
        for r in (report, CollaborationReport(report.findings[::-1])):
            assert r.to_json() == reference_report_json(r)


def check_emit_json(seed: int) -> None:
    """The direct model writer equals the indented, key-sorted dump; also on
    a class built with a truthy ``dynamic`` that is not ``True``."""
    rng = random.Random(seed)
    truthy = Model("m", ("R",), (ClassDef("C", dynamic=1),), ())
    for m in (random_valid_model(rng), random_model(rng), truthy):
        assert emit_json(m) == reference_emit_json(m)


# Object ids that need escaping, or sort around the minted obj1, obj2, ...
_OBJECT_IDS = ("a", "obj1", "obj2", 'q"x', "back\\slash", "tab\there", "caf\u00e9", "\ud800")


def check_simulator_json(seed: int) -> None:
    """The direct trace and summary writers equal the key-sorted dumps on a
    scripted run and an exploration of a random valid model and a random
    one, with object ids that need escaping."""
    rng = random.Random(seed)
    for m in (random_valid_model(rng), random_model(rng)):
        ids = rng.sample(_OBJECT_IDS, rng.randint(0, 3))
        seed_objects = [(oid, rng.choice(m.class_names)) for oid in ids]
        script = [
            (rng.choice(m.process_names), rng.choice([*_OBJECT_IDS, "new"]))
            for _ in range(rng.randint(0, 8) if m.process_names else 0)
        ]
        for event in run_script(m, seed_objects, script):
            assert event.to_json() == reference_event_json(event)
        queries = [
            {"type": "co_occurrence", "classes": rng.choices(m.class_names, k=2)}
            if rng.random() < 0.5 or not m.process_names else
            {"type": "sequence", "first": rng.choice(m.process_names),
             "then": rng.choice(m.process_names)}
            for _ in range(rng.randint(0, 4))
        ]
        summary = explore(m, seed_objects, rng.randint(1, 5), rng.randint(1, 3), queries)
        assert summary.to_json() == reference_summary_json(summary)


ALL_CHECKS = (
    check_canonicalize_idempotent,
    check_enabled_monotone,
    check_leaving_removes_exactly_one,
    check_waiting_toggle_swaps_levels,
    check_c2_repair_monotone,
)
