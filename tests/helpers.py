"""Shared test utilities: generators, oracles, and mini syntax checkers.

``brute_validate`` is an intentionally naive re-implementation of the rule
catalog by direct set arithmetic over all (role, process, class) triples;
it shares no code with ``csm.validator`` and serves as its oracle.
``brute_classify`` is the classifier's all-pairs loop: every ordered role
pair against every process and class, with no use of the model's index.
``brute_fire`` is the firing rule on token sets, a ``frozenset`` of this
module's ``Token``s, written without the class masks the simulator
compiles (``None`` when the process cannot fire): ``brute_init_state`` and
``brute_run_script`` build on it to give the seed tokens and what
``run_script`` should, and ``brute_graph`` is the global state graph on
token sets: each state is a token set with its count of minted objects,
and every successor comes from ``brute_fire``.
``step_tokens`` and ``step_enabled`` apply the simulator's own rule
(``_step`` on ``_compile``d masks) to a token set, so that the checks can
compare the two rules state by state. ``brute_explore`` is the explorer on
it: each sequence query runs a product search over the global states per
candidate object, within max_steps firings, and keeps the shortest witness.
``brute_to_dot`` and ``brute_to_mermaid`` draw the swim lanes by visiting
every process once per role, the rule the renderer's one pass must keep.
``random_token_soup`` makes text-parser inputs, from valid to garbage;
``random_model_text`` makes well-formed ones, laid out unlike the emitter's.
``reference_tokens`` is the text lexer as a character loop, with no regex.
``argparse_reference`` is the CLI's command line as an ``argparse`` parser,
the reference that ``csm.cli``'s command table and argv reader answer to;
``ERROR_KINDS`` and ``EXPLICIT_DOUBLE_DASH`` are fixed argument lists for it.
``diagnostic_doc``, ``report_doc``, ``event_doc``, ``summary_doc`` and
``model_doc`` are the JSON documents that csm's writers print, built from
the records' fields with none of the writers' code.
``PRIVILEGES``, ``STATUS_POINTS`` and ``TRANSFORM_MODES`` are the words of
each set, written out for the generators and oracles.
``load_bench`` loads a module of the benchmark by path.
``json_outcome`` is what a JSON decoder makes of a text, so that
``csm.diagnostics._loads`` can be compared with ``json.loads``.
``BAD_QUERIES`` are malformed query documents on ``hospital_cleaning``.
``PLANTED`` is a small well-formed model; ``PLANTED_JSON`` plants one
mistake per row in its JSON form (``planted_json``), and ``MIXED_JSON``
puts ill-typed entries between the well-typed ones of ``WELL_TYPED_JSON``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import re
import string
import sys
from collections import Counter, namedtuple
from itertools import zip_longest
from pathlib import Path

from csm import cli
from csm.classifier import CollaborationReport, LevelFinding
from csm.diagnostics import Diagnostic
from csm.dsl import emit_json, emit_text, parse_text
from csm.simulator import (
    NEW_OBJECT,
    DuplicateToken,
    ReachabilitySummary,
    TraceEvent,
    _class_bits,
    _compile,
    _decode,
    _encode,
    _mint_id,
    _step,
)
from csm.model import (
    ClassDef,
    Model,
    ModelError,
    ProcessDef,
    Transform,
    UnknownClass,
    UnknownProcess,
    canonicalize,
)
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text

# The words of each set in the order both forms list them, written out here
# so that the generators and oracles share no code with ``csm.model``.
PRIVILEGES = (
    "creation",
    "modification",
    "reference",
    "suppression",
    "modification+",
    "reference+",
    "suppression+",
)
STATUS_POINTS = ("waiting", "fail", "decision")
TRANSFORM_MODES = ("remaining", "leaving")
_PLUS = frozenset({"modification+", "reference+", "suppression+"})


def random_model(rng: random.Random, name: str = "random") -> Model:
    """A structurally resolvable model; rule violations are intentional."""
    roles = [f"R{i}" for i in range(rng.randint(1, 6))]
    classes = []
    for i in range(rng.randint(1, 8)):
        points = frozenset(pt for pt in STATUS_POINTS if rng.random() < 0.2)
        classes.append(
            ClassDef(f"C{i}", dynamic=rng.random() < 0.7, status_points=points)
        )
    cnames = [c.name for c in classes]
    processes = []
    for i in range(rng.randint(0, 6)):
        inputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        outputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        transforms = []
        for s in inputs:
            for t in outputs:
                if s != t and rng.random() < 0.5:
                    transforms.append(
                        Transform(s, t, rng.choice(TRANSFORM_MODES))
                    )
        owners, responsibles = [], []
        for r in roles:
            x = rng.random()
            if x < 0.25:
                owners.append(r)
            elif x < 0.45:
                responsibles.append(r)
        processes.append(
            ProcessDef(f"P{i}", inputs, outputs, transforms, owners, responsibles)
        )
    grants = {}
    for r in roles:
        for c in cnames:
            if rng.random() < 0.35:
                privs = frozenset(p for p in PRIVILEGES if rng.random() < 0.4)
                if privs:
                    grants[(r, c)] = privs
    return canonicalize(
        Model(name, tuple(roles), tuple(classes), tuple(processes), grants)
    )


def random_valid_model(rng: random.Random, name: str = "valid") -> Model:
    """A random model that satisfies every error rule by construction."""
    roles = [f"R{i}" for i in range(rng.randint(1, 5))]
    classes = []
    for i in range(rng.randint(1, 7)):
        points = frozenset(pt for pt in STATUS_POINTS if rng.random() < 0.25)
        classes.append(
            ClassDef(f"C{i}", dynamic=rng.random() < 0.8, status_points=points)
        )
    cnames = [c.name for c in classes]
    dynamic = {c.name for c in classes if c.dynamic}
    grants: dict[tuple[str, str], set[str]] = {}

    def grant(role, cname, *privs):
        grants.setdefault((role, cname), set()).update(privs)

    processes = []
    for i in range(rng.randint(0, 5)):
        inputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        outputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        transforms = [
            Transform(s, t, rng.choice(TRANSFORM_MODES))
            for s in inputs
            for t in outputs
            if s != t and s in dynamic and t in dynamic and rng.random() < 0.5
        ]
        # Per privileged role, whether it owns the process (else it is
        # responsible for it).
        owns = {rng.choice(roles): rng.choice((True, False))}
        for r in roles:
            if r not in owns and rng.random() < 0.25:
                owns[r] = rng.choice((True, False))
        for r, is_owner in owns.items():
            for c in inputs:
                grant(r, c, "reference")
            for c in outputs:
                grant(r, c, "creation", "reference")
            if is_owner:
                for c in {*inputs, *outputs}:
                    grant(r, c, "reference+")
        processes.append(
            ProcessDef(
                f"P{i}", inputs, outputs, transforms,
                [r for r, is_owner in owns.items() if is_owner],
                [r for r, is_owner in owns.items() if not is_owner],
            )
        )
    for r in roles:
        for c in cnames:
            if rng.random() < 0.25:
                extra = {p for p in PRIVILEGES if rng.random() < 0.35}
                if "creation" in extra:
                    extra.add("reference")
                grant(r, c, *extra)
    return canonicalize(
        Model(
            name,
            tuple(roles),
            tuple(classes),
            tuple(processes),
            {k: frozenset(v) for k, v in grants.items()},
        )
    )


def reversed_members(m: Model) -> Model:
    """A copy of ``m`` built in Python, every member listed in reverse."""
    processes = tuple(
        ProcessDef(p.name, p.inputs[::-1], p.outputs[::-1], p.transforms[::-1],
                   p.owners[::-1], p.responsibles[::-1])
        for p in reversed(m.processes)
    )
    grants = dict(reversed(m.class_grants.items()))
    return Model(m.name, m.roles[::-1], m.classes[::-1], processes, grants)


def brute_validate(model: Model) -> list[tuple[str, str]]:
    """(code, site) pairs by direct enumeration; independent of the validator."""
    found: list[tuple[str, str]] = []
    grants = dict(model.class_grants)

    def g(role, cname):
        return grants.get((role, cname), frozenset())

    for p in model.processes:
        for t in p.transforms:
            for c in model.classes:
                if c.name in (t.source, t.target) and not c.dynamic:
                    found.append(
                        ("E-C1", f"process={p.name} transform={t.source}->{t.target} class={c.name}")
                    )

    for r in model.roles:
        for c in model.classes:
            privs = g(r, c.name)
            if "creation" in privs and "reference" not in privs:
                found.append(("E-C2", f"role={r} class={c.name}"))

    for r in model.roles:
        for p in model.processes:
            if r not in p.owners and r not in p.responsibles:
                continue
            for c in model.classes:
                if c.name in p.inputs and "reference" not in g(r, c.name):
                    found.append(("E-C3", f"role={r} process={p.name} class={c.name}"))
                if c.name in p.outputs and "creation" not in g(r, c.name):
                    found.append(("E-C4", f"role={r} process={p.name} class={c.name}"))
                if (
                    r in p.owners
                    and c.name in set(p.inputs) | set(p.outputs)
                    and "reference+" not in g(r, c.name)
                ):
                    found.append(("E-C5", f"role={r} process={p.name} class={c.name}"))

    for p in model.processes:
        if not p.owners and not p.responsibles:
            found.append(("E-ORPHAN-P", f"process={p.name}"))

    def consumer_count(cname):
        return sum(1 for p in model.processes if cname in p.inputs)

    def is_shared(cname):
        for r1 in model.roles:
            for r2 in model.roles:
                if r1 == r2:
                    continue
                if "creation" in g(r1, cname) and g(r2, cname) & _PLUS:
                    return True
        return False

    for c in model.classes:
        n = consumer_count(c.name)
        if "decision" in c.status_points and n < 2:
            found.append(("W-DP", f"class={c.name}"))
        if "decision" not in c.status_points and n >= 2:
            found.append(("W-DP-MISS", f"class={c.name}"))
        if "fail" in c.status_points and n < 2:
            found.append(("W-FP", f"class={c.name}"))
        if "waiting" in c.status_points and not is_shared(c.name):
            found.append(("W-WP", f"class={c.name}"))

    return sorted(found)


_CONSUMER_FORBIDDEN = frozenset(
    {
        "creation",
        "modification",
        "suppression",
        "modification+",
        "suppression+",
    }
)
_WRITE_PLUS = frozenset({"modification+", "suppression+"})


def brute_classify_pair(model: Model, r1: str, r2: str) -> list[LevelFinding]:
    """Findings for the ordered pair by scanning every process and class."""

    def g(role, cname):
        return model.class_grants.get((role, cname), frozenset())

    findings: list[LevelFinding] = []
    for p in sorted(model.processes, key=lambda p: p.name):
        if r1 in p.owners and r2 in p.responsibles:
            hits = [
                c
                for c in sorted(p.outputs)
                if "modification+" in g(r1, c) and "reference+" in g(r2, c)
            ]
            if hits:
                findings.append(
                    LevelFinding(
                        r1,
                        r2,
                        p.name,
                        "very tight",
                        (
                            f"owner({r1},{p.name})",
                            f"responsibility({r2},{p.name})",
                            *(f"modification+({r1},{c}) & reference+({r2},{c})" for c in hits),
                        ),
                    )
                )
                continue
        if r1 in p.owners and r2 in p.owners:
            shared = [c for c in sorted(p.outputs) if g(r1, c) and g(r2, c)]
            if shared and all(
                "reference+" in g(r, c) and not (g(r, c) & _WRITE_PLUS)
                for c in shared
                for r in (r1, r2)
            ):
                lo, hi = sorted((r1, r2))
                findings.append(
                    LevelFinding(
                        lo,
                        hi,
                        p.name,
                        "tight",
                        (
                            f"owner({lo},{p.name})",
                            f"owner({hi},{p.name})",
                            *(f"read-only sharing of {c} (reference+ both ways)" for c in shared),
                        ),
                    )
                )

    for c in sorted(model.classes, key=lambda c: c.name):
        g1 = g(r1, c.name)
        g2 = g(r2, c.name)
        co_privileged = any(
            c.name in p.outputs
            and {r1, r2} <= {*p.owners, *p.responsibles}
            for p in model.processes
        )
        if (
            "creation" in g1
            and "reference+" in g2
            and not (g2 & _CONSUMER_FORBIDDEN)
            and not co_privileged
        ):
            waiting = "waiting" in c.status_points
            findings.append(
                LevelFinding(
                    r1,
                    r2,
                    c.name,
                    "loose" if waiting else "very loose",
                    (
                        f"creation({r1},{c.name})",
                        f"reference+({r2},{c.name})",
                        "waiting point" if waiting else "no waiting point",
                    ),
                )
            )
    return findings


def brute_classify(model: Model) -> CollaborationReport:
    """The report ``classify_all`` should give, pair by pair in sorted order."""
    findings: list[LevelFinding] = []
    for r1 in sorted(model.roles):
        for r2 in sorted(model.roles):
            if r1 != r2:
                for f in brute_classify_pair(model, r1, r2):
                    if f not in findings:
                        findings.append(f)
    return CollaborationReport(tuple(findings))


def load_bench(name: str):
    """The benchmark module ``csmbench/<name>.py``, loaded by path: the
    benchmark is a directory of scripts, not a package. The module is in
    ``sys.modules`` while it runs, as ``dataclasses`` needs."""
    path = Path(__file__).parents[1] / "csmbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"csmbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def json_outcome(loads, text: str) -> tuple:
    """What ``loads`` makes of ``text``: ``("value", repr(value))``, or the
    type and message of the error it raises. ``repr`` tells ``1`` from
    ``1.0`` and ``True``, keeps key order, and shows NaN, which equals
    nothing, as ``nan``."""
    try:
        return "value", repr(loads(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


# Seeds under which each fixture is explored in the oracle checks.
A4_SEEDS = {
    "airline_alliance": [("f1", "FlightRecord")],
    "gp_hospital": [],
    "gp_lab": [],
    "healthcare": [],
    "hospital_cleaning": [("room1", "OccupiedRoom")],
    "hotel_agency": [],
}


# The reference's own state: a frozenset of tokens, at most one per
# (object, class).
Token = namedtuple("Token", "object_id class_name")


# One fault each: a missing, non-string, undeclared or extra operand, a
# "classes" that is not an array of two names, an unknown type and an entry
# that is not an object. The API answers the two that name Ghost as unreachable.
BAD_QUERIES = [
    {"type": "sequence", "first": "CleanRoom"},
    {"type": "sequence", "first": "CleanRoom", "then": 5},
    {"type": "sequence", "first": "CleanRoom", "then": "Ghost"},
    {"type": "sequence", "first": "CleanRoom", "then": "CleanRoom", "note": ""},
    {"type": "co_occurrence", "classes": ["OccupiedRoom"]},
    {"type": "co_occurrence", "classes": "OccupiedRoom"},
    {"type": "co_occurrence", "classes": ["OccupiedRoom", 1]},
    {"type": "co_occurrence", "classes": ["OccupiedRoom", "Ghost"]},
    {"type": "deadlock"},
    ["sequence", "CleanRoom", "CleanRoom"],
    {"type": "co_occurrence", "classes": ["OccupiedRoom", "OccupiedRoom", "OccupiedRoom"]},
]


def object_ids(tokens: frozenset) -> frozenset[str]:
    return frozenset(t.object_id for t in tokens)


def classes_of(tokens: frozenset, object_id: str) -> frozenset[str]:
    return frozenset(t.class_name for t in tokens if t.object_id == object_id)


def brute_init_state(model: Model, seed) -> frozenset:
    """The seed tokens; the object "new", an undeclared class or a repeated
    entry raises, with the pointer of its entry's value at fault."""
    tokens: set[Token] = set()
    for i, (object_id, class_name) in enumerate(seed):
        if object_id == NEW_OBJECT:
            raise ModelError(f"at /{i}/object uses the reserved object id {object_id!r}")
        if class_name not in model.class_names:
            raise UnknownClass(f"at /{i}/class names no declared class: {class_name!r}")
        token = Token(object_id, class_name)
        if token in tokens:
            raise DuplicateToken(f"at /{i}/object repeats {object_id!r} in {class_name!r}")
        tokens.add(token)
    return frozenset(tokens)


def brute_fire(
    model: Model, tokens: frozenset, process: str, object_id: str
) -> frozenset | None:
    """The successor tokens: a generator needs a fresh object, any other
    process every input token; leaving sources go, outputs come. ``None``
    when the process cannot fire."""
    p = model.process_def(process)
    after = set(tokens)
    if p.is_generator:
        if object_id in object_ids(tokens):
            return None
    elif not set(p.inputs) <= classes_of(tokens, object_id):
        return None
    else:
        leaving = {t.source for t in p.transforms if t.mode == "leaving"}
        after -= {Token(object_id, c) for c in leaving}
    after |= {Token(object_id, c) for c in p.outputs}
    return frozenset(after)


def step_tokens(
    model: Model, tokens: frozenset, process: str, object_id: str
) -> frozenset | None:
    """The successor tokens by the simulator's own rule: ``simulator._step``
    on the object's class mask, with the process ``_compile``d as
    ``run_script`` compiles it; ``None`` when ``_step`` gives none. The
    oracle checks compare it with ``brute_fire``."""
    model = canonicalize(model)
    bits = _class_bits(model)
    proc = _compile(bits, model.process_def(process))
    after = _step(proc, _encode(bits, tokens).get(object_id, 0))
    if after is None:
        return None
    return frozenset(
        {t for t in tokens if t.object_id != object_id}
        | {Token(object_id, c) for c in _decode(bits, after)}
    )


def step_enabled(model: Model, tokens: frozenset, object_id: str) -> frozenset[str]:
    """The processes, generators aside, that ``step_tokens`` fires on the object."""
    return frozenset(
        p.name for p in model.processes
        if not p.is_generator and step_tokens(model, tokens, p.name, object_id) is not None
    )


def brute_run_script(model: Model, seed, script) -> list[TraceEvent]:
    """The events ``run_script`` should give, stepping with ``brute_fire``."""
    tokens = brute_init_state(model, seed)
    minted = 0
    events = []
    for step, (process, object_id) in enumerate(script, start=1):
        try:
            pdef = model.process_def(process)
        except UnknownProcess:
            events.append(TraceEvent(step, process, object_id, "aborted",
                                     f"unknown process {process!r}"))
            break
        was_new = object_id == NEW_OBJECT
        if was_new:
            if not pdef.is_generator:
                events.append(TraceEvent(step, process, object_id, "aborted",
                                         f"{process!r} is not a generator; 'new' needs one"))
                break
            object_id = _mint_id(object_ids(tokens), minted)
        nxt = brute_fire(model, tokens, process, object_id)
        if nxt is None and pdef.is_generator:
            events.append(TraceEvent(
                step, process, object_id, "aborted",
                f"generator {process!r} fired with existing object {object_id!r}"))
            break
        if nxt is None:
            missing = sorted(set(pdef.inputs) - classes_of(tokens, object_id))
            blocked = any(
                "waiting" in model.class_def(c).status_points for c in missing
            )
            outcome = "blocked-waiting" if blocked else "not-enabled"
            events.append(TraceEvent(step, process, object_id, outcome,
                                     f"missing input tokens: {', '.join(missing)}"))
            continue
        if was_new:
            minted += 1
        noop = sorted(c for c in pdef.outputs if Token(object_id, c) in tokens)
        detail = f"object {object_id}"
        if noop:
            detail += f"; already present in {', '.join(noop)}"
        events.append(TraceEvent(step, process, object_id, "fired", detail))
        tokens = nxt
    return events


def _brute_successors(model: Model, key, max_objects: int):
    """Successor (action, key) pairs, by process name then object id, and
    whether the object bound skipped a generator."""
    tokens, minted = key
    oids = sorted(object_ids(tokens))
    out = []
    pruned = False
    for name in sorted(set(model.process_names)):
        p = model.process_def(name)
        if p.is_generator:
            if len(oids) < max_objects:
                nid = _mint_id(oids, minted)
                out.append(((name, nid), (brute_fire(model, tokens, name, nid), minted + 1)))
            else:
                pruned = True
        else:
            need = set(p.inputs)
            for oid in oids:
                if need <= classes_of(tokens, oid):
                    out.append(((name, oid), (brute_fire(model, tokens, name, oid), minted)))
    return out, pruned


class BruteGraph(namedtuple("BruteGraph", "states edges pruned")):
    """The global state graph on token sets, from ``brute_graph``.

    A state is a ``(frozenset of Token, count of minted objects)`` pair.
    ``states`` maps each one, in discovery order, to the depth it was first
    reached at; ``edges`` maps each expanded state to its ``(action,
    successor)`` list in firing order; ``pruned`` says whether the object
    bound skipped a generator firing.
    """

    __slots__ = ()

    @property
    def initial(self):
        return next(iter(self.states))

    @property
    def frontier(self) -> list[int]:
        """The count of states first reached at each depth."""
        counts = Counter(self.states.values())
        return [counts[d] for d in range(len(counts))]

    def stop(self, max_steps: int) -> str:
        """Why the search ends, as ``ReachabilityGraph.stop`` names it."""
        if len(self.frontier) > max_steps:
            return "step_bound"  # states at depth max_steps stay unexpanded
        return "object_bound_pruned" if self.pruned else "closed"


def brute_graph(model: Model, seed, max_steps: int, max_objects: int) -> BruteGraph:
    """The states reachable in at most max_steps firings, breadth first,
    every successor from ``brute_fire``."""
    initial = (brute_init_state(model, seed), 0)
    states = {initial: 0}
    edges = {}
    frontier = [initial]
    pruned = False
    for depth in range(1, max_steps + 1):
        nxt_frontier = []
        for key in frontier:
            succs, skipped = _brute_successors(model, key, max_objects)
            pruned = pruned or skipped
            edges[key] = succs
            for _, nkey in succs:
                if nkey not in states:
                    states[nkey] = depth
                    nxt_frontier.append(nkey)
        frontier = nxt_frontier
        if not frontier:
            break
    return BruteGraph(states, edges, pruned)


def _brute_path(parents, key) -> list:
    path = []
    while parents[key] is not None:
        key, action = parents[key]
        path.append(list(action))
    return path[::-1]


def _brute_co_occurrence(parents, class_a: str, class_b: str) -> dict:
    predicate = f"co-occurrence({class_a}, {class_b})"
    for key in parents:
        per_object: dict[str, set[str]] = {}
        for t in key[0]:
            per_object.setdefault(t.object_id, set()).add(t.class_name)
        for classes in per_object.values():
            if class_a in classes and class_b in classes:
                return {"predicate": predicate, "reachable": True,
                        "witness": _brute_path(parents, key)}
    return {"predicate": predicate, "reachable": False, "witness": None}


def _holds_tokens(key, oid: str) -> bool:
    return any(t.object_id == oid for t in key[0])


def _brute_first_then(initial, edges, first: str, then: str, oid: str, max_steps: int):
    """The first witness of a breadth-first search over (state, fired-first-yet)
    within max_steps firings: ``first`` counts when the object holds tokens
    after it, ``then`` when it holds tokens before it."""
    start = (initial, False)
    parents = {start: None}
    queue = [start]
    for _ in range(max_steps):
        nxt_queue = []
        for node in queue:
            key, fired_first = node
            for action, nkey in edges.get(key, []):
                if fired_first and action == (then, oid) and _holds_tokens(key, oid):
                    return _brute_path(parents, node) + [list(action)]
                nnode = (nkey, fired_first or (
                    action == (first, oid) and _holds_tokens(nkey, oid)
                ))
                if nnode not in parents:
                    parents[nnode] = (node, action)
                    nxt_queue.append(nnode)
        queue = nxt_queue
    return None


def _brute_sequence(initial, edges, first: str, then: str, max_steps: int) -> dict:
    predicate = f"sequence({first} then {then})"
    candidates = sorted({action[1] for succs in edges.values() for action, _ in succs})
    found = []
    for oid in candidates:
        witness = _brute_first_then(initial, edges, first, then, oid, max_steps)
        if witness is not None:
            found.append((len(witness), witness))
    if not found:
        return {"predicate": predicate, "reachable": False, "witness": None}
    return {"predicate": predicate, "reachable": True, "witness": min(found)[1]}


def brute_explore(model: Model, seed, max_steps: int, max_objects: int, queries=()) -> dict:
    """The document ``summary_doc(explore(...))`` should give, from ``brute_graph``.

    The search is complete only when it closes within max_steps and the
    object bound never skipped a generator firing.
    """
    graph = brute_graph(model, seed, max_steps, max_objects)
    # Each state's first discovery: the parent it was reached from, and how.
    parents = {graph.initial: None}
    for key, succs in graph.edges.items():
        for action, nkey in succs:
            parents.setdefault(nkey, (key, action))
    complete = graph.stop(max_steps) == "closed"
    results = []
    for q in queries:
        if q["type"] == "co_occurrence":
            results.append(_brute_co_occurrence(parents, *q["classes"]))
        else:
            results.append(
                _brute_sequence(graph.initial, graph.edges, q["first"], q["then"], max_steps)
            )
    return {"state_count": len(graph.states), "complete": complete,
            "bound_exceeded": not complete, "queries": results}


_ADD_RE = re.compile(r"^add (.+) to grant (\S+) on (\S+)$")
_DYNAMIC_RE = re.compile(r"^declare class (\S+) dynamic$")


def apply_suggestion(model: Model, suggestion: str) -> Model:
    """Apply a validator repair suggestion, returning the fixed model."""
    m = _ADD_RE.match(suggestion)
    if m:
        privs_text, role, cname = m.groups()
        extra = frozenset(p.strip() for p in privs_text.split(" and "))
        grants = dict(model.class_grants)
        grants[(role, cname)] = grants.get((role, cname), frozenset()) | extra
        return canonicalize(
            Model(model.name, model.roles, model.classes, model.processes, grants)
        )
    m = _DYNAMIC_RE.match(suggestion)
    if m:
        cname = m.group(1)
        classes = tuple(
            ClassDef(c.name, True, c.status_points) if c.name == cname else c
            for c in model.classes
        )
        return canonicalize(
            Model(model.name, model.roles, classes, model.processes, model.class_grants)
        )
    raise ValueError(f"unrecognized suggestion: {suggestion!r}")


def toggle_waiting(model: Model, cname: str) -> Model:
    classes = []
    for c in model.classes:
        if c.name == cname:
            points = set(c.status_points) ^ {"waiting"}
            classes.append(ClassDef(c.name, c.dynamic, frozenset(points)))
        else:
            classes.append(c)
    return canonicalize(
        Model(model.name, model.roles, tuple(classes), model.processes, model.class_grants)
    )


# -- JSON documents -----------------------------------------------------------
# What each JSON output of csm holds, as a dict built from the record's fields
# or the canonical model's members; ``json.dumps`` of it, key-sorted, is the
# text that the record's writer must equal byte for byte. A value that a
# record derives from another field (a diagnostic's severity, a finding's
# artifact kind, a query's verdict) is worked out here from that field, not
# read from the record.

# The artifact that each level is judged on.
_LEVEL_ARTIFACT = {
    "very tight": "process", "tight": "process", "loose": "class", "very loose": "class"
}


def diagnostic_doc(d: Diagnostic) -> dict:
    """A line of ``csm validate``."""
    doc = {
        "code": d.code,
        "severity": "error" if d.code[:2] == "E-" else "warning",
        "site": d.site,
        "message": d.message,
        "suggestion": d.suggestion,
    }
    if d.span is not None:
        span = d.span
        doc["span"] = {
            "file": span.file, "line": span.line, "column": span.column, "length": span.length
        }
    return doc


def report_doc(report: CollaborationReport) -> dict:
    """What ``csm classify --json`` prints: every finding, and the levels of
    each ordered role pair."""
    pairs: dict[str, set[str]] = {}
    for f in report.findings:
        pairs.setdefault(f"{f.producer}->{f.consumer}", set()).add(f.level)
    return {
        "findings": [
            {
                "producer": f.producer,
                "consumer": f.consumer,
                "artifact": f.artifact,
                "artifact_kind": _LEVEL_ARTIFACT[f.level],
                "level": f.level,
                "evidence": list(f.evidence),
            }
            for f in report.findings
        ],
        "pair_summary": {pair: sorted(levels) for pair, levels in pairs.items()},
    }


def event_doc(event: TraceEvent) -> dict:
    """A line of ``csm simulate``."""
    return {
        "step": event.step,
        "process": event.process,
        "object": event.object_id,
        "outcome": event.outcome,
        "detail": event.detail,
    }


def summary_doc(summary: ReachabilitySummary) -> dict:
    """What ``csm explore`` prints for a ``ReachabilitySummary``, worked out
    from its fields: the states first reached at each depth, and the stop."""
    complete = summary.stop == "closed"
    return {
        "state_count": sum(summary.frontier),
        "complete": complete,
        "bound_exceeded": not complete,
        "queries": [
            {
                "predicate": q.predicate,
                "reachable": q.witness is not None,
                "witness": None if q.witness is None else [list(a) for a in q.witness],
            }
            for q in summary.queries
        ],
    }


def model_doc(model: Model) -> dict:
    """The model document of ``emit_json``, from the canonical form."""
    m = canonicalize(model)
    return {
        "name": m.name,
        "roles": list(m.roles),
        "classes": [
            {
                "name": c.name,
                "dynamic": c.dynamic,
                "status_points": [s for s in STATUS_POINTS if s in c.status_points],
            }
            for c in m.classes
        ],
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
            {
                "role": role,
                "class": class_name,
                "privileges": [p for p in PRIVILEGES if p in privs],
            }
            for (role, class_name), privs in m.class_grants.items()
        ],
    }


# -- text parser inputs ------------------------------------------------------

_SOUP_WORDS = (
    "model", "role", "class", "process", "grant", "on", "dynamic",
    "owner", "responsible", "input", "output", "transform", "remaining",
    "leaving", "waiting", "fail", "decision", "creation", "modification",
    "reference", "suppression", "A", "B", "C", "P", "Q", "soon",
)
_SOUP_STRINGS = ('""', '"m"', '"a#b"', '"# x"', '"two words"', '"role"')
_SOUP_PUNCT = ("{", "}", ",", "+", "->")
_SOUP_JUNK = ('"', "-", ">", ";", "@", "é", "!")
# A lexeme, a comment or a run of whitespace: the units a mutation edits.
_SOUP_UNIT_RE = re.compile(r'"[^"\n]*"|#[^\n]*|[A-Za-z0-9_]+|->|\s+|\S')


def _soup_piece(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.45:
        return rng.choice(_SOUP_WORDS)
    if r < 0.7:
        return rng.choice(_SOUP_PUNCT)
    if r < 0.8:
        return rng.choice(_SOUP_STRINGS)
    if r < 0.87:
        return "# " + rng.choice(_SOUP_STRINGS + _SOUP_WORDS) + "\n"
    if r < 0.95:
        return rng.choice(_SOUP_JUNK)
    return "\n"


def random_token_soup(rng: random.Random) -> str:
    """Model text for the text parser: a bundled fixture with a few units
    deleted, doubled or replaced, or a soup of keywords, identifiers,
    punctuation, strings (some holding ``#``), comments, junk characters
    and line breaks, usually inside a model header."""
    if rng.random() < 0.3:
        units = _SOUP_UNIT_RE.findall(fixture_text(rng.choice(FIXTURES + BAD_FIXTURES)))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(units))
            op = rng.random()
            if op < 0.35:
                del units[i]
            elif op < 0.5:
                units.insert(i, units[i])
            else:
                units[i] = _soup_piece(rng)
        return "".join(units)
    pieces = ['model "m" {'] if rng.random() < 0.8 else []
    pieces += [_soup_piece(rng) for _ in range(rng.randint(0, 30))]
    if rng.random() < 0.6:
        pieces.append("}")
    return "".join(
        piece + rng.choice((" ", " ", "\n", "\t", "")) for piece in pieces
    )


# Whitespace that may stand for a space between tokens (the first four keep
# the token on its line), and what may stand for a line break: a break always
# ends a declaration, so a comment fits.
_TEXT_GAPS = (" ", " ", "\t", "  ", "\n", " \r\n\t")
_LINE_GAPS = _TEXT_GAPS[:4]
_TEXT_BREAKS = (
    "\n", "\n", "\r\n", "\n\n\n", "\t\n", " # an aside\n",
    ' # "quoted" and { braced }\n', "\n# {\r\n", '\n  #"\n',
)


def random_model_text(rng: random.Random, edit=None) -> str:
    """``emit_text(random_model(rng))`` with tabs, ``\\r\\n``, extra line
    breaks and comments (some holding ``"`` or ``{``) between its tokens.
    About half the texts keep the emitter's one declaration a line, so that
    the line reader reads them; the others may break a line between any two
    tokens. ``edit(rng, text)``, if given, changes the emitted text first."""
    gaps = _LINE_GAPS if rng.random() < 0.5 else _TEXT_GAPS
    first = rng.choice(_TEXT_BREAKS)
    text = emit_text(random_model(rng))
    if edit is not None:
        text = edit(rng, text)
    return first + re.sub(
        r"[ \n]", lambda m: rng.choice(gaps if m[0] == " " else _TEXT_BREAKS), text
    )


_LETTERS = frozenset(string.ascii_letters)
_WORD_CHARS = _LETTERS | frozenset(string.digits + "_")


def reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` of each token of ``text``, comments left out,
    ending with ``("eof", "", len(text))``: a ``"`` opens a string only when
    another ``"`` closes it on the same line, and ``#`` outside a string
    starts a comment that runs to the end of its line."""
    tokens = []
    i = 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            tokens.append(("eof", "", i))
            return tokens
        c = text[i]
        end = i + 1
        if c == "#":
            while end < len(text) and text[end] != "\n":
                end += 1
            i = end
            continue
        if c == '"':
            while end < len(text) and text[end] not in '"\n':
                end += 1
            kind = "string" if end < len(text) and text[end] == '"' else "junk"
            end = end + 1 if kind == "string" else i + 1
        elif c in _LETTERS:
            while end < len(text) and text[end] in _WORD_CHARS:
                end += 1
            kind = "ident"
        elif text.startswith("->", i):
            kind, end = "punct", i + 2
        elif c in "{}+,":
            kind = "punct"
        else:
            kind = "junk"
        tokens.append((kind, text[i:end], i))
        i = end


# -- diagram reference --------------------------------------------------------

_BRUTE_ABBREV = {
    "creation": "c",
    "modification": "m",
    "reference": "r",
    "suppression": "s",
    "modification+": "m+",
    "reference+": "r+",
    "suppression+": "s+",
}


def _brute_home(p: ProcessDef) -> str | None:
    return (sorted(p.owners) or sorted(p.responsibles) or [None])[0]


def _brute_lane(m: Model, role: str):
    """(process, is home) for every process drawn in ``role``'s lane: the
    home node when the role is the process's first owner (else first
    responsible), an alias when the role holds any other privilege on it."""
    for p in m.processes:
        if _brute_home(p) == role:
            yield p, True
        elif role in p.owners or role in p.responsibles:
            yield p, False


def _brute_class_label(m: Model, c: ClassDef, show_privileges: bool) -> str:
    letters = "".join(ch for pt, ch in zip(STATUS_POINTS, "WFD") if pt in c.status_points)
    label = c.name + (f" [{letters}]" if letters else "")
    if show_privileges:
        for role in m.roles:
            privs = m.grants(role, c.name)
            if privs:
                listed = ",".join(_BRUTE_ABBREV[p] for p in PRIVILEGES if p in privs)
                label += f"\\n{role}: {listed}"
    return label


def _brute_edge_label(p: ProcessDef, output: str) -> str | None:
    modes = {
        "remains" if t.mode == "remaining" else "leaves"
        for t in p.transforms
        if t.target == output
    }
    return "/".join(sorted(modes)) or None


def brute_to_dot(model: Model, show_privileges: bool = False) -> str:
    """``render.to_dot`` as a loop over every role and every process."""
    m = canonicalize(model)
    name = m.name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    if m.roles or m.classes or m.processes:
        lines.append("  rankdir=LR;")
    for role in m.roles:
        lines += [f'  subgraph "cluster_{role}" {{', f'    label="{role}";']
        for p, home in _brute_lane(m, role):
            if home:
                lines.append(f'    "p_{p.name}" [shape=box, label="{p.name}"];')
            else:
                lines.append(f'    "p_{p.name}__{role}" [shape=box, style=dashed, label="{p.name}"];')
        lines.append("  }")
    for c in m.classes:
        label = _brute_class_label(m, c, show_privileges)
        lines.append(f'  "c_{c.name}" [shape=oval, label="{label}"];')
    for p in m.processes:
        lines += [f'  "c_{c}" -> "p_{p.name}";' for c in p.inputs]
        for c in p.outputs:
            label = _brute_edge_label(p, c)
            attr = f' [label="{label}"]' if label else ""
            lines.append(f'  "p_{p.name}" -> "c_{c}"{attr};')
    return "\n".join(lines + ["}"]) + "\n"


def brute_to_mermaid(model: Model) -> str:
    """``render.to_mermaid`` as a loop over every role and every process."""
    m = canonicalize(model)
    lines = ["flowchart LR"]
    dashed = []
    for role in m.roles:
        lines.append(f"  subgraph {role}")
        for p, home in _brute_lane(m, role):
            node = f"p_{p.name}" if home else f"p_{p.name}__{role}"
            lines.append(f'    {node}["{p.name}"]')
            if not home:
                dashed.append(node)
        lines.append("  end")
    for c in m.classes:
        lines.append(f'  c_{c.name}(["{_brute_class_label(m, c, False)}"])')
    for p in m.processes:
        lines += [f"  c_{c} --> p_{p.name}" for c in p.inputs]
        for c in p.outputs:
            label = _brute_edge_label(p, c)
            arrow = f" -->|{label}| " if label else " --> "
            lines.append(f"  p_{p.name}{arrow}c_{c}")
    lines += [f"  style {node} stroke-dasharray: 5 5" for node in dashed]
    return "\n".join(lines) + "\n"


# -- minimal structural syntax checks for the diagram formats ---------------

_DOT_LINE_RES = [
    re.compile(r'^digraph "(?:[^"\\]|\\.)*" \{$'),
    re.compile(r"^\s*rankdir=LR;$"),
    re.compile(r'^\s*subgraph "cluster_[A-Za-z0-9_]+" \{$'),
    re.compile(r'^\s*label="[^"]*";$'),
    re.compile(r'^\s*"[A-Za-z0-9_]+" \[.*\];$'),
    re.compile(r'^\s*"[A-Za-z0-9_]+" -> "[A-Za-z0-9_]+"( \[label="[^"]*"\])?;$'),
    re.compile(r"^\s*\}$"),
]


def check_dot_syntax(text: str) -> None:
    lines = text.rstrip("\n").split("\n")
    assert lines[0].startswith('digraph "')
    depth = 0
    for line in lines:
        assert any(r.match(line) for r in _DOT_LINE_RES), f"bad DOT line: {line!r}"
        depth += line.count("{") - line.count("}")
        assert depth >= 0
    assert depth == 0, "unbalanced braces"


_MERMAID_LINE_RES = [
    re.compile(r"^flowchart LR$"),
    re.compile(r"^\s*subgraph [A-Za-z0-9_]+$"),
    re.compile(r"^\s*end$"),
    re.compile(r'^\s*[A-Za-z0-9_]+\["[^"]*"\]$'),
    re.compile(r'^\s*[A-Za-z0-9_]+\(\["[^"]*"\]\)$'),
    re.compile(r"^\s*[A-Za-z0-9_]+ -->(\|[^|]*\|)? [A-Za-z0-9_]+$"),
    re.compile(r"^\s*style [A-Za-z0-9_]+ stroke-dasharray: 5 5$"),
]


def check_mermaid_syntax(text: str) -> None:
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "flowchart LR"
    depth = 0
    for line in lines[1:]:
        assert any(r.match(line) for r in _MERMAID_LINE_RES), f"bad Mermaid line: {line!r}"
        if line.strip().startswith("subgraph"):
            depth += 1
        elif line.strip() == "end":
            depth -= 1
        assert depth >= 0
    assert depth == 0, "unbalanced subgraph/end"


def argparse_reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csm", description="Collaborative service model toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model against the rule catalog")
    p.add_argument("file")
    p.set_defaults(func=cli._cmd_validate)

    p = sub.add_parser("classify", help="infer collaboration levels per role pair")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cli._cmd_classify)

    p = sub.add_parser("simulate", help="run a scripted token trace")
    p.add_argument("file")
    p.add_argument("--seed", required=True, help="JSON array of {object, class}")
    p.add_argument("--script", required=True, help="JSON array of {process, object}")
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when any step fails to fire"
    )
    p.set_defaults(func=cli._cmd_simulate)

    p = sub.add_parser("explore", help="enumerate reachable states and run queries")
    p.add_argument("file")
    p.add_argument("--seed", required=True)
    p.add_argument("--query", help="JSON array of reachability queries")
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument("--max-objects", type=int, default=2)
    p.add_argument(
        "--stats", action="store_true",
        help="write state, edge and frontier counts, phase times and the stop "
        "reason to stderr as one JSON object",
    )
    p.set_defaults(func=cli._cmd_explore)

    p = sub.add_parser("render", help="emit a DOT or Mermaid diagram")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "mermaid"), required=True)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--show-privileges", action="store_true")
    p.set_defaults(func=cli._cmd_render)

    p = sub.add_parser("fmt", help="pretty-print the canonical model text")
    p.add_argument("file")
    p.set_defaults(func=cli._cmd_fmt)

    p = sub.add_parser("explain", help="print the rule text of a diagnostic code")
    p.add_argument("code")
    p.set_defaults(func=cli._cmd_explain)

    return parser


# Fixed argument lists for the argv reader, which ``test_cli_argv.py`` and
# ``same_bytes.py`` run: each kind of usage error, and help, once by hand.
ERROR_KINDS = [
    [],
    ["-h"],
    ["--he"],
    ["frobnicate"],
    ["--", "validate", "m.csm"],
    ["--bogus", "validate", "m.csm"],
    *([name, "--help"] for name in cli._COMMANDS),
    *([name] for name in cli._COMMANDS),
    ["validate", "m.csm", "extra"],
    ["render", "m.csm"],
    ["simulate", "m.csm", "--seed", "s"],
    ["explore", "m.csm", "--seed"],
    ["explore", "m.csm", "--seed", "s", "--max-steps", "x"],
    ["explore", "m.csm", "--seed", "s", "--max", "3"],
    ["explore", "m.csm", "--seed", "s", "--max-s", "-1", "--max-o=4"],
    ["explore", "m.csm", "--seed", "--stats"],
    ["classify", "--js", "m.csm"],
    ["render", "m.csm", "--format", "svg"],
    ["render", "m.csm", "--f=dot", "-oout.dot", "--s"],
    ["render", "m.csm", "--format", "dot", "-ho"],
    ["simulate", "m.csm", "--seed", "-1", "--script", "-x y", "--strict"],
    ["validate", "-hx"],
    ["validate", "--", "-m.csm"],
    ["validate", "m.csm", "--", "--json"],
    ["explain", "E-C1"],
]

# A small well-formed model, in which the tests of both readers plant mistakes.
PLANTED = """model "m" {
  role A
  role B
  class C dynamic { waiting }
  class D dynamic
  class E
  process P {
    owner A
    responsible B
    input C
    output D
    transform C -> D leaving
  }
  process Q {
    owner B
    input D
    output E
  }
  grant A on C { creation, reference, reference+ }
  grant B on C { reference+ }
}
"""
# The JSON form of PLANTED with one mistake per row: the path of the value
# to set (an index one past the end appends; the empty path replaces the
# document), the value, and the diagnostics as (code, site, message). A row
# with several mistakes gives a list of paths and a list of their values.
PLANTED_JSON = [
    ("duplicate role", ("roles", 2), "A", [("E-DUP", "role=A", "role 'A' declared twice")]),
    ("duplicate class", ("classes", 3), {"name": "D", "dynamic": True},
     [("E-DUP", "class=D", "class 'D' declared twice")]),
    ("duplicate process", ("processes", 1, "name"), "P",
     [("E-DUP", "process=P", "process 'P' declared twice")]),
    ("owner also responsible", ("processes", 0, "responsibles", 1), "A",
     [("E-DUP", "process=P role=A", "role 'A' already holds a privilege on this process")]),
    ("undeclared role in a process", ("processes", 1, "owners", 0), "Z",
     [("E-REF", "process=Q role=Z", "role 'Z' is not declared")]),
    ("undeclared class in a process", ("processes", 1, "outputs", 0), "Z",
     [("E-REF", "process=Q class=Z", "class 'Z' is not declared")]),
    ("undeclared role in a grant", ("grants", 1, "role"), "Z",
     [("E-REF", "grant role=Z class=C", "role 'Z' is not declared")]),
    ("undeclared class in a grant", ("grants", 1, "class"), "Z",
     [("E-REF", "grant role=B class=Z", "class 'Z' is not declared")]),
    ("transform source not an input", ("processes", 0, "transforms", 0, "from"), "E",
     [("E-TRF-END", "process=P transform=E->D",
       "transform source 'E' is not an input of the process")]),
    ("transform target not an output", ("processes", 0, "transforms", 0, "to"), "E",
     [("E-TRF-END", "process=P transform=C->E",
       "transform target 'E' is not an output of the process")]),
    ("unknown status point", ("classes", 0, "status_points", 1), "later",
     [("E-JSON", "class=C", "unknown status point 'later'")]),
    ("status point that cannot be hashed", ("classes", 0, "status_points", 1), ["waiting"],
     [("E-JSON", "class=C", "unknown status point ['waiting']")]),
    ("unknown privilege", ("grants", 1, "privileges", 1), "ownership",
     [("E-JSON", "grant role=B class=C", "unknown privilege 'ownership'")]),
    ("unknown transform mode", ("processes", 0, "transforms", 0, "mode"), "later",
     [("E-JSON", "process=P", "transform mode must be 'remaining' or 'leaving', got 'later'")]),
    ("class name not an identifier", ("classes", 3), {"name": "F-1"},
     [("E-JSON", "classes", "class name must be an identifier, got 'F-1'")]),
    ("role name not an identifier", ("roles", 2), "not a name",
     [("E-JSON", "roles", "role name must be an identifier, got 'not a name'")]),
    ("grant not an object", ("grants", 2), "grant",
     [("E-JSON", "grants", "missing required key 'role'"),
      ("E-JSON", "grants", "missing required key 'class'")]),
    ("dynamic not a boolean", ("classes", 1, "dynamic"), 1,
     [("E-JSON", "class=D", "'dynamic' must be true or false")]),
    # Names that refer to a declaration are type-checked by resolving them.
    ("owner not a string", ("processes", 1, "owners", 0), 5,
     [("E-JSON", "process=Q", "'owners' entries must be strings")]),
    ("owner that cannot be hashed", ("processes", 1, "owners", 0), ["B"],
     [("E-JSON", "process=Q", "'owners' entries must be strings")]),
    ("input that cannot be hashed", ("processes", 1, "inputs", 0), {"D": 1},
     [("E-JSON", "process=Q", "'inputs' entries must be strings")]),
    ("inputs not an array", ("processes", 1, "inputs"), "D",
     [("E-JSON", "process=Q", "'inputs' must be an array")]),
    ("owners null", ("processes", 1, "owners"), None,
     [("E-JSON", "process=Q", "'owners' must be an array")]),
    ("transform not an object", ("processes", 0, "transforms", 0), "C->D",
     [("E-JSON", "process=P", "transform needs 'from' and 'to' strings")]),
    ("transform source not a string", ("processes", 0, "transforms", 0, "from"), 1,
     [("E-JSON", "process=P", "transform needs 'from' and 'to' strings")]),
    ("transform mode that cannot be hashed", ("processes", 0, "transforms", 0, "mode"),
     ["leaving"],
     [("E-JSON", "process=P",
       "transform mode must be 'remaining' or 'leaving', got ['leaving']")]),
    ("grant role not a string", ("grants", 1, "role"), 1,
     [("E-JSON", "grants", "grant needs 'role' and 'class' strings")]),
    ("grant class that cannot be hashed", ("grants", 1, "class"), ["C"],
     [("E-JSON", "grants", "grant needs 'role' and 'class' strings")]),
    ("privileges not an array", ("grants", 1, "privileges"), {"reference+": 1},
     [("E-JSON", "grant role=B class=C", "'privileges' must be an array")]),
    ("process not an object", ("processes", 2), "R",
     [("E-JSON", "processes", "missing required key 'name'")]),
    ("class not an object", ("classes", 1), "D",
     [("E-JSON", "classes", "missing required key 'name'")]),
    ("model name with a line break", ("name",), "a\nb",
     [("E-JSON", "document", "'name' may not contain '\"' or a line break")]),
    ("model name null", ("name",), None,
     [("E-JSON", "document", "missing required key 'name'")]),
    ("model name that is not UTF-8", ("name",), "\ud800",
     [("E-JSON", "document", "'name' must encode as UTF-8")]),
    ("top-level array", (), ["roles"],
     [("E-JSON", "document", "top-level value must be an object")]),
    ("class without a name", ("classes", 3), {"dynamic": True},
     [("E-JSON", "classes", "missing required key 'name'")]),
    ("transform without a mode", ("processes", 0, "transforms", 0), {"from": "C", "to": "D"},
     [("E-JSON", "process=P", "transform mode must be 'remaining' or 'leaving', got None")]),
    ("grant without a class", ("grants", 1), {"role": "B", "privileges": ["reference+"]},
     [("E-JSON", "grants", "missing required key 'class'")]),
    # The document lists grants before roles; the kinds are reported in a
    # fixed order: the name, roles, classes, processes, grants.
    ("mistakes in roles, classes and grants",
     [("grants", 0, "privileges", 0), ("classes", 2, "dynamic"), ("roles", 1)], ["x", "no", 7],
     [("E-JSON", "roles", "role name must be an identifier, got 7"),
      ("E-JSON", "class=E", "'dynamic' must be true or false"),
      ("E-JSON", "grant role=A class=C", "unknown privilege 'x'")]),
    # A listing or a transform array given as a number, a string or null.
    *[(f"{key} {kind}", path, value, [("E-JSON", site, f"{key!r} must be an array")])
      for key, path, site in (
          ("status_points", ("classes", 0, "status_points"), "class=C"),
          ("privileges", ("grants", 1, "privileges"), "grant role=B class=C"),
          ("transforms", ("processes", 0, "transforms"), "process=P"),
      )
      for kind, value in (("a number", 5), ("a string", "waiting"), ("null", None))],
    ("class name a number", ("classes", 1, "name"), 5,
     [("E-JSON", "classes", "class name must be an identifier, got 5")]),
    ("process name null", ("processes", 1, "name"), None,
     [("E-JSON", "processes", "missing required key 'name'")]),
    ("dynamic null", ("classes", 1, "dynamic"), None,
     [("E-JSON", "class=D", "'dynamic' must be true or false")]),
    # A listing read once is reported at each entry that repeats it.
    ("unknown privilege listing in two grants",
     [("grants", 0, "privileges"), ("grants", 1, "privileges")], [["ownership"], ["ownership"]],
     [("E-JSON", "grant role=A class=C", "unknown privilege 'ownership'"),
      ("E-JSON", "grant role=B class=C", "unknown privilege 'ownership'")]),
    # Class C lists waiting first; a privileges listing is read as privileges.
    ("status point in a privileges listing", ("grants", 1, "privileges"), ["waiting"],
     [("E-JSON", "grant role=B class=C", "unknown privilege 'waiting'")]),
]


def planted_json(path, value) -> object:
    """The JSON form of ``PLANTED``, decoded, with ``value`` set at ``path``
    (a list of values at a list of paths, as a row of ``PLANTED_JSON``)."""
    doc = json.loads(emit_json(parse_text(PLANTED).model))
    for at, planted in zip(path, value) if isinstance(path, list) else [(path, value)]:
        if not at:
            doc = planted
            continue
        *parents, last = at
        parent = doc
        for key in parents:
            parent = parent[key]
        if isinstance(parent, list) and last == len(parent):
            parent.append(planted)
        else:
            parent[last] = planted
    return doc


# Per kind, well-typed JSON entries and ill-typed ones, which MIXED_JSON
# interleaves, ill-typed after well-typed, entry by entry.
WELL_TYPED_JSON = {
    "roles": ["A", "B", "C"],
    "classes": [
        {"name": "C", "dynamic": True, "status_points": ["waiting"]},
        {"name": "D", "dynamic": True},
        {"name": "F", "status_points": []},
        {"name": "I"},
    ],
    "processes": [
        {"name": "P", "owners": ["A"], "inputs": ["C"], "outputs": ["D"],
         "transforms": [{"from": "C", "to": "D", "mode": "leaving"}]},
        {"name": "R", "responsibles": ["B"], "outputs": ["F"]},
        {"name": "U", "owners": ["B"]},
        {"name": "W"},
    ],
    "grants": [
        {"role": "A", "class": "C", "privileges": ["creation", "reference"]},
        {"role": "B", "class": "F", "privileges": ["creation", "reference"]},
        {"role": "A", "class": "F", "privileges": ["reference+"]},
        {"role": "B", "class": "D"},
    ],
}
_ILL_TYPED_JSON = {
    "roles": ["not a name", 7],
    "classes": ["D", {"name": "E", "dynamic": 1}, {"name": "G-1"},
                {"name": "H", "status_points": ["waiting", ["fail"]]}],
    "processes": [
        {"name": "Q", "transforms": [{"from": "C", "to": "D", "mode": ["leaving"]}]},
        ["S"],
        {"name": "T", "owners": ["A", 1], "inputs": "C"},
        {"name": "V", "transforms": [{"from": "C"}]},
    ],
    "grants": [
        {"role": "A", "class": "D", "privileges": ["reference", 1]},
        "grant",
        {"role": "B", "class": 3, "privileges": ["reference"]},
        {"role": "B", "class": "C", "privileges": [["reference"]]},
    ],
}
MIXED_JSON = {"name": "m", **{
    kind: [
        entry
        for pair in zip_longest(WELL_TYPED_JSON[kind], _ILL_TYPED_JSON[kind])
        for entry in pair
        if entry is not None
    ]
    for kind in WELL_TYPED_JSON
}}


# A line with an explicit value of "--", the dest of its option (None where
# argparse rejects the option itself), and the usage error that csm gives for
# it in argparse's words on every Python: the exit code and the last line on
# stderr.
EXPLICIT_DOUBLE_DASH = [
    (["explore", "m.csm", "--seed=--"], "seed",
     (2, "csm explore: error: argument --seed: expected one argument")),
    (["explore", "m.csm", "--seed", "s", "--max-steps=--"], "max_steps",
     (2, "csm explore: error: argument --max-steps: expected one argument")),
    (["render", "m.csm", "--format=--"], "format",
     (2, "csm render: error: argument --format: expected one argument")),
    (["render", "m.csm", "--format", "dot", "-o--"], "output",
     (2, "csm render: error: argument -o/--output: expected one argument")),
    # An option abbreviated to a prefix: one it names alone, an ambiguous
    # one, and one that takes no value.
    (["explore", "m.csm", "--se=--"], "seed",
     (2, "csm explore: error: argument --seed: expected one argument")),
    (["explore", "m.csm", "--seed", "s", "--max-s=--"], "max_steps",
     (2, "csm explore: error: argument --max-steps: expected one argument")),
    (["render", "m.csm", "--fo=--"], "format",
     (2, "csm render: error: argument --format: expected one argument")),
    (["render", "m.csm", "--format", "dot", "--outp=--"], "output",
     (2, "csm render: error: argument -o/--output: expected one argument")),
    (["explore", "m.csm", "--seed", "s", "--max=--"], None,
     (2, "csm explore: error: ambiguous option: --max=-- could match --max-steps, "
         "--max-objects")),
    (["validate", "m.csm", "--h=--"], None,
     (2, "csm validate: error: argument -h/--help: ignored explicit argument '--'")),
]
