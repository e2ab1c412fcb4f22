"""Shared test utilities: generators, oracles, and mini syntax checkers.

``brute_validate`` is an intentionally naive re-implementation of the rule
catalog by direct set arithmetic over all (role, process, class) triples;
it shares no code with ``csm.validator`` and serves as its oracle.
``brute_classify`` is the classifier's all-pairs loop: every ordered role
pair against every process and class, with no use of the model's index.
``brute_fire`` is the firing rule on token sets, written without the class
masks the simulator compiles: ``brute_init_state`` and ``brute_run_script``
build on it to give what ``init_state`` and ``run_script`` should, and
``brute_explore`` is the explorer on token sets: each state is a
``frozenset`` of ``Token``s, every successor comes from ``brute_fire``, and
each sequence query runs a product search per candidate object.
"""

from __future__ import annotations

import random
import re

from csm.classifier import CollaborationReport, Level, LevelFinding
from csm.simulator import (
    NEW_OBJECT,
    DuplicateToken,
    NotEnabled,
    Outcome,
    SimState,
    StaleObject,
    Token,
    TraceEvent,
    _mint_id,
)
from csm.model import (
    ClassDef,
    Model,
    PLUS_PRIVILEGES,
    Privilege,
    ProcessDef,
    ProcessPrivilege,
    StatusPoint,
    Transform,
    TransformMode,
    UnknownClass,
    UnknownProcess,
    canonicalize,
)


def random_model(rng: random.Random, name: str = "random") -> Model:
    """A structurally resolvable model; rule violations are intentional."""
    roles = [f"R{i}" for i in range(rng.randint(1, 6))]
    classes = []
    for i in range(rng.randint(1, 8)):
        points = frozenset(pt for pt in StatusPoint if rng.random() < 0.2)
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
                        Transform(s, t, rng.choice(list(TransformMode)))
                    )
        role_privs = {}
        for r in roles:
            x = rng.random()
            if x < 0.25:
                role_privs[r] = ProcessPrivilege.OWNER
            elif x < 0.45:
                role_privs[r] = ProcessPrivilege.RESPONSIBILITY
        processes.append(
            ProcessDef(f"P{i}", tuple(inputs), tuple(outputs), tuple(transforms), role_privs)
        )
    grants = {}
    for r in roles:
        for c in cnames:
            if rng.random() < 0.35:
                privs = frozenset(p for p in Privilege if rng.random() < 0.4)
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
        points = frozenset(pt for pt in StatusPoint if rng.random() < 0.25)
        classes.append(
            ClassDef(f"C{i}", dynamic=rng.random() < 0.8, status_points=points)
        )
    cnames = [c.name for c in classes]
    dynamic = {c.name for c in classes if c.dynamic}
    grants: dict[tuple[str, str], set[Privilege]] = {}

    def grant(role, cname, *privs):
        grants.setdefault((role, cname), set()).update(privs)

    processes = []
    for i in range(rng.randint(0, 5)):
        inputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        outputs = rng.sample(cnames, rng.randint(0, min(2, len(cnames))))
        transforms = [
            Transform(s, t, rng.choice(list(TransformMode)))
            for s in inputs
            for t in outputs
            if s != t and s in dynamic and t in dynamic and rng.random() < 0.5
        ]
        role_privs = {rng.choice(roles): rng.choice(list(ProcessPrivilege))}
        for r in roles:
            if r not in role_privs and rng.random() < 0.25:
                role_privs[r] = rng.choice(list(ProcessPrivilege))
        for r, pp in role_privs.items():
            for c in inputs:
                grant(r, c, Privilege.REFERENCE)
            for c in outputs:
                grant(r, c, Privilege.CREATION, Privilege.REFERENCE)
            if pp is ProcessPrivilege.OWNER:
                for c in {*inputs, *outputs}:
                    grant(r, c, Privilege.REFERENCE_PLUS)
        processes.append(
            ProcessDef(f"P{i}", tuple(inputs), tuple(outputs), tuple(transforms), role_privs)
        )
    for r in roles:
        for c in cnames:
            if rng.random() < 0.25:
                extra = {p for p in Privilege if rng.random() < 0.35}
                if Privilege.CREATION in extra:
                    extra.add(Privilege.REFERENCE)
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
            if Privilege.CREATION in privs and Privilege.REFERENCE not in privs:
                found.append(("E-C2", f"role={r} class={c.name}"))

    for r in model.roles:
        for p in model.processes:
            if r not in p.role_privileges:
                continue
            for c in model.classes:
                if c.name in p.inputs and Privilege.REFERENCE not in g(r, c.name):
                    found.append(("E-C3", f"role={r} process={p.name} class={c.name}"))
                if c.name in p.outputs and Privilege.CREATION not in g(r, c.name):
                    found.append(("E-C4", f"role={r} process={p.name} class={c.name}"))
                if (
                    p.role_privileges[r] is ProcessPrivilege.OWNER
                    and c.name in set(p.inputs) | set(p.outputs)
                    and Privilege.REFERENCE_PLUS not in g(r, c.name)
                ):
                    found.append(("E-C5", f"role={r} process={p.name} class={c.name}"))

    for p in model.processes:
        if not p.role_privileges:
            found.append(("E-ORPHAN-P", f"process={p.name}"))

    def consumer_count(cname):
        return sum(1 for p in model.processes if cname in p.inputs)

    def is_shared(cname):
        for r1 in model.roles:
            for r2 in model.roles:
                if r1 == r2:
                    continue
                if Privilege.CREATION in g(r1, cname) and g(r2, cname) & PLUS_PRIVILEGES:
                    return True
        return False

    for c in model.classes:
        n = consumer_count(c.name)
        if StatusPoint.DECISION in c.status_points and n < 2:
            found.append(("W-DP", f"class={c.name}"))
        if StatusPoint.DECISION not in c.status_points and n >= 2:
            found.append(("W-DP-MISS", f"class={c.name}"))
        if StatusPoint.FAIL in c.status_points and n < 2:
            found.append(("W-FP", f"class={c.name}"))
        if StatusPoint.WAITING in c.status_points and not is_shared(c.name):
            found.append(("W-WP", f"class={c.name}"))

    return sorted(found)


_CONSUMER_FORBIDDEN = frozenset(
    {
        Privilege.CREATION,
        Privilege.MODIFICATION,
        Privilege.SUPPRESSION,
        Privilege.MODIFICATION_PLUS,
        Privilege.SUPPRESSION_PLUS,
    }
)
_WRITE_PLUS = frozenset({Privilege.MODIFICATION_PLUS, Privilege.SUPPRESSION_PLUS})


def brute_classify_pair(model: Model, r1: str, r2: str) -> list[LevelFinding]:
    """Findings for the ordered pair by scanning every process and class."""

    def g(role, cname):
        return model.class_grants.get((role, cname), frozenset())

    findings: list[LevelFinding] = []
    for p in sorted(model.processes, key=lambda p: p.name):
        pp1 = p.role_privileges.get(r1)
        pp2 = p.role_privileges.get(r2)
        if pp1 is ProcessPrivilege.OWNER and pp2 is ProcessPrivilege.RESPONSIBILITY:
            hits = [
                c
                for c in sorted(p.outputs)
                if Privilege.MODIFICATION_PLUS in g(r1, c) and Privilege.REFERENCE_PLUS in g(r2, c)
            ]
            if hits:
                findings.append(
                    LevelFinding(
                        r1,
                        r2,
                        p.name,
                        "process",
                        Level.VERY_TIGHT,
                        (
                            f"owner({r1},{p.name})",
                            f"responsibility({r2},{p.name})",
                            *(f"modification+({r1},{c}) & reference+({r2},{c})" for c in hits),
                        ),
                    )
                )
                continue
        if pp1 is ProcessPrivilege.OWNER and pp2 is ProcessPrivilege.OWNER:
            shared = [c for c in sorted(p.outputs) if g(r1, c) and g(r2, c)]
            if shared and all(
                Privilege.REFERENCE_PLUS in g(r, c) and not (g(r, c) & _WRITE_PLUS)
                for c in shared
                for r in (r1, r2)
            ):
                lo, hi = sorted((r1, r2))
                findings.append(
                    LevelFinding(
                        lo,
                        hi,
                        p.name,
                        "process",
                        Level.TIGHT,
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
            c.name in p.outputs and r1 in p.role_privileges and r2 in p.role_privileges
            for p in model.processes
        )
        if (
            Privilege.CREATION in g1
            and Privilege.REFERENCE_PLUS in g2
            and not (g2 & _CONSUMER_FORBIDDEN)
            and not co_privileged
        ):
            waiting = StatusPoint.WAITING in c.status_points
            findings.append(
                LevelFinding(
                    r1,
                    r2,
                    c.name,
                    "class",
                    Level.LOOSE if waiting else Level.VERY_LOOSE,
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


# Seeds under which each fixture is explored in the oracle checks.
A4_SEEDS = {
    "airline_alliance": [("f1", "FlightRecord")],
    "gp_hospital": [],
    "gp_lab": [],
    "healthcare": [],
    "hospital_cleaning": [("room1", "OccupiedRoom")],
    "hotel_agency": [],
}


def brute_init_state(model: Model, seed) -> SimState:
    """The seed tokens; an undeclared class or a repeated entry raises."""
    tokens: set[Token] = set()
    for object_id, class_name in seed:
        if class_name not in model.class_names:
            raise UnknownClass(class_name)
        token = Token(object_id, class_name)
        if token in tokens:
            raise DuplicateToken(f"{object_id!r} already seeded in {class_name!r}")
        tokens.add(token)
    return SimState(tokens)


def brute_fire(model: Model, state: SimState, process: str, object_id: str) -> SimState:
    """The successor state on token sets: a generator needs a fresh object,
    any other process every input token; leaving sources go, outputs come."""
    p = model.process_def(process)
    tokens = set(state.tokens)
    if p.is_generator:
        if object_id in state.object_ids:
            raise StaleObject(
                f"generator {process!r} fired with existing object {object_id!r}"
            )
    else:
        missing = sorted(set(p.inputs) - state.classes_of(object_id))
        if missing:
            blocked = any(
                StatusPoint.WAITING in model.class_def(c).status_points for c in missing
            )
            raise NotEnabled(process, object_id, missing, blocked)
        leaving = {t.source for t in p.transforms if t.mode is TransformMode.LEAVING}
        tokens -= {Token(object_id, c) for c in leaving}
    tokens |= {Token(object_id, c) for c in p.outputs}
    return SimState(tokens)


def brute_run_script(model: Model, seed, script) -> list[TraceEvent]:
    """The events ``run_script`` should give, stepping with ``brute_fire``."""
    state = brute_init_state(model, seed)
    minted = 0
    events = []
    for step, (process, object_id) in enumerate(script, start=1):
        try:
            pdef = model.process_def(process)
        except UnknownProcess:
            events.append(TraceEvent(step, process, object_id, Outcome.ABORTED,
                                     f"unknown process {process!r}"))
            break
        was_new = object_id == NEW_OBJECT
        if was_new:
            if not pdef.is_generator:
                events.append(TraceEvent(step, process, object_id, Outcome.ABORTED,
                                         f"{process!r} is not a generator; 'new' needs one"))
                break
            object_id = _mint_id(state.object_ids, minted)
        try:
            nxt = brute_fire(model, state, process, object_id)
        except NotEnabled as exc:
            outcome = Outcome.BLOCKED_WAITING if exc.blocked_waiting else Outcome.NOT_ENABLED
            events.append(TraceEvent(step, process, object_id, outcome,
                                     f"missing input tokens: {', '.join(exc.missing)}"))
            continue
        except StaleObject as exc:
            events.append(TraceEvent(step, process, object_id, Outcome.ABORTED, str(exc)))
            break
        if was_new:
            minted += 1
        noop = sorted(c for c in pdef.outputs if Token(object_id, c) in state.tokens)
        detail = f"object {object_id}"
        if noop:
            detail += f"; already present in {', '.join(noop)}"
        events.append(TraceEvent(step, process, object_id, Outcome.FIRED, detail))
        state = nxt
    return events


def _brute_successors(model: Model, key, max_objects: int):
    """Successor (action, key) pairs and whether the object bound skipped a generator."""
    tokens, minted = key
    state = SimState(tokens)
    oids = sorted(state.object_ids)
    out = []
    pruned = False
    for p in sorted(model.processes, key=lambda p: p.name):
        if p.is_generator:
            if len(oids) < max_objects:
                nid = _mint_id(state.object_ids, minted)
                nxt = brute_fire(model, state, p.name, nid)
                out.append(((p.name, nid), (nxt.tokens, minted + 1)))
            else:
                pruned = True
        else:
            need = set(p.inputs)
            for oid in oids:
                if need <= state.classes_of(oid):
                    nxt = brute_fire(model, state, p.name, oid)
                    out.append(((p.name, oid), (nxt.tokens, minted)))
    return out, pruned


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
                        "witness": _brute_path(parents, key) or None}
    return {"predicate": predicate, "reachable": False, "witness": None}


def _brute_sequence(initial, edges, first: str, then: str) -> dict:
    predicate = f"sequence({first} then {then})"
    candidates = sorted({action[1] for succs in edges.values() for action, _ in succs})
    for oid in candidates:
        # BFS over (state, fired-first-yet) with parent links for the witness.
        start = (initial, False)
        parents = {start: None}
        queue = [start]
        while queue:
            nxt_queue = []
            for node in queue:
                key, fired_first = node
                for action, nkey in edges.get(key, []):
                    if fired_first and action == (then, oid):
                        witness = _brute_path(parents, node) + [list(action)]
                        return {"predicate": predicate, "reachable": True, "witness": witness}
                    nnode = (nkey, fired_first or action == (first, oid))
                    if nnode not in parents:
                        parents[nnode] = (node, action)
                        nxt_queue.append(nnode)
            queue = nxt_queue
    return {"predicate": predicate, "reachable": False, "witness": None}


def brute_explore(model: Model, seed, max_steps: int, max_objects: int, queries=()) -> dict:
    """The document ``explore(...).to_dict()`` should give, from token sets.

    The search is complete only when it closes within max_steps and the
    object bound never skipped a generator firing.
    """
    initial = (brute_init_state(model, seed).tokens, 0)
    parents = {initial: None}
    edges = {}
    frontier = [initial]
    pruned = False
    for _ in range(max_steps):
        nxt_frontier = []
        for key in frontier:
            succs, skipped = _brute_successors(model, key, max_objects)
            pruned = pruned or skipped
            edges[key] = succs
            for action, nkey in succs:
                if nkey not in parents:
                    parents[nkey] = (key, action)
                    nxt_frontier.append(nkey)
        frontier = nxt_frontier
        if not frontier:
            break
    complete = not frontier and not pruned
    results = []
    for q in queries:
        if q["type"] == "co_occurrence":
            results.append(_brute_co_occurrence(parents, *q["classes"]))
        else:
            results.append(_brute_sequence(initial, edges, q["first"], q["then"]))
    return {"state_count": len(parents), "complete": complete,
            "bound_exceeded": not complete, "queries": results}


_ADD_RE = re.compile(r"^add (.+) to grant (\S+) on (\S+)$")
_DYNAMIC_RE = re.compile(r"^declare class (\S+) dynamic$")


def apply_suggestion(model: Model, suggestion: str) -> Model:
    """Apply a validator repair suggestion, returning the fixed model."""
    m = _ADD_RE.match(suggestion)
    if m:
        privs_text, role, cname = m.groups()
        extra = frozenset(
            Privilege(p.strip()) for p in privs_text.split(" and ")
        )
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
            points = set(c.status_points) ^ {StatusPoint.WAITING}
            classes.append(ClassDef(c.name, c.dynamic, frozenset(points)))
        else:
            classes.append(c)
    return canonicalize(
        Model(model.name, model.roles, tuple(classes), model.processes, model.class_grants)
    )


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
