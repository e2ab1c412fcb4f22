"""Token-based execution of a model.

Each object is a set of tokens, one per class the object currently occupies.
Firing a process on an object adds a token in every output class; an input
token is consumed only when some declared transform from that input is a
leaving one ("leaving dominates" when a single input feeds several outputs
with mixed modes). Inputs without any transform are pure reads.

Processes with no inputs are generators: firing one mints a fresh object.

``explore`` enumerates the reachable states breadth-first under these rules
and answers co-occurrence and ordering queries with witness traces; it is
meant as an exact oracle at desk scale, not a model checker.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (
    Model,
    ModelError,
    StatusPoint,
    TransformMode,
    UnknownClass,
    UnknownProcess,
)


class Token(NamedTuple):
    object_id: str
    class_name: str


@dataclass(frozen=True)
class SimState:
    """An immutable token configuration; at most one token per (object, class)."""

    tokens: frozenset[Token] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", frozenset(self.tokens))

    @property
    def object_ids(self) -> frozenset[str]:
        return frozenset(t.object_id for t in self.tokens)

    def classes_of(self, object_id: str) -> frozenset[str]:
        return frozenset(
            t.class_name for t in self.tokens if t.object_id == object_id
        )


class DuplicateToken(ModelError):
    pass


class StaleObject(ModelError):
    """A generator was fired with an object id that already exists."""


class NotEnabled(ModelError):
    """The object lacks tokens in some input classes of the process."""

    def __init__(
        self, process: str, object_id: str, missing: Sequence[str], blocked_waiting: bool
    ) -> None:
        super().__init__(
            f"{process!r} not enabled for {object_id!r}: missing {', '.join(missing)}"
        )
        self.process = process
        self.object_id = object_id
        self.missing = tuple(missing)
        self.blocked_waiting = blocked_waiting


class Outcome(enum.Enum):
    FIRED = "fired"
    NOT_ENABLED = "not-enabled"
    BLOCKED_WAITING = "blocked-waiting"
    ABORTED = "aborted"


@dataclass(frozen=True)
class TraceEvent:
    step: int
    process: str
    object_id: str
    outcome: Outcome
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "process": self.process,
            "object": self.object_id,
            "outcome": self.outcome.value,
            "detail": self.detail,
        }


def init_state(model: Model, seed: Iterable[tuple[str, str]]) -> SimState:
    """State holding exactly the seed tokens."""
    tokens: set[Token] = set()
    declared = set(model.class_names)
    for object_id, class_name in seed:
        if class_name not in declared:
            raise UnknownClass(class_name)
        token = Token(object_id, class_name)
        if token in tokens:
            raise DuplicateToken(f"{object_id!r} already seeded in {class_name!r}")
        tokens.add(token)
    return SimState(frozenset(tokens))


def enabled(model: Model, state: SimState, object_id: str) -> frozenset[str]:
    """Processes whose every input class holds a token for the object.

    Generators are excluded: they mint objects rather than consume them.
    """
    have = state.classes_of(object_id)
    return frozenset(
        p.name
        for p in model.processes
        if p.inputs and set(p.inputs) <= have
    )


def fire(model: Model, state: SimState, process: str, object_id: str) -> SimState:
    """Fire the process on the object, returning the successor state."""
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
                StatusPoint.WAITING in model.class_def(c).status_points
                for c in missing
            )
            raise NotEnabled(process, object_id, missing, blocked)
        leaving = {
            t.source for t in p.transforms if t.mode is TransformMode.LEAVING
        }
        tokens -= {Token(object_id, c) for c in leaving}
    tokens |= {Token(object_id, c) for c in p.outputs}
    return SimState(frozenset(tokens))


NEW_OBJECT = "new"


def _mint_id(existing: frozenset[str], minted: int) -> str:
    # Deterministic fresh ids so exploration and scripts name objects alike.
    k = minted + 1
    while f"obj{k}" in existing:
        k += 1
    return f"obj{k}"


def run_script(
    model: Model,
    seed: Iterable[tuple[str, str]],
    script: Iterable[tuple[str, str]],
) -> list[TraceEvent]:
    """Run a scripted trace; failed steps are reported and skipped.

    A script entry names a process and an object id, or ``"new"`` to let a
    generator mint a fresh object. Unknown process or class names abort the
    run with an ``aborted`` event.
    """
    state = init_state(model, seed)
    minted = 0
    events: list[TraceEvent] = []
    for step, (process, object_id) in enumerate(script, start=1):
        try:
            pdef = model.process_def(process)
        except UnknownProcess:
            events.append(
                TraceEvent(step, process, object_id, Outcome.ABORTED,
                           f"unknown process {process!r}")
            )
            break
        was_new = object_id == NEW_OBJECT
        if was_new:
            if not pdef.is_generator:
                events.append(
                    TraceEvent(step, process, object_id, Outcome.ABORTED,
                               f"{process!r} is not a generator; 'new' needs one")
                )
                break
            object_id = _mint_id(state.object_ids, minted)
        try:
            nxt = fire(model, state, process, object_id)
        except NotEnabled as exc:
            outcome = (
                Outcome.BLOCKED_WAITING if exc.blocked_waiting else Outcome.NOT_ENABLED
            )
            events.append(
                TraceEvent(step, process, object_id, outcome,
                           f"missing input tokens: {', '.join(exc.missing)}")
            )
            continue
        except StaleObject as exc:
            events.append(
                TraceEvent(step, process, object_id, Outcome.ABORTED, str(exc))
            )
            break
        if was_new:
            minted += 1
        noop = sorted(
            c for c in pdef.outputs if Token(object_id, c) in state.tokens
        )
        detail = f"object {object_id}"
        if noop:
            detail += f"; already present in {', '.join(noop)}"
        events.append(TraceEvent(step, process, object_id, Outcome.FIRED, detail))
        state = nxt
    return events


Action = tuple[str, str]  # (process, object_id)
_StateKey = tuple[frozenset[Token], int]  # tokens plus count of minted objects


@dataclass(frozen=True)
class QueryResult:
    predicate: str
    reachable: bool
    witness: tuple[Action, ...] | None

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "reachable": self.reachable,
            "witness": [list(a) for a in self.witness] if self.witness else None,
        }


@dataclass(frozen=True)
class ReachabilitySummary:
    state_count: int
    complete: bool
    queries: tuple[QueryResult, ...] = ()

    def to_dict(self) -> dict:
        return {
            "state_count": self.state_count,
            "complete": self.complete,
            "bound_exceeded": not self.complete,
            "queries": [q.to_dict() for q in self.queries],
        }


@dataclass
class ReachabilityGraph:
    """Explicit reachable-state graph within the given bounds."""

    initial: _StateKey
    edges: dict[_StateKey, list[tuple[Action, _StateKey]]]
    parents: dict[_StateKey, tuple[_StateKey, Action] | None]
    complete: bool

    @property
    def state_count(self) -> int:
        return len(self.parents)

    def path_to(self, key: _StateKey) -> tuple[Action, ...]:
        path: list[Action] = []
        cur = key
        while True:
            parent = self.parents[cur]
            if parent is None:
                break
            cur, action = parent
            path.append(action)
        return tuple(reversed(path))


def _successors(
    model: Model, key: _StateKey, max_objects: int
) -> list[tuple[Action, _StateKey]]:
    tokens, minted = key
    state = SimState(tokens)
    oids = sorted(state.object_ids)
    out: list[tuple[Action, _StateKey]] = []
    for p in sorted(model.processes, key=lambda p: p.name):
        if p.is_generator:
            if len(oids) < max_objects:
                nid = _mint_id(state.object_ids, minted)
                nxt = fire(model, state, p.name, nid)
                out.append(((p.name, nid), (nxt.tokens, minted + 1)))
        else:
            need = set(p.inputs)
            for oid in oids:
                if need <= state.classes_of(oid):
                    nxt = fire(model, state, p.name, oid)
                    out.append(((p.name, oid), (nxt.tokens, minted)))
    return out


def build_graph(
    model: Model,
    seed: Iterable[tuple[str, str]],
    max_steps: int,
    max_objects: int,
) -> ReachabilityGraph:
    """Breadth-first enumeration of states reachable in at most max_steps firings."""
    if max_steps < 1 or max_objects < 1:
        raise ValueError("bounds must be positive")
    initial: _StateKey = (init_state(model, seed).tokens, 0)
    parents: dict[_StateKey, tuple[_StateKey, Action] | None] = {initial: None}
    edges: dict[_StateKey, list[tuple[Action, _StateKey]]] = {}
    frontier = [initial]
    depth = 0
    complete = True
    while frontier:
        if depth >= max_steps:
            # Unexpanded states remain: closure not proven within bounds.
            complete = False
            break
        nxt_frontier: list[_StateKey] = []
        for key in frontier:
            succs = _successors(model, key, max_objects)
            edges[key] = succs
            for action, nkey in succs:
                if nkey not in parents:
                    parents[nkey] = (key, action)
                    nxt_frontier.append(nkey)
        frontier = nxt_frontier
        depth += 1
    return ReachabilityGraph(
        initial=initial, edges=edges, parents=parents, complete=complete
    )


def _co_occurrence(
    graph: ReachabilityGraph, class_a: str, class_b: str
) -> QueryResult:
    predicate = f"co-occurrence({class_a}, {class_b})"
    for key in graph.parents:
        tokens, _ = key
        per_object: dict[str, set[str]] = {}
        for t in tokens:
            per_object.setdefault(t.object_id, set()).add(t.class_name)
        for classes in per_object.values():
            if class_a in classes and class_b in classes:
                return QueryResult(predicate, True, graph.path_to(key))
    return QueryResult(predicate, False, None)


def _sequence(graph: ReachabilityGraph, first: str, then: str) -> QueryResult:
    predicate = f"sequence({first} then {then})"
    candidates = sorted(
        {action[1] for succs in graph.edges.values() for action, _ in succs}
    )
    for oid in candidates:
        # BFS over (state, fired-first-yet) with parent links for the witness.
        start = (graph.initial, False)
        parents: dict[tuple[_StateKey, bool], tuple[tuple[_StateKey, bool], Action] | None]
        parents = {start: None}
        queue = [start]
        while queue:
            nxt_queue = []
            for node in queue:
                key, fired_first = node
                for action, nkey in graph.edges.get(key, []):
                    if fired_first and action == (then, oid):
                        path: list[Action] = [action]
                        cur = node
                        while parents[cur] is not None:
                            cur, act = parents[cur]  # type: ignore[misc]
                            path.append(act)
                        return QueryResult(predicate, True, tuple(reversed(path)))
                    nstage = fired_first or action == (first, oid)
                    nnode = (nkey, nstage)
                    if nnode not in parents:
                        parents[nnode] = (node, action)
                        nxt_queue.append(nnode)
            queue = nxt_queue
    return QueryResult(predicate, False, None)


def run_query(graph: ReachabilityGraph, query: Mapping) -> QueryResult:
    kind = query.get("type")
    if kind == "co_occurrence":
        a, b = query["classes"]
        return _co_occurrence(graph, a, b)
    if kind == "sequence":
        return _sequence(graph, query["first"], query["then"])
    raise ModelError(f"unknown query type {kind!r}")


def explore(
    model: Model,
    seed: Iterable[tuple[str, str]],
    max_steps: int,
    max_objects: int,
    queries: Sequence[Mapping] = (),
) -> ReachabilitySummary:
    """Enumerate reachable states and answer the given queries."""
    graph = build_graph(model, seed, max_steps, max_objects)
    results = tuple(run_query(graph, q) for q in queries)
    return ReachabilitySummary(
        state_count=graph.state_count, complete=graph.complete, queries=results
    )
