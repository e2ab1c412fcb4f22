"""Token-based execution of a model.

Each object is a set of tokens, one per class the object currently occupies.
Firing a process on an object adds a token in every output class; an input
token is consumed only when some declared transform from that input is a
leaving one ("leaving dominates" when a single input feeds several outputs
with mixed modes). Inputs without any transform are pure reads.

Processes with no inputs are generators: firing one mints a fresh object.

``explore`` enumerates the reachable states breadth-first under these rules
and answers co-occurrence and ordering queries with witness traces; it is
meant as an exact oracle at desk scale, not a model checker. It does not
build token sets: each class gets one bit, an object's state is the mask of
the classes it holds a token in, and each process is compiled once to
input, keep and output masks (see ``build_graph``). ``fire`` and
``run_script`` keep the token form for scripted runs.
"""

from __future__ import annotations

import enum
import time
from collections import namedtuple
from collections.abc import Container, Iterable, Mapping, Sequence
from functools import cached_property

from .model import (
    Model,
    ModelError,
    StatusPoint,
    TransformMode,
    UnknownClass,
    UnknownProcess,
)


Token = namedtuple("Token", "object_id class_name")


class SimState(namedtuple("SimState", "tokens")):
    """An immutable token configuration; at most one token per (object, class).

    ``tokens`` is kept as a frozenset of ``Token``.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable[Token] = ()) -> SimState:
        return tuple.__new__(cls, (frozenset(tokens),))

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


class TraceEvent(
    namedtuple("TraceEvent", "step process object_id outcome detail", defaults=("",))
):
    """One step of a scripted run: its 1-based number, the process and object
    it named, its ``Outcome`` and a human-readable detail."""

    __slots__ = ()

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


def _mint_id(existing: Container[str], minted: int) -> str:
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
# (object_id, class mask) pairs sorted by id, plus the count of minted objects.
_State = tuple[tuple[tuple[str, int], ...], int]
# (name, is_generator, input mask, keep mask, output mask)
_Compiled = tuple[str, bool, int, int, int]


class QueryResult(namedtuple("QueryResult", "predicate reachable witness")):
    """A query's verdict; ``witness`` is the tuple of actions that reaches it,
    or ``None`` when it is unreachable."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "reachable": self.reachable,
            "witness": [list(a) for a in self.witness] if self.witness else None,
        }


class ReachabilitySummary(
    namedtuple("ReachabilitySummary", "state_count complete queries")
):
    """What ``explore`` found: the state count, whether the search closed and
    the tuple of ``QueryResult``.

    ``stats`` (counts, timings, stop reason) is an attribute outside the
    tuple, so it takes no part in equality, and it stays out of ``to_dict``.
    """

    def __new__(
        cls,
        state_count: int,
        complete: bool,
        queries: tuple[QueryResult, ...] = (),
        stats: Mapping | None = None,
    ) -> ReachabilitySummary:
        self = tuple.__new__(cls, (state_count, complete, queries))
        self.stats = {} if stats is None else stats
        return self

    def to_dict(self) -> dict:
        return {
            "state_count": self.state_count,
            "complete": self.complete,
            "bound_exceeded": not self.complete,
            "queries": [q.to_dict() for q in self.queries],
        }


class ReachabilityGraph:
    """Explicit reachable-state graph within the given bounds.

    ``classes`` maps each class name to its bit. States are numbered in
    discovery order; ``states[i]`` is the encoded state (see
    ``build_graph``), ``edges`` maps each expanded state to its
    ``(action, successor)`` list in firing order, and ``parents[i]`` is the
    ``(state, action)`` that first reached state ``i``. ``frontier`` counts
    the states first reached at each depth, and ``stop`` says why the search
    ended: ``closed``, ``step_bound`` or ``object_bound_pruned``.
    """

    initial = 0  # states are numbered from the initial one

    def __init__(
        self,
        classes: dict[str, int],
        states: list[_State],
        edges: dict[int, list[tuple[Action, int]]],
        parents: list[tuple[int, Action] | None],
        frontier: list[int],
        stop: str,
    ) -> None:
        self.classes = classes
        self.states = states
        self.edges = edges
        self.parents = parents
        self.frontier = frontier
        self.stop = stop

    @property
    def complete(self) -> bool:
        return self.stop == "closed"

    @property
    def state_count(self) -> int:
        return len(self.states)

    def tokens(self, state: int) -> frozenset[Token]:
        """The token configuration of a state."""
        names = list(self.classes)
        objects, _ = self.states[state]
        return frozenset(
            Token(oid, names[i])
            for oid, mask in objects
            for i in range(mask.bit_length())
            if mask >> i & 1
        )

    @cached_property
    def firings(self) -> dict[Action, tuple[list[int], list[int]]]:
        """Per action, the states it fires from and the states it leads to,
        as two lists in edge order; built on first use."""
        index: dict[Action, tuple[list[int], list[int]]] = {}
        for sid, succs in self.edges.items():
            for action, target in succs:
                entry = index.get(action)
                if entry is None:
                    entry = index[action] = ([], [])
                entry[0].append(sid)
                entry[1].append(target)
        return index

    def path_to(self, state: int) -> tuple[Action, ...]:
        path: list[Action] = []
        parent = self.parents[state]
        while parent is not None:
            state, action = parent
            path.append(action)
            parent = self.parents[state]
        return tuple(reversed(path))


def _compile(model: Model) -> tuple[dict[str, int], list[_Compiled]]:
    """One bit per class, and every process as masks, sorted by name."""
    bits: dict[str, int] = {}

    def mask(names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= bits.setdefault(name, 1 << len(bits))
        return m

    mask(model.class_names)
    processes = []
    for p in sorted(model.processes, key=lambda p: p.name):
        leaving = mask(t.source for t in p.transforms if t.mode is TransformMode.LEAVING)
        processes.append(
            (p.name, p.is_generator, mask(p.inputs), ~leaving, mask(p.outputs))
        )
    return bits, processes


def build_graph(
    model: Model,
    seed: Iterable[tuple[str, str]],
    max_steps: int,
    max_objects: int,
) -> ReachabilityGraph:
    """Breadth-first enumeration of states reachable in at most max_steps firings.

    Each class gets one bit, so an object's state is the mask ``s`` of the
    classes it holds a token in, and a state is the tuple of
    ``(object_id, s)`` pairs sorted by id plus the count of minted objects.
    A process compiles to ``(in, keep, out)`` masks, where ``keep`` clears
    the source of every leaving transform: it is enabled on an object when
    ``s & in == in``, and firing gives ``(s & keep) | out``, as ``fire``
    does with tokens. A generator mints ``obj<k>`` holding ``out`` while
    fewer than max_objects objects exist. An object whose mask becomes 0
    holds no token and is dropped.

    Successors are listed by process name, then by object id. The graph is
    complete only when every state was expanded within max_steps and the
    object bound never skipped a generator firing.
    """
    if max_steps < 1 or max_objects < 1:
        raise ValueError("bounds must be positive")
    bits, processes = _compile(model)
    masks: dict[str, int] = {}
    for t in init_state(model, seed).tokens:
        masks[t.object_id] = masks.get(t.object_id, 0) | bits[t.class_name]
    initial: _State = (tuple(sorted(masks.items())), 0)
    index = {initial: 0}
    states = [initial]
    parents: list[tuple[int, Action] | None] = [None]
    edges: dict[int, list[tuple[Action, int]]] = {}
    frontier = [0]
    sizes = [1]
    pruned = False
    for _ in range(max_steps):
        next_frontier: list[int] = []
        for sid in frontier:
            objects, minted = states[sid]
            fired: list[tuple[Action, _State]] = []
            for name, is_generator, need, keep, out in processes:
                if is_generator:
                    if len(objects) >= max_objects:
                        pruned = True
                        continue
                    oid = _mint_id({o for o, _ in objects}, minted)
                    born = tuple(sorted((*objects, (oid, out)))) if out else objects
                    fired.append(((name, oid), (born, minted + 1)))
                    continue
                for i, (oid, s) in enumerate(objects):
                    if s & need == need:
                        s = s & keep | out
                        rest = objects[i + 1:]
                        changed = (*objects[:i], (oid, s), *rest) if s else objects[:i] + rest
                        fired.append(((name, oid), (changed, minted)))
            succs = []
            for action, key in fired:
                target = index.get(key)
                if target is None:
                    target = index[key] = len(states)
                    states.append(key)
                    parents.append((sid, action))
                    next_frontier.append(target)
                succs.append((action, target))
            edges[sid] = succs
        frontier = next_frontier
        if not frontier:
            break
        sizes.append(len(frontier))
    if frontier:
        stop = "step_bound"  # unexpanded states remain
    elif pruned:
        stop = "object_bound_pruned"
    else:
        stop = "closed"
    return ReachabilityGraph(bits, states, edges, parents, sizes, stop)


def _co_occurrence(
    graph: ReachabilityGraph, class_a: str, class_b: str
) -> QueryResult:
    predicate = f"co-occurrence({class_a}, {class_b})"
    if class_a in graph.classes and class_b in graph.classes:
        want = graph.classes[class_a] | graph.classes[class_b]
        for sid, (objects, _) in enumerate(graph.states):
            for _, s in objects:
                if s & want == want:
                    return QueryResult(predicate, True, graph.path_to(sid))
    return QueryResult(predicate, False, None)


def _reaches(
    edges: Mapping[int, list[tuple[Action, int]]], starts: list[int], goals: set[int]
) -> bool:
    """Whether some state reachable from ``starts`` (inclusive) is in ``goals``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        sid = stack.pop()
        if sid in goals:
            return True
        for _, target in edges.get(sid, ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


def _sequence_witness(
    graph: ReachabilityGraph, first: Action, then: Action
) -> tuple[Action, ...]:
    """The first ``then`` after ``first`` in a breadth-first search over
    (state, fired-first-yet); the caller has checked that one exists."""
    start = (graph.initial, False)
    parents: dict[tuple[int, bool], tuple[tuple[int, bool], Action] | None]
    parents = {start: None}
    queue = [start]
    while queue:
        next_queue = []
        for node in queue:
            sid, fired_first = node
            for action, target in graph.edges.get(sid, ()):
                if fired_first and action == then:
                    path = [action]
                    link = parents[node]
                    while link is not None:
                        node, act = link
                        path.append(act)
                        link = parents[node]
                    return tuple(reversed(path))
                nnode = (target, fired_first or action == first)
                if nnode not in parents:
                    parents[nnode] = (node, action)
                    next_queue.append(nnode)
        queue = next_queue
    raise AssertionError(f"no witness for {first} then {then}")


def _sequence(graph: ReachabilityGraph, first: str, then: str) -> QueryResult:
    predicate = f"sequence({first} then {then})"
    # Per object: the states a `first` firing leads to, and the states
    # where `then` can fire. The sequence holds for an object exactly when
    # the second set is reachable from the first.
    after_first: dict[str, list[int]] = {}
    then_from: dict[str, set[int]] = {}
    for (process, oid), (sources, targets) in graph.firings.items():
        if process == first:
            after_first[oid] = targets
        if process == then:
            then_from[oid] = set(sources)
    for oid in sorted(after_first.keys() & then_from.keys()):
        if _reaches(graph.edges, after_first[oid], then_from[oid]):
            witness = _sequence_witness(graph, (first, oid), (then, oid))
            return QueryResult(predicate, True, witness)
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
    started = time.perf_counter()
    graph = build_graph(model, seed, max_steps, max_objects)
    built = time.perf_counter()
    results = tuple(run_query(graph, q) for q in queries)
    stats = {
        "states": graph.state_count,
        "edges": sum(len(succs) for succs in graph.edges.values()),
        "frontier": graph.frontier,
        "build_s": round(built - started, 6),
        "query_s": round(time.perf_counter() - built, 6),
        "stop": graph.stop,
    }
    return ReachabilitySummary(graph.state_count, graph.complete, results, stats)
