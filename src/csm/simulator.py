"""Execution of a model on class masks.

Each class gets one bit, and an object's state is the mask of the classes
it holds a token in. Each process compiles once to input, keep and output
masks (``_compile``): it is enabled on an object holding every input
class, and firing it clears the source class of every leaving transform
("leaving dominates" when a single input feeds several outputs with mixed
modes) and sets every output class. Inputs without any transform are pure
reads. Processes with no inputs, whose input mask is 0, are generators:
firing one mints a fresh object.

That is the one firing rule, and ``_step`` applies it to one object's
mask: it gives the mask after the firing, or ``None`` when the process
cannot fire. ``run_script`` steps through a script on a mask per object
and makes each ``None`` the step's outcome: ``not-enabled``,
``blocked-waiting`` when a missing input class has a waiting point, or
``aborted`` for a generator fired on an existing object. A firing touches
one object and never empties it (a leaving transform's target is an
output), so a global state is one lifecycle position per object plus the
history of mints. ``build_graph`` compiles the model once into that
per-object space (``ReachabilityGraph``) and counts the reachable states,
their edges and whether the search closed from it. Both query kinds ask
about one object, so ``explore`` searches one object's lifecycle in the
same compiled space for co-occurrence and ordering queries, with witness
traces of at most ``max_steps`` steps: an exact oracle at desk scale, not
a model checker. The global graph is enumerated breadth-first on the same
masks only when its ``edges`` are read. ``run_script`` and ``build_graph``
read the model through ``canonicalize``, and they and ``run_query`` read a
seed and a query by the rules ``csm`` applies to those files (``_encode``,
``_query_problem``).
"""

from __future__ import annotations

from .diagnostics import _esc, _json_array, _record
from .model import (
    Model,
    ModelError,
    ProcessDef,
    UnknownClass,
    UnknownProcess,
    canonicalize,
)

# True for static checkers only: the annotations name these, and no command
# loads collections.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Container, Iterable, Mapping, Sequence


class DuplicateToken(ModelError):
    pass


class TraceEvent(
    _record("TraceEvent", "step process object_id outcome detail", defaults=("",))
):
    """One step of a scripted run: its 1-based number, the process and object
    it named, its outcome (``"fired"``, ``"not-enabled"``,
    ``"blocked-waiting"`` or ``"aborted"``) and a human-readable detail."""

    __slots__ = ()

    def to_json(self) -> str:
        """``{"detail", "object", "outcome", "process", "step"}`` on one line
        as ``json.dumps(..., sort_keys=True)`` writes it; from one template,
        without ``json``."""
        return _EVENT_JSON % (
            _esc(self.detail),
            _esc(self.object_id),
            _esc(self.outcome),
            _esc(self.process),
            self.step,
        )


# Keys in sort_keys order, with json.dumps's default separators.
_EVENT_JSON = '{"detail": %s, "object": %s, "outcome": %s, "process": %s, "step": %d}'


# A process as (name, need, keep, out): ``need`` holds its input classes and is 0
# exactly for a generator, ``keep`` clears the source of every leaving transform
# and ``out`` holds its outputs; a plain tuple, which unpacks faster than a named one.
_Compiled = tuple[str, int, int, int]


def _mask(bits: Mapping[str, int], names: Iterable[str]) -> int:
    """The mask of the named classes."""
    m = 0
    for name in names:
        m |= bits[name]
    return m


def _class_bits(model: Model) -> dict[str, int]:
    """One bit per class, in name order."""
    return {c.name: 1 << i for i, c in enumerate(model.classes)}


def _compile(bits: Mapping[str, int], p: ProcessDef) -> _Compiled:
    leaving = _mask(bits, (t.source for t in p.transforms if t.mode == "leaving"))
    return p.name, _mask(bits, p.inputs), ~leaving, _mask(bits, p.outputs)


NEW_OBJECT = "new"


def _pair(i: int, entry, fields: str) -> tuple[str, str]:
    """The ``i``-th entry of a seed or a script if it is a pair of strings."""
    if isinstance(entry, (tuple, list)) and [type(v) for v in entry] == [str, str]:
        return entry
    raise ModelError(f"at /{i} must be a pair of strings ({fields}): {entry!r}")


def _encode(bits: Mapping[str, int], seed: Iterable[tuple[str, str]]) -> dict[str, int]:
    """Per seeded object id, the mask of its seed classes. Refused, with a message
    from ``at`` and the pointer of the value at fault: an entry that is not a pair
    of strings and the object ``"new"``, which scripts reserve for minting (both
    ``ModelError``), an undeclared class (``UnknownClass``), a repeat (``DuplicateToken``)."""
    held: dict[str, int] = {}
    for i, entry in enumerate(seed):
        object_id, class_name = _pair(i, entry, "object, class")
        if object_id == NEW_OBJECT:
            raise ModelError(f"at /{i}/object uses the reserved object id {object_id!r}")
        bit = bits.get(class_name)
        if bit is None:
            raise UnknownClass(f"at /{i}/class names no declared class: {class_name!r}")
        mask = held.get(object_id, 0)
        if mask & bit:
            raise DuplicateToken(f"at /{i}/object repeats {object_id!r} in {class_name!r}")
        held[object_id] = mask | bit
    return held


def _decode(bits: Mapping[str, int], mask: int) -> list[str]:
    """The names of the classes in a mask, sorted."""
    return sorted(name for name, bit in bits.items() if mask & bit)


def _step(proc: _Compiled, held: int) -> int | None:
    """The mask of the object after the process fires on it, from the mask
    it holds before (0 when the object does not exist); ``None`` when the
    process cannot fire: a generator on an existing object, or another
    process on an object that lacks some input."""
    _, need, keep, out = proc
    if not need:
        return None if held else out
    if held & need != need:
        return None
    return held & keep | out


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

    A script entry is a pair of strings, a process and an object id or
    ``"new"`` to let a generator mint a fresh object; any other raises
    ``ModelError``, as in a seed. Unknown process or class names abort the
    run with an ``aborted`` event, and so does a generator fired on an
    existing object. Each object is a class mask; a generator without
    outputs mints no object.
    """
    model = canonicalize(model)
    bits = _class_bits(model)
    objects = _encode(bits, seed)
    script = [_pair(i, entry, "process, object") for i, entry in enumerate(script)]
    minted = 0
    events: list[TraceEvent] = []
    for step, (process, object_id) in enumerate(script, start=1):
        try:
            proc = _compile(bits, model.process_def(process))
        except UnknownProcess:
            events.append(
                TraceEvent(step, process, object_id, "aborted",
                           f"unknown process {process!r}")
            )
            break
        _, need, _, out = proc
        if object_id == NEW_OBJECT:
            if need:
                events.append(
                    TraceEvent(step, process, object_id, "aborted",
                               f"{process!r} is not a generator; 'new' needs one")
                )
                break
            object_id = _mint_id(objects, minted)
            minted += 1  # a generator always fires on a fresh id
        held = objects.get(object_id, 0)
        after = _step(proc, held)
        if after is None:
            if not need:
                detail = f"generator {process!r} fired with existing object {object_id!r}"
                events.append(TraceEvent(step, process, object_id, "aborted", detail))
                break
            missing = _decode(bits, need & ~held)
            waiting = any("waiting" in model.class_def(c).status_points for c in missing)
            outcome = "blocked-waiting" if waiting else "not-enabled"
            detail = f"missing input tokens: {', '.join(missing)}"
            events.append(TraceEvent(step, process, object_id, outcome, detail))
            continue
        if after:
            objects[object_id] = after
        detail = f"object {object_id}"
        if held & out:
            detail += f"; already present in {', '.join(_decode(bits, held & out))}"
        events.append(TraceEvent(step, process, object_id, "fired", detail))
    return events


Action = tuple[str, str]  # (process, object_id)
# (object_id, class mask) pairs sorted by id, plus the count of minted objects.
_State = tuple[tuple[tuple[str, int], ...], int]


class QueryResult(_record("QueryResult", "predicate witness")):
    """A query's verdict; ``witness`` is the tuple of actions that reaches it,
    or ``None`` when it is unreachable."""

    __slots__ = ()

    @property
    def reachable(self) -> bool:
        """Whether the query holds: it has a witness."""
        return self.witness is not None


class ReachabilitySummary(
    _record("ReachabilitySummary", "frontier stop edge_count queries", defaults=((),))
):
    """What ``explore`` found: the counts that ``ReachabilityGraph`` holds
    (``frontier`` as a tuple, ``stop`` and ``edge_count``) and the tuple of
    ``QueryResult``. The state count and whether the search closed are read
    from them."""

    __slots__ = ()

    @property
    def state_count(self) -> int:
        return sum(self.frontier)

    @property
    def complete(self) -> bool:
        return self.stop == "closed"

    def to_json(self) -> str:
        """``{"bound_exceeded", "complete", "queries", "state_count"}``, each
        query ``{"predicate", "reachable", "witness"}``, as ``json.dumps(...,
        indent=2, sort_keys=True)`` writes it; from templates, without ``json``."""
        queries = [
            _QUERY_JSON % (
                _esc(q.predicate),
                _JSON_BOOL[q.reachable],
                "null" if q.witness is None else _json_array(
                    (_json_array(map(_esc, action), "        ") for action in q.witness),
                    "      ",
                ),
            )
            for q in self.queries
        ]
        return _SUMMARY_JSON % (
            _JSON_BOOL[not self.complete],
            _JSON_BOOL[self.complete],
            _json_array(queries, "  "),
            self.state_count,
        )

    def stats_json(self, build_s: float, query_s: float) -> str:
        """The ``explore --stats`` line: ``json.dumps(..., sort_keys=True)``
        of the counts and the two phase times in seconds, rounded to 6
        digits; written from a template without loading ``json``, as both
        write a float as its ``repr``."""
        return _STATS_JSON % (
            round(build_s, 6),
            self.edge_count,
            ", ".join(map(str, self.frontier)),
            round(query_s, 6),
            self.state_count,
            _esc(self.stop),
        )


# Keys in sort_keys order, as json.dumps(indent=2) lays them out.
_SUMMARY_JSON = (
    '{\n  "bound_exceeded": %s,\n  "complete": %s,\n  "queries": %s,\n  "state_count": %d\n}'
)
_QUERY_JSON = '{\n      "predicate": %s,\n      "reachable": %s,\n      "witness": %s\n    }'
_JSON_BOOL = {True: "true", False: "false"}
_STATS_JSON = (
    '{"build_s": %r, "edges": %d, "frontier": [%s], "query_s": %r, "states": %d, "stop": %s}'
)


class ReachabilityGraph:
    """The model compiled once into one object's lifecycle space, and the
    reachable-state space within the given bounds, counted from it.

    ``classes`` maps each class name to its bit and ``held`` each seeded
    object id to its mask. ``processes`` holds every compiled process and
    ``movers`` the non-generators, both in name order. ``origins`` lists
    where an object's lifecycle starts (see ``shortest``), and
    ``max_steps`` and ``max_objects`` are the bounds. ``frontier`` counts
    the states first reached at each depth, ``edge_count`` the firings out
    of every state at a depth below max_steps, and ``stop`` says why the
    search ends: ``closed``, ``step_bound`` or ``object_bound_pruned``.
    These come from per-object lifecycles (see ``build_graph``).

    ``edges`` enumerates the explicit graph breadth-first on each read: it
    maps each expanded state, numbered in discovery order from 0 for the
    initial one, to its ``(action, successor)`` list in firing order.
    """

    __slots__ = ("classes", "held", "processes", "movers", "origins", "max_steps",
                 "max_objects", "frontier", "stop", "edge_count")

    def __init__(
        self, classes: dict[str, int], held: dict[str, int], processes: list[_Compiled],
        max_steps: int, max_objects: int,
    ) -> None:
        self.classes = classes
        self.held = held
        self.processes = processes
        self.max_steps = max_steps
        self.max_objects = max_objects
        self.movers: list[_Compiled] = []
        # (actions that create the object, its id, its class mask)
        self.origins = [((), oid, mask) for oid, mask in held.items()]
        for proc in processes:
            name, need, _, out = proc
            if need:
                self.movers.append(proc)
            elif out and len(held) < max_objects:
                oid = _mint_id(held, 0)
                self.origins.append((((name, oid),), oid, out))
        self.frontier, self.stop, self.edge_count = _count(self)

    @property
    def complete(self) -> bool:
        return self.stop == "closed"

    @property
    def state_count(self) -> int:
        return sum(self.frontier)

    @property
    def edges(self) -> dict[int, list[tuple[Action, int]]]:
        return _enumerate(self)

    def shortest(self, marks: tuple[str, ...], want: int) -> tuple[Action, ...] | None:
        """The shortest run, least among equals as ``(process, object)``
        pairs, that fires the processes in ``marks`` in that order on one
        object and leaves it holding every class in ``want``; ``None`` when
        no run within the bounds does.

        Firings on different objects are independent and no firing empties
        an object, so such a run fires only on that object, from an origin:
        a seeded object or, while the seed leaves room under max_objects,
        the first id that a generator with outputs mints, which takes one of
        the max_steps. Each origin is searched breadth first over ``(class
        mask, phase)`` nodes, where the phase counts the ``marks`` fired so
        far, and the movers fire in name order.
        """

        def advance(phase: int, name: str) -> int:
            return phase + (phase < len(marks) and name == marks[phase])

        best: tuple[Action, ...] | None = None
        for prefix, oid, mask in self.origins:
            phase = advance(0, prefix[0][0]) if prefix else 0
            paths = {(mask, phase): prefix}
            queue = [(mask, phase)]
            for node in queue:  # grows while it is read: first in, first out
                path = paths[node]
                if best is not None and len(path) > len(best):
                    break
                mask, phase = node
                if phase == len(marks) and mask & want == want:
                    if best is None or (len(path), path) < (len(best), best):
                        best = path
                    break
                if len(path) >= self.max_steps:
                    continue
                for name, need, keep, out in self.movers:
                    if mask & need == need:
                        child = (mask & keep | out, advance(phase, name))
                        if child not in paths:
                            paths[child] = (*path, (name, oid))
                            queue.append(child)
        return best


# Per depth, the count of states first reached there and the sum of their
# out-degrees: a polynomial in the depth, as a pair of coefficient lists.
_Histogram = tuple[list[int], list[int]]


def _lifecycle(starts: Iterable[int], depth: int, movers: list[_Compiled]) -> _Histogram:
    """The masks one object reaches from any of ``starts`` within ``depth``
    firings of ``movers``, by the depth they are first reached at, with
    their out-degrees (the number of movers enabled on each)."""
    seen = set(starts)
    level = list(seen)
    counts: list[int] = []
    degrees: list[int] = []
    while level and len(counts) <= depth:
        counts.append(len(level))
        degree = 0
        found: list[int] = []
        for mask in level:
            for _, need, keep, out in movers:
                if mask & need == need:
                    degree += 1
                    child = mask & keep | out
                    if child not in seen:
                        seen.add(child)
                        found.append(child)
        degrees.append(degree)
        level = found
    return counts, degrees


def _times(a: _Histogram, b: _Histogram, depth: int) -> _Histogram:
    """The histogram of pairs of independent objects, up to ``depth``: depths
    add, and a pair's out-degree is the sum of its two."""
    (ac, ad), (bc, bd) = a, b
    size = min(len(ac) + len(bc) - 1, depth + 1)
    counts = [0] * size
    degrees = [0] * size
    for i in range(min(len(ac), size)):
        x, dx = ac[i], ad[i]
        for j in range(min(len(bc), size - i)):
            counts[i + j] += x * bc[j]
            degrees[i + j] += x * bd[j] + dx * bc[j]
    return counts, degrees


def _count(graph: ReachabilityGraph) -> tuple[list[int], str, int]:
    """``frontier``, ``stop`` and ``edge_count`` of the space ``_enumerate``
    builds, from per-object lifecycles (see ``build_graph``)."""
    held, movers, max_steps = graph.held, graph.movers, graph.max_steps
    outs = [out for _, need, _, out in graph.processes if not need]
    keeps = not all(outs)  # some generator mints none
    room = graph.max_objects - len(held)
    # powers[k]: the seeded objects together with k minted ones.
    powers = [([1], [0])]
    for mask in held.values():
        powers[0] = _times(powers[0], _lifecycle((mask,), max_steps, movers), max_steps)
    # The minted origins, one step in; there are some only while the seed
    # leaves room and some generator mints an object.
    starts = {mask for prefix, _, mask in graph.origins if prefix}
    minted = _lifecycle(starts, max_steps - 1, movers)
    frontier: list[int] = []  # grows with the depths reached, not with max_steps
    edge_count = 0
    pruned = False
    histories = {frozenset()}  # the distinct sets of minted ids after m generator firings
    for m in range(max_steps + 1):
        sizes: dict[int, int] = {}  # histories per count of minted ids
        for ids in histories:
            sizes[len(ids)] = sizes.get(len(ids), 0) + 1
        for k, n in sizes.items():
            while len(powers) <= k:
                powers.append(_times(powers[-1], minted, max_steps))
            counts, degrees = powers[k]
            reached = counts[:max_steps + 1 - m]
            frontier += [0] * (m + len(reached) - len(frontier))
            for t, c in enumerate(reached, m):
                frontier[t] += n * c
            below = max_steps - m  # states at depth m + t < max_steps are expanded
            mints = len(outs) if k < room else 0  # every generator fires while there is room
            edge_count += n * (sum(degrees[:below]) + mints * sum(counts[:below]))
            if outs and not mints and below:
                pruned = True
        if m == max_steps:
            break
        grown = set()
        for ids in histories:
            if len(ids) < room:
                if starts:
                    grown.add(ids | {_mint_id({*held, *ids}, m)})
                if keeps:
                    grown.add(ids)
        if not grown:
            break
        histories = grown
    if len(frontier) > max_steps:
        stop = "step_bound"  # states at depth max_steps stay unexpanded
    elif pruned:
        stop = "object_bound_pruned"
    else:
        stop = "closed"
    return frontier, stop, edge_count


def _enumerate(graph: ReachabilityGraph) -> dict[int, list[tuple[Action, int]]]:
    """The explicit graph, breadth first: each expanded state's
    ``(action, successor)`` list, with states numbered in discovery order."""
    frontier: list[_State] = [(tuple(sorted(graph.held.items())), 0)]
    index = {frontier[0]: 0}
    edges: dict[int, list[tuple[Action, int]]] = {}
    for _ in range(graph.max_steps):
        next_frontier: list[_State] = []
        for state in frontier:
            objects, minted = state
            fired: list[tuple[Action, _State]] = []
            for name, need, keep, out in graph.processes:
                if not need:
                    if len(objects) < graph.max_objects:
                        oid = _mint_id({o for o, _ in objects}, minted)
                        born = tuple(sorted((*objects, (oid, out)))) if out else objects
                        fired.append(((name, oid), (born, minted + 1)))
                    continue
                for i, (oid, s) in enumerate(objects):
                    if s & need == need:
                        changed = (*objects[:i], (oid, s & keep | out), *objects[i + 1:])
                        fired.append(((name, oid), (changed, minted)))
            succs = []
            for action, key in fired:
                target = index.get(key)
                if target is None:
                    target = index[key] = len(index)
                    next_frontier.append(key)
                succs.append((action, target))
            edges[index[state]] = succs
        frontier = next_frontier
        if not frontier:
            break
    return edges


def build_graph(
    model: Model, seed: Iterable[tuple[str, str]], max_steps: int, max_objects: int
) -> ReachabilityGraph:
    """The model compiled once, and the states reachable in at most
    max_steps steps, counted.

    Each class gets one bit, so an object's state is the mask ``s`` of the
    classes it holds a token in, and a state is the tuple of
    ``(object_id, s)`` pairs sorted by id plus the count of minted objects.
    A process compiles to ``(name, need, keep, out)``, where ``need`` masks
    its inputs and ``keep`` clears the source of every leaving transform: it
    is enabled on an object when ``s & need == need``, and firing gives
    ``(s & keep) | out``, the rule ``run_script`` applies one step at a
    time. A generator (``need`` is 0) mints
    ``obj<k>`` holding ``out`` (or nothing, without outputs) while fewer
    than max_objects objects exist. Successors are listed by process name,
    then by object id.

    A firing touches one object and no firing empties one, so a state is
    one lifecycle position per object plus the history of mints, and its
    depth is the count of mints plus the sum of its objects' depths. The
    counts come from that: a breadth-first search per seeded object from
    its seed mask, one from the ``out`` masks of the generators for every
    minted object (whose mint took a step), and a forward pass over the
    distinct sets of minted ids after each number of mints; convolving the
    per-object histograms gives the states and edges per depth. The graph is
    complete only when every state was expanded within max_steps and the
    object bound never skipped a generator firing. The same compiled
    space answers the queries of ``explore`` (``shortest``); ``edges`` is
    enumerated on each read, and ``explore`` does not read it.
    """
    model = canonicalize(model)
    if max_steps < 1 or max_objects < 1:
        raise ValueError("bounds must be positive")
    bits = _class_bits(model)
    held = _encode(bits, seed)
    processes = [_compile(bits, p) for p in model.processes]
    return ReachabilityGraph(bits, held, processes, max_steps, max_objects)


def _pointer(at: Iterable) -> str:
    """The RFC 6901 pointer of the value that these array indexes and keys lead to."""
    return "".join("/" + str(p).replace("~", "~0").replace("/", "~1") for p in at)


# The keys of each query type besides "type".
_QUERY_OPERANDS = {"co_occurrence": ("classes",), "sequence": ("first", "then")}


def _query_problem(
    query: object, classes: Container[str] | None = None, processes: Container[str] | None = None
) -> tuple[tuple, str] | None:
    """The first fault of a query document, as the keys that lead to the
    value at fault and the message about it, or ``None`` when it has none.
    Its names must be strings, and declared in ``classes`` and ``processes``
    when they are given."""
    kind = query.get("type") if isinstance(query, dict) else None
    if not (isinstance(kind, str) and kind in _QUERY_OPERANDS):
        at = ("type",) if isinstance(query, dict) else ()
        return at, f": query type must be 'co_occurrence' or 'sequence': {query!r}"
    keys = {"type", *_QUERY_OPERANDS[kind]}
    if set(query) != keys:
        # An extra key in document order, else the first missing one.
        at = [k for k in query if k not in keys] or sorted(keys - set(query))
        listed = ", ".join(sorted(keys))
        return (at[0],), f": {kind} query needs exactly the keys {listed}: {query!r}"
    if kind == "co_occurrence":
        what, declared, names = "class", classes, query["classes"]
        if not (isinstance(names, (list, tuple)) and len(names) == 2):
            return ("classes",), f": 'classes' must be an array of two class names: {query!r}"
        named = [(("classes", j), name) for j, name in enumerate(names)]
    else:
        what, declared = "process", processes
        named = [((key,), query[key]) for key in ("first", "then")]
    for at, name in named:
        if not isinstance(name, str) or declared is not None and name not in declared:
            return at, f": query names no declared {what}: {name!r}"
    return None


def run_query(graph: ReachabilityGraph, query: Mapping) -> QueryResult:
    """The verdict on one query document, or ``ModelError`` at its first fault
    (see ``_query_problem``); an undeclared name is unreachable."""
    problem = _query_problem(query)
    if problem is not None:
        at, message = problem
        raise ModelError(f"query at {_pointer(at)}{message}" if at else f"query{message}")
    if query["type"] == "co_occurrence":
        a, b = query["classes"]
        predicate = f"co-occurrence({a}, {b})"
        bits = graph.classes
        witness = graph.shortest((), bits[a] | bits[b]) if a in bits and b in bits else None
    else:
        first, then = query["first"], query["then"]
        predicate = f"sequence({first} then {then})"
        witness = graph.shortest((first, then), 0)
    return QueryResult(predicate, witness)


def _summarize(graph: ReachabilityGraph, queries: Iterable[Mapping]) -> ReachabilitySummary:
    """The graph's counts and the answer to each query on it."""
    results = tuple(run_query(graph, q) for q in queries)
    return ReachabilitySummary(tuple(graph.frontier), graph.stop, graph.edge_count, results)


def explore(
    model: Model,
    seed: Iterable[tuple[str, str]],
    max_steps: int,
    max_objects: int,
    queries: Sequence[Mapping] = (),
) -> ReachabilitySummary:
    """Count reachable states and answer the given queries.

    A query holds when some run of at most max_steps steps within the
    object bound satisfies it on one existing object; its witness is the
    shortest such run, least among equals (see ``ReachabilityGraph.shortest``).
    """
    return _summarize(build_graph(model, seed, max_steps, max_objects), queries)
