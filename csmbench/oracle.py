"""Answers the benchmark checks csm against, computed without csm.

* ``read_text`` / ``read_json`` read a model into the canonical document
  layout that ``synth`` writes, with a reader of their own.
* ``check_dot`` / ``check_mermaid`` check diagram syntax statement by
  statement and count nodes, lanes and edges against the model document.
* ``Lifecycles`` is the object-level token semantics (an object is a set of
  classes; firing removes the sources of leaving transforms and adds the
  outputs; a generator mints an object holding its outputs). Because a
  firing touches one object only, a query holds in some reachable global
  state exactly when it holds along one object's lifecycle, so verdicts
  follow from lifecycles without any bound on steps or objects.
* The remaining constants are the answers the source paper and the
  fixture comments give.
"""

from __future__ import annotations

import json
import re

PRIVILEGES = (
    "creation", "modification", "reference", "suppression",
    "modification+", "reference+", "suppression+",
)
POINTS = ("waiting", "fail", "decision")

# Collaboration levels the source paper gives for its five level scenarios,
# as (producer, consumer) -> levels; healthcare is judged per unordered pair.
PAPER_LEVELS = {
    "hotel_agency": {("Hotel", "Agency"): {"very tight"}},
    "airline_alliance": {("AirlineA", "AirlineB"): {"tight"}},
    "gp_lab": {("GP", "Laboratory"): {"loose"}, ("Laboratory", "GP"): {"loose"}},
    "gp_hospital": {("GP", "Hospital"): {"very loose"}, ("Hospital", "GP"): {"very loose"}},
}
HEALTHCARE_PAIRS = {
    frozenset({"GP", "Laboratory"}): {"loose"},
    frozenset({"GP", "Hospital"}): {"very loose"},
}
# Each negative fixture breaks exactly one error rule.
BAD_RULES = {
    "bad_c1": "E-C1", "bad_c2": "E-C2", "bad_c3": "E-C3",
    "bad_c4": "E-C4", "bad_c5": "E-C5", "bad_orphan": "E-ORPHAN-P",
}

_TOKEN = re.compile(r'"[^"\n]*"|[A-Za-z][A-Za-z0-9_]*\+?|->|[{},]')


def canonical(doc: dict) -> dict:
    """The document with every member list in canonical order."""
    return {
        "name": doc["name"],
        "roles": sorted(doc["roles"]),
        "classes": sorted(
            ({"name": c["name"], "dynamic": bool(c.get("dynamic", False)),
              "status_points": [p for p in POINTS if p in c.get("status_points", [])]}
             for c in doc["classes"]),
            key=lambda c: c["name"],
        ),
        "processes": sorted(
            ({"name": p["name"],
              "owners": sorted(p.get("owners", [])),
              "responsibles": sorted(p.get("responsibles", [])),
              "inputs": sorted(set(p.get("inputs", []))),
              "outputs": sorted(set(p.get("outputs", []))),
              "transforms": sorted(
                  ({"from": t["from"], "to": t["to"], "mode": t["mode"]}
                   for t in p.get("transforms", [])),
                  key=lambda t: (t["from"], t["to"], t["mode"]))}
             for p in doc["processes"]),
            key=lambda p: p["name"],
        ),
        "grants": sorted(
            ({"role": g["role"], "class": g["class"],
              "privileges": [x for x in PRIVILEGES if x in g["privileges"]]}
             for g in doc["grants"] if g["privileges"]),
            key=lambda g: (g["role"], g["class"]),
        ),
    }


def read_json(text: str) -> dict:
    return canonical(json.loads(text))


def read_text(text: str) -> dict:
    """Read model text (the grammar in the csm README) into a document."""
    text = re.sub(r"#[^\n]*", "", text)
    toks = _TOKEN.findall(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r} at token {pos}")
        return tok

    def braced_list() -> list[str]:
        take("{")
        items = [take()]
        while toks[pos] == ",":
            take(",")
            items.append(take())
        take("}")
        return items

    take("model")
    doc = {"name": take().strip('"'), "roles": [], "classes": [], "processes": [],
           "grants": []}
    take("{")
    while toks[pos] != "}":
        kind = take()
        if kind == "role":
            doc["roles"].append(take())
        elif kind == "class":
            cls = {"name": take(), "dynamic": False, "status_points": []}
            if toks[pos] == "dynamic":
                take()
                cls["dynamic"] = True
            if toks[pos] == "{":
                cls["status_points"] = braced_list()
            doc["classes"].append(cls)
        elif kind == "process":
            proc = {"name": take(), "owners": [], "responsibles": [], "inputs": [],
                    "outputs": [], "transforms": []}
            take("{")
            fields = {"owner": "owners", "responsible": "responsibles",
                      "input": "inputs", "output": "outputs"}
            while toks[pos] != "}":
                item = take()
                if item == "transform":
                    src = take()
                    take("->")
                    proc["transforms"].append({"from": src, "to": take(), "mode": take()})
                else:
                    proc[fields[item]].append(take())
            take("}")
            doc["processes"].append(proc)
        elif kind == "grant":
            role = take()
            take("on")
            doc["grants"].append({"role": role, "class": take(), "privileges": braced_list()})
        else:
            raise ValueError(f"unknown declaration {kind!r}")
    take("}")
    if pos != len(toks):
        raise ValueError("text after the closing brace")
    return canonical(doc)


def _diagram_counts(doc: dict) -> dict:
    return {
        "lanes": len(doc["roles"]),
        "processes": len(doc["processes"]),
        "aliases": sum(len(p["owners"]) + len(p["responsibles"]) - 1 for p in doc["processes"]),
        "classes": len(doc["classes"]),
        "edges": sum(len(p["inputs"]) + len(p["outputs"]) for p in doc["processes"]),
    }


_DOT_STMTS = (
    ("open", re.compile(r'digraph "[^"]*" \{')),
    ("rankdir", re.compile(r"rankdir=LR;")),
    ("lane", re.compile(r'subgraph "cluster_[A-Za-z][A-Za-z0-9_]*" \{')),
    ("label", re.compile(r'label="[^"]*";')),
    ("alias", re.compile(r'"(p_\w+__\w+)" \[shape=box, style=dashed, label="\w+"\];')),
    ("process", re.compile(r'"(p_\w+)" \[shape=box, label="\w+"\];')),
    ("class", re.compile(r'"(c_\w+)" \[shape=oval, label="[^"]*"\];')),
    ("edge", re.compile(r'"(\w+)" -> "(\w+)"( \[label="[a-z/]+"\])?;')),
    ("close", re.compile(r"\}")),
)

_MERMAID_STMTS = (
    ("head", re.compile(r"flowchart LR")),
    ("lane", re.compile(r"subgraph [A-Za-z][A-Za-z0-9_]*")),
    ("close", re.compile(r"end")),
    ("alias", re.compile(r'(p_\w+__\w+)\["\w+"\]')),
    ("process", re.compile(r'(p_\w+)\["\w+"\]')),
    ("class", re.compile(r'(c_\w+)\(\["[^"]*"\]\)')),
    ("edge", re.compile(r"(\w+) -->(?:\|[a-z/]+\|)? (\w+)")),
    ("style", re.compile(r"style (p_\w+__\w+) stroke-dasharray: 5 5")),
)


def _check_diagram(text: str, doc: dict, stmts, kind: str) -> str | None:
    counts = {k: 0 for k in ("lanes", "processes", "aliases", "classes", "edges")}
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    depth = 0
    lines = text.rstrip("\n").split("\n")
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        for name, pattern in stmts:
            m = pattern.fullmatch(stripped)
            if m:
                break
        else:
            return f"{kind} line {number} is not a statement: {stripped[:80]!r}"
        if name in ("open", "lane"):
            depth += 1
            counts["lanes"] += name == "lane"
        elif name == "close":
            depth -= 1
            if depth < 0:
                return f"{kind} line {number} closes an unopened block"
        elif name in ("process", "alias", "class"):
            nodes.add(m.group(1))
            counts[{"process": "processes", "alias": "aliases", "class": "classes"}[name]] += 1
        elif name == "edge":
            edges.append((m.group(1), m.group(2)))
            counts["edges"] += 1
    if depth != 0:
        return f"{kind} blocks unbalanced: depth {depth} at end"
    missing = [e for e in edges if e[0] not in nodes or e[1] not in nodes]
    if missing:
        return f"{kind} edge to an undeclared node: {missing[0]}"
    want = _diagram_counts(doc)
    if counts != want:
        return f"{kind} counts {counts} differ from the model's {want}"
    return None


def check_dot(text: str, doc: dict) -> str | None:
    """None when the DOT text is well formed and matches the model's shape."""
    if not text.startswith("digraph "):
        return "DOT output does not start with a digraph"
    return _check_diagram(text, doc, _DOT_STMTS, "DOT")


def check_mermaid(text: str, doc: dict) -> str | None:
    """None when the Mermaid text is well formed and matches the model's shape."""
    if not text.startswith("flowchart LR\n"):
        return "Mermaid output does not start with 'flowchart LR'"
    return _check_diagram(text, doc, _MERMAID_STMTS, "Mermaid")


class Lifecycles:
    """Object-level reachability for one model document."""

    def __init__(self, doc: dict) -> None:
        self.procs = {}
        for p in doc["processes"]:
            leaving = frozenset(t["from"] for t in p["transforms"] if t["mode"] == "leaving")
            self.procs[p["name"]] = (frozenset(p["inputs"]), leaving, frozenset(p["outputs"]))
        self.generators = sorted(n for n, (ins, _, _) in self.procs.items() if not ins)

    def fire(self, state: frozenset, process: str) -> frozenset | None:
        """Successor of ``state`` under ``process``, or None when not enabled."""
        ins, leaving, outs = self.procs[process]
        if not ins or not ins <= state:
            return None
        return (state - leaving) | outs

    def _origins(self, seeded: list[frozenset], first: str | None):
        # (state, has-fired-first) pairs an object can start a lifecycle in.
        starts = [(s, False) for s in seeded]
        starts += [(self.procs[g][2], g == first) for g in self.generators]
        return starts

    def co_occurrence(self, seeded: list[frozenset], a: str, b: str) -> bool:
        seen: set = set()
        todo = [s for s, _ in self._origins(seeded, None)]
        while todo:
            s = todo.pop()
            if s in seen:
                continue
            seen.add(s)
            if a in s and b in s:
                return True
            todo.extend(n for p in self.procs if (n := self.fire(s, p)) is not None)
        return False

    def sequence(self, seeded: list[frozenset], first: str, then: str) -> bool:
        seen: set = set()
        todo = self._origins(seeded, first)
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            s, fired = node
            for p in self.procs:
                n = self.fire(s, p)
                if n is None:
                    continue
                if fired and p == then:
                    return True
                todo.append((n, fired or p == first))
        return False

    def verdict(self, seeded: list[frozenset], query: dict) -> bool:
        if query["type"] == "co_occurrence":
            return self.co_occurrence(seeded, *query["classes"])
        return self.sequence(seeded, query["first"], query["then"])

    def witness_holds(self, seed: list[tuple[str, str]], query: dict,
                      witness: list[list[str]]) -> str | None:
        """None when replaying ``witness`` from ``seed`` satisfies the query."""
        objects: dict[str, frozenset] = {}
        for oid, cls in seed:
            objects[oid] = objects.get(oid, frozenset()) | {cls}
        fired: list[tuple[str, str]] = []
        for process, oid in witness:
            if process not in self.procs:
                return f"witness names unknown process {process!r}"
            if not self.procs[process][0]:
                if oid in objects:
                    return f"witness mints existing object {oid!r}"
                objects[oid] = self.procs[process][2]
            else:
                nxt = self.fire(objects.get(oid, frozenset()), process)
                if nxt is None:
                    return f"witness step {process} {oid} is not enabled"
                objects[oid] = nxt
            fired.append((process, oid))
        if query["type"] == "co_occurrence":
            a, b = query["classes"]
            if not any(a in s and b in s for s in objects.values()):
                return "witness does not end in a co-occurrence"
            return None
        if not fired or fired[-1][0] != query["then"]:
            return "witness does not end with the 'then' process"
        oid = fired[-1][1]
        if (query["first"], oid) not in fired[:-1]:
            return "witness does not fire 'first' on the same object before"
        return None
