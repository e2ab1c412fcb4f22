"""Diagram emitters: Graphviz DOT and Mermaid flowchart text.

Visual mapping: an oval is a class, a box is a process, one swim-lane
cluster per role holds the processes that role owns. A process shared
across roles is drawn once in its home lane with a dashed alias node in
every other privileged role's lane. Status points show up as W/F/D
suffixes on the class label; transform output edges carry "remains" or
"leaves". Output is deterministic: identical models give identical bytes.
"""

from __future__ import annotations

from .model import PRIVILEGES, STATUS_POINTS, ClassDef, Model, ProcessDef, canonicalize
from .validator import ensure_valid

_POINT_LETTER = {"waiting": "W", "fail": "F", "decision": "D"}

_PRIV_ABBREV = {
    "creation": "c", "modification": "m", "reference": "r", "suppression": "s",
    "modification+": "m+", "reference+": "r+", "suppression+": "s+",
}


# The [WFD] suffix of a class label, per status-point set: a model holds at
# most eight distinct sets.
_POINT_SUFFIX: dict[frozenset[str], str] = {}


def _class_label(cdef: ClassDef, privileges: str = "") -> str:
    suffix = _POINT_SUFFIX.get(cdef.status_points)
    if suffix is None:
        letters = "".join(_POINT_LETTER[pt] for pt in STATUS_POINTS if pt in cdef.status_points)
        suffix = _POINT_SUFFIX[cdef.status_points] = f" [{letters}]" if letters else ""
    return cdef.name + suffix + privileges


def _privilege_lines(m: Model) -> dict[str, str]:
    """Per class name, the ``\\n role: c,m,...`` lines of its label, in role
    order: canonical grants are sorted by (role, class)."""
    listed: dict[frozenset[str], str] = {}
    lines: dict[str, str] = {}
    for (role, class_name), privs in m.class_grants.items():
        text = listed.get(privs)
        if text is None:
            text = listed[privs] = ",".join(_PRIV_ABBREV[p] for p in PRIVILEGES if p in privs)
        lines[class_name] = lines.get(class_name, "") + f"\\n{role}: {text}"
    return lines


def _home_role(p: ProcessDef) -> str:
    """Lane a process is drawn in: first owner, else first responsible. A
    canonical process lists its roles in name order, and a valid one has
    at least one."""
    return (p.owners or p.responsibles)[0]


def _lanes(m: Model) -> dict[str, list[tuple[ProcessDef, bool]]]:
    """Per role, in process order, each process the role holds a privilege
    on and whether the role is its home lane."""
    lanes: dict[str, list[tuple[ProcessDef, bool]]] = {role: [] for role in m.roles}
    for p in m.processes:
        home = _home_role(p)
        for role in (*p.owners, *p.responsibles):
            lanes[role].append((p, role == home))
    return lanes


_NO_LABELS: dict[str, str] = {}


def _edge_labels(p: ProcessDef) -> dict[str, str]:
    """Per output a transform of ``p`` targets, the label of its edge:
    "remains", "leaves", or both."""
    if not p.transforms:
        return _NO_LABELS
    modes: dict[str, set[str]] = {}
    for t in p.transforms:
        word = "remains" if t.mode == "remaining" else "leaves"
        modes.setdefault(t.target, set()).add(word)
    return {target: "/".join(sorted(words)) for target, words in modes.items()}


def to_dot(model: Model, show_privileges: bool = False) -> str:
    """Render the model as a Graphviz digraph."""
    m = canonicalize(model)
    ensure_valid(m)
    name = m.name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{name}" {{']
    if m.roles or m.classes or m.processes:
        lines.append("  rankdir=LR;")
    for role, lane in _lanes(m).items():
        lines.append(f'  subgraph "cluster_{role}" {{')
        lines.append(f'    label="{role}";')
        for p, home in lane:
            if home:
                lines.append(f'    "p_{p.name}" [shape=box, label="{p.name}"];')
            else:
                lines.append(
                    f'    "p_{p.name}__{role}" [shape=box, style=dashed, label="{p.name}"];'
                )
        lines.append("  }")
    privileges = _privilege_lines(m) if show_privileges else _NO_LABELS
    for c in m.classes:
        lines.append(
            f'  "c_{c.name}" [shape=oval, label="{_class_label(c, privileges.get(c.name, ""))}"];'
        )
    for p in m.processes:
        for c in p.inputs:
            lines.append(f'  "c_{c}" -> "p_{p.name}";')
        labels = _edge_labels(p)
        for c in p.outputs:
            label = labels.get(c)
            attr = f' [label="{label}"]' if label else ""
            lines.append(f'  "p_{p.name}" -> "c_{c}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_mermaid(model: Model) -> str:
    """Render the model as a Mermaid flowchart."""
    m = canonicalize(model)
    ensure_valid(m)
    lines = ["flowchart LR"]
    dashed: list[str] = []
    for role, lane in _lanes(m).items():
        lines.append(f"  subgraph {role}")
        for p, home in lane:
            if home:
                lines.append(f'    p_{p.name}["{p.name}"]')
            else:
                alias = f"p_{p.name}__{role}"
                lines.append(f'    {alias}["{p.name}"]')
                dashed.append(alias)
        lines.append("  end")
    for c in m.classes:
        lines.append(f'  c_{c.name}(["{_class_label(c)}"])')
    for p in m.processes:
        for c in p.inputs:
            lines.append(f"  c_{c} --> p_{p.name}")
        labels = _edge_labels(p)
        for c in p.outputs:
            label = labels.get(c)
            arrow = f" -->|{label}| " if label else " --> "
            lines.append(f"  p_{p.name}{arrow}c_{c}")
    for alias in dashed:
        lines.append(f"  style {alias} stroke-dasharray: 5 5")
    return "\n".join(lines) + "\n"
