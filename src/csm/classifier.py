"""Collaboration-level inference from privilege patterns.

Between two co-provider roles the collaboration level is judged per shared
artifact, not per pair: a process both roles are privileged on, or a class
one role creates and the other reads. A pair of roles can therefore carry a
mix of levels at once.

Level patterns, checked in precedence order per artifact (first match wins):

* very tight  - one role owns the process, the other is responsible for it,
  and on some output the owner may modify foreign data while the partner
  may read it.
* tight       - both roles own the process and on the outputs they share
  each may only read the other's data (reference+ but no modification+ or
  suppression+).
* loose       - one role creates a class the other may only read via
  reference+, and the class is a waiting point: the reader is blocked on it.
* very loose  - the same sharing shape without the waiting point.

A class pattern does not apply to two roles that are both privileged on a
process that outputs the class.

Findings are built by artifact, not by role pair, walking the processes
and then the classes in name order: very tight is judged once for each
owner and responsible role of a process (its ``owners`` and
``responsibles``), tight once for each unordered pair of its owners (two
owners are judged once, not once per order), and the class patterns for
each class's creators and read-only ``reference+`` readers, read from the
model's per-class index (``Model.class_index``, built in one pass over the
grants). The cost grows with the privileges held, not with the square of
the number of roles.

The report lists the findings by (producer, consumer) pair, and within a
pair the process findings before the class findings, each in name order.
The walk already gives every pair's findings in that order, so a stable
sort by pair orders the report. A tight finding appears once, under its
sorted pair.
"""

from __future__ import annotations

from .diagnostics import _cached, _esc, _json_array, _record
from .model import Model, ModelError, canonicalize
from .validator import InvalidModel, ensure_valid


class SameRole(ModelError):
    """Collaboration levels are defined between distinct roles only."""


# The kind of artifact each level is judged on: shared processes for very
# tight and tight, shared classes for loose and very loose.
_ARTIFACT_KIND = {
    "very tight": "process", "tight": "process", "loose": "class", "very loose": "class"
}


class LevelFinding(_record("LevelFinding", "producer consumer artifact level evidence")):
    """One (producer, consumer, artifact) judgement with its evidence.

    ``level`` is one of ``"very tight"``, ``"tight"``, ``"loose"`` and
    ``"very loose"``, and ``evidence`` a tuple of strings. The level names
    the kind of artifact: ``artifact_kind`` is ``"process"`` for very tight
    and tight, ``"class"`` for loose and very loose.
    """

    __slots__ = ()

    @property
    def artifact_kind(self) -> str:
        """``"process"`` or ``"class"``, as the level is judged on."""
        return _ARTIFACT_KIND[self.level]


class CollaborationReport(_record("CollaborationReport", "findings")):
    """The tuple of ``LevelFinding``s for a model."""

    # No __slots__: pair_summary is cached in the instance __dict__.

    @_cached
    def pair_summary(self) -> dict[tuple[str, str], frozenset[str]]:
        """The levels found per (producer, consumer) pair, in pair order."""
        summary: dict[tuple[str, str], set[str]] = {}
        for f in self.findings:
            levels = summary.get(pair := (f.producer, f.consumer))
            if levels is None:
                levels = summary[pair] = set()
            levels.add(f.level)
        return {pair: frozenset(levels) for pair, levels in sorted(summary.items())}

    def levels_between(self, r1: str, r2: str) -> frozenset[str]:
        """Levels found for the unordered pair, either direction."""
        levels: set[str] = set()
        for pair in ((r1, r2), (r2, r1)):
            levels.update(self.pair_summary.get(pair, frozenset()))
        return frozenset(levels)

    def to_json(self) -> str:
        """``{"findings", "pair_summary"}`` as ``json.dumps(..., indent=2,
        sort_keys=True)`` writes it, ``pair_summary`` keyed by
        ``"producer->consumer"``; one finding an f-string, without ``json``."""
        findings = []
        for producer, consumer, artifact, level, evidence in self.findings:
            evidence_json = _json_array(map(_esc, evidence), "      ")
            findings.append(
                f'{{\n      "artifact": {_esc(artifact)},'
                f'\n      "artifact_kind": "{_ARTIFACT_KIND[level]}",'
                f'\n      "consumer": {_esc(consumer)},\n      "evidence": {evidence_json},'
                f'\n      "level": {_esc(level)},\n      "producer": {_esc(producer)}\n    }}'
            )
        # Pair order is sort_keys order: names hold no "-" or ">", and "-"
        # sorts before every identifier character.
        pairs = ",\n    ".join(
            "%s: %s" % (
                _esc("%s->%s" % pair),
                _json_array(map(_esc, sorted(levels)), "    "),
            )
            for pair, levels in self.pair_summary.items()
        )
        return _REPORT_JSON % (
            _json_array(findings, "  "),
            "{\n    %s\n  }" % pairs if pairs else "{}",
        )

    def to_table(self) -> str:
        header = ("LEVEL", "PRODUCER", "CONSUMER", "ARTIFACT")
        rows = [
            (f.level, f.producer, f.consumer, f.artifact)
            for f in self.findings
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(4)
        ]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*header)]
        lines.extend(fmt.format(*r) for r in rows)
        return "\n".join(lines) + "\n"


_REPORT_JSON = '{\n  "findings": %s,\n  "pair_summary": %s\n}'

_WRITE_PLUS = frozenset({"modification+", "suppression+"})
_NONE: frozenset[str] = frozenset()


def _producer(finding: LevelFinding) -> str:
    return finding[0]


def _consumer(finding: LevelFinding) -> str:
    return finding[1]


def _findings(model: Model) -> list[LevelFinding]:
    """Every finding of a canonical model: processes, then classes, each in
    name order.

    Each process is judged very tight once per (owner, responsible role)
    pair and tight once per pair of owners, the lower name as producer; each
    class pairs its creators with its read-only ``reference+`` readers. The
    findings of any one (producer, consumer) pair therefore come in report
    order, and a stable sort by pair orders them all.
    """
    grants = model.class_grants.get
    findings: list[LevelFinding] = []
    add = findings.append
    for p in model.processes:
        name, outputs, owners = p.name, p.outputs, p.owners
        for r1 in owners:
            for r2 in p.responsibles:
                hits = [
                    c
                    for c in outputs
                    if "modification+" in grants((r1, c), _NONE)
                    and "reference+" in grants((r2, c), _NONE)
                ]
                if hits:
                    add(
                        LevelFinding(
                            r1,
                            r2,
                            name,
                            "very tight",
                            (
                                f"owner({r1},{name})",
                                f"responsibility({r2},{name})",
                                *(
                                    f"modification+({r1},{c}) & reference+({r2},{c})"
                                    for c in hits
                                ),
                            ),
                        )
                    )
            for r2 in owners:
                if r1 >= r2:
                    continue
                shared = [
                    (c, g1, g2)
                    for c in outputs
                    if (g1 := grants((r1, c))) and (g2 := grants((r2, c)))
                ]
                if shared and all(
                    "reference+" in a
                    and "reference+" in b
                    and _WRITE_PLUS.isdisjoint(a)
                    and _WRITE_PLUS.isdisjoint(b)
                    for _, a, b in shared
                ):
                    add(
                        LevelFinding(
                            r1,
                            r2,
                            name,
                            "tight",
                            (
                                f"owner({r1},{name})",
                                f"owner({r2},{name})",
                                *(
                                    f"read-only sharing of {c} (reference+ both ways)"
                                    for c, _, _ in shared
                                ),
                            ),
                        )
                    )

    index = model.class_index
    for c in model.classes:
        name = c.name
        idx = index[name]
        if not idx.read_only_readers:
            continue
        if "waiting" in c.status_points:
            level, point = "loose", "waiting point"
        else:
            level, point = "very loose", "no waiting point"
        readers = [(r2, f"reference+({r2},{name})") for r2 in idx.read_only_readers]
        producers = [{*q.owners, *q.responsibles} for q in idx.producers]
        # A read-only reader holds no creation, so it is never the creator.
        for r1 in idx.creators:
            # Roles privileged with r1 on a process that outputs the class.
            partners = {r for privileged in producers if r1 in privileged for r in privileged}
            creation = f"creation({r1},{name})"
            for r2, reference in readers:
                if r2 not in partners:
                    add(LevelFinding(r1, r2, name, level, (creation, reference, point)))
    return findings


def classify_pair(model: Model, r1: str, r2: str) -> list[LevelFinding]:
    """Findings for the ordered pair: r1 as owner/producer side.

    Tight is symmetric and is reported with the roles in lexicographic
    order regardless of the argument order. Process findings come before
    class findings, each in name order. Each call judges every shared
    artifact of the model; use ``classify_all`` for all pairs at once.
    """
    model = canonicalize(model)
    model.require_role(r1)
    model.require_role(r2)
    if r1 == r2:
        raise SameRole(r1)
    return [
        f
        for f in _findings(model)
        if (f.producer, f.consumer) == (r1, r2)
        or (f.level == "tight" and (f.consumer, f.producer) == (r1, r2))
    ]


def classify_all(model: Model) -> CollaborationReport:
    """Findings for every ordered pair of distinct roles.

    Pairs come in sorted order, each with its process findings before its
    class findings, each in name order; a tight finding appears once, under
    its sorted pair. Raises InvalidModel when the model carries error-level
    diagnostics; level patterns assume the privilege-closure rules hold.
    """
    model = canonicalize(model)
    ensure_valid(model)
    findings = _findings(model)
    # One stable order by (producer, consumer), sorted as two stable passes
    # on string keys, which compare faster than tuples.
    findings.sort(key=_consumer)
    findings.sort(key=_producer)
    return CollaborationReport(tuple(findings))


__all__ = [
    "LevelFinding",
    "CollaborationReport",
    "SameRole",
    "InvalidModel",
    "classify_pair",
    "classify_all",
]
