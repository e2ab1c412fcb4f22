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

Findings are found by artifact, not by role pair: very tight is judged
once for each owner and responsible role of a process, tight once for each
unordered pair of its owners (two owners are judged once, not once per
order), and the class patterns for each class's creators and read-only
``reference+`` readers, read from the model's per-class index
(``Model.class_index``). The cost grows with the privileges held, not with
the square of the number of roles.

The report lists the findings sorted once: by (producer, consumer) pair,
and within a pair the process findings before the class findings, each in
name order. A tight finding appears once, under its sorted pair.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property

from .dsl import _esc, _json_array
from .model import (
    Model,
    ModelError,
    Privilege,
    ProcessPrivilege,
    StatusPoint,
)
from .validator import InvalidModel, ensure_valid


class SameRole(ModelError):
    """Collaboration levels are defined between distinct roles only."""


class Level(enum.Enum):
    VERY_TIGHT = "very tight"
    TIGHT = "tight"
    LOOSE = "loose"
    VERY_LOOSE = "very loose"


class LevelFinding(
    namedtuple(
        "LevelFinding", "producer consumer artifact artifact_kind level evidence"
    )
):
    """One (producer, consumer, artifact) judgement with its evidence.

    ``artifact_kind`` is ``"process"`` or ``"class"``, ``level`` a ``Level``
    and ``evidence`` a tuple of strings.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "producer": self.producer,
            "consumer": self.consumer,
            "artifact": self.artifact,
            "artifact_kind": self.artifact_kind,
            "level": self.level.value,
            "evidence": list(self.evidence),
        }


class CollaborationReport(namedtuple("CollaborationReport", "findings")):
    """The tuple of ``LevelFinding``s for a model."""

    # No __slots__: pair_summary is cached in the instance __dict__.

    @cached_property
    def pair_summary(self) -> dict[tuple[str, str], frozenset[Level]]:
        summary: dict[tuple[str, str], set[Level]] = {}
        for f in self.findings:
            summary.setdefault((f.producer, f.consumer), set()).add(f.level)
        return {pair: frozenset(levels) for pair, levels in summary.items()}

    def levels_between(self, r1: str, r2: str) -> frozenset[Level]:
        """Levels found for the unordered pair, either direction."""
        levels: set[Level] = set()
        for pair in ((r1, r2), (r2, r1)):
            levels.update(self.pair_summary.get(pair, frozenset()))
        return frozenset(levels)

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "pair_summary": {
                f"{producer}->{consumer}": sorted(l.value for l in levels)
                for (producer, consumer), levels in sorted(self.pair_summary.items())
            },
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, written
        one finding a template, without building the dicts."""
        pad = "      "
        findings = [
            _FINDING_JSON % (
                _esc(f.artifact),
                _esc(f.artifact_kind),
                _esc(f.consumer),
                _json_array(map(_esc, f.evidence), pad),
                _LEVEL_JSON[f.level],
                _esc(f.producer),
            )
            for f in self.findings
        ]
        # Keyed as to_dict keys them and sorted once, by key string as
        # sort_keys does: "A B->Z" comes before "A->Z", though ("A", "Z") <
        # ("A B", "Z"). Pairs whose keys coincide follow in pair order, so the
        # last one wins as in to_dict.
        summary = {
            "%s->%s" % pair: levels
            for pair, levels in sorted(
                self.pair_summary.items(), key=lambda item: ("%s->%s" % item[0], item[0])
            )
        }
        pairs = ",\n    ".join(
            "%s: %s" % (
                _esc(key),
                _json_array(map(_esc, sorted(l.value for l in levels)), "    "),
            )
            for key, levels in summary.items()
        )
        return _REPORT_JSON % (
            _json_array(findings, "  "),
            "{\n    %s\n  }" % pairs if pairs else "{}",
        )

    def to_table(self) -> str:
        header = ("LEVEL", "PRODUCER", "CONSUMER", "ARTIFACT")
        rows = [
            (f.level.value, f.producer, f.consumer, f.artifact)
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


_LEVEL_JSON = {level: _esc(level.value) for level in Level}
_REPORT_JSON = '{\n  "findings": %s,\n  "pair_summary": %s\n}'
_FINDING_JSON = (
    '{\n      "artifact": %s,\n      "artifact_kind": %s,\n      "consumer": %s,\n'
    '      "evidence": %s,\n      "level": %s,\n      "producer": %s\n    }'
)

_WRITE_PLUS = frozenset({Privilege.MODIFICATION_PLUS, Privilege.SUPPRESSION_PLUS})


def _findings(model: Model) -> list[LevelFinding]:
    """Every finding of the model, artifact by artifact, unsorted.

    Each process is judged very tight once per (owner, responsible role)
    pair and tight once per pair of owners, the lower name as producer; each
    class pairs its creators with its read-only ``reference+`` readers.
    """
    roles = set(model.roles)
    findings: list[LevelFinding] = []
    for p in model.processes:
        owners = [
            r for r, pp in p.role_privileges.items()
            if r in roles and pp is ProcessPrivilege.OWNER
        ]
        responsible = [
            r for r, pp in p.role_privileges.items()
            if r in roles and pp is ProcessPrivilege.RESPONSIBILITY
        ]
        outputs = sorted(p.outputs)
        for r1 in owners:
            for r2 in responsible:
                hits = [
                    c
                    for c in outputs
                    if Privilege.MODIFICATION_PLUS in model.grants(r1, c)
                    and Privilege.REFERENCE_PLUS in model.grants(r2, c)
                ]
                if hits:
                    findings.append(
                        LevelFinding(
                            producer=r1,
                            consumer=r2,
                            artifact=p.name,
                            artifact_kind="process",
                            level=Level.VERY_TIGHT,
                            evidence=(
                                f"owner({r1},{p.name})",
                                f"responsibility({r2},{p.name})",
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
                shared_outputs = [
                    c for c in outputs if model.grants(r1, c) and model.grants(r2, c)
                ]
                if shared_outputs and all(
                    Privilege.REFERENCE_PLUS in model.grants(r, c)
                    and not (model.grants(r, c) & _WRITE_PLUS)
                    for c in shared_outputs
                    for r in (r1, r2)
                ):
                    findings.append(
                        LevelFinding(
                            producer=r1,
                            consumer=r2,
                            artifact=p.name,
                            artifact_kind="process",
                            level=Level.TIGHT,
                            evidence=(
                                f"owner({r1},{p.name})",
                                f"owner({r2},{p.name})",
                                *(
                                    f"read-only sharing of {c} (reference+ both ways)"
                                    for c in shared_outputs
                                ),
                            ),
                        )
                    )

    index = model.class_index
    for c in model.classes:
        idx = index[c.name]
        waiting = StatusPoint.WAITING in c.status_points
        # A read-only reader holds no creation, so it is never the creator.
        for r1 in idx.creators:
            for r2 in idx.read_only_readers:
                if any(
                    r1 in q.role_privileges and r2 in q.role_privileges
                    for q in idx.producers
                ):
                    continue
                findings.append(
                    LevelFinding(
                        producer=r1,
                        consumer=r2,
                        artifact=c.name,
                        artifact_kind="class",
                        level=Level.LOOSE if waiting else Level.VERY_LOOSE,
                        evidence=(
                            f"creation({r1},{c.name})",
                            f"reference+({r2},{c.name})",
                            "waiting point" if waiting else "no waiting point",
                        ),
                    )
                )
    return findings


def classify_pair(model: Model, r1: str, r2: str) -> list[LevelFinding]:
    """Findings for the ordered pair: r1 as owner/producer side.

    Tight is symmetric and is reported with the roles in lexicographic
    order regardless of the argument order. Process findings come before
    class findings, each in name order. Each call judges every shared
    artifact of the model; use ``classify_all`` for all pairs at once.
    """
    model.require_role(r1)
    model.require_role(r2)
    if r1 == r2:
        raise SameRole(r1)
    return sorted(
        (
            f
            for f in _findings(model)
            if (f.producer, f.consumer) == (r1, r2)
            or (f.level is Level.TIGHT and (f.consumer, f.producer) == (r1, r2))
        ),
        key=lambda f: (f.artifact_kind == "class", f.artifact),
    )


def classify_all(model: Model) -> CollaborationReport:
    """Findings for every ordered pair of distinct roles.

    Pairs come in sorted order, each with its process findings before its
    class findings, each in name order; a tight finding appears once, under
    its sorted pair. Raises InvalidModel when the model carries error-level
    diagnostics; level patterns assume the privilege-closure rules hold.
    """
    ensure_valid(model)
    findings = sorted(
        _findings(model),
        key=lambda f: (f.producer, f.consumer, f.artifact_kind == "class", f.artifact),
    )
    # A model built in Python can repeat a name, and so a finding.
    return CollaborationReport(findings=tuple(dict.fromkeys(findings)))


__all__ = [
    "Level",
    "LevelFinding",
    "CollaborationReport",
    "SameRole",
    "InvalidModel",
    "classify_pair",
    "classify_all",
]
