"""Consistency rules over a model and a stable diagnostic catalog.

Error rules cover privilege closure between process privileges and data
privileges, plus structural well-formedness; warning rules check that
status-point annotations are justified by the surrounding structure.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .model import ClassIndex, Model, ModelError, canonicalize


class UnknownCode(ModelError):
    """Asked to explain a diagnostic code that is not in the catalog."""


class InvalidModel(ModelError):
    """An operation that needs an error-free model was given one with errors."""

    def __init__(self, codes: list[str]) -> None:
        super().__init__(f"model has error diagnostics: {', '.join(codes)}")
        self.codes = codes


CATALOG: dict[str, str] = {
    # Reader codes: the text and JSON parsers and the name resolution
    # pass report these; ``validate`` never does. A code's prefix names its
    # severity (``Diagnostic.severity``).
    "E-SYN": (
        "Model text must follow the csm grammar: a quoted model name, then "
        "role, class, process and grant declarations inside one pair of "
        "braces."
    ),
    "E-REF": (
        "Every role and class that a process or grant names must be "
        "declared in the model."
    ),
    "E-DUP": (
        "A role, class or process is declared once, a role holds one "
        "privilege on a process, and a role has one grant per class."
    ),
    "E-TRF-MODE": (
        "A transform must state its mode: 'remaining' keeps the source "
        "token, 'leaving' consumes it."
    ),
    "E-TRF-END": (
        "A transform maps an input of its process to a different output of "
        "the same process."
    ),
    "E-JSON": (
        "A JSON model must be well-formed JSON in the interchange layout: "
        "the documented keys with values of the documented types, and names "
        "that the text form can write."
    ),
    "E-C1": (
        "Every class that appears as a transform endpoint must be declared a "
        "Dynamic state class: only dynamic states can be entered or left "
        "through a process firing."
    ),
    "E-C2": (
        "A role holding the creation privilege on a class also has the "
        "reference privilege on that class."
    ),
    "E-C3": (
        "A role holding owner or responsibility on a process must hold the "
        "reference privilege on all input classes of that process."
    ),
    "E-C4": (
        "A role holding owner or responsibility on a process must hold the "
        "creation privilege on all output classes of that process."
    ),
    "E-C5": (
        "A role holding owner privilege on a process must hold the "
        "reference+ privilege on all input and output classes of that "
        "process."
    ),
    "E-ORPHAN-P": (
        "Every process must name at least one owner or responsible role; a "
        "process nobody answers for cannot be executed."
    ),
    "W-DP": (
        "A class flagged as a decision point should be consumed by at least "
        "two processes, otherwise there is no choice to make at that state."
    ),
    "W-DP-MISS": (
        "A class consumed by two or more processes represents a choice "
        "between alternative next steps and should be flagged as a decision "
        "point."
    ),
    "W-FP": (
        "A class flagged as a fail point should have a second consuming "
        "process acting as a backup path when the service meets an obstacle."
    ),
    "W-WP": (
        "A class flagged as a waiting point should be shared between two "
        "distinct roles; otherwise no partner is waiting on it."
    ),
}


def explain(code: str) -> str:
    """Human-readable rule text for a catalog code."""
    try:
        return CATALOG[code]
    except KeyError:
        raise UnknownCode(code) from None


def _shared(idx: ClassIndex) -> bool:
    """Some role creates the class and some other role holds a ``+`` privilege."""
    # With both sets non-empty such a pair exists unless the two sets are
    # the same single role.
    return bool(idx.creators and idx.plus_readers) and len(idx.creators | idx.plus_readers) > 1


_NO_PRIVILEGES: frozenset[str] = frozenset()


def _lacks_reference_plus(role: str, process: str, c: str) -> Diagnostic:
    return Diagnostic(
        "E-C5",
        f"role={role} process={process} class={c}",
        f"owner {role!r} of {process!r} lacks reference+ on {c!r}",
        f"add reference+ to grant {role} on {c}",
    )


def _errors(model: Model) -> list[Diagnostic]:
    """The diagnostics of the six error rules, unsorted."""
    out: list[Diagnostic] = []

    # E-C1: transform endpoints must be dynamic states.
    for p in model.processes:
        for t in p.transforms:
            for end in (t.source, t.target):
                if not model.class_def(end).dynamic:
                    out.append(
                        Diagnostic(
                            "E-C1",
                            f"process={p.name} transform={t.source}->{t.target} class={end}",
                            f"transform endpoint {end!r} is not a dynamic state",
                            f"declare class {end} dynamic",
                        )
                    )

    # E-C2: creation implies reference. Judged once per distinct privilege
    # set: a model holds far fewer of them than grants.
    lacking = {
        privs
        for privs in set(model.class_grants.values())
        if "creation" in privs and "reference" not in privs
    }
    if lacking:
        for (role, class_name), privs in model.class_grants.items():
            if privs in lacking:
                out.append(
                    Diagnostic(
                        "E-C2",
                        f"role={role} class={class_name}",
                        f"role {role!r} creates {class_name!r} without the reference privilege",
                        f"add reference to grant {role} on {class_name}",
                    )
                )

    # E-C3 / E-C4 / E-C5: process privileges imply data privileges. Each
    # (role, class) grant is looked up once per process and judged for every
    # rule that reads it; the callers sort what is appended.
    grants = model.class_grants.get
    for p in model.processes:
        for owns, roles in ((True, p.owners), (False, p.responsibles)):
            for role in roles:
                for c in p.inputs:
                    privs = grants((role, c), _NO_PRIVILEGES)
                    if "reference" not in privs:
                        out.append(
                            Diagnostic(
                                "E-C3",
                                f"role={role} process={p.name} class={c}",
                                f"role {role!r} is privileged on {p.name!r} but lacks "
                                f"reference on input {c!r}",
                                f"add reference to grant {role} on {c}",
                            )
                        )
                    if owns and "reference+" not in privs:
                        out.append(_lacks_reference_plus(role, p.name, c))
                for c in p.outputs:
                    privs = grants((role, c), _NO_PRIVILEGES)
                    if "creation" not in privs:
                        wanted = "creation"
                        if "reference" not in privs:
                            wanted = "creation and reference"
                        out.append(
                            Diagnostic(
                                "E-C4",
                                f"role={role} process={p.name} class={c}",
                                f"role {role!r} is privileged on {p.name!r} but lacks "
                                f"creation on output {c!r}",
                                f"add {wanted} to grant {role} on {c}",
                            )
                        )
                    if owns and "reference+" not in privs and c not in p.inputs:
                        out.append(_lacks_reference_plus(role, p.name, c))

    # E-ORPHAN-P: every process has a responsible party.
    for p in model.processes:
        if not (p.owners or p.responsibles):
            out.append(
                Diagnostic(
                    "E-ORPHAN-P",
                    f"process={p.name}",
                    f"process {p.name!r} has no owner or responsible role",
                    f"declare an owner or responsible role for process {p.name}",
                )
            )

    return out


def validate(model: Model) -> list[Diagnostic]:
    """Evaluate every rule; returns diagnostics sorted by (code, site).

    W-WP reads ``model.class_index``: a waiting point is shared when some
    role creates the class and some other role holds a ``+`` privilege on it.
    """
    model = canonicalize(model)
    out = _errors(model)

    # Status-point warnings.
    consumers: dict[str, int] = {}
    for p in model.processes:
        for c in p.inputs:
            consumers[c] = consumers.get(c, 0) + 1
    index = model.class_index
    for c in model.classes:
        n = consumers.get(c.name, 0)
        if "decision" in c.status_points and n < 2:
            out.append(
                Diagnostic(
                    "W-DP",
                    f"class={c.name}",
                    f"decision point {c.name!r} is consumed by {n} process(es); "
                    "no alternative to choose between",
                    f"add a second consuming process or drop the decision flag on {c.name}",
                )
            )
        if "decision" not in c.status_points and n >= 2:
            out.append(
                Diagnostic(
                    "W-DP-MISS",
                    f"class={c.name}",
                    f"class {c.name!r} is consumed by {n} processes but is not "
                    "flagged as a decision point",
                    f"flag class {c.name} as a decision point",
                )
            )
        if "fail" in c.status_points and n < 2:
            out.append(
                Diagnostic(
                    "W-FP",
                    f"class={c.name}",
                    f"fail point {c.name!r} has no second consuming process to "
                    "act as a backup",
                    f"add a backup process consuming {c.name}",
                )
            )
        if "waiting" in c.status_points and not _shared(index[c.name]):
            out.append(
                Diagnostic(
                    "W-WP",
                    f"class={c.name}",
                    f"waiting point {c.name!r} is not shared between two roles; "
                    "nobody is waiting on it",
                    f"share {c.name} across roles or drop the waiting flag",
                )
            )

    out.sort(key=lambda d: d.sort_key)
    return out


def ensure_valid(model: Model) -> None:
    """Raise InvalidModel when any error-level rule fires, with the codes in
    ``validate``'s order. Only the error rules run: no warning is built."""
    model = canonicalize(model)
    errors = _errors(model)
    if errors:
        errors.sort(key=lambda d: d.sort_key)
        raise InvalidModel([d.code for d in errors])
