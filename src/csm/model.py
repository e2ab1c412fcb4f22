"""Core types and pure queries for collaborative service models.

A model names the partner roles, the information classes that objects move
through, the business processes that create or transform those objects, and
the data privileges each role holds on each class. Values are immutable
after construction and every query here is a pure function, so a model can
be shared between threads without coordination (the lookup indexes a model
caches on first use come out the same whichever thread builds them).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property

from .diagnostics import Diagnostic, Severity, SourceSpan


class ModelError(Exception):
    """Structural problem with a model or with a query against it."""


class UnresolvedReference(ModelError):
    """A name is used but never declared."""


class DuplicateName(ModelError):
    """Two declarations of the same kind share a name."""


class InvalidTransform(ModelError):
    """A transform whose endpoints break its process contract."""


class InvalidModelName(ModelError):
    """The model name cannot be written as a quoted string of the text form."""


def _quotable_name(name: str) -> bool:
    """Whether the text form can quote the model name: no ``"``, no line break."""
    return '"' not in name and "\n" not in name


class UnknownRole(ModelError):
    pass


class UnknownProcess(ModelError):
    pass


class UnknownClass(ModelError):
    pass


class Privilege(enum.Enum):
    """Data privileges a role may hold on a class.

    The plain privileges concern instances the role created itself; the
    ``+`` variants concern instances created by other roles. Declaration
    order here is the canonical listing order.
    """

    CREATION = "creation"
    MODIFICATION = "modification"
    REFERENCE = "reference"
    SUPPRESSION = "suppression"
    MODIFICATION_PLUS = "modification+"
    REFERENCE_PLUS = "reference+"
    SUPPRESSION_PLUS = "suppression+"


PLUS_PRIVILEGES = frozenset(
    {Privilege.MODIFICATION_PLUS, Privilege.REFERENCE_PLUS, Privilege.SUPPRESSION_PLUS}
)

# Privileges a read-only reader must not hold on the class it reads.
_WRITE_PRIVILEGES = frozenset(
    {
        Privilege.CREATION,
        Privilege.MODIFICATION,
        Privilege.SUPPRESSION,
        Privilege.MODIFICATION_PLUS,
        Privilege.SUPPRESSION_PLUS,
    }
)

_PRIV_ORDER = {p: i for i, p in enumerate(Privilege)}
_PRIV_BY_TEXT = {p.value: p for p in Privilege}


def privilege_sort_key(priv: Privilege) -> int:
    """Position of a privilege in the canonical listing order."""
    return _PRIV_ORDER[priv]


def privilege_from_text(text: str) -> Privilege:
    try:
        return _PRIV_BY_TEXT[text]
    except KeyError:
        raise ModelError(f"unknown privilege {text!r}") from None


class StatusPoint(enum.Enum):
    """Class annotations that matter to service realization."""

    WAITING = "waiting"
    FAIL = "fail"
    DECISION = "decision"


_POINT_ORDER = {s: i for i, s in enumerate(StatusPoint)}


def status_point_sort_key(point: StatusPoint) -> int:
    return _POINT_ORDER[point]


class TransformMode(enum.Enum):
    """Whether the source token survives the firing that transforms it."""

    REMAINING = "remaining"
    LEAVING = "leaving"


class ProcessPrivilege(enum.Enum):
    OWNER = "owner"
    RESPONSIBILITY = "responsibility"


class ClassDef(namedtuple("ClassDef", "name dynamic status_points")):
    """An information class, optionally a significant dynamic state."""

    __slots__ = ()

    def __new__(
        cls, name: str, dynamic: bool = False, status_points: Iterable[StatusPoint] = ()
    ) -> ClassDef:
        return tuple.__new__(cls, (name, dynamic, frozenset(status_points)))


class Transform(namedtuple("Transform", "source target mode")):
    """One state change declared by a process: source class to target class
    (names), with its ``TransformMode``."""

    __slots__ = ()


class ProcessDef(
    namedtuple("ProcessDef", "name inputs outputs transforms role_privileges")
):
    """A business process with its inputs, outputs, transforms and roles.

    ``inputs`` and ``outputs`` are class names and ``transforms`` the
    process's ``Transform``s, each kept as a tuple. ``role_privileges``,
    kept as a copy, is a partial map from role name to ``ProcessPrivilege``:
    a role absent from it holds no privilege on the process at all.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        transforms: Iterable[Transform] = (),
        role_privileges: Mapping[str, ProcessPrivilege] | None = None,
    ) -> ProcessDef:
        return tuple.__new__(
            cls,
            (
                name,
                tuple(inputs),
                tuple(outputs),
                tuple(transforms),
                dict(role_privileges or {}),
            ),
        )

    @property
    def owners(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                r
                for r, pp in self.role_privileges.items()
                if pp is ProcessPrivilege.OWNER
            )
        )

    @property
    def responsibles(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                r
                for r, pp in self.role_privileges.items()
                if pp is ProcessPrivilege.RESPONSIBILITY
            )
        )

    @property
    def is_generator(self) -> bool:
        """True when the process has no inputs and mints fresh objects."""
        return not self.inputs


class ClassIndex(
    namedtuple("ClassIndex", "creators plus_readers read_only_readers producers")
):
    """Who holds what on one class, and which processes output it.

    Only declared roles are listed. ``creators`` hold creation,
    ``plus_readers`` any ``+`` privilege, and ``read_only_readers``
    reference+ with no creation or write privilege (each a frozenset of
    role names); ``producers`` is the tuple of ``ProcessDef``s that output
    the class.
    """

    __slots__ = ()


class Model(namedtuple("Model", "name roles classes processes class_grants")):
    """A complete collaborative service model.

    ``roles``, ``classes`` (``ClassDef``) and ``processes`` (``ProcessDef``)
    are tuples. ``class_grants`` maps ``(role, class)`` to the frozenset of
    data privileges the role holds on the class; missing pairs mean no
    privileges.

    Lookup indexes are built on first use and cached on the instance: the
    name-to-definition maps for ``class_def``/``process_def``, and apart
    from them the per-class grant index ``class_index``.
    """

    # No __slots__: the cached indexes live in the instance __dict__.

    def __new__(
        cls,
        name: str,
        roles: Iterable[str] = (),
        classes: Iterable[ClassDef] = (),
        processes: Iterable[ProcessDef] = (),
        class_grants: Mapping[tuple[str, str], Iterable[Privilege]] | None = None,
    ) -> Model:
        grants = {key: frozenset(privs) for key, privs in dict(class_grants or {}).items()}
        return tuple.__new__(
            cls, (name, tuple(roles), tuple(classes), tuple(processes), grants)
        )

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    @property
    def process_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.processes)

    # Built in reverse so that, in a model that repeats a name, the first
    # definition wins.
    @cached_property
    def _classes_by_name(self) -> dict[str, ClassDef]:
        return {c.name: c for c in reversed(self.classes)}

    @cached_property
    def _processes_by_name(self) -> dict[str, ProcessDef]:
        return {p.name: p for p in reversed(self.processes)}

    def class_def(self, name: str) -> ClassDef:
        try:
            return self._classes_by_name[name]
        except KeyError:
            raise UnknownClass(name) from None

    def process_def(self, name: str) -> ProcessDef:
        try:
            return self._processes_by_name[name]
        except KeyError:
            raise UnknownProcess(name) from None

    @cached_property
    def class_index(self) -> dict[str, ClassIndex]:
        """Per declared class name: its grant holders and producing processes."""
        roles = set(self.roles)
        creators: dict[str, set[str]] = {c.name: set() for c in self.classes}
        plus_readers: dict[str, set[str]] = {name: set() for name in creators}
        read_only: dict[str, set[str]] = {name: set() for name in creators}
        producers: dict[str, list[ProcessDef]] = {name: [] for name in creators}
        for (role, class_name), privs in self.class_grants.items():
            if role not in roles or class_name not in creators:
                continue
            if Privilege.CREATION in privs:
                creators[class_name].add(role)
            if privs & PLUS_PRIVILEGES:
                plus_readers[class_name].add(role)
            if Privilege.REFERENCE_PLUS in privs and not privs & _WRITE_PRIVILEGES:
                read_only[class_name].add(role)
        for p in self.processes:
            for class_name in p.outputs:
                if class_name in producers:
                    producers[class_name].append(p)
        return {
            name: ClassIndex(
                frozenset(creators[name]),
                frozenset(plus_readers[name]),
                frozenset(read_only[name]),
                tuple(producers[name]),
            )
            for name in creators
        }

    def require_role(self, name: str) -> None:
        if name not in self.roles:
            raise UnknownRole(name)

    def grants(self, role: str, class_name: str) -> frozenset[Privilege]:
        return self.class_grants.get((role, class_name), frozenset())


class _ProcessItem:
    """One process declaration before name resolution; parsers append to
    its lists."""

    def __init__(self, name: str, span: SourceSpan | None = None) -> None:
        self.name = name
        self.span = span
        self.owners: list[tuple[str, SourceSpan | None]] = []
        self.responsibles: list[tuple[str, SourceSpan | None]] = []
        self.inputs: list[tuple[str, SourceSpan | None]] = []
        self.outputs: list[tuple[str, SourceSpan | None]] = []
        self.transforms: list[tuple[str, str, TransformMode, SourceSpan | None]] = []


class _Draft:
    """Raw declarations, before name resolution; parsers append to its lists.

    Spans point into the source text; they are ``None`` for declarations
    that come from JSON or from a ``Model`` built in Python.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.roles: list[tuple[str, SourceSpan | None]] = []
        self.classes: list[tuple[ClassDef, SourceSpan | None]] = []
        self.processes: list[_ProcessItem] = []
        self.grants: list[tuple[str, str, frozenset[Privilege], SourceSpan | None]] = []


def _resolve(draft: _Draft) -> tuple[Model | None, list[Diagnostic]]:
    """Name resolution and duplicate checks over a draft.

    Returns the canonical model when no check fails, else ``None`` and one
    error diagnostic (E-DUP, E-REF or E-TRF-END) per failed check.
    """
    diags: list[Diagnostic] = []

    def err(code: str, site: str, message: str, span: SourceSpan | None) -> None:
        diags.append(
            Diagnostic(code=code, severity=Severity.ERROR, site=site, message=message, span=span)
        )

    roles: set[str] = set()
    for name, span in draft.roles:
        if name in roles:
            err("E-DUP", f"role={name}", f"role {name!r} declared twice", span)
        else:
            roles.add(name)

    classes: dict[str, ClassDef] = {}
    for cdef, span in draft.classes:
        if cdef.name in classes:
            err("E-DUP", f"class={cdef.name}", f"class {cdef.name!r} declared twice", span)
        else:
            classes[cdef.name] = cdef

    processes: dict[str, ProcessDef] = {}
    for proc in draft.processes:
        if proc.name in processes:
            err(
                "E-DUP",
                f"process={proc.name}",
                f"process {proc.name!r} declared twice",
                proc.span,
            )
            continue
        role_privileges: dict[str, ProcessPrivilege] = {}
        for entries, priv in (
            (proc.owners, ProcessPrivilege.OWNER),
            (proc.responsibles, ProcessPrivilege.RESPONSIBILITY),
        ):
            for rname, span in entries:
                if rname not in roles:
                    err(
                        "E-REF",
                        f"process={proc.name} role={rname}",
                        f"role {rname!r} is not declared",
                        span,
                    )
                elif rname in role_privileges:
                    err(
                        "E-DUP",
                        f"process={proc.name} role={rname}",
                        f"role {rname!r} already holds a privilege on this process",
                        span,
                    )
                else:
                    role_privileges[rname] = priv
        inputs: set[str] = set()
        outputs: set[str] = set()
        for entries, target in ((proc.inputs, inputs), (proc.outputs, outputs)):
            for cname, span in entries:
                if cname not in classes:
                    err(
                        "E-REF",
                        f"process={proc.name} class={cname}",
                        f"class {cname!r} is not declared",
                        span,
                    )
                else:
                    target.add(cname)
        transforms: set[Transform] = set()
        for src, dst, mode, span in proc.transforms:
            site = f"process={proc.name} transform={src}->{dst}"
            if src == dst:
                err("E-TRF-END", site, "a transform may not map a class to itself", span)
                continue
            ok = True
            if src not in inputs:
                err(
                    "E-TRF-END",
                    site,
                    f"transform source {src!r} is not an input of the process",
                    span,
                )
                ok = False
            if dst not in outputs:
                err(
                    "E-TRF-END",
                    site,
                    f"transform target {dst!r} is not an output of the process",
                    span,
                )
                ok = False
            if ok:
                transforms.add(Transform(src, dst, mode))
        processes[proc.name] = ProcessDef(
            name=proc.name,
            inputs=tuple(sorted(inputs)),
            outputs=tuple(sorted(outputs)),
            transforms=tuple(
                sorted(transforms, key=lambda t: (t.source, t.target, t.mode.value))
            ),
            role_privileges={r: role_privileges[r] for r in sorted(role_privileges)},
        )

    grants: dict[tuple[str, str], frozenset[Privilege]] = {}
    for role, class_name, privs, span in draft.grants:
        site = f"grant role={role} class={class_name}"
        if role not in roles:
            err("E-REF", site, f"role {role!r} is not declared", span)
        elif class_name not in classes:
            err("E-REF", site, f"class {class_name!r} is not declared", span)
        elif (role, class_name) in grants:
            err("E-DUP", site, "grant declared twice for this role and class", span)
        else:
            grants[(role, class_name)] = privs

    if diags:
        return None, diags
    model = Model(
        name=draft.name,
        roles=tuple(sorted(roles)),
        classes=tuple(classes[n] for n in sorted(classes)),
        processes=tuple(processes[n] for n in sorted(processes)),
        class_grants={key: grants[key] for key in sorted(grants) if grants[key]},
    )
    return model, diags


_ERROR_BY_CODE = {
    "E-DUP": DuplicateName,
    "E-REF": UnresolvedReference,
    "E-TRF-END": InvalidTransform,
}


def canonicalize(model: Model) -> Model:
    """Return the canonical form of ``model``.

    Members are sorted lexicographically by name, empty grants are dropped,
    and every reference is checked against the declarations by the same
    resolution pass that text and JSON parsing use. The first failed check
    is raised as ``DuplicateName``, ``UnresolvedReference`` or
    ``InvalidTransform``; a model name the text form cannot quote raises
    ``InvalidModelName``. Idempotent; two models are equal exactly when
    their canonical forms are equal.
    """
    if not _quotable_name(model.name):
        raise InvalidModelName(
            f"model name {model.name!r} may not contain '\"' or a line break"
        )
    draft = _Draft(model.name)
    draft.roles = [(r, None) for r in model.roles]
    draft.classes = [(c, None) for c in model.classes]
    for p in model.processes:
        item = _ProcessItem(p.name)
        item.owners = [(r, None) for r in p.owners]
        item.responsibles = [(r, None) for r in p.responsibles]
        item.inputs = [(c, None) for c in p.inputs]
        item.outputs = [(c, None) for c in p.outputs]
        item.transforms = [(t.source, t.target, t.mode, None) for t in p.transforms]
        draft.processes.append(item)
    draft.grants = [(r, c, privs, None) for (r, c), privs in model.class_grants.items()]
    canonical, diags = _resolve(draft)
    if diags:
        first = diags[0]
        raise _ERROR_BY_CODE[first.code](f"{first.site}: {first.message}")
    return canonical


class SharedClass(namedtuple("SharedClass", "class_name producer consumer")):
    """A class one role creates and the other reads across the boundary
    (class and role names)."""

    __slots__ = ()


def shared_classes(model: Model, r1: str, r2: str) -> frozenset[SharedClass]:
    """Classes shared between the two roles, with producer/consumer direction.

    A class is shared when one role holds creation on it and the other
    holds any of the ``+`` privileges (rights over foreign data). Read
    from ``model.class_index``.
    """
    model.require_role(r1)
    model.require_role(r2)
    return frozenset(
        SharedClass(name, producer, consumer)
        for name, idx in model.class_index.items()
        for producer, consumer in ((r1, r2), (r2, r1))
        if producer in idx.creators and consumer in idx.plus_readers
    )
