"""Core types and pure queries for collaborative service models.

A model names the partner roles, the information classes that objects move
through, the business processes that create or transform those objects, and
the data privileges each role holds on each class. Values are immutable
after construction and every query here is a pure function, so a model can
be shared between threads without coordination (the lookup indexes a model
caches on first use come out the same whichever thread builds them).
"""

from __future__ import annotations

from itertools import repeat

from .diagnostics import Diagnostic, SourceSpan, _cached, _record

# True for static checkers only: the annotations name these, and no command
# loads collections.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Mapping


class ModelError(Exception):
    """Structural problem with a model or with a query against it."""


class UnresolvedReference(ModelError):
    """A name is used but never declared."""


class DuplicateName(ModelError):
    """Two declarations of the same kind share a name."""


class InvalidTransform(ModelError):
    """A transform whose endpoints break its process contract."""


class InvalidModelName(ModelError):
    """A name the text form cannot write: a model name it cannot quote, or a
    role, class or process name that is not an identifier."""


# The text form's identifier: the only role, class and process names it reads.
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"


def _is_identifier(name: str) -> bool:
    """Whether ``name`` matches ``_IDENT`` whole, tested without ``re``: an
    ASCII Python identifier that does not start with ``_``."""
    return name.isascii() and name.isidentifier() and name[0] != "_"


def _identifier_problem(kind: str, name) -> str | None:
    """Why a role, class or process name is not an identifier, or ``None``
    when it is one."""
    if isinstance(name, str) and _is_identifier(name):
        return None
    return f"{kind} name must be an identifier, got {name!r}"


def _name_problem(name: str) -> str | None:
    """Why neither form can write the model name, or ``None`` when both can:
    the text form quotes it, so it holds no ``"`` and no line break, and both
    are UTF-8, so it holds no lone surrogate."""
    if '"' in name or "\n" in name:
        return "may not contain '\"' or a line break"
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return "must encode as UTF-8"
    return None


class UnknownRole(ModelError):
    pass


class UnknownProcess(ModelError):
    pass


class UnknownClass(ModelError):
    pass


# The words of each set, in canonical listing order: a record holds them as
# the strings both interchange forms write. The plain privileges concern
# instances the role created itself; the ``+`` variants concern instances
# created by other roles. A status point is a class annotation that matters
# to service realization, and a transform's mode says whether the source
# token survives the firing that transforms it.
PRIVILEGES = (
    "creation",
    "modification",
    "reference",
    "suppression",
    "modification+",
    "reference+",
    "suppression+",
)
STATUS_POINTS = ("waiting", "fail", "decision")
TRANSFORM_MODES = ("remaining", "leaving")

PLUS_PRIVILEGES = frozenset(p for p in PRIVILEGES if p.endswith("+"))

# Privileges a read-only reader must not hold on the class it reads.
_WRITE_PRIVILEGES = frozenset(PRIVILEGES) - {"reference", "reference+"}


class ClassDef(_record("ClassDef", "name dynamic status_points")):
    """An information class, optionally a significant dynamic state."""

    __slots__ = ()

    def __new__(
        cls, name: str, dynamic: bool = False, status_points: Iterable[str] = ()
    ) -> ClassDef:
        return tuple.__new__(cls, (name, bool(dynamic), frozenset(status_points)))


class Transform(_record("Transform", "source target mode")):
    """One state change declared by a process: source class to target class
    (names), with its mode from ``TRANSFORM_MODES``."""

    __slots__ = ()


class ProcessDef(
    _record("ProcessDef", "name inputs outputs transforms owners responsibles")
):
    """A business process with its inputs, outputs, transforms and roles.

    ``inputs`` and ``outputs`` are class names, ``transforms`` the process's
    ``Transform``s, and ``owners`` and ``responsibles`` the names of the
    roles that own the process and of those responsible for it; a role in
    neither holds no privilege on the process. Each is kept as a tuple.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        transforms: Iterable[Transform] = (),
        owners: Iterable[str] = (),
        responsibles: Iterable[str] = (),
    ) -> ProcessDef:
        return tuple.__new__(
            cls,
            (
                name,
                tuple(inputs),
                tuple(outputs),
                tuple(transforms),
                tuple(owners),
                tuple(responsibles),
            ),
        )

    @property
    def is_generator(self) -> bool:
        """True when the process has no inputs and mints fresh objects."""
        return not self.inputs


class ClassIndex(
    _record("ClassIndex", "creators plus_readers read_only_readers producers")
):
    """Who holds what on one class, and which processes output it.

    ``creators`` hold creation, ``plus_readers`` any ``+`` privilege, and
    ``read_only_readers`` reference+ with no creation or write privilege
    (each a frozenset of role names); ``producers`` is the tuple of
    ``ProcessDef``s that output the class.
    """

    __slots__ = ()


class Model(_record("Model", "name roles classes processes class_grants")):
    """A complete collaborative service model.

    ``roles``, ``classes`` (``ClassDef``) and ``processes`` (``ProcessDef``)
    are tuples. ``class_grants`` maps ``(role, class)`` to the frozenset of
    data privileges the role holds on the class; missing pairs mean no
    privileges.

    Lookup indexes are built on first use and cached on the instance: the
    name-to-definition maps for ``class_def``/``process_def``, and apart
    from them the per-class grant index ``class_index``. The instance also
    records whether name resolution built it, so ``canonicalize`` returns
    such a model as it is. Both rely on the values never changing after
    construction; ``_replace`` and ``_make`` give a copy with neither.
    """

    # No __slots__: the cached indexes live in the instance __dict__.

    def __new__(
        cls,
        name: str,
        roles: Iterable[str] = (),
        classes: Iterable[ClassDef] = (),
        processes: Iterable[ProcessDef] = (),
        class_grants: Mapping[tuple[str, str], Iterable[str]] | None = None,
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

    @_cached
    def _classes_by_name(self) -> dict[str, ClassDef]:
        return {c.name: c for c in self.classes}

    @_cached
    def _processes_by_name(self) -> dict[str, ProcessDef]:
        return {p.name: p for p in self.processes}

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

    @_cached
    def class_index(self) -> dict[str, ClassIndex]:
        """Per class name of a canonical model: its grant holders and
        producing processes.

        One pass over the grants; each distinct privilege set is classified
        once, since a model holds far fewer of them than grants.
        """
        # Per class: creators, plus readers, read-only readers, producers.
        holders: dict[str, tuple[list, list, list, list]] = {
            c.name: ([], [], [], []) for c in self.classes
        }
        kinds: dict[frozenset[str], tuple[bool, bool, bool]] = {}
        for (role, class_name), privs in self.class_grants.items():
            lists = holders[class_name]
            kind = kinds.get(privs)
            if kind is None:
                kind = kinds[privs] = (
                    "creation" in privs,
                    not PLUS_PRIVILEGES.isdisjoint(privs),
                    "reference+" in privs and _WRITE_PRIVILEGES.isdisjoint(privs),
                )
            creates, reads_plus, read_only = kind
            if creates:
                lists[0].append(role)
            if reads_plus:
                lists[1].append(role)
            if read_only:
                lists[2].append(role)
        for p in self.processes:
            for class_name in p.outputs:
                holders[class_name][3].append(p)
        return {
            name: tuple.__new__(
                ClassIndex,
                (frozenset(creators), frozenset(plus_readers), frozenset(read_only),
                 tuple(producers)),
            )
            for name, (creators, plus_readers, read_only, producers) in holders.items()
        }

    def require_role(self, name: str) -> None:
        if name not in self.roles:
            raise UnknownRole(name)

    def grants(self, role: str, class_name: str) -> frozenset[str]:
        return self.class_grants.get((role, class_name), frozenset())


# One process declaration before name resolution. ``owners``,
# ``responsibles``, ``inputs`` and ``outputs`` hold ``(name, position)``
# entries and ``transforms`` ``(Transform, position)`` entries, positions as
# in ``_Draft``; a parser appends to them as it reads.
_ProcessItem = _record(
    "_ProcessItem", "name offset owners responsibles inputs outputs transforms"
)


class _Draft:
    """Raw declarations, before name resolution; parsers append to its lists.

    Each entry keeps where in the source text its first name is (the role,
    class, process, item name, transform source or grant role): the offset
    where it starts when the token parser read the text, or the index of
    its line when the line reader did. Declarations that come from JSON or
    from a ``Model`` built in Python keep ``None``; those may come as any
    iterable of entries, such as ``zip(names, _NO_OFFSET)``, since
    ``_resolve`` reads each once. ``locate(position, name)`` turns a
    position into the ``SourceSpan`` of that name; it is called only for a
    diagnostic, and is ``None`` when there is no source text.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.roles: list[tuple[str, int | None]] = []
        self.classes: list[tuple[ClassDef, int | None]] = []
        self.processes: list[_ProcessItem] = []
        self.grants: list[tuple[str, str, frozenset[str], int | None]] = []
        self.locate: Callable[[int, str], SourceSpan] | None = None


# The offset of every entry without source text: ``zip(names, _NO_OFFSET)``.
# It never runs out and keeps no position, so one serves every draft.
_NO_OFFSET = repeat(None)


def _resolve(draft: _Draft) -> tuple[Model | None, list[Diagnostic]]:
    """Name resolution and duplicate checks over a draft.

    Returns the canonical model, marked for ``canonicalize`` to pass
    through, when no check fails, else ``None`` and one error diagnostic
    (E-DUP, E-REF or E-TRF-END) per failed check.
    """
    diags: list[Diagnostic] = []

    def err(code: str, site: str, message: str, offset: int | None, name: str) -> None:
        span = None if offset is None else draft.locate(offset, name)
        diags.append(Diagnostic(code, site, message, span=span))

    roles: set[str] = set()
    for name, offset in draft.roles:
        if name in roles:
            err("E-DUP", f"role={name}", f"role {name!r} declared twice", offset, name)
        else:
            roles.add(name)

    classes: dict[str, ClassDef] = {}
    for cdef, offset in draft.classes:
        if cdef.name in classes:
            err(
                "E-DUP",
                f"class={cdef.name}",
                f"class {cdef.name!r} declared twice",
                offset,
                cdef.name,
            )
        else:
            classes[cdef.name] = cdef

    processes: dict[str, ProcessDef] = {}
    for proc in draft.processes:
        name, offset, owners, responsibles, input_entries, output_entries, transform_entries = proc
        if name in processes:
            err("E-DUP", f"process={name}", f"process {name!r} declared twice", offset, name)
            continue
        held: set[str] = set()
        owned: list[str] = []
        responsible: list[str] = []
        for entries, target in ((owners, owned), (responsibles, responsible)):
            for rname, offset in entries:
                if rname not in roles:
                    err("E-REF", f"process={name} role={rname}",
                        f"role {rname!r} is not declared", offset, rname)
                elif rname in held:
                    err("E-DUP", f"process={name} role={rname}",
                        f"role {rname!r} already holds a privilege on this process",
                        offset, rname)
                else:
                    held.add(rname)
                    target.append(rname)
        inputs: set[str] = set()
        outputs: set[str] = set()
        for entries, target in ((input_entries, inputs), (output_entries, outputs)):
            for cname, offset in entries:
                if cname in classes:
                    target.add(cname)
                else:
                    err("E-REF", f"process={name} class={cname}",
                        f"class {cname!r} is not declared", offset, cname)
        transforms: set[Transform] = set()
        for t, offset in transform_entries:
            src, dst, _ = t
            if src != dst and src in inputs and dst in outputs:
                transforms.add(t)
                continue
            if src == dst:
                problems = ["a transform may not map a class to itself"]
            else:
                problems = []
                if src not in inputs:
                    problems.append(f"transform source {src!r} is not an input of the process")
                if dst not in outputs:
                    problems.append(f"transform target {dst!r} is not an output of the process")
            for message in problems:
                err("E-TRF-END", f"process={name} transform={src}->{dst}", message,
                    offset, src)
        processes[name] = _process_def(name, inputs, outputs, transforms, owned, responsible)

    grants: dict[tuple[str, str], frozenset[str]] = {}
    for role, class_name, privs, offset in draft.grants:
        key = (role, class_name)
        if role in roles and class_name in classes and key not in grants:
            grants[key] = privs
            continue
        if role not in roles:
            code, message = "E-REF", f"role {role!r} is not declared"
        elif class_name not in classes:
            code, message = "E-REF", f"class {class_name!r} is not declared"
        else:
            code, message = "E-DUP", "grant declared twice for this role and class"
        err(code, f"grant role={role} class={class_name}", message, offset, role)

    if diags:
        return None, diags
    return _sealed(draft.name, roles, classes, processes, grants), diags


def _process_def(
    name: str,
    inputs: set[str],
    outputs: set[str],
    transforms: set[Transform],
    owners: list[str],
    responsibles: list[str],
) -> ProcessDef:
    """The canonical ``ProcessDef`` of checked parts. Built with
    ``tuple.__new__``: its fields are already the tuples that the
    constructor would copy them into."""
    return tuple.__new__(
        ProcessDef,
        (
            name,
            tuple(sorted(inputs)),
            tuple(sorted(outputs)),
            # Most processes have one role and at most one transform: nothing to sort.
            tuple(sorted(transforms) if len(transforms) > 1 else transforms),
            tuple(sorted(owners) if len(owners) > 1 else owners),
            tuple(sorted(responsibles) if len(responsibles) > 1 else responsibles),
        ),
    )


def _in_order(items: dict) -> dict:
    """``items`` with its keys in sorted order: itself when they already are,
    as in any model the emitters wrote."""
    keys = sorted(items)
    return items if keys == list(items) else {key: items[key] for key in keys}


def _sealed(
    name: str,
    roles: set[str],
    classes: dict[str, ClassDef],
    processes: dict[str, ProcessDef],
    grants: dict[tuple[str, str], frozenset[str]],
) -> Model:
    """The canonical model of checked parts, marked for ``canonicalize`` to
    pass through, and built as ``_process_def`` builds a process."""
    grants = _in_order(grants)
    if not all(grants.values()):
        grants = {key: privs for key, privs in grants.items() if privs}
    model = tuple.__new__(
        Model,
        (
            name,
            tuple(sorted(roles)),
            tuple(_in_order(classes).values()),
            tuple(_in_order(processes).values()),
            grants,
        ),
    )
    model.__dict__["_canonical"] = True
    return model


_ERROR_BY_CODE = {
    "E-DUP": DuplicateName,
    "E-REF": UnresolvedReference,
    "E-TRF-END": InvalidTransform,
}


def canonicalize(model: Model) -> Model:
    """Return the canonical form of ``model``.

    A model name that is not a string or that neither form can write
    (``_name_problem``) raises ``InvalidModelName``, and so does a role,
    class or process name that is not an identifier
    (``[A-Za-z][A-Za-z0-9_]*``), with the message ``parse_json`` gives. A
    status point, transform mode or privilege that is not a word of
    ``STATUS_POINTS``, ``TRANSFORM_MODES`` or ``PRIVILEGES`` raises
    ``ModelError``, naming its class, process or grant. Then members are
    sorted lexicographically by name, empty grants are dropped, and every
    reference is checked against the declarations by the same resolution
    pass that text and JSON parsing use. The first failed check is raised
    as ``DuplicateName``, ``UnresolvedReference`` or ``InvalidTransform``.
    Idempotent; two models are equal exactly when their canonical forms
    are equal. A model that came out of name resolution (a parser's, or an
    earlier call's) is returned unchanged: it is sorted, checked, and has
    names the parsers could read.
    """
    if model.__dict__.get("_canonical"):
        return model
    if not isinstance(model.name, str):
        raise InvalidModelName(f"model name must be a string, got {model.name!r}")
    if problem := _name_problem(model.name):
        raise InvalidModelName(f"model name {model.name!r} {problem}")
    for kind, names in (("role", model.roles), ("class", model.class_names),
                        ("process", model.process_names)):
        for name in names:
            if problem := _identifier_problem(kind, name):
                raise InvalidModelName(problem)
    points, privileges = frozenset(STATUS_POINTS), frozenset(PRIVILEGES)
    for c in model.classes:
        if not c.status_points <= points:
            raise ModelError(f"class={c.name}: status points must be words of STATUS_POINTS")
    for p in model.processes:
        if any(t.mode not in TRANSFORM_MODES for t in p.transforms):
            raise ModelError(
                f"process={p.name}: transform modes must be words of TRANSFORM_MODES"
            )
    for (role, class_name), privs in model.class_grants.items():
        if not privs <= privileges:
            raise ModelError(
                f"grant role={role} class={class_name}: privileges must be words of PRIVILEGES"
            )
    draft = _Draft(model.name)
    draft.roles = zip(model.roles, _NO_OFFSET)
    draft.classes = zip(model.classes, _NO_OFFSET)
    draft.processes = [
        _ProcessItem(
            p.name,
            None,
            zip(p.owners, _NO_OFFSET),
            zip(p.responsibles, _NO_OFFSET),
            zip(p.inputs, _NO_OFFSET),
            zip(p.outputs, _NO_OFFSET),
            [(Transform(t.source, t.target, t.mode), None) for t in p.transforms],
        )
        for p in model.processes
    ]
    draft.grants = [(r, c, privs, None) for (r, c), privs in model.class_grants.items()]
    canonical, diags = _resolve(draft)
    if diags:
        first = diags[0]
        raise _ERROR_BY_CODE[first.code](f"{first.site}: {first.message}")
    return canonical


class SharedClass(_record("SharedClass", "class_name producer consumer")):
    """A class one role creates and the other reads across the boundary
    (class and role names)."""

    __slots__ = ()


def shared_classes(model: Model, r1: str, r2: str) -> frozenset[SharedClass]:
    """Classes shared between the two roles, with producer/consumer direction.

    A class is shared when one role holds creation on it and the other
    holds any of the ``+`` privileges (rights over foreign data). Read
    from ``model.class_index``.
    """
    model = canonicalize(model)
    model.require_role(r1)
    model.require_role(r2)
    return frozenset(
        SharedClass(name, producer, consumer)
        for name, idx in model.class_index.items()
        for producer, consumer in ((r1, r2), (r2, r1))
        if producer in idx.creators and consumer in idx.plus_readers
    )
