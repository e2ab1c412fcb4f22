"""Diagnostic records shared by the parser and the validator, and the
record factory that every layer builds its records with."""

from __future__ import annotations

import sys

try:
    from _collections import _tuplegetter
except ImportError:  # an interpreter without CPython's accelerator
    def _tuplegetter(index: int, doc: str) -> property:
        return property(lambda self: self[index], doc=doc)

try:
    from _json import encode_basestring_ascii as _esc, make_scanner
except ImportError:  # an interpreter built without the C accelerator
    from json import loads as _loads
    from json.encoder import encode_basestring_ascii as _esc
else:
    class _Decoder:
        """The settings of json.loads' default decoder, which the scanner
        reads as attributes."""

        strict = True
        object_hook = None
        object_pairs_hook = None
        parse_float = float
        parse_int = int
        parse_constant = {
            "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
        }.__getitem__

    # The C scanner that json.loads' default decoder wraps, on that
    # decoder's settings; building it here leaves out the regexes that the
    # json package compiles at import.
    _scan = make_scanner(_Decoder)
    _SPACE = " \t\n\r"

    def _loads(s: str):
        """``json.loads(s)`` for a ``str``: the scanner reads a well-formed
        document, and ``json.loads`` itself reads any other text, so every
        error is json's own and ``json`` is imported only for those."""
        # lstrip returns s itself when there is nothing to strip.
        start = len(s) - len(s.lstrip(_SPACE))
        try:
            doc, end = _scan(s, start)
        except (StopIteration, SystemError):
            # No value at the start, or, before Python 3.12, an error inside
            # the document that the scanner raises once json.decoder is loaded.
            pass
        else:
            if not s[end:].lstrip(_SPACE):
                return doc
        import json

        return json.loads(s)


def _json_array(items, pad: str) -> str:
    """An array of JSON texts as ``json.dumps(indent=2)`` writes it when its
    closing bracket is indented by ``pad``: ``[]``, or one item a line.

    ``items`` are written as given, so strings come escaped
    (``map(_esc, strings)``) and objects as their own indented text.
    """
    body = (",\n  " + pad).join(items)
    return f"[\n  {pad}{body}\n{pad}]" if body else "[]"


# What namedtuple's _replace raises for an unknown field on this interpreter.
_UNKNOWN_FIELD = TypeError if sys.version_info >= (3, 13) else ValueError


class _Record(tuple):
    """The methods every record shares; ``_record`` builds the classes."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        """A record of the values in ``iterable``, one per field, taken as
        they are: a class's own ``__new__`` does not run."""
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        """A copy with the named fields changed, built by ``_make``."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise _UNKNOWN_FIELD(f"Got unexpected field names: {list(changes)!r}")
        return result

    def __repr__(self) -> str:
        return self.__class__.__name__ + self._repr_format % self

    def __getnewargs__(self) -> tuple:
        """The plain tuple, which copy and pickle pass to ``__new__``."""
        return tuple(self)


def _record(name: str, fields: str, defaults: tuple = ()) -> type:
    """A ``tuple`` subclass with the space-separated ``fields``, which the
    last of ``defaults`` fill when left out: ``collections.namedtuple``'s
    class without loading ``collections``. Field names are identifiers
    that do not start with ``_``."""
    names = tuple(fields.split())
    args = ", ".join(names)
    # As namedtuple does: one compiled constructor per class.
    new = eval(f"lambda _cls, {args}: _new(_cls, ({args},))", {"_new": tuple.__new__})
    new.__name__ = "__new__"
    new.__defaults__ = tuple(defaults) or None
    namespace = {
        # As namedtuple does: the caller's module, so that pickle finds a
        # record that is not subclassed.
        "__module__": sys._getframe(1).f_globals["__name__"],
        "__slots__": (),
        "__new__": new,
        "_fields": names,
        "__match_args__": names,
        "_repr_format": "(" + ", ".join(f"{field}=%r" for field in names) + ")",
    }
    for index, field in enumerate(names):
        namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
    return type(name, (_Record,), namespace)


class _cached:
    """A property computed on first read and kept in the instance
    ``__dict__``, which later reads find before this non-data descriptor."""

    def __init__(self, compute) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.compute.__name__] = self.compute(instance)
        return value


class SourceSpan(_record("SourceSpan", "file line column length", defaults=(0,))):
    """A location in a source file; line and column are 1-based."""

    __slots__ = ()


class Diagnostic(
    _record("Diagnostic", "code site message suggestion span", defaults=(None, None))
):
    """A single validation or parse finding.

    ``code``, ``site``, ``message`` and the optional ``suggestion`` are
    strings, and ``span`` is an optional ``SourceSpan``. The code's prefix
    names the severity: ``"error"`` for an ``E-`` code, ``"warning"`` for a
    ``W-`` code.
    """

    __slots__ = ()

    @property
    def severity(self) -> str:
        """``"error"`` for an ``E-`` code, else ``"warning"``."""
        return "error" if self.code.startswith("E-") else "warning"

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.code, self.site)

    def to_json(self) -> str:
        """``{"code", "message", "severity", "site", "span", "suggestion"}`` on
        one line as ``json.dumps(..., sort_keys=True)`` writes it, ``span``
        left out when there is none; from one template, without ``json``."""
        span = self.span
        return _DIAGNOSTIC_JSON % (
            _esc(self.code),
            _esc(self.message),
            _esc(self.severity),
            _esc(self.site),
            "" if span is None else _SPAN_JSON % (
                span.column, _esc(span.file), span.length, span.line
            ),
            "null" if self.suggestion is None else _esc(self.suggestion),
        )

    def render(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f"{self.span.file}:{self.span.line}:{self.span.column}: "
        return f"{loc}{self.code} [{self.severity}] {self.site}: {self.message}"


# Keys in sort_keys order, with json.dumps's default separators.
_DIAGNOSTIC_JSON = '{"code": %s, "message": %s, "severity": %s, "site": %s, %s"suggestion": %s}'
_SPAN_JSON = '"span": {"column": %d, "file": %s, "length": %d, "line": %d}, '


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)
