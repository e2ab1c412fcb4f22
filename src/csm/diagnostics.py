"""Diagnostic records shared by the parser and the validator."""

from __future__ import annotations

from collections import namedtuple

try:
    from _json import encode_basestring_ascii as _esc, make_scanner
except ImportError:  # an interpreter built without the C accelerator
    from json import loads as _loads
    from json.encoder import encode_basestring_ascii as _esc
else:
    from types import SimpleNamespace

    # The C scanner that json.loads' default decoder wraps, on that
    # decoder's settings; building it here leaves out the regexes that the
    # json package compiles at import.
    _scan = make_scanner(SimpleNamespace(
        strict=True,
        object_hook=None,
        object_pairs_hook=None,
        parse_float=float,
        parse_int=int,
        parse_constant={
            "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
        }.__getitem__,
    ))
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


class SourceSpan(namedtuple("SourceSpan", "file line column length", defaults=(0,))):
    """A location in a source file; line and column are 1-based."""

    __slots__ = ()


class Diagnostic(
    namedtuple(
        "Diagnostic",
        "code severity site message suggestion span",
        defaults=(None, None),
    )
):
    """A single validation or parse finding.

    ``code``, ``site``, ``message`` and the optional ``suggestion`` are
    strings, ``severity`` is ``"error"`` or ``"warning"``, and ``span`` is
    an optional ``SourceSpan``.
    """

    __slots__ = ()

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
