"""Diagnostic records shared by the parser and the validator."""

from __future__ import annotations

import enum
from collections import namedtuple


class SourceSpan(namedtuple("SourceSpan", "file line column length", defaults=(0,))):
    """A location in a source file; line and column are 1-based."""

    __slots__ = ()


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    __hash__ = object.__hash__


class Diagnostic(
    namedtuple(
        "Diagnostic",
        "code severity site message suggestion span",
        defaults=(None, None),
    )
):
    """A single validation or parse finding.

    ``code``, ``site``, ``message`` and the optional ``suggestion`` are
    strings, ``severity`` a ``Severity`` and ``span`` an optional
    ``SourceSpan``.
    """

    __slots__ = ()

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.code, self.site)

    def to_dict(self) -> dict:
        doc = {
            "code": self.code,
            "severity": self.severity.value,
            "site": self.site,
            "message": self.message,
            "suggestion": self.suggestion,
        }
        if self.span is not None:
            doc["span"] = {
                "file": self.span.file,
                "line": self.span.line,
                "column": self.span.column,
                "length": self.span.length,
            }
        return doc

    def render(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f"{self.span.file}:{self.span.line}:{self.span.column}: "
        return f"{loc}{self.code} [{self.severity.value}] {self.site}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
