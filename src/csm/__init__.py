"""Toolkit for modelling services co-produced by several organizations.

Models name partner roles, information classes, business processes, and
the privileges roles hold on data and processes. On top of that the
package validates consistency rules, infers collaboration levels between
co-providers, simulates token-based execution with remaining/leaving state
semantics, and renders swim-lane diagrams.
"""

from .classifier import (
    CollaborationReport,
    Level,
    LevelFinding,
    classify_all,
    classify_pair,
)
from .diagnostics import Diagnostic, Severity, SourceSpan
from .dsl import ParseResult, emit_json, emit_text, parse_json, parse_text
from .model import (
    ClassDef,
    Model,
    ModelError,
    Privilege,
    ProcessDef,
    ProcessPrivilege,
    SharedClass,
    StatusPoint,
    Transform,
    TransformMode,
    canonicalize,
    shared_classes,
)
from .render import to_dot, to_mermaid
from .simulator import (
    Outcome,
    ReachabilitySummary,
    SimState,
    Token,
    TraceEvent,
    enabled,
    explore,
    fire,
    init_state,
    run_script,
)
from .validator import InvalidModel, explain, validate

__version__ = "0.1.0"
