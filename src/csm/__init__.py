"""Toolkit for modelling services co-produced by several organizations.

Models name partner roles, information classes, business processes, and
the privileges roles hold on data and processes. On top of that the
package validates consistency rules, infers collaboration levels between
co-providers, simulates token-based execution with remaining/leaving state
semantics, and renders swim-lane diagrams.
"""

import gc as _gc

# Importing the layers makes many objects and no garbage, so the cyclic
# collector, which would only walk them, is off meanwhile; the state it was
# found in comes back. Freezing and then unfreezing moves what the import
# made into the oldest generation without walking it, so the next
# allocation starts no gen-0 sweep over it; objects a caller froze stay
# frozen, and then that move is skipped.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from .classifier import (
        CollaborationReport,
        LevelFinding,
        classify_all,
        classify_pair,
    )
    from .diagnostics import Diagnostic, SourceSpan
    from .dsl import ParseResult, emit_json, emit_text, parse_json, parse_text
    from .model import (
        PRIVILEGES,
        STATUS_POINTS,
        TRANSFORM_MODES,
        ClassDef,
        Model,
        ModelError,
        ProcessDef,
        SharedClass,
        Transform,
        canonicalize,
        shared_classes,
    )
    from .render import to_dot, to_mermaid
    from .simulator import ReachabilitySummary, TraceEvent, explore, run_script
    from .validator import InvalidModel, explain, validate
finally:
    if not _gc.get_freeze_count():
        _gc.freeze()
        _gc.unfreeze()
    if _collecting:
        _gc.enable()
    del _gc, _collecting

__version__ = "0.1.0"
