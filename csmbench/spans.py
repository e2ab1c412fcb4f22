"""In-process spans around csm's public functions.

``Tracer.install`` replaces each traced function, in every loaded ``csm``
module that binds it, with a wrapper that records a span: name, start,
end, parent span and the trace id of the CLI-equivalent command that is
running. Spans stay in memory until ``write`` dumps them as JSON. Nothing
under ``src/`` is changed; the wrappers are removed by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

# (module, function) pairs that get a span; the layer is the module name.
TRACED = (
    ("dsl", "parse_text"), ("dsl", "parse_json"), ("dsl", "emit_text"), ("dsl", "emit_json"),
    ("model", "canonicalize"), ("model", "shared_classes"),
    ("validator", "validate"), ("validator", "ensure_valid"),
    ("classifier", "classify_all"), ("classifier", "classify_pair"),
    ("render", "to_dot"), ("render", "to_mermaid"),
    ("simulator", "run_script"), ("simulator", "explore"),
    ("simulator", "build_graph"), ("simulator", "run_query"),
)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts recorded at the span boundary."""
    if name in ("dsl.parse_text", "dsl.parse_json"):
        return {"bytes": len(args[0]), "diagnostics": len(result.diagnostics)}
    if name == "validator.validate":
        return {"diagnostics": len(result)}
    if name == "classifier.classify_all":
        return {"findings": len(result.findings)}
    if name in ("render.to_dot", "render.to_mermaid"):
        return {"bytes": len(result.encode())}
    if name == "simulator.build_graph":
        return {"states": result.state_count,
                "edges": sum(len(v) for v in result.edges.values())}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = ""
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def command(self, trace_id: str, name: str = "cli.main"):
        """A root span that opens a new trace."""
        self._trace = trace_id
        self._open(name)
        try:
            yield
        finally:
            self._close({})
            self._trace = ""

    def _open(self, name: str) -> None:
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "trace": self._trace,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        })
        self._stack.append(len(self.spans) - 1)

    def _close(self, counts: dict) -> None:
        span = self.spans[self._stack.pop()]
        span["end"] = time.perf_counter()
        span.update(counts)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(_counts(name, args, result) if result is not None else {})

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "csm" or n.startswith("csm.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"csm.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path, extra: dict) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}, indent=1) + "\n",
                        encoding="utf-8")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers
