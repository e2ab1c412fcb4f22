"""Command-line front end: parse, validate, classify, simulate, render.

Exit codes: 0 success, 1 model-level failures (error diagnostics, strict
simulation failures), 2 usage errors or unreadable files. Diagnostics go to
stderr; machine-readable payloads go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classifier, dsl, render, simulator, validator
from .diagnostics import Severity
from .model import Model


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _read_file(path: str, label: str) -> str:
    """The text of a UTF-8 file; ``label`` names it in the usage error
    raised when it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise _CliError(f"cannot read {label}: {exc}", 2) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(
            f"cannot read {label}: not valid UTF-8 (byte {exc.start}: {exc.reason})", 2
        ) from exc


def _load_model(path: str) -> Model:
    text = _read_file(path, path)
    if path.endswith(".json"):
        result = dsl.parse_json(text, file_label=path)
    else:
        result = dsl.parse_text(text, file_label=path)
    if result.model is None:
        for d in result.diagnostics:
            print(d.render(), file=sys.stderr)
        raise _CliError(f"{path}: model has errors", 1)
    return result.model


def _load_json(path: str, what: str):
    text = _read_file(path, f"{what} file {path}")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _CliError(f"malformed {what} file {path}: {exc}", 2) from exc


def _load_pairs(path: str, what: str, keys: tuple[str, str]) -> list[tuple[str, str]]:
    """Entries of a seed or script file: objects with a string under each key."""
    doc = _load_json(path, what)
    if not isinstance(doc, list):
        raise _CliError(f"{what} file {path} must be a JSON array", 2)
    pairs = []
    for entry in doc:
        values = tuple(entry.get(k) for k in keys) if isinstance(entry, dict) else ()
        if not (values and all(isinstance(v, str) for v in values)):
            raise _CliError(
                f"{what} entries need string values for {keys[0]!r} and {keys[1]!r}: "
                f"{entry!r}",
                2,
            )
        pairs.append(values)
    return pairs


def _load_seed(path: str, model: Model) -> list[tuple[str, str]]:
    """Seed entries that name declared classes, each entry at most once."""
    seed = _load_pairs(path, "seed", ("object", "class"))
    declared = set(model.class_names)
    seen = set()
    for object_id, class_name in seed:
        if class_name not in declared:
            raise _CliError(f"seed file {path} names no declared class: {class_name!r}", 2)
        if (object_id, class_name) in seen:
            raise _CliError(f"seed file {path} repeats {object_id!r} in {class_name!r}", 2)
        seen.add((object_id, class_name))
    return seed


def _load_script(path: str) -> list[tuple[str, str]]:
    return _load_pairs(path, "script", ("process", "object"))


_QUERY_OPERANDS = {"co_occurrence": ("classes",), "sequence": ("first", "then")}


def _load_queries(path: str, model: Model) -> list[dict]:
    """Query documents whose keys, value types and names all check out."""
    doc = _load_json(path, "query")
    if not isinstance(doc, list):
        raise _CliError(f"query file {path} must be a JSON array", 2)
    for query in doc:
        kind = query.get("type") if isinstance(query, dict) else None
        if kind not in _QUERY_OPERANDS:
            raise _CliError(
                f"query type must be 'co_occurrence' or 'sequence': {query!r}", 2
            )
        keys = {"type", *_QUERY_OPERANDS[kind]}
        if set(query) != keys:
            raise _CliError(
                f"{kind} query needs exactly the keys {', '.join(sorted(keys))}: {query!r}",
                2,
            )
        if kind == "co_occurrence":
            names, what, declared = query["classes"], "class", model.class_names
            if not (isinstance(names, list) and len(names) == 2):
                raise _CliError(f"'classes' must be an array of two class names: {query!r}", 2)
        else:
            names, what, declared = [query["first"], query["then"]], "process", model.process_names
        for name in names:
            if not (isinstance(name, str) and name in declared):
                raise _CliError(f"query names no declared {what}: {name!r}", 2)
    return doc


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out_path}: {exc}", 2) from exc
    else:
        sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    diags = validator.validate(model)
    for d in diags:
        print(json.dumps(d.to_dict(), sort_keys=True))
    return 1 if any(d.severity is Severity.ERROR for d in diags) else 0


def _cmd_classify(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    try:
        report = classifier.classify_all(model)
    except validator.InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.to_table())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    seed = _load_seed(args.seed, model)
    script = _load_script(args.script)
    events = simulator.run_script(model, seed, script)
    for e in events:
        print(json.dumps(e.to_dict(), sort_keys=True))
    failed = any(e.outcome is not simulator.Outcome.FIRED for e in events)
    return 1 if args.strict and failed else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    for option, value in (("--max-steps", args.max_steps), ("--max-objects", args.max_objects)):
        if value < 1:
            raise _CliError(f"{option} must be at least 1: {value}", 2)
    model = _load_model(args.file)
    seed = _load_seed(args.seed, model)
    queries = _load_queries(args.query, model) if args.query else []
    summary = simulator.explore(
        model, seed, max_steps=args.max_steps, max_objects=args.max_objects, queries=queries
    )
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    if args.stats:
        print(json.dumps(summary.stats, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    try:
        if args.format == "dot":
            text = render.to_dot(model, show_privileges=args.show_privileges)
        else:
            text = render.to_mermaid(model)
    except validator.InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_output(text, args.output)
    return 0


def _cmd_fmt(args: argparse.Namespace) -> int:
    model = _load_model(args.file)
    sys.stdout.write(dsl.emit_text(model))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csm", description="Collaborative service model toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model against the rule catalog")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="infer collaboration levels per role pair")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run a scripted token trace")
    p.add_argument("file")
    p.add_argument("--seed", required=True, help="JSON array of {object, class}")
    p.add_argument("--script", required=True, help="JSON array of {process, object}")
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when any step fails to fire"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("explore", help="enumerate reachable states and run queries")
    p.add_argument("file")
    p.add_argument("--seed", required=True)
    p.add_argument("--query", help="JSON array of reachability queries")
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument("--max-objects", type=int, default=2)
    p.add_argument(
        "--stats", action="store_true",
        help="write state, edge and frontier counts, phase times and the stop "
        "reason to stderr as one JSON object",
    )
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("render", help="emit a DOT or Mermaid diagram")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "mermaid"), required=True)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--show-privileges", action="store_true")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fmt", help="pretty-print the canonical model text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_fmt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entry() -> None:
    raise SystemExit(main())
