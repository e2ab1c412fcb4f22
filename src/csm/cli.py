"""Command-line front end: parse, validate, classify, simulate, render.

Exit codes: 0 success, 1 model-level failures (error diagnostics, strict
simulation failures), 2 usage errors, unreadable files or output that cannot
be written, a closed stdout included. Diagnostics go to stderr;
machine-readable payloads go to stdout.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

try:
    from posix import _exit  # loaded at start-up, unlike os
except ImportError:  # an interpreter without the posix module
    from os import _exit

from . import classifier, dsl, render, simulator, validator
from .diagnostics import _loads, has_errors
from .model import Model, ModelError


class _Args:
    def __init__(self, **values) -> None:
        self.__dict__.update(values)


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


def _load_array(path: str, what: str) -> list:
    """The JSON array in a seed, script or query file."""
    text = _read_file(path, f"{what} file {path}")
    try:
        doc = _loads(text)
    except (ValueError, RecursionError) as exc:  # see dsl.parse_json
        raise _CliError(f"malformed {what} file {path}: {exc}", 2) from exc
    if not isinstance(doc, list):
        raise _CliError(f"{what} file {path} must be a JSON array", 2)
    return doc


def _entry_error(what: str, path: str, at: tuple, message: str) -> _CliError:
    """The usage error of one entry of a side file: its file, the pointer of
    the value at fault, then ``message``, a predicate after a space or the
    error after a colon."""
    return _CliError(f"{what} file {path} at {simulator._pointer(at)}{message}", 2)


def _load_pairs(path: str, what: str, keys: tuple[str, str]) -> list[tuple[str, str]]:
    """Entries of a seed or script file: objects with a string under each key."""
    pairs = []
    for i, entry in enumerate(_load_array(path, what)):
        values = tuple(entry.get(k) for k in keys) if isinstance(entry, dict) else ()
        if not (values and all(isinstance(v, str) for v in values)):
            at = [k for k, v in zip(keys, values) if not isinstance(v, str)][:1]
            message = f": entries need string values for {keys[0]!r} and {keys[1]!r}: {entry!r}"
            raise _entry_error(what, path, (i, *at), message)
        pairs.append(values)
    return pairs


def _load_seed(path: str, model: Model) -> list[tuple[str, str]]:
    """Seed entries that the simulator takes for the model."""
    seed = _load_pairs(path, "seed", ("object", "class"))
    try:
        simulator._encode(simulator._class_bits(model), seed)
    except ModelError as exc:
        raise _CliError(f"seed file {path} {exc}", 2) from None
    return seed


def _load_queries(path: str, model: Model) -> list[dict]:
    """Query documents that the simulator takes for the model's names."""
    queries = _load_array(path, "query")
    for i, query in enumerate(queries):
        problem = simulator._query_problem(query, model.class_names, model.process_names)
        if problem is not None:
            at, message = problem
            raise _entry_error("query", path, (i, *at), message)
    return queries


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out_path}: {exc}", 2) from exc
    else:
        sys.stdout.write(text)


def _cmd_validate(args: _Args) -> int:
    model = _load_model(args.file)
    diags = validator.validate(model)
    sys.stdout.write("".join(d.to_json() + "\n" for d in diags))
    return 1 if has_errors(diags) else 0


def _cmd_classify(args: _Args) -> int:
    report = classifier.classify_all(_load_model(args.file))
    if args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.to_table())
    return 0


def _cmd_simulate(args: _Args) -> int:
    model = _load_model(args.file)
    seed = _load_seed(args.seed, model)
    script = _load_pairs(args.script, "script", ("process", "object"))
    events = simulator.run_script(model, seed, script)
    sys.stdout.write("".join(e.to_json() + "\n" for e in events))
    failed = any(e.outcome != "fired" for e in events)
    return 1 if args.strict and failed else 0


def _cmd_explore(args: _Args) -> int:
    for option, value in (("--max-steps", args.max_steps), ("--max-objects", args.max_objects)):
        if value < 1:
            raise _CliError(f"{option} must be at least 1: {value}", 2)
    model = _load_model(args.file)
    seed = _load_seed(args.seed, model)
    queries = _load_queries(args.query, model) if args.query else []
    started = perf_counter()
    graph = simulator.build_graph(model, seed, args.max_steps, args.max_objects)
    built = perf_counter()
    summary = simulator._summarize(graph, queries)
    done = perf_counter()
    print(summary.to_json())
    if args.stats:
        print(summary.stats_json(built - started, done - built), file=sys.stderr)
    return 0


def _cmd_render(args: _Args) -> int:
    model = _load_model(args.file)
    if args.format == "dot":
        text = render.to_dot(model, show_privileges=args.show_privileges)
    else:
        text = render.to_mermaid(model)
    _write_output(text, args.output)
    return 0


def _cmd_fmt(args: _Args) -> int:
    model = _load_model(args.file)
    sys.stdout.write(dsl.emit_text(model))
    return 0


def _cmd_explain(args: _Args) -> int:
    try:
        print(validator.explain(args.code))
    except validator.UnknownCode:
        known = ", ".join(validator.CATALOG)
        message = f"unknown diagnostic code {args.code!r} (choose from {known})"
        raise _CliError(message, 2) from None
    return 0


# The command line as one table. A command row is the tuple of its handler,
# its one positional, its help line and its option rows. An option row is
# the tuple of its strings, the attribute it sets, its kind (None for a
# flag, str or int for a value, or the tuple of allowed values), whether it
# is required, its default and its help. _read_exact reads the lines that
# name the command first and spell every option in full, which is how
# scripts write them; _parser builds the argparse parser from the same rows
# for every other line. tests/helpers.py keeps an argparse parser written by
# hand as the reference for both.
_COMMANDS = {
    "validate": (_cmd_validate, "file", "check a model against the rule catalog", ()),
    "classify": (
        _cmd_classify,
        "file",
        "infer collaboration levels per role pair",
        ((("--json",), "json", None, False, False, "emit the report as JSON"),),
    ),
    "simulate": (
        _cmd_simulate,
        "file",
        "run a scripted token trace",
        (
            (("--seed",), "seed", str, True, None, "JSON array of {object, class}"),
            (("--script",), "script", str, True, None, "JSON array of {process, object}"),
            (("--strict",), "strict", None, False, False, "exit 1 when any step fails to fire"),
        ),
    ),
    "explore": (
        _cmd_explore,
        "file",
        "enumerate reachable states and run queries",
        (
            (("--seed",), "seed", str, True, None, None),
            (("--query",), "query", str, False, None, "JSON array of reachability queries"),
            (("--max-steps",), "max_steps", int, False, 8, None),
            (("--max-objects",), "max_objects", int, False, 2, None),
            (("--stats",), "stats", None, False, False, "write state, edge and frontier "
             "counts, phase times and the stop reason to stderr as one JSON object"),
        ),
    ),
    "render": (
        _cmd_render,
        "file",
        "emit a DOT or Mermaid diagram",
        (
            (("--format",), "format", ("dot", "mermaid"), True, None, None),
            (("-o", "--output"), "output", str, False, None, "write to a file instead of stdout"),
            (("--show-privileges",), "show_privileges", None, False, False, None),
        ),
    ),
    "fmt": (_cmd_fmt, "file", "pretty-print the canonical model text", ()),
    "explain": (_cmd_explain, "code", "print the rule text of a diagnostic code", ()),
}


def _read_exact(argv: list[str]) -> _Args | None:
    """The command line read from the table, when argparse would read it the
    same way: the command first, then the positional (which does not start
    with "-") and options spelt in full, each value after "=" or as the next
    argument, none starting with "-". None for any other line."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    handler, positional, _, options = command
    table = {s: (dest, kind) for strings, dest, kind, *_ in options for s in strings}
    values = {dest: default for _, dest, _, _, default, _ in options}
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if positional in values:
                return None
            values[positional] = arg
            continue
        string, eq, value = arg.partition("=")
        dest, kind = table.get(string, (None, None))
        if dest is None or (eq and kind is None):
            return None
        if kind is None:
            values[dest] = True
            continue
        if not eq:
            value = next(rest, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if positional not in values or any(
        required and values[dest] is None for _, dest, _, required, _, _ in options
    ):
        return None
    return _Args(command=argv[0], func=handler, **values)


def _parser():
    """The argparse parser built from the table, and its parser per command.
    Help keeps the 80-column layout whatever the terminal width."""
    import argparse

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=78)

    parser = argparse.ArgumentParser(
        prog="csm", description="Collaborative service model toolkit.", formatter_class=formatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, positional, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, formatter_class=formatter)
        p.add_argument(positional)
        p.set_defaults(func=handler)
        for strings, dest, kind, required, default, text in options:
            if kind is None:
                reads = {"action": "store_true"}
            elif isinstance(kind, tuple):
                reads = {"choices": kind}
            else:
                reads = {"type": kind}
            p.add_argument(*strings, dest=dest, required=required, default=default, help=text,
                           **reads)
    return parser, sub.choices


def _without_dashes(argv: list[str]) -> tuple[list[str], set[str]]:
    """``argv`` with each explicit option value of "--" before a bare "--"
    (``--seed=--``, ``--se=--``, ``-o--``, ``-o=--``) replaced by a value
    that the option takes, and the dests of the options that had one.
    argparse stores such a value as [] before Python 3.13 and as "--" from
    3.13 on, where it checks it as an int or a choice first; read from the
    argument itself, the line is the same usage error on every version."""
    options, dests, out = None, set(), list(argv)
    for i, arg in enumerate(argv):
        if arg == "--":
            break
        if options is None:
            if not arg.startswith("-"):
                if arg not in _COMMANDS:
                    break
                _, _, _, options = _COMMANDS[arg]
            continue
        name, eq, value = arg.partition("=")
        if not eq and not arg.startswith("--"):
            name, value = arg[:2], arg[2:]
        if value != "--":
            continue
        # An exact option string, else the one long option it abbreviates.
        strings = {s: (dest, kind) for names, dest, kind, *_ in options for s in names}
        if name not in strings and name.startswith("--"):
            found = [s for s in [*strings, "--help"] if s.startswith(name)]
            name = found[0] if len(found) == 1 else None
        dest, kind = strings.get(name, (None, None))
        if kind is not None:
            taken = kind[0] if isinstance(kind, tuple) else "1"
            out[i] = arg[: len(arg) - 2] + taken
            dests.add(dest)
    return out, dests


def _read_argv(argv: list[str]) -> _Args | int:
    """The parsed command line, or the exit code once argparse has printed
    help (exit 0) or a usage error (exit 2)."""
    args = _read_exact(argv)
    if args is not None:
        return args
    parser, commands = _parser()
    argv, dashed = _without_dashes(argv)
    try:
        args = parser.parse_args(argv)
        _, _, _, options = _COMMANDS[args.command]
        for strings, dest, *_ in options:
            if dest in dashed:
                strings = "/".join(strings)
                commands[args.command].error(f"argument {strings}: expected one argument")
    except SystemExit as stop:
        return stop.code
    return args


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except validator.InvalidModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The ``csm`` script: one command per process. Nothing a command builds
    forms a reference cycle, so the cyclic collector is off. Once both
    streams are flushed the process ends with ``_exit``, which skips the
    teardown that frees the model object by object, and ``atexit`` handlers;
    code that embeds csm calls ``main`` instead."""
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    _exit(code)
