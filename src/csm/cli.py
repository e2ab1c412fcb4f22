"""Command-line front end: parse, validate, classify, simulate, render.

Exit codes: 0 success, 1 model-level failures (error diagnostics, strict
simulation failures), 2 usage errors, unreadable files or output that cannot
be written, a closed stdout included. Diagnostics go to stderr;
machine-readable payloads go to stdout.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace as _Args

from . import classifier, dsl, render, simulator, validator
from .diagnostics import has_errors
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
    """Seed entries that name declared classes, each entry at most once, and
    no object ``"new"``, which a script reads as a request to mint."""
    seed = _load_pairs(path, "seed", ("object", "class"))
    declared = set(model.class_names)
    seen = set()
    for object_id, class_name in seed:
        if object_id == simulator.NEW_OBJECT:
            raise _CliError(f"seed file {path} uses the reserved object id {object_id!r}", 2)
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


def _cmd_validate(args: _Args) -> int:
    model = _load_model(args.file)
    diags = validator.validate(model)
    for d in diags:
        print(json.dumps(d.to_dict(), sort_keys=True))
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
    script = _load_script(args.script)
    events = simulator.run_script(model, seed, script)
    for e in events:
        print(json.dumps(e.to_dict(), sort_keys=True))
    failed = any(e.outcome is not simulator.Outcome.FIRED for e in events)
    return 1 if args.strict and failed else 0


def _cmd_explore(args: _Args) -> int:
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


# The command line as a table. Each command reads one positional and its
# options; every command also takes -h/--help. An option row gives its
# strings, the attribute it sets, its kind (None for a flag, str or int for a
# value, or the tuple of allowed values), whether it is required, and its
# default. Usage and help are the bytes that argparse printed for the same
# command line at 80 columns; tests/helpers.py keeps that parser as the
# reference.
_Option = namedtuple("_Option", "strings dest kind required default")
_Command = namedtuple("_Command", "handler positional options usage help")

_HELP = _Option(("-h", "--help"), None, None, False, None)
_FILE_ONLY_HELP = """
positional arguments:
  file

options:
  -h, --help  show this help message and exit
"""

_COMMANDS = {
    "validate": _Command(
        _cmd_validate, "file", (), "usage: csm validate [-h] file\n", _FILE_ONLY_HELP
    ),
    "classify": _Command(
        _cmd_classify,
        "file",
        (_Option(("--json",), "json", None, False, False),),
        "usage: csm classify [-h] [--json] file\n",
        """
positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --json      emit the report as JSON
""",
    ),
    "simulate": _Command(
        _cmd_simulate,
        "file",
        (
            _Option(("--seed",), "seed", str, True, None),
            _Option(("--script",), "script", str, True, None),
            _Option(("--strict",), "strict", None, False, False),
        ),
        "usage: csm simulate [-h] --seed SEED --script SCRIPT [--strict] file\n",
        """
positional arguments:
  file

options:
  -h, --help       show this help message and exit
  --seed SEED      JSON array of {object, class}
  --script SCRIPT  JSON array of {process, object}
  --strict         exit 1 when any step fails to fire
""",
    ),
    "explore": _Command(
        _cmd_explore,
        "file",
        (
            _Option(("--seed",), "seed", str, True, None),
            _Option(("--query",), "query", str, False, None),
            _Option(("--max-steps",), "max_steps", int, False, 8),
            _Option(("--max-objects",), "max_objects", int, False, 2),
            _Option(("--stats",), "stats", None, False, False),
        ),
        """usage: csm explore [-h] --seed SEED [--query QUERY] [--max-steps MAX_STEPS]
                   [--max-objects MAX_OBJECTS] [--stats]
                   file
""",
        """
positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --seed SEED
  --query QUERY         JSON array of reachability queries
  --max-steps MAX_STEPS
  --max-objects MAX_OBJECTS
  --stats               write state, edge and frontier counts, phase times and
                        the stop reason to stderr as one JSON object
""",
    ),
    "render": _Command(
        _cmd_render,
        "file",
        (
            _Option(("--format",), "format", ("dot", "mermaid"), True, None),
            _Option(("-o", "--output"), "output", str, False, None),
            _Option(("--show-privileges",), "show_privileges", None, False, False),
        ),
        """usage: csm render [-h] --format {dot,mermaid} [-o OUTPUT] [--show-privileges]
                  file
""",
        """
positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --format {dot,mermaid}
  -o OUTPUT, --output OUTPUT
                        write to a file instead of stdout
  --show-privileges
""",
    ),
    "fmt": _Command(_cmd_fmt, "file", (), "usage: csm fmt [-h] file\n", _FILE_ONLY_HELP),
    "explain": _Command(
        _cmd_explain,
        "code",
        (),
        "usage: csm explain [-h] code\n",
        """
positional arguments:
  code

options:
  -h, --help  show this help message and exit
""",
    ),
}

# The top level reads only -h/--help before the command; the command
# positional takes the rest of the line.
_TOP = _Command(
    None,
    "command",
    (),
    "usage: csm [-h] {validate,classify,simulate,explore,render,fmt,explain} ...\n",
    """
Collaborative service model toolkit.

positional arguments:
  {validate,classify,simulate,explore,render,fmt,explain}
    validate            check a model against the rule catalog
    classify            infer collaboration levels per role pair
    simulate            run a scripted token trace
    explore             enumerate reachable states and run queries
    render              emit a DOT or Mermaid diagram
    fmt                 pretty-print the canonical model text
    explain             print the rule text of a diagnostic code

options:
  -h, --help            show this help message and exit
""",
)

# A dash and a number is a value, not an option, as in argparse.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Stop(Exception):
    """The command line was answered with help (exit 0) or a usage error (exit 2)."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


def _usage_error(prog: str, usage: str, message: str) -> _Stop:
    sys.stderr.write(f"{usage}{prog}: error: {message}\n")
    return _Stop(2)


def _read(prog: str, command: _Command, args: list[str]) -> tuple[dict, list[str]]:
    """The values ``command`` reads from ``args`` and the arguments left over.

    Each argument is a positional or an option string, with an explicit
    value after ``=`` or, for a short option, after its letter. A long
    option may be cut to a unique prefix. Every argument after the first
    ``--`` is a positional. The top level's positional takes the rest of
    the line, from the command name on.
    """
    table = {s: option for option in (_HELP, *command.options) for s in option.strings}

    def fail(message: str, option: _Option | None = None) -> _Stop:
        if option is not None:
            message = f"argument {'/'.join(option.strings)}: {message}"
        return _usage_error(prog, command.usage, message)

    def read_arg(arg: str):
        """None for a positional, else (option string or None when the
        command has no such option, explicit value or None)."""
        if not arg.startswith("-") or arg == "-":
            return None
        if arg in table:
            return arg, None
        name, eq, value = arg.partition("=")
        if eq and name in table:
            return name, value
        if arg[1] == "-":
            matches = [s for s in table if s.startswith(name)]
            explicit = value if eq else None
        else:
            matches = [arg[:2]] if arg[:2] in table else []
            explicit = arg[2:]
        if len(matches) > 1:
            raise fail(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
        if _NEGATIVE_NUMBER.match(arg) or " " in arg:
            return None
        return None, None

    kinds = []
    for i, arg in enumerate(args):
        if arg == "--":
            kinds += ["--"] + [None] * (len(args) - i - 1)
            break
        kinds.append(read_arg(arg))

    values = {option.dest: option.default for option in command.options}
    seen, extras, i = set(), [], 0
    while i < len(args):
        if kinds[i] is None or kinds[i] == "--":
            # A "--" right before or after the positional goes with it.
            j = i + (kinds[i] == "--")
            if command.positional in seen or j == len(args):
                extras.append(args[i])
                i += 1
            elif command is _TOP:
                values["command"] = args[i:]
                seen.add("command")
                break
            else:
                values[command.positional] = args[j]
                seen.add(command.positional)
                i = j + 1 + (kinds[j + 1 : j + 2] == ["--"])
            continue
        string, explicit = kinds[i]
        if string is None:
            extras.append(args[i])
            i += 1
            continue
        # Read the whole argument before acting on it: the letters after a
        # short flag are more short options (-hh), as argparse reads them.
        actions = []
        while True:
            option = table[string]
            if explicit is None:
                if option.kind is None:
                    actions.append((option, None))
                    i += 1
                elif kinds[i + 1 : i + 2] == [None]:
                    actions.append((option, args[i + 1]))
                    i += 2
                else:
                    raise fail("expected one argument", option)
                break
            if option.kind is not None:
                actions.append((option, explicit))
                i += 1
                break
            if string[1] == "-" or explicit == "" or "-" + explicit[0] not in table:
                raise fail(f"ignored explicit argument {explicit!r}", option)
            actions.append((option, None))
            string, explicit = "-" + explicit[0], explicit[1:] or None
        for option, value in actions:
            if option is _HELP:
                sys.stdout.write(command.usage + command.help)
                raise _Stop(0)
            if option.kind is None:
                value = True
            elif option.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise fail(f"invalid int value: {value!r}", option) from None
            elif option.kind is not str and value not in option.kind:
                choices = ", ".join(map(repr, option.kind))
                raise fail(f"invalid choice: {value!r} (choose from {choices})", option)
            values[option.dest] = value
            seen.add(option.dest)

    missing = [command.positional] if command.positional not in seen else []
    missing += ["/".join(o.strings) for o in command.options if o.required and o.dest not in seen]
    if missing:
        raise fail(f"the following arguments are required: {', '.join(missing)}")
    return values, extras


def _read_argv(argv: list[str]) -> _Args | int:
    """The parsed command line, or the exit code once help (exit 0) or a
    usage error (exit 2) has been printed."""
    try:
        top, extras = _read("csm", _TOP, argv)
        name, *rest = top["command"]
        command = _COMMANDS.get(name)
        if command is None:
            choices = ", ".join(map(repr, _COMMANDS))
            message = f"argument command: invalid choice: {name!r} (choose from {choices})"
            raise _usage_error("csm", _TOP.usage, message)
        values, more = _read(f"csm {name}", command, rest)
        if extras + more:
            message = f"unrecognized arguments: {' '.join(extras + more)}"
            raise _usage_error("csm", _TOP.usage, message)
    except _Stop as stop:
        return stop.code
    return _Args(command=name, func=command.handler, **values)


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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader closed stdout. Point fd 1 at the null device so that
        # the interpreter's own flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
