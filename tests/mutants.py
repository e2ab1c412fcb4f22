"""Deliberate defects that the test suite must catch, one row per mutant.

Each row is ``(file, old, new, tests)``: replacing the text ``old``, which
occurs exactly once in ``file``, by ``new`` must make at least one of the
pytest node ids in ``tests`` fail. A fast path that sits next to a slow
path, or an invariant a test pins, gets a row, so that the test which
guards it is known and can be rerun.

Run every row with ``python tests/mutants.py`` from the repository root, or
some rows by their numbers (``python tests/mutants.py 0 3``). For each row
the runner copies ``src``, ``tests``, ``csmbench`` and ``pyproject.toml`` to
a temporary directory, applies the edit there, and runs the named tests
with ``-x``, with the copy's ``src`` first on ``PYTHONPATH`` and the
caller's entries after it. It exits 1 when a mutant survives (its tests
pass) or its tests do not run, and 2, before any row, when the interpreter
cannot run pytest in that environment. The name of this file does not
start with ``test_``, so pytest does not collect it; ``test_mutants.py``
checks that each row still applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "csmbench", "pyproject.toml")

Mutant = namedtuple("Mutant", "file old new tests")

MUTANTS = (
    # Leaving transforms no longer clear their source class.
    Mutant(
        "src/csm/simulator.py",
        "_mask(bits, p.inputs), ~leaving, _mask(bits, p.outputs)",
        "_mask(bits, p.inputs), ~0, _mask(bits, p.outputs)",
        ("tests/test_simulator.py::TestCountedSpace::test_random_models",),
    ),
    # Every command line falls back to argparse.
    Mutant(
        "src/csm/cli.py",
        "    command = _COMMANDS.get(argv[0]) if argv else None\n",
        "    command = None\n",
        ("tests/test_cli.py::test_benchmark_commands_load_no_forbidden_module",),
    ),
    # The exact reader takes an option value that starts with "-".
    Mutant(
        "src/csm/cli.py",
        '        if value.startswith("-"):\n            return None\n',
        "",
        ("tests/test_cli_argv.py::test_every_error_kind",),
    ),
    # A command's help line is reworded.
    Mutant(
        "src/csm/cli.py",
        '"check a model against the rule catalog"',
        '"check a model against the rules"',
        ("tests/test_cli_argv.py::test_every_error_kind",),
    ),
    # Help follows the terminal width again.
    Mutant(
        "src/csm/cli.py",
        "argparse.HelpFormatter(prog, width=78)",
        "argparse.HelpFormatter(prog)",
        ("tests/test_cli_argv.py::test_help_ignores_the_terminal_width",),
    ),
    # The locator's column is off by one.
    Mutant(
        "src/csm/dsl.py",
        "offset - line_starts[li] + 1,",
        "offset - line_starts[li] + 2,",
        ("tests/test_dsl.py::TestResolutionSpans::test_resolution_errors_point_at_their_names",),
    ),
    # The token parser's line index is built on every parse, not for the
    # first diagnostic.
    Mutant(
        "src/csm/dsl.py",
        "    line_starts: list[int] = []\n",
        "    line_starts = _line_starts(text)\n",
        ("tests/test_dsl.py::TestResolutionSpans::test_a_well_formed_parse_builds_no_span",),
    ),
    # Status-point and privilege listings share one memo.
    Mutant(
        "src/csm/dsl.py",
        "    privilege_lists: dict = {}\n",
        "    privilege_lists = point_lists\n",
        ("tests/test_dsl.py::TestResolutionSpans::test_listings_are_read_per_list_kind",),
    ),
    # The script ends the process without flushing stdout.
    Mutant(
        "src/csm/cli.py",
        "        code = main()\n        sys.stdout.flush()\n",
        "        code = main()\n",
        ("tests/test_cli.py::test_entry_exits_with_what_main_wrote",),
    ),
    # The gate runs every rule again, warnings included.
    Mutant(
        "src/csm/validator.py",
        "    model = canonicalize(model)\n    errors = _errors(model)\n",
        '    errors = [d for d in validate(model) if d.severity == "error"]\n',
        ("tests/test_validator.py::TestEnsureValid::test_builds_no_warning",),
    ),
    # The gate lets every model through.
    Mutant(
        "src/csm/validator.py",
        "        raise InvalidModel([d.code for d in errors])\n",
        "        pass\n",
        ("tests/test_validator.py::TestEnsureValid::test_agrees_with_the_oracle",),
    ),
    # Findings are judged on the model as built, not on its canonical form.
    Mutant(
        "src/csm/classifier.py",
        "    model = canonicalize(model)\n    ensure_valid(model)\n",
        "    ensure_valid(model)\n",
        ("tests/test_classifier.py::TestReferenceOracle::test_random_models",),
    ),
    # The JSON reader takes a class name that is a string but not an identifier.
    Mutant(
        "src/csm/dsl.py",
        'if problem := _identifier_problem("class", cname):',
        'if problem := type(cname) is not str and _identifier_problem("class", cname):',
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_json_mistake_reaches_the_reporting_path",
        ),
    ),
    # One pair's findings are judged on the model as built.
    Mutant(
        "src/csm/classifier.py",
        "    model = canonicalize(model)\n    model.require_role(r1)\n",
        "    model.require_role(r1)\n",
        ("tests/test_model.py::test_every_entry_point_reads_the_model_through_canonicalize",),
    ),
    # Name resolution takes a role declared twice.
    Mutant(
        "src/csm/model.py",
        "        if name in roles:\n",
        "        if False:\n",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_text_mistake_reaches_the_reporting_path",
        ),
    ),
    # Name resolution takes a grant on an undeclared role or class.
    Mutant(
        "src/csm/model.py",
        "if role in roles and class_name in classes and key not in grants:",
        "if key not in grants:",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_json_mistake_reaches_the_reporting_path",
        ),
    ),
    # Name resolution takes a transform whose source is not an input.
    Mutant(
        "src/csm/model.py",
        "if src != dst and src in inputs and dst in outputs:",
        "if src != dst and dst in outputs:",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_text_mistake_reaches_the_reporting_path",
        ),
    ),
    # The simulator compiles the model as built, not its canonical form.
    Mutant(
        "src/csm/simulator.py",
        "    model = canonicalize(model)\n    if max_steps < 1",
        "    if max_steps < 1",
        ("tests/test_model.py::test_every_entry_point_reads_the_model_through_canonicalize",),
    ),
    # The JSON reader takes owners, responsibles, inputs and outputs that
    # are not strings, so name resolution reports them.
    Mutant(
        "src/csm/dsl.py",
        "            and all(map(_IS_STR, [*owners, *responsibles, *inputs, *outputs]))\n",
        "",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_json_mistake_reaches_the_reporting_path",
        ),
    ),
    # The JSON reader lets a number past the int-string limit raise.
    Mutant(
        "src/csm/dsl.py",
        "    except (ValueError, RecursionError) as exc:\n        # ValueError:",
        "    except (json.JSONDecodeError, RecursionError) as exc:\n        # ValueError:",
        ("tests/test_dsl.py::TestJson::test_number_past_the_digit_limit",),
    ),
    # A seed, script or query file does too.
    Mutant(
        "src/csm/cli.py",
        "    except (ValueError, RecursionError) as exc:  # see dsl.parse_json",
        "    except (json.JSONDecodeError, RecursionError) as exc:",
        (
            "tests/test_cli.py::TestUndecodableInput::"
            "test_number_past_the_digit_limit_in_a_json_file_exits_two",
        ),
    ),
    # A model name that holds a lone surrogate is taken.
    Mutant(
        "src/csm/model.py",
        '        name.encode("utf-8")\n',
        '        name.encode("utf-8", "surrogatepass")\n',
        ("tests/test_model.py::TestCanonicalize::test_name_that_does_not_encode_as_utf8_rejected",),
    ),
    # canonicalize takes status points that are not words of STATUS_POINTS.
    Mutant(
        "src/csm/model.py",
        "        if not c.status_points <= points:\n",
        "        if False:\n",
        ("tests/test_model.py::TestCanonicalize::test_members_of_the_wrong_kind_rejected",),
    ),
    # canonicalize takes privileges that are not words of PRIVILEGES.
    Mutant(
        "src/csm/model.py",
        "        if not privs <= privileges:\n",
        "        if False:\n",
        ("tests/test_model.py::TestCanonicalize::test_members_of_the_wrong_kind_rejected",),
    ),
    # A generator fires again on an object that already exists.
    Mutant(
        "src/csm/simulator.py",
        "        return None if held else out\n",
        "        return out\n",
        ("tests/test_simulator.py::TestFire::test_generator_mints_only_fresh_objects",),
    ),
    # A step blocked at a waiting point reads as not enabled.
    Mutant(
        "src/csm/simulator.py",
        '            outcome = "blocked-waiting" if waiting else "not-enabled"\n',
        '            outcome = "not-enabled"\n',
        ("tests/test_simulator.py::TestFire::test_blocked_waiting_flagged",),
    ),
    # The line reader takes a model name that neither form can write.
    Mutant(
        "src/csm/dsl.py",
        "    if _name_problem(name):\n        return None\n",
        "",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_text_mistake_reaches_the_reporting_path",
        ),
    ),
    # So does the token parser.
    Mutant(
        "src/csm/dsl.py",
        '                self.error("E-SYN", f"model name {problem}", name_tok, "model")\n',
        "                pass\n",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_text_mistake_reaches_the_reporting_path",
        ),
    ),
    # E-C4 asks for creation alone when the role lacks reference too.
    Mutant(
        "src/csm/validator.py",
        '                        if "reference" not in privs:\n                            wanted',
        '                        if "reference" in privs:\n                            wanted',
        ("tests/test_validator.py::TestSuggestions::test_c4_hint_names_each_missing_privilege",),
    ),
    # The token parser reads comments as tokens.
    Mutant(
        "src/csm/dsl.py",
        "            if k != _COMMENT_GROUP\n",
        "            if True\n",
        ("tests/test_dsl.py::TestLexer::test_tokens_match_a_reference_lexer",),
    ),
    # A diagnostic without a suggestion writes "" where json.dumps writes null.
    Mutant(
        "src/csm/diagnostics.py",
        '"null" if self.suggestion is None',
        '\'""\' if self.suggestion is None',
        ("tests/test_records.py::TestDiagnosticJson::test_parse_diagnostics_carry_spans",),
    ),
    # import csm leaves its objects in generation 0 for the next sweep.
    Mutant(
        "src/csm/__init__.py",
        "        _gc.freeze()\n        _gc.unfreeze()\n",
        "        pass\n",
        ("tests/test_cli.py::test_import_leaves_the_collector_as_found",),
    ),
    # import csm unfreezes what its caller froze.
    Mutant(
        "src/csm/__init__.py",
        "    if not _gc.get_freeze_count():\n",
        "    if True:\n",
        ("tests/test_cli.py::test_import_keeps_a_callers_frozen_objects",),
    ),
    # The JSON decoder takes what follows the document.
    Mutant(
        "src/csm/diagnostics.py",
        "            if not s[end:].lstrip(_SPACE):\n",
        "            if True:\n",
        ("tests/test_dsl.py::TestLoads::test_edge_cases",),
    ),
    # The exploration summary writes bound_exceeded as complete.
    Mutant(
        "src/csm/simulator.py",
        "            _JSON_BOOL[not self.complete],\n",
        "            _JSON_BOOL[self.complete],\n",
        ("tests/test_records.py::TestSimulatorJson::test_awkward_summaries",),
    ),
    # The identifier test takes a name that starts with "_", which the
    # token parser reads as junk.
    Mutant(
        "src/csm/model.py",
        'return name.isascii() and name.isidentifier() and name[0] != "_"',
        "return name.isascii() and name.isidentifier()",
        ("tests/test_model.py::test_identifier_test_agrees_with_the_grammar",),
    ),
    # The line reader takes input after the model's closing brace.
    Mutant(
        "src/csm/dsl.py",
        "            for li, line in rows:\n"
        '                if line.partition("#")[0].strip():\n'
        "                    return None\n",
        "",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_text_mistake_reaches_the_reporting_path",
        ),
    ),
    # An option abbreviated to a prefix keeps an explicit value of "--".
    Mutant(
        "src/csm/cli.py",
        '            found = [s for s in [*strings, "--help"] if s.startswith(name)]\n',
        "            found = []\n",
        ("tests/test_cli_argv.py::test_explicit_double_dash_is_the_value",),
    ),
    # The line reader's locator is a column off.
    Mutant(
        "src/csm/dsl.py",
        "        return SourceSpan(file_label, li + 1, at + 1, len(name))\n",
        "        return SourceSpan(file_label, li + 1, at + 2, len(name))\n",
        ("tests/test_dsl.py::TestResolutionSpans::test_resolution_errors_point_at_their_names",),
    ),
    # The line reader reads a comment as part of its line.
    Mutant(
        "src/csm/dsl.py",
        '    comments = "#" in text\n',
        "    comments = False\n",
        ("tests/test_dsl.py::TestOnePassReader::test_layouts_agree_with_the_reporting_path",),
    ),
    # The explore --stats line writes the stop reason without escaping it.
    Mutant(
        "src/csm/simulator.py",
        "            _esc(self.stop),\n",
        """            '"%s"' % self.stop,\n""",
        ("tests/test_records.py::TestSimulatorJson::test_stats_line",),
    ),
    # The classify report writes each finding's producer as its consumer.
    Mutant(
        "src/csm/classifier.py",
        '"consumer": {_esc(consumer)}',
        '"consumer": {_esc(producer)}',
        ("tests/test_cli.py::TestClassify::test_json_bytes",),
    ),
    # A trace event writes its detail without escaping it.
    Mutant(
        "src/csm/simulator.py",
        "            _esc(self.detail),\n",
        """            '"%s"' % self.detail,\n""",
        ("tests/test_records.py::TestSimulatorJson::test_awkward_trace_events",),
    ),
    # The model document swaps a grant's role and class.
    Mutant(
        "src/csm/dsl.py",
        "_GRANT_JSON % (_esc(class_name), listing(privs, PRIVILEGES), _esc(role))",
        "_GRANT_JSON % (_esc(role), listing(privs, PRIVILEGES), _esc(class_name))",
        ("tests/test_dsl.py::TestJson::test_emit_json_is_deterministic_bytes",),
    ),
    # The identifier test takes a name that is not ASCII, which the token
    # parser reads as junk; nothing else keeps it out of the line reader.
    Mutant(
        "src/csm/model.py",
        'return name.isascii() and name.isidentifier() and name[0] != "_"',
        'return name.isidentifier() and name[0] != "_"',
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_inserted_characters_agree_with_the_reporting_path",
        ),
    ),
    # Name resolution takes a role named twice on a process, once as owner
    # and once as responsible.
    Mutant(
        "src/csm/model.py",
        "                elif rname in held:\n",
        "                elif False:\n",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_json_mistake_reaches_the_reporting_path",
        ),
    ),
    # A process is drawn in its first responsible's lane, not its first
    # owner's.
    Mutant(
        "src/csm/render.py",
        "(p.owners or p.responsibles)[0]",
        "(p.responsibles or p.owners)[0]",
        ("tests/test_render.py::TestDot::test_swim_lanes_and_aliases",),
    ),
    # canonicalize takes transform modes that are not words of TRANSFORM_MODES.
    Mutant(
        "src/csm/model.py",
        "        if any(t.mode not in TRANSFORM_MODES for t in p.transforms):\n",
        "        if False:\n",
        ("tests/test_model.py::TestCanonicalize::test_members_of_the_wrong_kind_rejected",),
    ),
    # E-C1 finds each transform end by a scan over the classes, so validate
    # does work in the product of transforms and classes.
    Mutant(
        "src/csm/validator.py",
        "                if not model.class_def(end).dynamic:\n",
        "                if not next(c for c in model.classes if c.name == end).dynamic:\n",
        ("tests/test_scaling.py::test_each_doubling_stays_near_linear",),
    ),
    # A generator, whose input mask is 0, fires on an object that exists and
    # adds its outputs there.
    Mutant(
        "src/csm/simulator.py",
        "    if not need:\n        return None if held else out\n",
        "    if not need and not held:\n        return out\n",
        ("tests/test_simulator.py::TestRunScript::test_stale_generator_aborts",),
    ),
    # The explorer files the generators as movers too, each enabled on every
    # object.
    Mutant(
        "src/csm/simulator.py",
        "            if need:\n                self.movers.append(proc)\n            elif out",
        "            self.movers.append(proc)\n            if not need and out",
        ("tests/test_simulator.py::TestCountedSpace::test_random_models",),
    ),
    # A record's _make takes too few or too many values.
    Mutant(
        "src/csm/diagnostics.py",
        "        if len(result) != len(cls._fields):\n",
        "        if False:\n",
        ("tests/test_records.py::test_agrees_with_namedtuple",),
    ),
    # A record's _replace ignores a field the record does not have.
    Mutant(
        "src/csm/diagnostics.py",
        "        if changes:\n",
        "        if False:\n",
        ("tests/test_records.py::test_agrees_with_namedtuple",),
    ),
    # The cache keeps its value under another name than the attribute's, so
    # the descriptor runs again, and recomputes, on every read.
    Mutant(
        "src/csm/diagnostics.py",
        "instance.__dict__[self.compute.__name__] = ",
        'instance.__dict__["_" + self.compute.__name__] = ',
        ("tests/test_records.py::test_model_class_index_is_cached",),
    ),
    # The simulator loads json at import.
    Mutant(
        "src/csm/simulator.py",
        "from .diagnostics import _esc, _json_array, _record\n",
        "import json\n\nfrom .diagnostics import _esc, _json_array, _record\n",
        ("tests/test_cli.py::test_benchmark_commands_load_no_forbidden_module",),
    ),
    # The renderer loads os at import.
    Mutant(
        "src/csm/render.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nimport os\n",
        ("tests/test_cli.py::test_benchmark_commands_load_no_forbidden_module",),
    ),
    # The token parser's bisect import, which only a diagnostic needs, is
    # made at module level.
    Mutant(
        "src/csm/dsl.py",
        "from itertools import accumulate\n",
        "from bisect import bisect_right\nfrom itertools import accumulate\n",
        ("tests/test_cli.py::test_benchmark_commands_load_no_forbidden_module",),
    ),
    # A summary pruned by the object bound reads as complete.
    Mutant(
        "src/csm/simulator.py",
        '        return self.stop == "closed"\n\n    def to_json(self)',
        '        return self.stop != "step_bound"\n\n    def to_json(self)',
        ("tests/test_simulator.py::TestExplore::test_pruned_generator_is_not_a_proof",),
    ),
    # A code's prefix names the other severity.
    Mutant(
        "src/csm/diagnostics.py",
        'return "error" if self.code.startswith("E-") else "warning"',
        'return "error" if self.code.startswith("W-") else "warning"',
        ("tests/test_validator.py::TestCatalog::test_severities",),
    ),
    # Tight findings are judged on classes.
    Mutant(
        "src/csm/classifier.py",
        '"tight": "process"',
        '"tight": "class"',
        ("tests/test_classifier.py::TestReferenceOracle::test_fixtures",),
    ),
    # A query with a witness reads as unreachable.
    Mutant(
        "src/csm/simulator.py",
        "        return self.witness is not None\n",
        "        return self.witness is None\n",
        ("tests/test_records.py::TestSimulatorJson::test_every_fixture_run_and_explore",),
    ),
    # A summary counts the depths it reached, not the states.
    Mutant(
        "src/csm/simulator.py",
        "        return sum(self.frontier)\n\n    @property\n    def complete",
        "        return len(self.frontier)\n\n    @property\n    def complete",
        ("tests/test_records.py::TestSimulatorJson",),
    ),
    # A seed may name the object "new", which a script reads as a mint.
    Mutant(
        "src/csm/simulator.py",
        "        if object_id == NEW_OBJECT:\n            raise ModelError(",
        "        if False:\n            raise ModelError(",
        ("tests/test_cli.py::TestSimulate::test_bad_seed_entry_exits_two",),
    ),
    # A query's type is looked up before it is judged a string, so a list
    # type raises TypeError.
    Mutant(
        "src/csm/simulator.py",
        "isinstance(kind, str) and kind in _QUERY_OPERANDS",
        "kind in _QUERY_OPERANDS and isinstance(kind, str)",
        ("tests/test_cli_fuzz.py::test_cli_ends_in_an_exit_code_without_a_traceback",),
    ),
    # A co-occurrence query takes any number of classes from two on.
    Mutant(
        "src/csm/simulator.py",
        "len(names) == 2",
        "len(names) >= 2",
        ("tests/test_cli.py::TestExplore::test_bad_query_exits_two",),
    ),
    # The JSON reader's listing memo keeps a listing that named an unknown
    # word, so a later entry with the same listing goes unreported.
    Mutant(
        "src/csm/dsl.py",
        "        if len(errors) == mark:\n            memo[tuple(words)] = found\n",
        "        memo[tuple(words)] = found\n",
        (
            "tests/test_dsl.py::TestOnePassReader::"
            "test_planted_json_mistake_reaches_the_reporting_path",
        ),
    ),
)


def child_env(src: Path) -> dict[str, str]:
    """The environment a row's tests run in: ``src`` first on ``PYTHONPATH``,
    then the caller's entries, where pytest itself may be found."""
    paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def pytest_problem() -> str | None:
    """Why this interpreter cannot run pytest in the rows' environment (it
    cannot import it, or a plugin fails to load), or ``None`` when it can.
    The reason is the last line pytest writes to stderr when it collects
    ``test_mutants.py``."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--co", "-q", "-p", "no:cacheprovider",
         "tests/test_mutants.py"],
        cwd=ROOT,
        env=child_env(ROOT / "src"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if result.returncode == 0:
        return None
    lines = result.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit {result.returncode}"


def run(mutant: Mutant) -> int:
    """The exit code of the mutant's tests on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        path = work / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: the old text does not occur exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        return subprocess.run(
            [*command, *mutant.tests],
            cwd=work,
            env=child_env(work / "src"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        ).returncode


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    # A pytest that cannot start exits 1 too, which would read as "killed".
    problem = pytest_problem()
    if problem is not None:
        print(f"{sys.executable} cannot run pytest with this PYTHONPATH ({problem}); "
              "no row was run", flush=True)
        return 2
    bad = 0
    for i in picked:
        mutant = MUTANTS[i]
        code = run(mutant)
        # pytest exits 1 when a test failed; any other code means the tests
        # passed (0) or did not run.
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"NOT RUN (pytest exit {code})")
        print(f"{i}: {mutant.file}: {verdict}", flush=True)
        bad += code != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
