"""Same bytes: run csm's command lines on two source trees and compare what
each line writes.

Run from the repository root:

    python tests/same_bytes.py PARENT_SRC

It compares the tree at ``PARENT_SRC`` with this tree's ``src``. A parent
tree can be taken from git with ``git archive HEAD~ src | tar -x -C <dir>``.

The inputs are written once, by this tree's ``tests/helpers.py`` and
benchmark set-ups, to a temporary directory, so both trees read the same
files: every fixture and bad fixture as ``.csm`` and ``.json``, the scale
model (``synth.generate(24, 1000, 1000, 0.08, 511)``) as text and JSON, 50
seeded ``random_model`` and 50 ``random_valid_model`` models in both forms,
and 50 ``random_model_text`` layouts. Each model file goes through
``validate``, ``classify``, ``classify --json``, ``render --format dot``
with and without ``--show-privileges``, ``render --format mermaid`` and
``fmt``. The text of each fixture and bad fixture also goes through
``validate`` with each of three mistakes that the benchmark plants: a
transform's mode removed, a grant on an undeclared class and a repeated
role; and each goes through ``explore --stats`` from one object in its
first class within 2 steps, so the lines end by every stop word. JSON
models with ill-typed entries go through ``validate``: each document of
``PLANTED_JSON`` and ``MIXED_JSON`` in ``tests/helpers.py``, and 200
seeded grafts, each a fixture's or bad fixture's JSON form with 1-3 values
replaced by ``null``, ``5``, ``"x"``, ``[]``, ``[1]``, ``{}`` or
``{"reference+": 1}``. Then come ``explain`` for every catalog code and
one unknown code, the fixed argument lists of ``test_cli_argv.py`` (help
and each kind of usage error, and each explicit ``--`` value), a
``simulate`` or ``explore`` line for each error the CLI names in a seed
or query file, and the command lines that the benchmark's corpus and
scale set-ups build for seeds 1 and 2, each ``explore`` with ``--stats``
added.

One ``python -S`` child per tree calls ``csm.cli.main`` for each line, from
the input directory, and records its exit code, stdout and stderr. The two
children run side by side. The stderr line of ``explore --stats`` is
compared as JSON without ``build_s`` and ``query_s``, which are timings.
A small sample, one line per command on ``healthcare.csm`` and ``validate``
on one bad fixture, runs instead as whole ``csm`` processes, one per line
and tree (``python -S -c "from csm.cli import entry; entry()"``), so the
exit code and the streams are what ``entry`` flushes before it ends the
process.

The report gives the lines run, the lines that differ, and the first
differences per command. A line is named by its command line, with paths
relative to the input directory; a whole-process line starts with
``csm``. The tool exits 1 when a line differs, 2 when a child fails, and
0 otherwise. It needs no pytest; ``test_same_bytes.py``
runs it on the fixtures alone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import helpers  # noqa: E402
from csm import validator  # noqa: E402
from csm.dsl import emit_json, emit_text, parse_text  # noqa: E402
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text  # noqa: E402

MODEL_COMMANDS = (
    ("validate",),
    ("classify",),
    ("classify", "--json"),
    ("render", "--format", "dot"),
    ("render", "--format", "dot", "--show-privileges"),
    ("render", "--format", "mermaid"),
    ("fmt",),
)
RANDOM_MODELS = 50
JSON_GRAFTS = 200
BENCH_SEEDS = (1, 2)
TIMINGS = ("build_s", "query_s")
# The csm script's code; a line that starts with "csm" runs through it.
ENTRY = "from csm.cli import entry; entry()"

# Run in each tree's child: argv is that tree's src, the file of command
# lines and the file to write the runs to.
CHILD = """\
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from csm import cli
runs = []
with open(sys.argv[2], encoding="utf-8") as f:
    lines = json.load(f)
for argv in lines:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    runs.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[3], "w", encoding="utf-8") as f:
    json.dump(runs, f)
"""


def _model_lines(work: Path, stem: str, text: str, both: bool = True) -> list[list[str]]:
    """Every model command on ``text`` written as ``<stem>.csm``, and on its
    JSON form as ``<stem>.json`` when ``both`` is set."""
    names = [f"{stem}.csm"]
    (work / names[0]).write_text(text, encoding="utf-8")
    if both:
        names.append(f"{stem}.json")
        (work / names[1]).write_bytes(emit_json(parse_text(text).model))
    return [[command[0], name, *command[1:]] for name in names for command in MODEL_COMMANDS]


# The three mistakes that the benchmark's corpus plants in a fixture's text
# (``_broken_inputs`` in ``csmbench/run.py``): a transform's mode removed,
# a grant on an undeclared class and a repeated role. Each is a line test
# and the edit made to the first line that passes it.
MISTAKES = (
    ("no_mode",
     lambda ln: ln.strip().startswith("transform ")
     and ln.rstrip().endswith(("leaving", "remaining")),
     lambda ln: ln.rsplit(" ", 1)[0]),
    ("undeclared_class", lambda ln: ln.strip().startswith("grant "),
     lambda ln: ln.replace(" on ", " on Undeclared", 1)),
    ("repeated_role", lambda ln: ln.strip().startswith("role "), lambda ln: ln + "\n" + ln),
)


def _broken_lines(work: Path, stem: str, text: str) -> list[list[str]]:
    """``validate`` on ``text`` with each of ``MISTAKES`` that has a line to
    edit, written as ``<stem>_<mistake>.csm``."""
    rows = text.split("\n")
    lines = []
    for mistake, fits, edit in MISTAKES:
        at = next((i for i, row in enumerate(rows) if fits(row)), None)
        if at is None:
            continue
        name = f"{stem}_{mistake}.csm"
        broken = [*rows[:at], edit(rows[at]), *rows[at + 1:]]
        (work / name).write_text("\n".join(broken), encoding="utf-8")
        lines.append(["validate", name])
    return lines


def _process_lines(work: Path) -> list[list[str]]:
    """The whole-process sample: each command on ``healthcare.csm`` and
    ``validate`` on ``bad_c1.csm``, which ``_model_lines`` wrote."""
    for name, doc in (
        ("seed.json", [{"object": "p", "class": "CaredPatient"}]),
        ("script.json", [{"process": "CheckUp", "object": "new"}]),
        ("query.json", [{"type": "sequence", "first": "ReviewResult", "then": "RequestTest"}]),
    ):
        (work / name).write_text(json.dumps(doc), encoding="utf-8")
    model = "healthcare.csm"
    return [["csm", *line] for line in (
        ["validate", model],
        ["classify", model, "--json"],
        ["simulate", model, "--seed", "seed.json", "--script", "script.json"],
        ["explore", model, "--seed", "seed.json", "--query", "query.json"],
        ["render", model, "--format", "mermaid"],
        ["fmt", model],
        ["explain", "E-C4"],
        ["validate", "bad_c1.csm"],
    )]


def _explore_line(work: Path, name: str, text: str) -> list[str]:
    """``explore --stats`` on ``<name>.csm``, which ``_model_lines`` wrote,
    from one object in the model's first class, within 2 steps: the
    fixtures and bad fixtures end by each stop word between them."""
    seed = f"{name}_seed.json"
    first = parse_text(text).model.class_names[0]
    (work / seed).write_text(json.dumps([{"object": "a", "class": first}]), encoding="utf-8")
    return ["explore", f"{name}.csm", "--seed", seed, "--max-steps", "2", "--stats"]


# A seed or query file per error that the CLI names in one: each seed file
# goes through simulate and each query file through explore, on
# healthcare.csm. Seeds: not an array, an entry not an object, a value not
# a string, the object "new", an undeclared class and a repeated entry.
# Queries: an entry not an object, an unknown type, a missing and an extra
# key, "classes" not two names, a name not a string, an undeclared class
# and an undeclared process.
SIDE_FILE_ERRORS = (
    ("seed", {"object": "p", "class": "CaredPatient"}),
    ("seed", [{"object": "p", "class": "CaredPatient"}, "p"]),
    ("seed", [{"object": "p", "class": 5}]),
    ("seed", [{"object": "new", "class": "CaredPatient"}]),
    ("seed", [{"object": "p", "class": "Lobby"}]),
    ("seed", [{"object": "p", "class": "CaredPatient"}] * 2),
    ("query", ["sequence"]),
    ("query", [{"type": "deadlock"}]),
    ("query", [{"type": "sequence", "first": "CheckUp"}]),
    ("query", [{"type": "co_occurrence", "classes": ["CaredPatient"] * 2, "a/b~": 1}]),
    ("query", [{"type": "co_occurrence", "classes": ["CaredPatient"] * 3}]),
    ("query", [{"type": "sequence", "first": 5, "then": "CheckUp"}]),
    ("query", [{"type": "co_occurrence", "classes": ["CaredPatient", "Lobby"]}]),
    ("query", [{"type": "sequence", "first": "CheckUp", "then": "CheckUp"},
               {"type": "sequence", "first": "CheckUp", "then": "Ghost"}]),
)


def _side_file_lines(work: Path) -> list[list[str]]:
    """A line per ``SIDE_FILE_ERRORS`` entry, on ``healthcare.csm``, which
    ``_model_lines`` wrote."""
    (work / "side_seed.json").write_text('[{"object": "p", "class": "CaredPatient"}]')
    (work / "side_script.json").write_text("[]")
    lines = []
    for i, (kind, doc) in enumerate(SIDE_FILE_ERRORS):
        name = f"side_{kind}{i}.json"
        (work / name).write_text(json.dumps(doc), encoding="utf-8")
        if kind == "seed":
            lines.append(["simulate", "healthcare.csm", "--seed", name,
                          "--script", "side_script.json"])
        else:
            lines.append(["explore", "healthcare.csm", "--seed", "side_seed.json",
                          "--query", name])
    return lines


# Values that a graft sets in place of one value of a fixture's JSON form,
# as JSON text, so that each graft gets its own copy.
GRAFT_VALUES = ("null", "5", '"x"', "[]", "[1]", "{}", '{"reference+": 1}')


def _graft(doc: dict, rng: random.Random) -> None:
    """Set one of ``GRAFT_VALUES`` in place of a value of ``doc``, at any
    depth, both picked by ``rng``."""
    slots, nodes = [], [doc]
    while nodes:
        node = nodes.pop()
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                nodes.append(node[key])
    node, key = rng.choice(slots)
    node[key] = json.loads(rng.choice(GRAFT_VALUES))


def _json_mistake_lines(work: Path) -> list[list[str]]:
    """``validate`` on JSON models with ill-typed entries, each written as
    ``json_mistake<i>.json``: every ``helpers.PLANTED_JSON`` document,
    ``helpers.MIXED_JSON``, and ``JSON_GRAFTS`` seeded grafts, each the JSON
    form of a fixture or bad fixture with 1-3 values replaced by ``_graft``."""
    docs = [helpers.planted_json(path, value) for _, path, value, _ in helpers.PLANTED_JSON]
    docs.append(helpers.MIXED_JSON)
    rng = random.Random("json grafts")
    for _ in range(JSON_GRAFTS):
        name = rng.choice((*FIXTURES, *BAD_FIXTURES))
        doc = json.loads(emit_json(parse_text(fixture_text(name)).model))
        for _ in range(rng.randint(1, 3)):
            _graft(doc, rng)
        docs.append(doc)
    lines = []
    for i, doc in enumerate(docs):
        name = f"json_mistake{i}.json"
        (work / name).write_text(json.dumps(doc), encoding="utf-8")
        lines.append(["validate", name])
    return lines


def fixture_lines(work: Path) -> list[list[str]]:
    """The fixtures and bad fixtures in both forms through every model
    command, their texts with each mistake through ``validate``, and each
    through ``explore --stats``; ``validate`` on JSON models with ill-typed
    entries; ``explain`` for every catalog code and one unknown code; the
    fixed argument lists; a line per seed and query file error; and the
    whole-process sample."""
    lines = []
    for name in (*FIXTURES, *BAD_FIXTURES):
        lines += _model_lines(work, name, fixture_text(name))
        lines += _broken_lines(work, name, fixture_text(name))
        lines.append(_explore_line(work, name, fixture_text(name)))
    lines += _json_mistake_lines(work)
    lines += [["explain", code] for code in (*validator.CATALOG, "E-UNKNOWN")]
    lines += helpers.ERROR_KINDS + [argv for argv, _, _ in helpers.EXPLICIT_DOUBLE_DASH]
    return lines + _side_file_lines(work) + _process_lines(work)


def all_lines(work: Path) -> list[list[str]]:
    """The fixture lines, then the scale model, the seeded random models
    and layouts, and the benchmark's own command lines."""
    lines = fixture_lines(work)
    run = helpers.load_bench("run")
    lines += _model_lines(work, "scale", run.synth.to_text(
        run.synth.generate(24, 1000, 1000, 0.08, 511)["model"]))
    for generate in (helpers.random_model, helpers.random_valid_model):
        rng = random.Random(generate.__name__)
        for i in range(RANDOM_MODELS):
            lines += _model_lines(work, f"{generate.__name__}{i}", emit_text(generate(rng)))
    rng = random.Random("random_model_text")
    for i in range(RANDOM_MODELS):
        lines += _model_lines(work, f"layout{i}", helpers.random_model_text(rng), both=False)
    for seed in BENCH_SEEDS:
        for workload, setup in run.SETUPS.items():
            folder = work / f"bench_{workload}_{seed}"
            folder.mkdir()
            for cmd in setup(seed, folder):
                argv = [os.path.relpath(a, work) if a.startswith(str(work)) else a
                        for a in cmd.argv]
                lines.append([*argv, "--stats"] if argv[0] == "explore" else argv)
    return lines


def run_tree(src: Path, work: Path, lines_file: Path, runs_file: Path) -> subprocess.Popen:
    """The child that runs every in-process line on the tree at ``src``."""
    return subprocess.Popen(
        [sys.executable, "-S", "-c", CHILD, str(src), str(lines_file), str(runs_file)],
        cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def run_process(src: Path, work: Path, argv: list[str]) -> list:
    """The exit code, stdout and stderr of ``csm`` run on ``argv`` as its own
    process, on the tree at ``src``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", ENTRY, *argv], cwd=work,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        encoding="utf-8", errors="backslashreplace", timeout=60,
    )
    return [done.returncode, done.stdout, done.stderr]


def comparable(argv: list[str], run: list) -> list[list]:
    """What must match, as lists of lines: the exit code, stdout, and stderr
    with the timings taken out of an ``explore --stats`` line."""
    code, out, err = run
    err = err.splitlines(keepends=True)
    if argv[:1] == ["explore"] and "--stats" in argv:
        for i, line in enumerate(err):
            try:
                stats = json.loads(line)
            except ValueError:  # an error message, not the stats line
                continue
            err[i] = {k: v for k, v in stats.items() if k not in TIMINGS}
    return [[code], out.splitlines(keepends=True), err]


def first_difference(a: list[list], b: list[list]) -> str:
    """Where two runs first part: the first line of the exit code, stdout or
    stderr that differs, both sides shown."""
    for part, xs, ys in zip(("exit code", "stdout", "stderr"), a, b):
        for i in range(max(len(xs), len(ys))):
            left = xs[i] if i < len(xs) else "<end>"
            right = ys[i] if i < len(ys) else "<end>"
            if left != right:
                return f"{part} line {i + 1}: {left!r} != {right!r}"
    return "same"


def compare(lines: list[list[str]], parent: list, change: list) -> int:
    """Print the report, and give the count of differing lines."""
    differ: dict[str, list[tuple[str, str]]] = {}
    for argv, a, b in zip(lines, parent, change):
        a, b = comparable(argv, a), comparable(argv, b)
        if a != b:
            key = " ".join(argv) or "(no arguments)"
            differ.setdefault(argv[0] if argv else key, []).append((key, first_difference(a, b)))
    total = sum(len(found) for found in differ.values())
    print(f"{len(lines)} lines run, {total} differ")
    for command, found in sorted(differ.items()):
        print(f"{command}: {len(found)} differ")
        for key, where in found[:3]:
            print(f"  {key}\n    {where}")
    return total


def main(argv: list[str], inputs=all_lines) -> int:
    """Run the tool; ``inputs(work)`` writes the input files to ``work`` and
    gives the command lines."""
    parser = argparse.ArgumentParser(prog="same_bytes.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent tree's src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        work.mkdir()
        lines = inputs(work)
        in_process = [argv for argv in lines if argv[:1] != ["csm"]]
        lines = in_process + [argv for argv in lines if argv[:1] == ["csm"]]
        lines_file = Path(tmp) / "lines.json"
        lines_file.write_text(json.dumps(in_process), encoding="utf-8")
        trees = {"parent": args.parent.resolve(), "change": ROOT / "src"}
        children = {name: run_tree(src, work, lines_file, Path(tmp) / f"{name}.json")
                    for name, src in trees.items()}
        errors = {name: child.communicate()[1] for name, child in children.items()}
        for name, child in children.items():
            if child.returncode != 0:
                print(f"{name} tree {trees[name]}: child failed:\n{errors[name]}",
                      file=sys.stderr)
                return 2
        runs = {name: json.loads((Path(tmp) / f"{name}.json").read_text(encoding="utf-8"))
                for name in trees}
        for argv in lines[len(in_process):]:
            for name, src in trees.items():
                runs[name].append(run_process(src, work, argv[1:]))
    print(f"parent {trees['parent']}\nchange {trees['change']}")
    return 1 if compare(lines, runs["parent"], runs["change"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
