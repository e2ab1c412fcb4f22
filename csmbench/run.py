"""The csm benchmark: CLI latency per workload, and per-layer timings.

Run from the repository root:

    python3 csmbench/run.py --workload corpus|scale|all --seed N \
        --seconds S --trace 0|1

``all`` runs the workloads one after another, each in its own process.

``--trace 0`` drives the real ``csm`` CLI from the working tree (``src`` on
the path) in child processes, as one client in a closed loop: the next
command starts when the previous one has exited. It runs whole rounds of the
workload's command mix, as many as take about ``--seconds`` on the reference
machine (``round_seconds`` in ``meta.json``), and checks every output against
answers that do not come from csm (see ``oracle.py``). Between commands it
runs ``calib.py``, a fixed program that does not use csm, and scales every
time of the run by how fast that program ran (see ``Calibration``).

``--trace 1`` runs the same rounds in-process through ``csm.cli.main``,
alternating untraced and traced rounds, with a span around each public
function (see ``spans.py``). It reports layer times and counts, the tracing
overhead, interpreter start and import cost, and writes the spans and the
top ``-X importtime`` entries to ``csmbench/_work``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is
false when a check fails for a reason that is not a known defect; known
defects (see ``KNOWN_DEFECTS``) still count in ``failed``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
META = json.loads((BENCH / "meta.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import synth  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

ENTRY = "from csm.cli import entry; entry()"
# csm has no dependencies, so children skip the site module: its cost depends
# on whatever else is installed on the machine and adds noise that csm cannot move.
PYTHON = [sys.executable, "-S"]
KINDS = ("validate", "classify", "render", "fmt", "simulate", "explore")
# One set-up in a fresh interpreter; argv is bench dir, src dir, workload, seed.
COLD_SETUP = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
              "run.build(sys.argv[3], int(sys.argv[4]))")
PYCACHE = SRC / "csm" / "__pycache__"
CMD_TIMEOUT_S = 150
KNOWN_DEFECTS = {
    "saturated-complete": (
        "explore reports complete=true although the object bound pruned every "
        "generator firing, so its unreachable verdicts are not proofs"
    ),
}


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    follow: list["Cmd"] = field(default_factory=list)


@dataclass
class Cmd:
    kind: str  # a KINDS entry, or "explore_saturated" (checked, not reported per kind)
    argv: list[str]
    check: Callable[[int, str, str], Outcome]


# -- checks -------------------------------------------------------------------

def _json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_validate(want_exit: int, error_codes: list[str], memo: dict | None = None,
                   key: str = "", compare: str | None = None):
    """Exit code, the error codes on stdout, and equality with another input form."""
    def check(code, out, err):
        o = Outcome()
        if code != want_exit:
            o.problems.append(f"validate exit {code}, want {want_exit}: {err[-200:]}")
            return o
        diags = _json_lines(out)
        got = [d["code"] for d in diags if d["severity"] == "error"]
        if got != error_codes:
            o.problems.append(f"validate error codes {got}, want {error_codes}")
        if memo is not None:
            memo[key] = out
            if compare is not None and memo.get(compare) != out:
                o.problems.append(f"validate output of {key} differs from {compare}")
        return o
    return check


def check_parse_error(code_name: str, line: int):
    def check(code, out, err):
        o = Outcome()
        want = f":{line}:"
        if code != 1 or out:
            o.problems.append(f"broken input: exit {code}, stdout {out[:80]!r}")
        elif not any(want in ln and f" {code_name} [error]" in ln for ln in err.splitlines()):
            o.problems.append(f"broken input: no {code_name} at line {line} in {err[:200]!r}")
        return o
    return check


def _summary(findings: list[dict]) -> dict:
    pairs: dict[str, set] = {}
    for f in findings:
        pairs.setdefault(f"{f['producer']}->{f['consumer']}", set()).add(f["level"])
    return {k: sorted(v) for k, v in pairs.items()}


def check_classify(expect: Callable[[list[dict]], str | None], memo: dict | None = None,
                   key: str = "", compare: str | None = None):
    def check(code, out, err):
        o = Outcome()
        if code != 0:
            o.problems.append(f"classify exit {code}: {err[-200:]}")
            return o
        report = json.loads(out)
        if _summary(report["findings"]) != report["pair_summary"]:
            o.problems.append("classify pair_summary disagrees with its findings")
        problem = expect(report["findings"])
        if problem:
            o.problems.append(problem)
        if memo is not None:
            memo[key] = out
            if compare is not None and memo.get(compare) != out:
                o.problems.append(f"classify output of {key} differs from {compare}")
        return o
    return check


def paper_levels(name: str):
    def expect(findings):
        got: dict[tuple, set] = {}
        for f in findings:
            got.setdefault((f["producer"], f["consumer"]), set()).add(f["level"])
        if name == "healthcare":
            between: dict[frozenset, set] = {}
            for (p, c), levels in got.items():
                between.setdefault(frozenset({p, c}), set()).update(levels)
            if between != oracle.HEALTHCARE_PAIRS:
                return f"healthcare levels {between}, want {oracle.HEALTHCARE_PAIRS}"
        elif name in oracle.PAPER_LEVELS and got != oracle.PAPER_LEVELS[name]:
            return f"{name} levels {got}, want {oracle.PAPER_LEVELS[name]}"
        return None
    return expect


def planted_levels(planted: list[dict]):
    want = {(p["level"], p["producer"], p["consumer"], p["artifact"], p["artifact_kind"])
            for p in planted}
    roles = set(synth.PLANTED_ROLES)

    def expect(findings):
        got = {(f["level"], f["producer"], f["consumer"], f["artifact"], f["artifact_kind"])
               for f in findings if f["producer"] in roles or f["consumer"] in roles}
        if got != want:
            return (f"planted findings differ: missing {sorted(want - got)[:3]}, "
                    f"unexpected {sorted(got - want)[:3]}")
        return None
    return expect


def check_model_output(kind: str, doc: dict):
    """fmt re-reads to the model; render is well-formed and matches its shape."""
    def check(code, out, err):
        o = Outcome()
        if code != 0:
            o.problems.append(f"{kind} exit {code}: {err[-200:]}")
        elif kind == "fmt":
            try:
                if oracle.read_text(out) != doc:
                    o.problems.append("fmt output reads back to a different model")
            except (ValueError, IndexError, KeyError) as exc:
                o.problems.append(f"fmt output does not read back: {exc}")
        else:
            problem = (oracle.check_dot if kind == "dot" else oracle.check_mermaid)(out, doc)
            if problem:
                o.problems.append(problem)
        return o
    return check


def check_simulate(want_exit: int, want: list[tuple[str, str, str]]):
    """Exit code and the (process, object, outcome) of every event."""
    def check(code, out, err):
        o = Outcome()
        if code != want_exit:
            o.problems.append(f"simulate exit {code}, want {want_exit}: {err[-200:]}")
            return o
        got = [(e["process"], e["object"], e["outcome"]) for e in _json_lines(out)]
        if got != want:
            o.problems.append(f"simulate events {got}, want {want}")
        return o
    return check


def check_explore(model_file: Path, work: Path, lifecycles: oracle.Lifecycles,
                  seed: list[tuple[str, str]], queries: list[dict], truth: list[bool],
                  saturated: bool = False):
    """Verdicts against lifecycle truth; each witness is replayed strictly.

    An unreachable verdict for a reachable query is a false proof unless
    ``complete`` is false. With ``saturated`` the seed fills the object
    bound, so every generator firing is pruned and ``complete`` must be false.
    """
    def check(code, out, err):
        o = Outcome()
        if code != 0:
            o.problems.append(f"explore exit {code}: {err[-200:]}")
            return o
        summary = json.loads(out)
        if not (isinstance(summary["state_count"], int) and summary["state_count"] > 0):
            o.problems.append(f"explore state_count {summary['state_count']!r}")
        if saturated and summary["complete"] is not False:
            o.known.append("saturated-complete")
        results = summary["queries"]
        if len(results) != len(queries):
            o.problems.append(f"explore answered {len(results)} of {len(queries)} queries")
            return o
        for i, (q, res, want) in enumerate(zip(queries, results, truth)):
            if res["reachable"] and not want:
                o.problems.append(f"query {res['predicate']} reported reachable; it is not")
            elif not res["reachable"] and want and summary["complete"] and not saturated:
                o.problems.append(f"query {res['predicate']} reported unreachable as a proof")
            if res["reachable"]:
                problem = lifecycles.witness_holds(seed, q, res["witness"] or [])
                if problem:
                    o.problems.append(f"{res['predicate']}: {problem}")
                    continue
                witness = [tuple(step) for step in res["witness"]]
                o.follow.append(_simulate_cmd(
                    model_file, work, f"replay_{model_file.name}_w{i}", seed, witness,
                    [(p, ob, "fired") for p, ob in witness], strict=True))
        return o
    return check


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


# -- workloads ----------------------------------------------------------------

def _fixtures() -> dict[str, str]:
    folder = SRC / "csm" / "fixtures"
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(folder.glob("*.csm"))}


def _emit_json_from_text(text: str) -> str:
    """The JSON form a csm user would write with ``csm.dsl.emit_json``."""
    from csm import dsl
    result = dsl.parse_text(text)
    if result.model is None:
        raise RuntimeError("setup: input text does not parse")
    return dsl.emit_json(result.model).decode("utf-8")


def _explore_cmds(model_file: Path, doc: dict, work: Path, tag: str, seed, queries,
                  max_steps: int, max_objects: int, saturated: bool = False,
                  truth: list[bool] | None = None) -> Cmd:
    """An explore command whose verdicts are checked against lifecycle truth.

    ``truth`` defaults to the lifecycle search, which enumerates every
    generator's lifecycle and so suits the small models only.
    """
    lc = oracle.Lifecycles(doc)
    if truth is None:
        seeded: dict[str, frozenset] = {}
        for o, c in seed:
            seeded[o] = seeded.get(o, frozenset()) | {c}
        truth = [lc.verdict(list(seeded.values()), q) for q in queries]
    seed_file = _write_json(work / f"{tag}_seed.json", [{"object": o, "class": c} for o, c in seed])
    query_file = _write_json(work / f"{tag}_query.json", queries)
    return Cmd("explore_saturated" if saturated else "explore",
               ["explore", str(model_file), "--seed", str(seed_file), "--query", str(query_file),
                "--max-steps", str(max_steps), "--max-objects", str(max_objects)],
               check_explore(model_file, work, lc, seed, queries, truth, saturated))


def _healthcare_script(model_file: Path, work: Path) -> Cmd:
    """A patient through check-up, test and care, then a step blocked on a waiting point."""
    steps = [("CheckUp", "new"), ("Diagnose", "obj1"), ("RequestTest", "obj1"),
             ("PerformTest", "obj1"), ("CareAfterTest", "obj1"), ("CareAfterTest", "obj1")]
    want = [("CheckUp", "obj1", "fired")] + [(p, o, "fired") for p, o in steps[1:5]]
    want.append(("CareAfterTest", "obj1", "blocked-waiting"))
    return _simulate_cmd(model_file, work, "sim_health", [], steps, want)


def _model_cmds(path_csm: Path, path_json: Path, doc: dict, expect, memo: dict, tag: str,
                render_json: bool = False) -> list[Cmd]:
    """validate both forms, classify, render both formats and fmt one model."""
    return [
        Cmd("validate", ["validate", str(path_csm)],
            check_validate(0, [], memo, f"{tag}.csm")),
        Cmd("validate", ["validate", str(path_json)],
            check_validate(0, [], memo, f"{tag}.json", f"{tag}.csm")),
        Cmd("classify", ["classify", "--json", str(path_csm)],
            check_classify(expect, memo, f"{tag}.cls.csm")),
        Cmd("render", ["render", str(path_csm), "--format", "dot"],
            check_model_output("dot", doc)),
        Cmd("render", ["render", str(path_json if render_json else path_csm),
                       "--format", "mermaid"],
            check_model_output("mermaid", doc)),
        Cmd("fmt", ["fmt", str(path_csm)], check_model_output("fmt", doc)),
    ]


def setup_corpus(seed: int, work: Path) -> list[Cmd]:
    """Every fixture as a modeller or a CI corpus check runs it, then healthcare explored."""
    rng = random.Random(f"corpus:{seed}")
    texts = _fixtures()
    good = [n for n in texts if not n.startswith("bad_")]
    memo: dict = {}
    docs: dict[str, dict] = {}
    cmds: list[Cmd] = []
    for name in good:
        path_csm = work / f"{name}.csm"
        path_csm.write_text(texts[name], encoding="utf-8")
        path_json = work / f"{name}.json"
        path_json.write_text(_emit_json_from_text(texts[name]), encoding="utf-8")
        doc = docs[name] = oracle.read_text(texts[name])
        if oracle.read_json(path_json.read_text(encoding="utf-8")) != doc:
            raise RuntimeError(f"setup: emit_json of {name} is not the fixture's model")
        cmds += _model_cmds(path_csm, path_json, doc, paper_levels(name), memo, name)
    for name in sorted(oracle.BAD_RULES):
        path = work / f"{name}.csm"
        path.write_text(texts[name], encoding="utf-8")
        cmds.append(Cmd("validate", ["validate", str(path)],
                        check_validate(1, [oracle.BAD_RULES[name]])))
    cmds += _broken_inputs(rng, {n: texts[n] for n in good}, work)

    room = f"room{rng.randrange(100, 999)}"
    steps = [("CleanRoom", room), ("DischargeHospital", room), ("CleanRoom", room)]
    want = [("CleanRoom", room, "fired"), ("DischargeHospital", room, "fired"),
            ("CleanRoom", room, "not-enabled")]
    cmds.append(_simulate_cmd(work / "hospital_cleaning.csm", work, "sim_cleaning",
                              [(room, "OccupiedRoom")], steps, want))
    cmds.append(_healthcare_script(work / "healthcare.csm", work))
    return cmds + _healthcare_explores(rng, work / "healthcare.csm", docs["healthcare"], work)


def _simulate_cmd(model_file: Path, work: Path, tag: str, seed, steps, want,
                  strict: bool = False) -> Cmd:
    """simulate from (object, class) seed tokens through (process, object) steps."""
    seed_file = _write_json(work / f"{tag}_seed.json",
                            [{"object": o, "class": c} for o, c in seed])
    script_file = _write_json(work / f"{tag}_script.json",
                              [{"process": p, "object": o} for p, o in steps])
    argv = ["simulate", str(model_file), "--seed", str(seed_file), "--script", str(script_file)]
    return Cmd("simulate", argv + (["--strict"] if strict else []), check_simulate(0, want))


def _broken_inputs(rng: random.Random, texts: dict[str, str], work: Path) -> list[Cmd]:
    """One seed-chosen syntax or resolution mistake per diagnostic kind."""
    cmds = []
    mutations = (
        ("E-TRF-MODE", lambda ln: ln.strip().startswith("transform ")
         and ln.rstrip().endswith(("leaving", "remaining")),
         lambda ln: ln.rsplit(" ", 1)[0]),
        ("E-REF", lambda ln: ln.strip().startswith("grant "),
         lambda ln: ln.replace(" on ", " on Undeclared", 1)),
        ("E-DUP", lambda ln: ln.strip().startswith("role "),
         lambda ln: ln + "\n" + ln),
    )
    for code, pick, mutate in mutations:
        candidates = [(name, i) for name, text in texts.items()
                      for i, ln in enumerate(text.split("\n")) if pick(ln)]
        name, i = rng.choice(candidates)
        lines = texts[name].split("\n")
        lines[i] = mutate(lines[i])
        line = i + 2 if code == "E-DUP" else i + 1
        path = work / f"broken_{code}.csm"
        path.write_text("\n".join(lines), encoding="utf-8")
        cmds.append(Cmd("validate", ["validate", str(path)], check_parse_error(code, line)))
    return cmds


def setup_scale(seed: int, work: Path) -> list[Cmd]:
    params = META["generator"]["scale"]
    gen = synth.generate(params["roles"], params["classes"], params["processes"],
                         params["density"], seed)
    doc = gen["model"]
    path_csm, path_json = synth.write(work, "synthetic", doc)
    if json.loads(_emit_json_from_text(path_csm.read_text(encoding="utf-8"))) != doc:
        raise RuntimeError("setup: csm's JSON form of the synthetic text differs from synth's")
    memo: dict = {}
    cmds = _model_cmds(path_csm, path_json, doc, planted_levels(gen["planted"]), memo,
                       "synthetic", render_json=True)
    cmds.insert(3, Cmd("classify", ["classify", "--json", str(path_json)],
                       check_classify(planted_levels(gen["planted"]), memo,
                                      "synthetic.cls.json", "synthetic.cls.csm")))
    cmds.append(Cmd("fmt", ["fmt", str(path_json)], check_model_output("fmt", doc)))

    (gen0, use0, src0, dst0, mode0), (gen1, use1, src1, dst1, mode1) = gen["lifecycles"][:2]
    steps = [(gen0, "new"), (use0, "obj1"), (gen1, "new"), (use1, "obj2"),
             (use1, "obj2"), (use0, "obj2")]
    # use0 twice on obj2: its input is a loose (waiting) class obj2 never held.
    want = [(gen0, "obj1", "fired"), (use0, "obj1", "fired"), (gen1, "obj2", "fired"),
            (use1, "obj2", "fired"), (use1, "obj2", "not-enabled"),
            (use0, "obj2", "blocked-waiting")]
    for path in (path_csm, path_json):
        cmds.append(_simulate_cmd(path, work, f"sim_{path.suffix[1:]}", [], steps, want))
    # A planted lifecycle's source and target classes co-occur exactly when
    # its transform keeps the source token; no other process touches them.
    a, b = f"s{seed % 1000}a", f"s{seed % 1000}b"
    queries = [{"type": "co_occurrence", "classes": [src0, dst0]},
               {"type": "co_occurrence", "classes": [src1, dst1]}]
    for path in (path_csm, path_json):
        cmds.append(_explore_cmds(path, doc, work, f"ex_{path.suffix[1:]}", [(a, src0), (b, src1)],
                                  queries, max_steps=3, max_objects=2,
                                  truth=[mode0 == "remaining", mode1 == "remaining"]))
    return cmds


def _healthcare_explores(rng: random.Random, path_csm: Path, doc: dict,
                         work: Path) -> list[Cmd]:
    """The long exploration with seed-chosen queries, and the saturated-seed case."""
    params = META["generator"]["explore"]
    # One seeded patient holding a terminal class plus a class on the
    # diagnose/test/review cycle: every such choice gives the same state count.
    cycle = ["DiagnosedPatient", "TestRequest", "SentTestResult"]
    terminal = rng.choice(["CaredPatient", "ReportOfPatient"])
    start = rng.randrange(3)
    patient = "pat" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
    seed_tokens = [(patient, terminal), (patient, cycle[start])]
    queries = [
        {"type": "sequence", "first": "CheckUp", "then": "Diagnose"},
        {"type": "sequence", "first": "ReviewResult", "then": "RequestTest"},
        {"type": "sequence", "first": "TreatPatient", "then": "Diagnose"},
        {"type": "sequence", "first": "PerformTest", "then": "QuickCare"},
        {"type": "co_occurrence", "classes": [terminal, cycle[(start + 1) % 3]]},
        {"type": "co_occurrence", "classes": ["CheckUpPatient", "DiagnosedPatient"]},
    ]
    rng.shuffle(queries)
    sat = [(f"{patient}{i}", "CaredPatient") for i in range(params["saturated_objects"])]
    return [
        _explore_cmds(path_csm, doc, work, "ex_main", seed_tokens, queries,
                      params["max_steps"], params["max_objects"]),
        _explore_cmds(path_csm, doc, work, "ex_saturated", sat,
                      [{"type": "sequence", "first": "CheckUp", "then": "Diagnose"}],
                      params["max_steps"], params["saturated_objects"], saturated=True),
    ]


SETUPS = {"corpus": setup_corpus, "scale": setup_scale}


# -- running --------------------------------------------------------------------

def child_env() -> dict:
    """csm from src, with bytecode writing on even where the caller's
    environment turns it off: an installed csm runs from compiled bytecode,
    which the set-up's warm-up call compiles."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[int | None, str, str, float]:
    start = time.perf_counter()
    try:
        proc = subprocess.run([*PYTHON, "-c", ENTRY, *argv], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CMD_TIMEOUT_S}s", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def run_in_process(argv: list[str], cwd: Path) -> tuple[int | None, str, str, float]:
    from csm import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a benchmark crash
            return None, "", f"raised {exc!r}", time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@dataclass
class Tally:
    samples: list[tuple[str, str, float]] = field(default_factory=list)  # kind, command, s
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: dict[str, int] = field(default_factory=dict)
    # csm's output is deterministic: an output already checked for a command
    # gets that check's verdict again without redoing the check.
    verdicts: dict[tuple, Outcome] = field(default_factory=dict)

    def record(self, cmd: Cmd, secs: float, outcome: Outcome) -> None:
        self.samples.append((cmd.kind, " ".join(cmd.argv), secs))
        if outcome.problems or outcome.known:
            self.failed += 1
        self.problems += [f"{' '.join(cmd.argv[:2])}: {p}" for p in outcome.problems]
        for k in outcome.known:
            self.known[k] = self.known.get(k, 0) + 1


def run_round(cmds: list[Cmd], runner, work: Path, tally: Tally,
              after: Callable[[float], None] | None = None) -> None:
    """Run each command, then the follow-ups its check asks for, in order.

    ``after`` is called with each command's wall time once it is checked.
    """
    queue = list(cmds)
    while queue:
        cmd = queue.pop(0)
        code, out, err, secs = runner(cmd.argv, work)
        key = (id(cmd), code, out, err)
        outcome = tally.verdicts.get(key)
        if outcome is None:
            try:
                outcome = cmd.check(code, out, err) if code is not None else Outcome([err])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                outcome = Outcome([f"output could not be checked: {exc!r}"])
            tally.verdicts[key] = outcome
        tally.record(cmd, secs, outcome)
        queue[:0] = outcome.follow
        if after is not None:
            after(secs)


class Calibration:
    """How fast the host runs Python during one run, from ``calib.py``.

    On a shared 2-core cloud host the speed of Python drifts by a third within
    minutes, and csm's times move with it: over 16-second windows the median
    times of a csm command and of ``calib.py`` run between them correlate at
    0.9 there. Dividing by the run's typical ``calib.py`` time takes that
    drift out of the comparison between runs. ``scale`` gives the factor that
    turns a run's times into times on a host where ``calib.py`` typically
    takes ``reference_s``.

    The host flips between two speeds from one call to the next, so the
    times of ``calib.py`` have two peaks. A median of them jumps from one
    peak to the other as the share of fast calls passes a half; a mean moves
    with that share as csm's times do. The mean is taken over the middle
    three fifths, so that a single stalled call does not move it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._csm_s = 0.0

    def run(self) -> None:
        start = time.perf_counter()
        subprocess.run([*PYTHON, str(BENCH / "calib.py")], env=child_env(), check=True,
                       capture_output=True, timeout=CMD_TIMEOUT_S)
        self.times.append(time.perf_counter() - start)

    def after(self, csm_s: float) -> None:
        """Run ``calib.py`` once per ``every_s`` seconds of csm time."""
        self._csm_s += csm_s
        if self._csm_s >= META["calibration"]["every_s"]:
            self._csm_s = 0.0
            self.run()

    def typical_s(self) -> float:
        ordered = sorted(self.times)
        cut = len(ordered) // 5
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        return META["calibration"]["reference_s"] / self.typical_s()


def warm_up(work: Path) -> None:
    """One CLI call, which compiles csm's bytecode (src/csm/__pycache__)."""
    warmup = work / "warmup.csm"
    warmup.write_text(_fixtures()["gp_lab"], encoding="utf-8")
    code, _, err, _ = run_child(["validate", str(warmup)], work)
    if code != 0:
        raise RuntimeError(f"setup: warm-up call failed: {err[-300:]}")


def build(workload: str, seed: int) -> list[Cmd]:
    """The whole set-up: inputs, their files and the warm-up call."""
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    cmds = SETUPS[workload](seed, work)
    warm_up(work)
    return cmds


def cold_setups(workload: str, seed: int, calib: Calibration) -> list[float]:
    """Wall time of each set-up, each in a fresh interpreter with no csm bytecode.

    Every repeat pays what a first use pays: interpreter start, importing
    csm and compiling its bytecode, the inputs and files, and the warm-up call.
    """
    times = []
    for _ in range(META["setup_repeats"]):
        calib.run()
        shutil.rmtree(PYCACHE, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [*PYTHON, "-c", COLD_SETUP, str(BENCH), str(SRC), workload, str(seed)],
            env=child_env(), capture_output=True, text=True,
            timeout=CMD_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr[-300:]}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_e2e(workload: str, seed: int, seconds: int) -> dict:
    work = WORK / workload
    calib = Calibration()
    setup_times = cold_setups(workload, seed, calib)
    cmds = SETUPS[workload](seed, work)  # the same files again, with their checks
    # A fixed number of whole rounds, about --seconds long on the reference
    # machine: the mix, and so the rank of every percentile, is the same in
    # every run however fast the machine happens to be.
    rounds = max(1, round(seconds / META["round_seconds"][workload]))
    tally = Tally()
    for _ in range(rounds):
        run_round(cmds, run_child, work, tally, calib.after)
    scale = calib.scale()
    times = [scale * s for _, _, s in tally.samples]
    pct, tail_s = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (scale * statistics.median(setup_times), "s", len(setup_times),
                    "median of cold set-ups"),
        "cmd_p50_ms": (1000 * statistics.median(times), "ms", n, ""),
        "cmd_tail_ms": (1000 * tail_s, "ms", n, f"p{pct:.1f}"),
        # Over the commands' own wall time, so the benchmark's checks between
        # commands do not count.
        "cmds_per_s": (n / sum(times), "1/s", n, f"{sum(times):.1f}s in csm, {rounds} rounds"),
    }
    # A kind mixes commands of different cost (say validate on .csm and on
    # .json); a median over the mix would fall in the gap between them, so
    # each command gets its own median and the kind reports their mean.
    for kind in KINDS:
        per_cmd: dict[str, list[float]] = {}
        for k, command, secs in tally.samples:
            if k == kind:
                per_cmd.setdefault(command, []).append(scale * secs)
        value = statistics.fmean(statistics.median(v) for v in per_cmd.values())
        metrics[f"{kind}_ms"] = (1000 * value, "ms", sum(map(len, per_cmd.values())),
                                 f"mean of {len(per_cmd)} per-command medians")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mb, "MB", n, "largest child max-RSS")
    _write_json(WORK / f"{workload}-seed{seed}-samples.json",
                {"setup_s": setup_times, "calib_s": calib.times, "samples": tally.samples})
    print(f"# host calibration: calib.py typical {1000 * calib.typical_s():.1f} ms "
          f"over {len(calib.times)} calls; every time below is the measured one x {scale:.4f}")
    report(workload, seed, metrics, tally)
    return finish(metrics, tally)


def report(workload: str, seed: int, metrics: dict, tally: Tally) -> None:
    print(f"# csm benchmark  workload={workload} seed={seed}  python "
          f"{sys.version.split()[0]}  nproc={os.cpu_count()}  closed loop, 1 client")
    for name, (value, unit, n, note) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit:6s} n={n}" + (f"  ({note})" if note else ""))
    n = len(tally.samples)
    print(f"{'failed_ratio':32s} {tally.failed / n if n else 0.0:14.4f} ratio  n={n}")
    for key, count in tally.known.items():
        print(f"  known defect x{count}: {key}: {KNOWN_DEFECTS[key]}")
    for problem in tally.problems[:20]:
        print(f"  FAILED CHECK: {problem}")


def finish(metrics: dict, tally: Tally) -> dict:
    return {
        "correct": not tally.problems,
        "attempted": len(tally.samples),
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }


def _median_child(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([*PYTHON, *argv], env=child_env(), check=True,
                       capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_times(top: int = 8) -> list[dict]:
    proc = subprocess.run([*PYTHON, "-X", "importtime", "-c", "import csm.cli"],
                          env=child_env(), capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            rows.append({"self_us": int(parts[0].split(":")[1]), "cumulative_us": int(parts[1]),
                         "module": parts[2].rstrip()})
    return sorted(rows, key=lambda r: -r["cumulative_us"])[:top]


def measure_traced(workload: str, seed: int, seconds: int) -> dict:
    import csm.cli  # noqa: F401  (load every csm module before patching)

    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.install()
    for i in range(META["setup_repeats"]):
        with tracer.command(f"setup{i}", "setup"):
            cmds = SETUPS[workload](seed, work)
    tracer.uninstall()
    warm_up(work)
    setup_spans = list(tracer.spans)

    tally = Tally()
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    # Stop before the pair of rounds that would end after --seconds.
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) <= seconds:
        t0 = time.perf_counter()
        run_round(cmds, run_in_process, work, tally)
        plain.append(time.perf_counter() - t0)
        first = len(tracer.spans)
        tracer.install()
        numbers = itertools.count()

        def traced_call(argv, cwd, pass_no=len(traced)):
            with tracer.command(f"pass{pass_no}-cmd{next(numbers)}"):
                return run_in_process(argv, cwd)

        t0 = time.perf_counter()
        run_round(cmds, traced_call, work, tally)
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        passes.append(tracer.spans[first:])

    start_s = _median_child(["-c", "pass"], 11)
    import_s = _median_child(["-c", "import csm.cli"], 11)
    top_imports = import_times()

    per_pass = [layer_metrics(spans) for spans in passes]
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit, len(per_pass), "")
               for name, (_, unit) in per_pass[0].items()}
    setup_emit = [sum(s["end"] - s["start"] for s in setup_spans
                      if s["name"] == "dsl.emit_json" and s["trace"] == f"setup{i}")
                  for i in range(META["setup_repeats"])]
    metrics["dsl.emit_json_s"] = (statistics.median(setup_emit), "s", len(setup_emit),
                                  "per set-up")
    metrics["cli.python_start_ms"] = (1000 * start_s, "ms", 11, "python -S -c pass")
    metrics["cli.import_ms"] = (1000 * (import_s - start_s), "ms", 11, "import csm.cli - start")
    metrics["trace.overhead_pct"] = (
        100 * (statistics.median(traced) / statistics.median(plain) - 1), "%", len(traced),
        "traced vs untraced in-process rounds")
    report(workload, seed, metrics, tally)
    for row in top_imports:
        print(f"  importtime {row['cumulative_us']:8d} us cumulative  {row['module']}")
    tracer.write(WORK / f"{workload}-seed{seed}-trace.json", {"importtime": top_imports})
    return finish(metrics, tally)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Layer totals and counts, with their units, from one traced pass."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name, key=None):
        picked = [s for s in spans if s["name"] == name]
        return sum(s.get(key, 0) for s in picked) if key else len(picked)

    selfs = self_times(spans)
    parse_s = total("dsl.parse_text")
    build_s = total("simulator.build_graph")
    return {
        "cli.self_s": (selfs.get("cli", 0.0), "s"),
        "dsl.parse_text_s": (parse_s, "s"),
        "dsl.parse_text_kB_per_s": (count("dsl.parse_text", "bytes") / 1000 / parse_s, "kB/s"),
        "dsl.parse_json_s": (total("dsl.parse_json"), "s"),
        "dsl.emit_text_s": (total("dsl.emit_text"), "s"),
        "dsl.diagnostics": (count("dsl.parse_text", "diagnostics")
                            + count("dsl.parse_json", "diagnostics"), "count"),
        "dsl.self_s": (selfs.get("dsl", 0.0), "s"),
        "model.canonicalize_s": (total("model.canonicalize"), "s"),
        "model.shared_classes_s": (total("model.shared_classes"), "s"),
        "model.role_pairs": (count("model.shared_classes"), "count"),
        "model.self_s": (selfs.get("model", 0.0), "s"),
        "validator.validate_s": (total("validator.validate"), "s"),
        "validator.diagnostics": (count("validator.validate", "diagnostics"), "count"),
        "validator.self_s": (selfs.get("validator", 0.0), "s"),
        "classifier.classify_all_s": (total("classifier.classify_all"), "s"),
        "classifier.self_s": (selfs.get("classifier", 0.0), "s"),
        "classifier.pairs": (count("classifier.classify_pair"), "count"),
        "classifier.findings": (count("classifier.classify_all", "findings"), "count"),
        "render.to_dot_s": (total("render.to_dot"), "s"),
        "render.to_mermaid_s": (total("render.to_mermaid"), "s"),
        "render.out_kB": ((count("render.to_dot", "bytes")
                           + count("render.to_mermaid", "bytes")) / 1000, "kB"),
        "render.self_s": (selfs.get("render", 0.0), "s"),
        "simulator.build_graph_s": (build_s, "s"),
        "simulator.states": (count("simulator.build_graph", "states"), "count"),
        "simulator.edges": (count("simulator.build_graph", "edges"), "count"),
        "simulator.states_per_s": (count("simulator.build_graph", "states") / build_s, "1/s"),
        "simulator.query_s": (total("simulator.run_query"), "s"),
        "simulator.run_script_s": (total("simulator.run_script"), "s"),
        "simulator.self_s": (selfs.get("simulator", 0.0), "s"),
        "trace.spans": (len(spans), "count"),
    }


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, each in its own process; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in SETUPS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="csm CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*sorted(SETUPS), "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "csm" / "cli.py").is_file():
        print(f"error: no csm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    measure = measure_traced if args.trace else measure_e2e
    try:
        result = measure(args.workload, args.seed, args.seconds)
    except RuntimeError as exc:  # set-up found csm's output wrong or unusable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
