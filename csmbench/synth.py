"""Deterministic synthetic service models for the benchmark.

A model is built as a plain JSON-shaped document and put in the canonical
layout of the csm interchange form by ``oracle.canonical``, so the generator
never imports csm and the oracle reads back exactly what it writes.
``to_text`` and ``to_json`` write the two input forms from that one document.

Every model is valid by construction: each privileged role gets reference
on the process inputs, creation and reference on its outputs, owners get
reference+ on both, and every transform joins two dynamic classes.

Eight planted roles carry known collaboration artifacts that the noise
never touches, so their findings are known without running csm:

* ``VtOwner -> VtRunner``: very tight, processes the owner holds and the
  runner is responsible for, the owner with modification+ and the runner
  with reference+ on the output;
* ``TiA -> TiB``: tight, processes both own with read-only sharing;
* ``LoProd -> LoCons``: loose, a waiting class the consumer only reads;
* ``VlProd -> VlCons``: very loose, the same without the waiting point.

Each loose/very-loose class ``X`` is produced by a generator owned by the
producer and consumed by a consumer process turning ``X`` into ``XDone``;
loose lifecycles keep their source token (remaining), very loose ones leave it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracle import POINTS, canonical

PLANTED_ROLES = ("VtOwner", "VtRunner", "TiA", "TiB", "LoProd", "LoCons", "VlProd", "VlCons")
PLANTED = 4  # artifacts planted per collaboration level


class _Builder:
    def __init__(self) -> None:
        self.classes: dict[str, dict] = {}
        self.processes: dict[str, dict] = {}
        self.grants: dict[tuple[str, str], set[str]] = {}

    def cls(self, name: str, dynamic: bool, points=()) -> None:
        self.classes[name] = {
            "name": name,
            "dynamic": dynamic,
            "status_points": list(points),
        }

    def grant(self, role: str, cls: str, *privs: str) -> None:
        self.grants.setdefault((role, cls), set()).update(privs)

    def process(self, name, owners=(), responsibles=(), inputs=(), outputs=(),
                transforms=()) -> None:
        for role in (*owners, *responsibles):
            for c in inputs:
                self.grant(role, c, "reference")
            for c in outputs:
                self.grant(role, c, "creation", "reference")
        for role in owners:
            for c in (*inputs, *outputs):
                self.grant(role, c, "reference+")
        self.processes[name] = {
            "name": name,
            "owners": list(owners),
            "responsibles": list(responsibles),
            "inputs": list(inputs),
            "outputs": list(outputs),
            "transforms": [{"from": s, "to": t, "mode": m} for s, t, m in transforms],
        }


def generate(roles: int, classes: int, processes: int, density: float, seed: int) -> dict:
    """Canonical model document plus the planted answers.

    Returns ``{"model": doc, "planted": [...], "lifecycles": [...]}`` where
    each planted entry is ``{"level", "producer", "consumer", "artifact",
    "artifact_kind"}`` and each lifecycle is ``(generator, consumer,
    source_class, target_class, mode)``.
    """
    noise_roles = roles - len(PLANTED_ROLES)
    if noise_roles < 2:
        raise ValueError("need at least 10 roles")
    n_planted_classes = PLANTED * 6
    n_planted_procs = PLANTED * 6
    n_classes = classes - n_planted_classes
    n_procs = processes - n_planted_procs
    if n_classes < 2 or n_procs < 1:
        raise ValueError("too few classes or processes for the planted artifacts")

    rng = random.Random(seed)
    b = _Builder()
    role_names = [f"Role{i:02d}" for i in range(noise_roles)]
    class_names = [f"K{i:04d}" for i in range(n_classes)]
    for name in class_names:
        points = [p for p in POINTS if rng.random() < 0.12]
        b.cls(name, dynamic=rng.random() < 0.75, points=points)

    for i in range(n_procs):
        k = rng.choice((1, 1, 2, 2, 3))
        members = rng.sample(role_names, k)
        owners = [r for j, r in enumerate(members) if j == 0 or rng.random() < 0.5]
        responsibles = [r for r in members if r not in owners]
        inputs = [] if rng.random() < 0.1 else rng.sample(class_names, rng.choice((1, 1, 2)))
        outputs = rng.sample([c for c in class_names if c not in inputs], rng.choice((1, 1, 2)))
        transforms = [
            (s, t, rng.choice(("leaving", "remaining")))
            for s in inputs for t in outputs
            if b.classes[s]["dynamic"] and b.classes[t]["dynamic"]
            and rng.random() < 0.5
        ]
        b.process(f"Proc{i:04d}", owners, responsibles, inputs, outputs, transforms)

    extra = ("reference", "reference+", "modification", "modification+",
             "suppression", "suppression+", "creation")
    for role in role_names:
        for c in class_names:
            if rng.random() < density:
                privs = {p for p in extra if rng.random() < 0.3} or {"reference+"}
                if "creation" in privs:
                    privs.add("reference")
                b.grant(role, c, *privs)

    # Planted artifacts, named from the seed so each seed places them anew.
    tag = rng.randrange(10**6)
    planted_out: list[dict] = []
    lifecycles: list[tuple] = []
    for i in range(PLANTED):
        vt_p, vt_c = f"PVt{tag}x{i}", f"CVt{tag}x{i}"
        b.cls(vt_c, dynamic=True)
        b.process(vt_p, owners=["VtOwner"], responsibles=["VtRunner"], outputs=[vt_c])
        b.grant("VtOwner", vt_c, "modification+")
        b.grant("VtRunner", vt_c, "reference+")
        planted_out.append(dict(level="very tight", producer="VtOwner", consumer="VtRunner",
                                artifact=vt_p, artifact_kind="process"))

        ti_p, ti_c = f"PTi{tag}x{i}", f"CTi{tag}x{i}"
        b.cls(ti_c, dynamic=rng.random() < 0.5)
        b.process(ti_p, owners=["TiA", "TiB"], outputs=[ti_c])
        planted_out.append(dict(level="tight", producer="TiA", consumer="TiB",
                                artifact=ti_p, artifact_kind="process"))

        for level, prod, cons, points in (
            ("loose", "LoProd", "LoCons", ["waiting"]),
            ("very loose", "VlProd", "VlCons", []),
        ):
            short = "Lo" if level == "loose" else "Vl"
            shared, done = f"C{short}{tag}x{i}", f"C{short}{tag}x{i}Done"
            gen, use = f"P{short}Make{tag}x{i}", f"P{short}Use{tag}x{i}"
            mode = "remaining" if level == "loose" else "leaving"
            b.cls(shared, dynamic=True, points=points)
            b.cls(done, dynamic=True)
            b.process(gen, owners=[prod], outputs=[shared])
            b.process(use, owners=[cons], inputs=[shared], outputs=[done],
                      transforms=[(shared, done, mode)])
            planted_out.append(dict(level=level, producer=prod, consumer=cons,
                                    artifact=shared, artifact_kind="class"))
            lifecycles.append((gen, use, shared, done, mode))

    doc = canonical({
        "name": f"synthetic_{seed}",
        "roles": role_names + list(PLANTED_ROLES),
        "classes": list(b.classes.values()),
        "processes": list(b.processes.values()),
        "grants": [{"role": r, "class": c, "privileges": privs}
                   for (r, c), privs in b.grants.items()],
    })
    return {"model": doc, "planted": planted_out, "lifecycles": lifecycles}


def to_text(doc: dict) -> str:
    """The model in the csm text grammar, members in canonical order."""
    lines = [f'model "{doc["name"]}" {{']
    lines += [f"  role {r}" for r in doc["roles"]]
    for c in doc["classes"]:
        head = f"  class {c['name']}" + (" dynamic" if c["dynamic"] else "")
        if c["status_points"]:
            head += " { " + ", ".join(c["status_points"]) + " }"
        lines.append(head)
    for p in doc["processes"]:
        lines.append(f"  process {p['name']} {{")
        lines += [f"    owner {r}" for r in p["owners"]]
        lines += [f"    responsible {r}" for r in p["responsibles"]]
        lines += [f"    input {c}" for c in p["inputs"]]
        lines += [f"    output {c}" for c in p["outputs"]]
        lines += [f"    transform {t['from']} -> {t['to']} {t['mode']}" for t in p["transforms"]]
        lines.append("  }")
    for g in doc["grants"]:
        lines.append(f"  grant {g['role']} on {g['class']} {{ {', '.join(g['privileges'])} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(doc: dict) -> str:
    """The model in the csm JSON interchange form."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write(out: Path, stem: str, doc: dict) -> tuple[Path, Path]:
    out.mkdir(parents=True, exist_ok=True)
    text_path, json_path = out / f"{stem}.csm", out / f"{stem}.json"
    text_path.write_text(to_text(doc), encoding="utf-8")
    json_path.write_text(to_json(doc), encoding="utf-8")
    return text_path, json_path

