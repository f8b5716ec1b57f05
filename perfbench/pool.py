"""Instance pools of the benchmark and the seeded inputs made from them.

`data/instances.json` holds, per workload, the CLI budget and a fixed list of
base instances with their expected results.  A run turns each base instance
into input files: modules are twisted by `hipm.randgen.random_conjugate`
(a random basis change at every element, so the isomorphism class and hence
every expected distance is unchanged), and posets are written with their
elements and covers in a seeded order.  The same seed gives the same files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from hipm.exactlin import FieldSpec
from hipm.pmod import PersistenceModule, direct_sum, interval_module
from hipm.poset import FinitePoset
from hipm.randgen import random_conjugate
from hipm.serde import load_module, load_poset, module_to_json, parse_field

DATA = Path(__file__).resolve().parent / "data" / "instances.json"


def load_pool() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def stress_modules(spec: dict) -> tuple:
    """ROADMAP stress family: k copies of an interval on the chain {"grid": [n]}
    against k copies of the same interval shifted up by `shift`."""
    n = spec["chain"]
    lo, hi = spec["interval"]
    k, s = spec["k"], spec["shift"]
    field = FieldSpec("gfp", spec["p"])
    g = FinitePoset.grid([n])

    def copies(a: int, b: int) -> PersistenceModule:
        one = interval_module(g, list(g.elements[a:b + 1]), field)
        out = one
        for _ in range(k - 1):
            out = direct_sum(out, one)
        return out

    return g, copies(lo, hi), copies(lo + s, hi + s)


def base_documents(inst: dict) -> Dict[str, dict]:
    """The untwisted JSON documents of one instance: poset, height and modules."""
    if "stress" in inst:
        _, m, n = stress_modules(inst["stress"])
        return {"poset": {"grid": [inst["stress"]["chain"]]}, "height": {"diag": True},
                "module": module_to_json(m), "module2": module_to_json(n)}
    return {k: inst[k] for k in ("poset", "height", "module", "module2") if k in inst}


def _shuffled_poset(doc: dict, rng: random.Random) -> dict:
    if "grid" in doc:
        return doc
    elements = list(doc["elements"])
    covers = [list(c) for c in doc["covers"]]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def seeded_documents(inst: dict, rng: random.Random) -> Dict[str, dict]:
    """Base documents with every module twisted and the poset reordered."""
    docs = base_documents(inst)
    poset = load_poset(docs["poset"])
    field = parse_field(inst["field"])
    out = {"poset": _shuffled_poset(docs["poset"], rng), "height": docs["height"]}
    for key in ("module", "module2"):
        if key in docs:
            m = load_module(docs[key], poset, field)
            out[key] = module_to_json(random_conjugate(rng, m))
    return out


@dataclass
class Op:
    """One CLI operation of a run: its argv, input files and expectation."""

    inst: dict
    argv: List[str]
    files: Dict[str, Path]
    report: Path


def build_ops(workload: dict, seed: int, workdir: Path) -> List[Op]:
    """Write one seeded copy of every instance (times its `copies`) under
    `workdir` and return the CLI operations in a seeded order."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    budget = str(workload["budget"])
    ops: List[Op] = []
    for inst in workload["instances"]:
        for c in range(inst.get("copies", 1)):
            tag = f"{inst['id']}.{c}"
            files = {}
            for key, doc in seeded_documents(inst, rng).items():
                files[key] = workdir / f"{tag}.{key}.json"
                with open(files[key], "w") as fh:
                    json.dump(doc, fh)
            report = workdir / f"{tag}.report.json"
            argv = ["--field", inst["field"], "--budget", budget, "--output", str(report),
                    inst["op"]]
            for key, path in files.items():
                argv += [f"--{key}", str(path)]
            ops.append(Op(inst, argv, files, report))
    rng.shuffle(ops)
    return ops
