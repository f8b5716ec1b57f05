#!/usr/bin/env python3
"""Regenerate data/instances.json: the base instances and their expected results.

Run from the repository root:

    python3 perfbench/make_data.py

Base instances come from `hipm.randgen` with fixed pool seeds.  Expected
distances of the stress family and of grid instances come from
`interleave.shift_oracle_distance`, which builds literal shifts and shares no
code with `kan`/`functors`; every other expectation is the value this
program's version computes now, so regenerate only to re-baseline.  The
oracle decides the GF(3), k = 4 stress case only after about half a million
candidates, so a full regeneration takes several minutes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hipm import interleave  # noqa: E402
from hipm.erosion import d_en  # noqa: E402
from hipm.exactlin import FieldSpec  # noqa: E402
from hipm.functors import clear_cache  # noqa: E402
from hipm.height import c_rho, check_cip, format_ext, from_phi, rho_diag  # noqa: E402
from hipm.poset import FinitePoset  # noqa: E402
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset  # noqa: E402
from hipm.serde import load_height, load_poset, module_to_json, poset_to_json  # noqa: E402

from pool import DATA, stress_modules  # noqa: E402

GF2 = FieldSpec("gfp", 2)
GF3 = FieldSpec("gfp", 3)
QQ = FieldSpec("rational")

SEARCH_BUDGET = 5000
CONSTRUCT_BUDGET = 1 << 16
EROSION_BUDGET = 1 << 16
# construct is the small-Hom workload: a base instance is kept only if no
# stratum needs more candidates than this, so the candidate loop stays a minority
CONSTRUCT_MAX_CANDIDATES = 4096


def field_name(f: FieldSpec) -> str:
    return "rational" if not f.is_prime_field else f"gfp:{f.p}"


def phi_doc(phi) -> dict:
    return {"phi": {e: str(v) for e, v in phi.phi.items()}}


def search_copies(p: int, k: int, shift: int) -> int:
    """One copy of the undecided case; otherwise copies chosen so that the tail
    percentile lands inside the k = 4, shift 2 cluster of latencies and the
    median inside the k = 2 one."""
    if (p, k, shift) == (3, 4, 1):
        return 1
    return 3 if (k, shift) == (4, 2) else 4 if k == 1 else 2


def search_instances() -> list:
    out = []
    for p in (2, 3, 5):
        for k in (1, 2, 3, 4):
            for shift in (1, 2):
                if p == 5 and k >= 3 and shift == 1:
                    continue  # 5^(k^2) candidates: far beyond the budget
                spec = {"chain": 8, "interval": [1, 4], "k": k, "shift": shift, "p": p}
                g, m, n = stress_modules(spec)
                clear_cache()
                oracle = interleave.shift_oracle_distance(m, n)
                # analytic value: the interval [c1, c4] and its shift by s are
                # s-interleaved on the diagonal grid, and the earliest yes stratum
                # is (s - 1, s]
                assert oracle == shift - 1, (spec, oracle)
                out.append({
                    "id": f"stress-gf{p}-k{k}-s{shift}", "op": "distance",
                    "field": f"gfp:{p}", "stress": spec,
                    "copies": search_copies(p, k, shift),
                    "expected": {"distance": format_ext(oracle),
                                 "source": "shift_oracle_distance"},
                })
                print("search", out[-1]["id"], format_ext(oracle), flush=True)
    return out


class _CandidateCount:
    """Records the largest candidates_tried of any stratum search."""

    def __init__(self):
        self.most = 0
        self.orig = interleave.find_interleaving

    def __enter__(self):
        def counted(*a, **k):
            res = self.orig(*a, **k)
            self.most = max(self.most, res.candidates_tried)
            return res
        interleave.find_interleaving = counted
        return self

    def __exit__(self, *exc):
        interleave.find_interleaving = self.orig


def distance_instance(ident, poset_doc, rho, height_doc, m, n, oracle: bool) -> dict | None:
    clear_cache()
    with _CandidateCount() as cc:
        rep = interleave.distance(rho, m, n, budget=CONSTRUCT_BUDGET)
    if cc.most > CONSTRUCT_MAX_CANDIDATES or not rep.decided:
        print("construct skip", ident, cc.most, rep.decided, flush=True)
        return None
    expected = {"distance": format_ext(rep.distance), "attained": rep.attained,
                "source": "seed-commit"}
    if oracle:
        clear_cache()
        o = interleave.shift_oracle_distance(m, n, budget=CONSTRUCT_BUDGET)
        if o != rep.distance:
            raise SystemExit(f"{ident}: distance {rep.distance} != shift oracle {o}")
        expected["source"] = "shift_oracle_distance"
    print("construct", ident, expected["distance"], cc.most, flush=True)
    # two copies, so the tail percentile lands inside the slow DAG cluster
    return {"id": ident, "op": "distance", "field": field_name(m.field), "copies": 2,
            "poset": poset_doc,
            "height": height_doc, "module": module_to_json(m), "module2": module_to_json(n),
            "expected": expected}


def construct_instances() -> list:
    out = []

    def add(inst):
        if inst is not None:
            out.append(inst)

    seed, kept = 1000, 0
    while kept < 16:  # random DAGs, GF(2)
        rng = random.Random(seed)
        n = 12 + seed % 3
        P = random_poset(rng, n)
        phi = random_phi(rng, P)
        m, nn = random_module(rng, P, GF2, 3), random_module(rng, P, GF2, 3)
        inst = distance_instance(f"dag{n}-{seed}", poset_to_json(P), from_phi(phi), phi_doc(phi), m, nn, False)
        add(inst)
        kept += inst is not None
        seed += 1
    for side, count in ((4, 6), (5, 6)):  # diagonal grids, GF(2)
        for i in range(count):
            seed = 2000 + 100 * side + i
            rng = random.Random(seed)
            G = FinitePoset.grid([side, side])
            m, nn = random_module(rng, G, GF2, 2), random_module(rng, G, GF2, 2)
            add(distance_instance(f"grid{side}-{seed}", {"grid": [side, side]}, rho_diag(G), {"diag": True}, m, nn, True))
    for i in range(8):  # random forests, GF(3)
        seed = 3000 + i
        rng = random.Random(seed)
        P = random_forest_poset(rng, 7 + i % 3)
        phi = random_phi(rng, P)
        m, nn = random_module(rng, P, GF3, 2), random_module(rng, P, GF3, 2)
        add(distance_instance(f"forest{len(P)}-gf3-{seed}", poset_to_json(P), from_phi(phi), phi_doc(phi), m, nn, False))
    for i in range(4):  # the rational minority: small grids over Q
        seed = 4000 + i
        rng = random.Random(seed)
        G = FinitePoset.grid([3, 3])
        m, nn = random_module(rng, G, QQ, 2), random_module(rng, G, QQ, 2)
        add(distance_instance(f"grid3-qq-{seed}", {"grid": [3, 3]}, rho_diag(G), {"diag": True}, m, nn, False))
    return out


def erosion_instances(construct: list) -> list:
    out = []
    for i in range(36):
        seed = 5000 + i
        rng = random.Random(seed)
        if i % 3 == 2:
            P = FinitePoset.grid([3, 3])
            rho, height, dim = rho_diag(P), {"diag": True}, 1
            pdoc = {"grid": [3, 3]}
        else:
            P = random_forest_poset(rng, 4 + (i // 3) % 3)
            phi = random_phi(rng, P, max_step=2)
            rho, height, dim = from_phi(phi), phi_doc(phi), 2
            pdoc = poset_to_json(P)
        m, n = random_module(rng, P, GF2, dim), random_module(rng, P, GF2, dim)
        clear_cache()
        rep = d_en(rho, m, n, budget=EROSION_BUDGET)
        if not rep.decided:
            raise SystemExit(f"en-distance {seed} undecided at the erosion budget")
        out.append({"id": f"en-{len(P)}-{seed}", "op": "en-distance", "field": "gf2",
                    "poset": pdoc, "height": height, "module": module_to_json(m),
                    "module2": module_to_json(n),
                    "expected": {"distance": format_ext(rep.distance), "source": "seed-commit"}})
        print("erosion", out[-1]["id"], out[-1]["expected"]["distance"], flush=True)
    heights = [c for c in construct if c["id"].startswith("dag")][:8]
    heights += [{"id": f"grid{s}", "poset": {"grid": [s, s]}, "height": {"diag": True}}
                for s in (4, 5)]
    for h in heights:
        P = load_poset(h["poset"])
        rho = load_height(h["height"], P)
        c = c_rho(rho)
        cip = check_cip(rho, budget=EROSION_BUDGET)
        if cip.budget_exceeded:
            raise SystemExit(f"cip on {h['id']} exceeds the erosion budget")
        base = {"field": "gf2", "poset": h["poset"], "height": h["height"]}
        out.append({"id": f"crho-{h['id']}", "op": "c-rho", **base,
                    "expected": {"c": format_ext(c.value), "attained": c.attained,
                                 "source": "seed-commit"}})
        out.append({"id": f"cip-{h['id']}", "op": "cip", **base,
                    "expected": {"holds": cip.holds, "source": "seed-commit"}})
        print("erosion", h["id"], format_ext(c.value), cip.holds, flush=True)
    return out


def main() -> None:
    construct = construct_instances()
    doc = {
        "search": {"budget": SEARCH_BUDGET, "instances": search_instances()},
        "construct": {"budget": CONSTRUCT_BUDGET, "instances": construct},
        "erosion": {"budget": EROSION_BUDGET, "instances": erosion_instances(construct)},
    }
    with open(DATA, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", DATA)


if __name__ == "__main__":
    main()
