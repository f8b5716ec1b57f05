"""Span tracing of hipm from outside the package, and the per-layer metrics.

`Tracer.install()` replaces the public functions named in `TARGETS` with
recording wrappers: in the defining module, in every hipm module that bound a
copy with `from ... import`, and on the class for methods.  Spans (name, start,
end, parent, extra) are kept in memory and written out by `dump()`.  Only
work inside a root span (one `cli.main` call) is recorded, so the checks the
benchmark runs between operations stay out of the trace.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (span name, module, attribute; "Class.method" for methods, extra(result, args))
TARGETS = [
    ("exactlin.rref", "hipm.exactlin", "rref", lambda res, a: not a[0].field.is_prime_field),
    ("exactlin.solve", "hipm.exactlin", "solve", None),
    ("exactlin.kernel_basis", "hipm.exactlin", "kernel_basis", None),
    ("exactlin.matmul", "hipm.exactlin", "Mat.__matmul__", None),
    ("poset.subposet_covers", "hipm.poset", "FinitePoset.subposet_covers", None),
    ("height.nbhd", "hipm.height", "nbhd_down_idx", None),
    ("height.nbhd", "hipm.height", "nbhd_up_idx", None),
    ("height.nbhd", "hipm.height", "nbhd_iterated_idx", None),
    ("height.strata", "hipm.height", "strata", lambda res, a: len(res)),
    ("height.check_cip", "hipm.height", "check_cip", None),
    ("height.c_rho", "hipm.height", "c_rho", None),
    ("pmod.hom_basis", "hipm.pmod", "hom_basis", lambda res, a: len(res)),
    ("pmod.naturality_check", "hipm.pmod", "ModuleMorphism.naturality_violations", None),
    ("pmod.is_isomorphic", "hipm.pmod", "is_isomorphic", None),
    ("pmod.submodule", "hipm.pmod", "submodule_from_bases", None),
    ("pmod.submodule", "hipm.pmod", "submodule_image", None),
    ("pmod.submodule", "hipm.pmod", "submodule_kernel", None),
    ("pmod.submodule", "hipm.pmod", "submodule_full", None),
    ("pmod.submodule", "hipm.pmod", "submodule_zero", None),
    ("pmod.submodule", "hipm.pmod", "submodule_sum", None),
    ("pmod.submodule", "hipm.pmod", "submodule_intersection", None),
    ("pmod.submodule", "hipm.pmod", "quotient_by_submodule", None),
    ("kan.colim_over", "hipm.kan", "colim_over", None),
    ("kan.lim_over", "hipm.kan", "lim_over", None),
    ("kan.factor", "hipm.kan", "factor_from_colim", None),
    ("kan.factor", "hipm.kan", "factor_into_lim", None),
    ("functors.apply", "hipm.functors", "apply_L", None),
    ("functors.apply", "hipm.functors", "apply_R", None),
    ("functors.apply", "hipm.functors", "apply_T", None),
    ("functors.sharp", "hipm.functors", "sharp", None),
    ("functors.e_r", "hipm.functors", "e_r", None),
    ("functors.erosion_E", "hipm.functors", "erosion_E", None),
    ("interleave.find_interleaving", "hipm.interleave", "find_interleaving",
     lambda res, a: res.candidates_tried),
    ("erosion.en_enumerate", "hipm.erosion", "en_enumerate", lambda res, a: res.raw_count),
    ("serde.load", "hipm.serde", "load_poset", None),
    ("serde.load", "hipm.serde", "load_height", None),
    ("serde.load", "hipm.serde", "load_module", None),
    ("serde.report", "hipm.serde", "strata_report_to_json", None),
    ("serde.report", "hipm.serde", "en_report_to_json", None),
]

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(res, args)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, modname, attr, extra in TARGETS:
            mod = sys.modules[modname]
            owner, _, key = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = vars(holder).get(key) if holder is not None else None
            if orig is None:  # renamed or removed: its metrics read 0
                print(f"trace: {modname}.{attr} not found, not traced", file=sys.stderr)
                continue
            if owner:
                setattr(holder, key, self._wrap(name, orig, extra))
                self._undo.append(lambda c=holder, k=key, o=orig: setattr(c, k, o))
                continue
            wrapped = self._wrap(name, orig, extra)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").split(".")[0] != "hipm":
                    continue
                for bound, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, bound, wrapped)
                        self._undo.append(lambda o=other, k=bound, v=orig: setattr(o, k, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def root(self, name: str, fn: Callable, *args):
        """Run fn(*args) as a root span; nested wrapped calls become its children."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def layer_of(name: str) -> str:
    return name.split(".")[0]


def per_layer(spans: List[list], reports: List[dict]) -> Dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit, base)} from one traced set of
    spans and the reports of the operations traced."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            children[s[PARENT]].append(i)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += dur[i] - child_time[i]
    total = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)

    def extras(name):
        return [s[EXTRA] for s in spans if s[NAME] == name]

    qq_rref = sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                  if s[NAME] == "exactlin.rref" and s[EXTRA])
    builds = sum(1 for i, s in enumerate(spans) if s[NAME] == "functors.apply"
                 and any(layer_of(spans[c][NAME]) == "kan" for c in children[i]))
    enumerated = solved = 0
    search_s = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "interleave.find_interleaving":
            continue
        homs = [spans[c][EXTRA] for c in children[i] if spans[c][NAME] == "pmod.hom_basis"]
        enumerated += homs[0] if homs else 0
        solved += homs[1] if len(homs) > 1 else 0
        search_s += dur[i] - sum(dur[c] for c in children[i]
                                 if layer_of(spans[c][NAME]) in ("pmod", "functors"))
    candidates = sum(extras("interleave.find_interleaving"))

    # time in functors + kan + pmod: spans of those layers with no ancestor in them
    build_layers = ("functors", "kan", "pmod")
    in_build = [False] * n
    build_s = 0.0
    for i, s in enumerate(spans):  # parents precede children in the list
        p = s[PARENT]
        inherited = p >= 0 and in_build[p]
        mine = layer_of(s[NAME]) in build_layers
        in_build[i] = inherited or mine
        if mine and not inherited:
            build_s += dur[i]

    evaluated = strata_total = 0
    via: Dict[str, int] = defaultdict(int)
    for rep in reports:
        for st in rep.get("strata", []):
            strata_total += 1
            if not (st["verdict"].startswith("implied-") or st["verdict"] == "skipped"):
                evaluated += 1
            if "via" in st:
                via[st["via"]] += 1

    apply_calls = calls["functors.apply"]
    out: Dict[str, tuple] = {}
    for name in ("exactlin.rref", "exactlin.solve", "exactlin.matmul", "height.nbhd",
                 "pmod.hom_basis", "pmod.is_isomorphic", "kan.colim_over", "kan.lim_over",
                 "kan.factor", "functors.apply", "erosion.en_enumerate"):
        out[f"{name}.calls"] = (calls[name], "count", None)
    for name in ("exactlin.rref", "exactlin.solve", "exactlin.kernel_basis", "exactlin.matmul",
                 "poset.subposet_covers", "height.nbhd", "height.check_cip", "height.c_rho",
                 "pmod.hom_basis", "pmod.naturality_check", "pmod.is_isomorphic",
                 "pmod.submodule", "kan.colim_over", "kan.lim_over", "kan.factor",
                 "functors.apply", "functors.sharp", "functors.e_r", "functors.erosion_E",
                 "erosion.en_enumerate", "serde.load", "serde.report", "cli.main"):
        out[f"{name}.self_s"] = (self_s[name], "s", None)
    out["exactlin.rref.qq_self_s"] = (qq_rref, "s", None)
    out["height.strata.count"] = (sum(extras("height.strata")), "count", "strata() calls")
    out["pmod.hom_dim.enumerated"] = (enumerated, "count", "find_interleaving calls")
    out["pmod.hom_dim.solved"] = (solved, "count", "find_interleaving calls")
    out["functors.apply.builds"] = (builds, "count", "functors.apply.calls")
    out["functors.cache_hit_ratio"] = (
        1 - builds / apply_calls if apply_calls else 0.0, "ratio", "functors.apply.calls")
    out["interleave.search_s"] = (search_s, "s", None)
    out["interleave.candidates"] = (candidates, "count", None)
    out["interleave.candidates_per_s"] = (
        candidates / search_s if search_s else 0.0, "1/s", "interleave.search_s")
    out["interleave.strata_evaluated"] = (evaluated, "count", "interleave.strata_total")
    out["interleave.strata_total"] = (strata_total, "count", None)
    out["erosion.en_enumerate.raw_count"] = (sum(extras("erosion.en_enumerate")), "count", None)
    for kind in ("erosion-iso", "certificate", "enumeration"):
        out[f"erosion.via.{kind}"] = (via[kind], "count", "interleave.strata_evaluated")
    out["trace.total_s"] = (total, "s", None)
    out["split.search_share"] = (search_s / total if total else 0.0, "ratio", "trace.total_s")
    out["split.build_share"] = (build_s / total if total else 0.0, "ratio", "trace.total_s")
    return out
