"""Command-line front door.

Subcommands load JSON inputs, dispatch into the library, and emit
machine-readable reports (all numerics as exact fraction strings or "inf").
Exit codes: 0 computed, 1 validation failure, 2 budget exhausted / undecided.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional

from . import fixtures
from .erosion import d_en
from .exactlin import FieldSpec, GF2
from .functors import (
    apply_L,
    apply_R,
    apply_T,
    e_r,
    erosion_E,
    eta_L,
    eta_R,
    im_r,
    kappa,
    ker_r,
    mu_L,
    mu_R,
    sigma,
    tau,
    theta,
    xi_pullback,
)
from .height import (
    HeightDiff,
    c_rho,
    check_cip,
    check_ivc,
    critical_values,
    distortion,
    format_ext,
    pullback_rho,
    rho_diag,
)
from .interleave import Certificate, DEFAULT_BUDGET, distance, find_interleaving, shift_oracle_distance
from .pmod import ModuleMorphism, hom_basis, is_isomorphic, pullback_module, validate_module
from .poset import FinitePoset, PosetError, check_galois_insertion, check_order_map, is_diamond_free
from .serde import (
    SchemaError,
    en_report_to_json,
    field_to_json,
    load_height,
    load_module,
    load_morphism,
    load_order_map,
    load_poset,
    module_to_json,
    morphism_to_json,
    parse_field,
    poset_to_json,
    strata_report_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNDECIDED = 2


@dataclass
class RunConfig:
    field: FieldSpec
    budget: int
    output: Optional[str]
    seed: int


def _read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}", path)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}", path)


def _emit(cfg: RunConfig, payload: Dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output and cfg.output != "-":
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(args: argparse.Namespace) -> RunConfig:
    budget = args.budget
    env = os.environ.get("HINT_BUDGET")
    if env:
        budget = int(env)
    if budget < 1:
        raise SchemaError("budget must be >= 1", "--budget")
    return RunConfig(
        field=parse_field(args.field),
        budget=budget,
        output=args.output,
        seed=args.seed,
    )


def _scale(text: Optional[str], flag: str) -> Optional[Fraction]:
    """A scale parameter from the command line: an exact value >= 0."""
    if text is None:
        return None
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"not an exact number: {text!r}", flag)
    if x < 0:
        raise SchemaError(f"scale must be >= 0, got {text}", flag)
    return x


def _load_inputs(args, cfg: RunConfig, need_height=False, need_module=False,
                 need_module2=False):
    poset = load_poset(_read_json(args.poset))
    rho = load_height(_read_json(args.height), poset) if need_height else None
    m = load_module(_read_json(args.module), poset, cfg.field) if need_module else None
    n = load_module(_read_json(args.module2), poset, cfg.field) if need_module2 else None
    return poset, rho, m, n


def _app_to_json(app) -> Dict[str, Any]:
    P = app.module.poset
    legs = {}
    for a in range(len(P)):
        data = app.data[a]
        legs[P.elements[a]] = {
            P.elements[x]: data.legs[x].tolists() for x in data.nodes
        }
    return {"module": module_to_json(app.module), "legs": legs}


def _cmd_validate(args, cfg: RunConfig) -> int:
    report: Dict[str, Any] = {}
    code = EXIT_OK
    poset = None
    try:
        poset = load_poset(_read_json(args.poset))
        report["poset"] = {"valid": True, "elements": len(poset),
                           "covers": len(poset.covers),
                           "diamond_free": is_diamond_free(poset)}
    except (PosetError, SchemaError) as e:
        report["poset"] = {"valid": False, "error": str(e)}
        code = EXIT_INVALID
    if poset is not None and args.height:
        try:
            rho = load_height(_read_json(args.height), poset)
            report["height"] = {
                "valid": True,
                "critical_values": [str(v) for v in critical_values(rho)],
            }
        except (SchemaError, PosetError, ValueError) as e:
            report["height"] = {"valid": False, "error": str(e)}
            code = EXIT_INVALID
    if poset is not None and args.module:
        try:
            m = load_module(_read_json(args.module), poset, cfg.field)
            v = validate_module(m)
            report["module"] = {
                "valid": v.valid,
                "shape_violations": [list(map(str, x)) for x in v.shape_violations],
                "commutativity_violations": [list(x) for x in v.commutativity_violations],
            }
            if not v.valid:
                code = EXIT_INVALID
        except (SchemaError, ValueError) as e:
            report["module"] = {"valid": False, "error": str(e)}
            code = EXIT_INVALID
    _emit(cfg, report)
    return code


def _cmd_functor(args, cfg: RunConfig) -> int:
    r = _scale(args.r, "--r")
    poset, rho, m, _ = _load_inputs(args, cfg, need_height=True, need_module=True)
    kind = args.kind
    if kind == "L":
        out = _app_to_json(apply_L(rho, r, m))
    elif kind == "R":
        out = _app_to_json(apply_R(rho, r, m))
    elif kind == "T":
        if args.s is None:
            raise SchemaError("T needs --s", "--s")
        out = _app_to_json(apply_T(rho, _scale(args.s, "--s"), r, m, args.direction))
    elif kind == "E":
        res = erosion_E(rho, r, m)
        out = {"module": module_to_json(res.module),
               "projection": morphism_to_json(res.proj),
               "inclusion": morphism_to_json(res.incl)}
    elif kind == "Im":
        sub = im_r(rho, r, m)
        out = {"module": module_to_json(sub.module),
               "inclusion": morphism_to_json(sub.incl)}
    elif kind == "Ker":
        sub = ker_r(rho, r, m)
        out = {"module": module_to_json(sub.module),
               "inclusion": morphism_to_json(sub.incl)}
    else:
        raise SchemaError(f"unknown functor kind {kind!r}", "--kind")
    _emit(cfg, out)
    return EXIT_OK


def _cmd_nat(args, cfg: RunConfig) -> int:
    r, s = _scale(args.r, "--r"), _scale(args.s, "--s")
    poset, rho, m, _ = _load_inputs(args, cfg, need_height=True, need_module=True)
    c = Fraction(args.c) if args.c is not None else None
    name = args.name
    if name == "e":
        mor = e_r(rho, r, m)
    elif name == "etaL":
        mor = eta_L(rho, s if s is not None else r, r, m)
    elif name == "etaR":
        mor = eta_R(rho, r, s if s is not None else r, m)
    elif name == "muL":
        mor = mu_L(rho, s or 0, r, m)
    elif name == "muR":
        mor = mu_R(rho, r, s or 0, m)
    elif name == "kappa":
        mor = kappa(rho, s or 0, r, m, args.direction)
    elif name == "tau":
        mor = tau(rho, s or 0, r, m, args.direction)
    elif name == "theta":
        mor = theta(rho, s or 0, r, c or 0, m, args.direction)
    elif name == "sigma":
        mor = sigma(rho, s or 0, r, c or 0, m, args.direction)
    elif name == "xi":
        other = load_poset(_read_json(args.poset2))
        f = load_order_map(_read_json(args.map), other, poset)
        mor = xi_pullback(f, rho, r, m, args.direction)
    else:
        raise SchemaError(f"unknown transformation {name!r}", "--name")
    _emit(cfg, {
        "name": name,
        "source_dims": {poset.elements[i] if name != "xi" else str(i): d
                        for i, d in enumerate(mor.source.dims)},
        "target_dims": {poset.elements[i] if name != "xi" else str(i): d
                        for i, d in enumerate(mor.target.dims)},
        "morphism": morphism_to_json(mor),
        "is_iso_pointwise": mor.is_iso(),
    })
    return EXIT_OK


def _cmd_interleave(args, cfg: RunConfig) -> int:
    r = _scale(args.r, "--r")
    poset, rho, m, n = _load_inputs(args, cfg, need_height=True, need_module=True,
                                    need_module2=True)
    res = find_interleaving(rho, r, m, n, budget=cfg.budget)
    out: Dict[str, Any] = {"r": args.r, "verdict": res.verdict,
                           "candidates_tried": res.candidates_tried}
    if res.certificate:
        out["certificate"] = {
            "p": morphism_to_json(res.certificate.p),
            "q": morphism_to_json(res.certificate.q),
        }
    _emit(cfg, out)
    return EXIT_OK if res.verdict != "unknown" else EXIT_UNDECIDED


def _cmd_distance(args, cfg: RunConfig) -> int:
    poset, rho, m, n = _load_inputs(args, cfg, need_height=True, need_module=True,
                                    need_module2=True)
    rep = distance(rho, m, n, budget=cfg.budget)
    _emit(cfg, strata_report_to_json(rep))
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def _cmd_en_distance(args, cfg: RunConfig) -> int:
    poset, rho, m, n = _load_inputs(args, cfg, need_height=True, need_module=True,
                                    need_module2=True)
    rep = d_en(rho, m, n, budget=cfg.budget)
    _emit(cfg, en_report_to_json(rep))
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def _cmd_cip(args, cfg: RunConfig) -> int:
    poset, rho, _, _ = _load_inputs(args, cfg, need_height=True)
    rep = check_cip(rho, budget=cfg.budget)
    out: Dict[str, Any] = {"holds": rep.holds, "tests_run": rep.tests_run,
                           "budget_exceeded": rep.budget_exceeded}
    if rep.witness:
        a, q, s, r = rep.witness
        out["witness"] = {"a": a, "q": q, "s": str(s), "r": str(r),
                          "intersection": list(rep.witness_set or ())}
    _emit(cfg, out)
    return EXIT_UNDECIDED if rep.budget_exceeded else EXIT_OK


def _cmd_ivc(args, cfg: RunConfig) -> int:
    poset, rho, _, _ = _load_inputs(args, cfg, need_height=True)
    rep = check_ivc(rho, Fraction(args.c))
    out: Dict[str, Any] = {"c": args.c, "holds": rep.holds}
    if rep.witness:
        a, b, t = rep.witness
        out["witness"] = {"a": a, "b": b, "t": str(t)}
    _emit(cfg, out)
    return EXIT_OK


def _cmd_c_rho(args, cfg: RunConfig) -> int:
    poset, rho, _, _ = _load_inputs(args, cfg, need_height=True)
    res = c_rho(rho)
    _emit(cfg, {"c": format_ext(res.value), "attained": res.attained})
    return EXIT_OK


def _cmd_distortion(args, cfg: RunConfig) -> int:
    poset = load_poset(_read_json(args.poset))
    rho1 = load_height(_read_json(args.height), poset)
    rho2 = load_height(_read_json(args.height2), poset)
    _emit(cfg, {"distortion": format_ext(distortion(rho1, rho2))})
    return EXIT_OK


def _cmd_pullback(args, cfg: RunConfig) -> int:
    target = load_poset(_read_json(args.poset))
    source = load_poset(_read_json(args.poset2))
    f = load_order_map(_read_json(args.map), source, target)
    rep = check_order_map(f)
    if not rep.preserving:
        _emit(cfg, {"valid": False,
                    "violations": [list(v) for v in rep.preservation_violations]})
        return EXIT_INVALID
    out: Dict[str, Any] = {"valid": True}
    if args.height:
        rho = load_height(_read_json(args.height), target)
        pulled = pullback_rho(f, rho)
        out["rho"] = [[source.elements[i], source.elements[j], format_ext(v)]
                      for (i, j), v in sorted(pulled.values.items()) if i != j]
    if args.module:
        m = load_module(_read_json(args.module), target, cfg.field)
        out["module"] = module_to_json(pullback_module(f, m))
    _emit(cfg, out)
    return EXIT_OK


def _cmd_galois(args, cfg: RunConfig) -> int:
    P = load_poset(_read_json(args.poset))
    Pp = load_poset(_read_json(args.poset2))
    iota = load_order_map(_read_json(args.iota), P, Pp)
    pi = load_order_map(_read_json(args.pi), Pp, P)
    rep = check_galois_insertion(iota, pi)
    _emit(cfg, {
        "valid": rep.valid,
        "adjunction_violations": [list(v) for v in rep.adjunction_violations],
        "embedding_violations": [list(v) for v in rep.embedding_violations],
        "preservation_violations": [list(v) for v in rep.preservation_violations],
    })
    return EXIT_OK


def _cmd_oracle_grid(args, cfg: RunConfig) -> int:
    poset = load_poset(_read_json(args.poset))
    if poset.coords is None:
        raise SchemaError("oracle-grid needs a grid poset", "--poset")
    m = load_module(_read_json(args.module), poset, cfg.field)
    n = load_module(_read_json(args.module2), poset, cfg.field)
    rho = rho_diag(poset)
    rep = distance(rho, m, n, budget=cfg.budget)
    oracle = shift_oracle_distance(m, n, budget=cfg.budget)
    _emit(cfg, {
        "distance": format_ext(rep.distance),
        "oracle_distance": format_ext(oracle),
        "agree": rep.distance == oracle,
    })
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def _cmd_repro(args, cfg: RunConfig) -> int:
    name = args.example
    if name == "grid":
        ex = fixtures.grid_example(cfg.field)
        aL, aR = apply_L(ex.rho, 1, ex.module), apply_R(ex.rho, 1, ex.module)
        elements = ex.poset.elements
        got_L = {e: aL.module.dims[i] for i, e in enumerate(elements)}
        got_R = {e: aR.module.dims[i] for i, e in enumerate(elements)}
        from .pmod import direct_sum, interval_module

        L_dec = direct_sum(
            direct_sum(interval_module(ex.poset, ex.J1, cfg.field),
                       interval_module(ex.poset, ["v_1_2"], cfg.field)),
            interval_module(ex.poset, ["v_2_1"], cfg.field),
        )
        R_dec = direct_sum(
            direct_sum(interval_module(ex.poset, ex.J2, cfg.field),
                       interval_module(ex.poset, ex.J3, cfg.field)),
            interval_module(ex.poset, ["v_3_0"], cfg.field),
        )
        iso_L = is_isomorphic(aL.module, L_dec, budget=cfg.budget)
        iso_R = is_isomorphic(aR.module, R_dec, budget=cfg.budget)
        _emit(cfg, {
            "L1_dims": got_L,
            "R1_dims": got_R,
            "L1_matches_printed": got_L == ex.printed_L1_dims,
            "R1_matches_printed": got_R == ex.printed_R1_dims,
            "L1_at_v22_is_zero": aL.module.dims[ex.poset.idx("v_2_2")] == 0,
            "L1_decomposition_iso": iso_L.verdict,
            "R1_decomposition_iso": iso_R.verdict,
        })
        ok = (got_L == ex.printed_L1_dims and got_R == ex.printed_R1_dims
              and iso_L.verdict == "yes" and iso_R.verdict == "yes")
        return EXIT_OK if ok else EXIT_INVALID
    if name == "chain":
        ex = fixtures.chain_example(Fraction(args.C), cfg.field)
        dMX = distance(ex.rho, ex.M, ex.X, budget=cfg.budget)
        dXN = distance(ex.rho, ex.X, ex.N, budget=cfg.budget)
        dMN = distance(ex.rho, ex.M, ex.N, budget=cfg.budget)
        cres = c_rho(ex.rho)
        triangle_gap = dMN.distance > dMX.distance + dXN.distance
        _emit(cfg, {
            "C": str(ex.C),
            "d_M_X": strata_report_to_json(dMX),
            "d_X_N": strata_report_to_json(dXN),
            "d_M_N": strata_report_to_json(dMN),
            "c_rho": format_ext(cres.value),
            "triangle_inequality_fails": bool(triangle_gap),
        })
        want = (dMX.distance == 0 and dXN.distance == 0 and dMN.distance == ex.C)
        return EXIT_OK if want else EXIT_INVALID
    if name == "bipath":
        ex = fixtures.bipath_example(args.G, cfg.field)
        M = ex.M
        M1 = apply_L(ex.rho, 1, M).module
        N = apply_L(ex.rho, 1, M1).module
        from .height import strata as _strata

        hom_dims = {}
        for st in _strata(ex.rho):
            Lr = apply_L(ex.rho, st.rep, M).module
            hom_dims[str(st.rep)] = len(hom_basis(Lr, N))
        e_nonzero = {str(st.rep): not e_r(ex.rho, st.rep, M).is_zero()
                     for st in _strata(ex.rho)}
        dMN = distance(ex.rho, M, N, budget=cfg.budget)
        dMM1 = distance(ex.rho, M, M1, budget=cfg.budget)
        dM1N = distance(ex.rho, M1, N, budget=cfg.budget)
        cres = c_rho(ex.rho)
        rti_violated = dMN.distance > dMM1.distance + dM1N.distance + cres.value
        _emit(cfg, {
            "G": ex.G,
            "hom_dims_per_rep": hom_dims,
            "e_nonzero_per_rep": e_nonzero,
            "d_M_N": format_ext(dMN.distance),
            "d_M_M1": format_ext(dMM1.distance),
            "d_M1_N": format_ext(dM1N.distance),
            "c_rho": format_ext(cres.value),
            "relaxed_triangle_violated_without_cip": bool(rti_violated),
        })
        return EXIT_OK if dMN.distance == Fraction(ex.G, 2) else EXIT_INVALID
    raise SchemaError(f"unknown example {name!r}", "repro")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hipm",
        description="Exact height-interleaving distances for persistence modules over finite posets",
    )
    ap.add_argument("--field", default="gf2", help="gf2 | gf3 | gfp:P | rational")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="candidate cap for searches (HINT_BUDGET env overrides)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default="-", help="report path, '-' for stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate,
        **{"--poset": dict(required=True), "--height": dict(default=None),
           "--module": dict(default=None)})
    add("functor", _cmd_functor,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--module": dict(required=True), "--kind": dict(required=True),
           "--r": dict(required=True), "--s": dict(default=None),
           "--direction": dict(default="L", choices=["L", "R"])})
    add("nat", _cmd_nat,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--module": dict(required=True), "--name": dict(required=True),
           "--r": dict(required=True), "--s": dict(default=None),
           "--c": dict(default=None),
           "--direction": dict(default="L", choices=["L", "R"]),
           "--poset2": dict(default=None), "--map": dict(default=None)})
    add("interleave", _cmd_interleave,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--module": dict(required=True), "--module2": dict(required=True),
           "--r": dict(required=True)})
    add("distance", _cmd_distance,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--module": dict(required=True), "--module2": dict(required=True)})
    add("en-distance", _cmd_en_distance,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--module": dict(required=True), "--module2": dict(required=True)})
    add("cip", _cmd_cip,
        **{"--poset": dict(required=True), "--height": dict(required=True)})
    add("ivc", _cmd_ivc,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--c": dict(required=True)})
    add("c-rho", _cmd_c_rho,
        **{"--poset": dict(required=True), "--height": dict(required=True)})
    add("distortion", _cmd_distortion,
        **{"--poset": dict(required=True), "--height": dict(required=True),
           "--height2": dict(required=True)})
    add("pullback", _cmd_pullback,
        **{"--poset": dict(required=True), "--poset2": dict(required=True),
           "--map": dict(required=True), "--height": dict(default=None),
           "--module": dict(default=None)})
    add("galois", _cmd_galois,
        **{"--poset": dict(required=True), "--poset2": dict(required=True),
           "--iota": dict(required=True), "--pi": dict(required=True)})
    add("oracle-grid", _cmd_oracle_grid,
        **{"--poset": dict(required=True), "--module": dict(required=True),
           "--module2": dict(required=True)})
    rp = sub.add_parser("repro")
    rp.add_argument("example", choices=["grid", "chain", "bipath"])
    rp.add_argument("--C", default="2")
    rp.add_argument("--G", type=int, default=8)
    rp.set_defaults(fn=_cmd_repro)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _config(args)
        return args.fn(args, cfg)
    except SchemaError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INVALID
    except PosetError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
