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
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from . import fixtures
from .erosion import d_en
from .exactlin import FieldSpec, UnwritableValueError
from .functors import (
    FubiniComparisonError,
    IntermediateValueError,
    apply_L,
    apply_R,
    apply_T,
    e_r,
    e_r_vanishes,
    erosion_E,
    eta,
    im_r,
    kappa,
    ker_r,
    mu,
    sigma,
    tau,
    theta,
    xi_pullback,
)
from .height import (
    c_rho,
    check_cip,
    check_ivc,
    critical_values,
    distortion,
    format_ext,
    pullback_rho,
    rho_diag,
    strata,
)
from .interleave import (
    DEFAULT_BUDGET,
    UndecidedError,
    distance,
    find_interleaving,
    shift_oracle_distance,
)
from .pmod import (
    PersistenceModule,
    direct_sum,
    hom_basis,
    interval_module,
    is_isomorphic,
    pullback_module,
    validate_module,
)
from .poset import FinitePoset, PosetError, check_galois_insertion, check_order_map, is_diamond_free
from .serde import (
    SchemaError,
    en_report_to_json,
    load_height,
    load_module,
    load_order_map,
    load_poset,
    module_to_json,
    morphism_to_json,
    numeral,
    pair_to_json,
    parse_field,
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


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}", path)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}", path)
    except OSError as e:  # a directory, say, or a file that cannot be read
        raise SchemaError(f"cannot read the file: {e.strerror}", path)
    except UnicodeDecodeError as e:
        raise SchemaError(f"not UTF-8 text: byte {e.object[e.start]:#04x} at offset {e.start}", path)
    except ValueError as e:  # a number of more digits than int() converts
        raise SchemaError(f"malformed JSON: {e}", path)


def _emit(cfg: RunConfig, payload: Dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output and cfg.output != "-":
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise SchemaError(f"cannot write the report: {e.strerror}", cfg.output)
    else:
        print(text)


def _config(args: argparse.Namespace) -> RunConfig:
    if args.budget < 1:
        raise SchemaError("budget must be >= 1", "--budget")
    parent = os.path.dirname(args.output) or "."
    if args.output != "-" and not os.path.isdir(parent):
        raise SchemaError(f"no such directory: {parent}", "--output")
    return RunConfig(field=parse_field(args.field), budget=args.budget, output=args.output)


def _scale(text: Optional[str], flag: str) -> Optional[Fraction]:
    """A scale parameter from the command line: an exact value >= 0."""
    if text is None:
        return None
    try:
        x = numeral(Fraction, text)
    except (ValueError, ZeroDivisionError):  # also more digits than int() converts
        raise SchemaError(f"not an exact number: {text!r}", flag)
    if x < 0:
        raise SchemaError(f"scale must be >= 0, got {text}", flag)
    return x


def _integer(text: str) -> int:
    """An integer flag's value: a numeral with no "/q" or ".d" part."""
    try:
        return numeral(int, text)
    except ValueError:  # also a fraction, or more digits than int() converts
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _load_module(path: str, poset: FinitePoset, cfg: RunConfig) -> PersistenceModule:
    """A module file, rejected unless its structure maps commute (a functor)."""
    m = load_module(_read_json(path), poset, cfg.field)
    bad = validate_module(m).commutativity_violations
    if bad:
        a, b, h1, h2 = bad[0]
        raise SchemaError(f"not a functor: the paths {a} < {h1} <= {b} and {a} < {h2} <= {b} "
                          f"give different maps", path)
    return m


def _load_pair(args, poset: FinitePoset, cfg: RunConfig) -> Tuple[PersistenceModule, PersistenceModule]:
    """--module and --module2, rejected unless both are over one field."""
    m = _load_module(args.module, poset, cfg)
    n = _load_module(args.module2, poset, cfg)
    if n.field != m.field:
        def name(f):
            return f"GF({f.p})" if f.is_prime_field else "Q"
        raise SchemaError(f"module is over {name(n.field)} but --module is over {name(m.field)}",
                          "--module2")
    return m, n


def _load_inputs(args, cfg: RunConfig):
    """(poset, rho, m, n): --poset, then whichever of --height, --module and
    --module2 the command declares (None for the others)."""
    poset = load_poset(_read_json(args.poset))
    rho = load_height(_read_json(args.height), poset) if "height" in args else None
    if "module2" in args:
        return (poset, rho, *_load_pair(args, poset, cfg))
    m = _load_module(args.module, poset, cfg) if "module" in args else None
    return poset, rho, m, None


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
                "critical_values": [format_ext(v) for v in critical_values(rho)],
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
    poset, rho, m, _ = _load_inputs(args, cfg)
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
        out = {"module": module_to_json(res.sub.module),
               "projection": morphism_to_json(res.proj.source, res.proj.components),
               "inclusion": morphism_to_json(res.sub.incl.source, res.sub.incl.components)}
    elif kind == "Im":
        sub = im_r(rho, r, m)
        out = {"module": module_to_json(sub.module),
               "inclusion": morphism_to_json(sub.incl.source, sub.incl.components)}
    elif kind == "Ker":
        sub = ker_r(rho, r, m)
        out = {"module": module_to_json(sub.module),
               "inclusion": morphism_to_json(sub.incl.source, sub.incl.components)}
    else:
        raise SchemaError(f"unknown functor kind {kind!r}", "--kind")
    _emit(cfg, out)
    return EXIT_OK


def _cmd_nat(args, cfg: RunConfig) -> int:
    r, s = _scale(args.r, "--r"), _scale(args.s, "--s")
    name = args.name
    if name in ("etaL", "etaR") and s is not None and s < r:
        raise SchemaError(f"{name} needs s >= r, got s = {args.s} < r = {args.r}", "--s")
    poset, rho, m, _ = _load_inputs(args, cfg)
    c = _scale(args.c, "--c")
    if name == "e":
        mor = e_r(rho, r, m)
    elif name in ("etaL", "etaR"):
        mor = eta(rho, s if s is not None else r, r, m, name[-1])
    elif name in ("muL", "muR"):
        mor = mu(rho, s or 0, r, m, name[-1])
    elif name == "kappa":
        mor = kappa(rho, s or 0, r, m, args.direction)
    elif name == "tau":
        mor = tau(rho, s or 0, r, m, args.direction)
    elif name == "theta":
        mor = theta(rho, s or 0, r, c or 0, m, args.direction)
    elif name == "sigma":
        mor = sigma(rho, s or 0, r, c or 0, m, args.direction)
    elif name == "xi":
        if args.poset2 is None or args.map is None:
            raise SchemaError("xi needs --poset2 and --map", "--name")
        other = load_poset(_read_json(args.poset2))
        f = load_order_map(_read_json(args.map), other, poset)
        bad = check_order_map(f).preservation_violations
        if bad:
            x, y = bad[0]
            raise SchemaError(f"not order-preserving: {x!r} <= {y!r} but {f(x)!r} is not "
                              f"below {f(y)!r}", "--map")
        mor = xi_pullback(f, rho, r, m, args.direction)
    else:
        raise SchemaError(f"unknown transformation {name!r}", "--name")
    _emit(cfg, {
        "name": name,
        "source_dims": dict(zip(mor.source.poset.elements, mor.source.dims)),
        "target_dims": dict(zip(mor.target.poset.elements, mor.target.dims)),
        "morphism": morphism_to_json(mor.source, mor.components),
        "is_iso_pointwise": mor.is_iso(),
    })
    return EXIT_OK


def _cmd_interleave(args, cfg: RunConfig) -> int:
    r = _scale(args.r, "--r")
    poset, rho, m, n = _load_inputs(args, cfg)
    res = find_interleaving(rho, r, m, n, budget=cfg.budget)
    out: Dict[str, Any] = {"r": format_ext(r), "verdict": res.verdict,
                           "candidates_tried": res.candidates_tried}
    if res.verdict == "yes":
        out["certificate"] = pair_to_json(res)
    _emit(cfg, out)
    return EXIT_OK if res.verdict != "unknown" else EXIT_UNDECIDED


def _cmd_distance(args, cfg: RunConfig) -> int:
    poset, rho, m, n = _load_inputs(args, cfg)
    rep = distance(rho, m, n, budget=cfg.budget)
    _emit(cfg, strata_report_to_json(rep))
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def _cmd_en_distance(args, cfg: RunConfig) -> int:
    poset, rho, m, n = _load_inputs(args, cfg)
    rep = d_en(rho, m, n, budget=cfg.budget)
    _emit(cfg, en_report_to_json(rep))
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def _cmd_cip(args, cfg: RunConfig) -> int:
    poset, rho, _, _ = _load_inputs(args, cfg)
    rep = check_cip(rho, budget=cfg.budget)
    out: Dict[str, Any] = {"holds": rep.holds, "tests_run": rep.tests_run,
                           "budget_exceeded": rep.budget_exceeded}
    if rep.witness:
        a, q, s, r = rep.witness
        out["witness"] = {"a": a, "q": q, "s": format_ext(s), "r": format_ext(r),
                          "intersection": list(rep.witness_set or ())}
    _emit(cfg, out)
    return EXIT_UNDECIDED if rep.budget_exceeded else EXIT_OK


def _cmd_ivc(args, cfg: RunConfig) -> int:
    c = _scale(args.c, "--c")
    poset, rho, _, _ = _load_inputs(args, cfg)
    rep = check_ivc(rho, c)
    out: Dict[str, Any] = {"c": format_ext(c), "holds": rep.holds}
    if rep.witness:
        a, b, t = rep.witness
        out["witness"] = {"a": a, "b": b, "t": format_ext(t)}
    _emit(cfg, out)
    return EXIT_OK


def _cmd_c_rho(args, cfg: RunConfig) -> int:
    poset, rho, _, _ = _load_inputs(args, cfg)
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
        m = _load_module(args.module, target, cfg)
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
    m, n = _load_pair(args, poset, cfg)
    if not m.field.is_prime_field:
        raise SchemaError("the shift oracle is exhaustive only over prime fields, "
                          "but the modules are over Q", "--module")
    rep = distance(rho_diag(poset), m, n, budget=cfg.budget)
    out: Dict[str, Any] = {"distance": format_ext(rep.distance)}
    try:
        oracle = shift_oracle_distance(m, n, budget=cfg.budget)
    except UndecidedError as e:
        out.update(oracle_undecided=str(e), oracle_distance_lo=format_ext(e.lo),
                   oracle_distance_hi=format_ext(e.hi))
        _emit(cfg, out)
        return EXIT_UNDECIDED
    out.update(oracle_distance=format_ext(oracle), agree=rep.distance == oracle)
    _emit(cfg, out)
    if not rep.decided:
        return EXIT_UNDECIDED
    return EXIT_OK if out["agree"] else EXIT_INVALID


def _cmd_repro(args, cfg: RunConfig) -> int:
    name = args.example
    if name == "grid":
        ex = fixtures.grid_example(cfg.field)
        aL, aR = apply_L(ex.rho, 1, ex.module), apply_R(ex.rho, 1, ex.module)
        elements = ex.poset.elements
        got_L = {e: aL.module.dims[i] for i, e in enumerate(elements)}
        got_R = {e: aR.module.dims[i] for i, e in enumerate(elements)}
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
        verdicts = {iso_L.verdict, iso_R.verdict}
        if got_L != ex.printed_L1_dims or got_R != ex.printed_R1_dims or "no" in verdicts:
            return EXIT_INVALID
        return EXIT_UNDECIDED if "unknown" in verdicts else EXIT_OK
    if name == "chain":
        C = _scale(args.C, "--C")
        if C <= 1:
            raise SchemaError(f"the chain family needs C > 1, got {args.C}", "--C")
        ex = fixtures.chain_example(C, cfg.field)
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
        compared = [(dMX, 0), (dXN, 0), (dMN, ex.C)]
        if any(rep.decided and rep.distance != want for rep, want in compared):
            return EXIT_INVALID
        return EXIT_OK if all(rep.decided for rep, _ in compared) else EXIT_UNDECIDED
    # bipath, the one example left: argparse `choices` admits no other
    if args.G < 5:
        raise SchemaError(f"the bipath family needs G > 4, got {args.G}", "--G")
    ex = fixtures.bipath_example(args.G, cfg.field)
    M = ex.M
    M1 = apply_L(ex.rho, 1, M).module
    N = apply_L(ex.rho, 1, M1).module
    hom_dims = {}
    for st in strata(ex.rho):
        Lr = apply_L(ex.rho, st.rep, M).module
        hom_dims[str(st.rep)] = len(hom_basis(Lr, N))
    e_nonzero = {str(st.rep): not e_r_vanishes(ex.rho, st.rep, M)
                 for st in strata(ex.rho)}
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
    if dMN.decided and dMN.distance != Fraction(ex.G, 2):
        return EXIT_INVALID
    return EXIT_OK if dMN.decided else EXIT_UNDECIDED


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input (exit 1), not "undecided" (exit 2)
        raise SchemaError(message, self.prog)


_REQUIRED = dict(required=True)
_OPTIONAL = dict(default=None)
_DIRECTION = dict(default="L", choices=["L", "R"])

# every command: its handler and its flags, as add_argument keywords
_COMMANDS = {
    "validate": (_cmd_validate, {"--poset": _REQUIRED, "--height": _OPTIONAL,
                                 "--module": _OPTIONAL}),
    "functor": (_cmd_functor, {"--poset": _REQUIRED, "--height": _REQUIRED,
                               "--module": _REQUIRED, "--kind": _REQUIRED, "--r": _REQUIRED,
                               "--s": _OPTIONAL, "--direction": _DIRECTION}),
    "nat": (_cmd_nat, {"--poset": _REQUIRED, "--height": _REQUIRED, "--module": _REQUIRED,
                       "--name": _REQUIRED, "--r": _REQUIRED, "--s": _OPTIONAL,
                       "--c": _OPTIONAL, "--direction": _DIRECTION, "--poset2": _OPTIONAL,
                       "--map": _OPTIONAL}),
    "interleave": (_cmd_interleave, {"--poset": _REQUIRED, "--height": _REQUIRED,
                                     "--module": _REQUIRED, "--module2": _REQUIRED,
                                     "--r": _REQUIRED}),
    "distance": (_cmd_distance, {"--poset": _REQUIRED, "--height": _REQUIRED,
                                 "--module": _REQUIRED, "--module2": _REQUIRED}),
    "en-distance": (_cmd_en_distance, {"--poset": _REQUIRED, "--height": _REQUIRED,
                                       "--module": _REQUIRED, "--module2": _REQUIRED}),
    "cip": (_cmd_cip, {"--poset": _REQUIRED, "--height": _REQUIRED}),
    "ivc": (_cmd_ivc, {"--poset": _REQUIRED, "--height": _REQUIRED, "--c": _REQUIRED}),
    "c-rho": (_cmd_c_rho, {"--poset": _REQUIRED, "--height": _REQUIRED}),
    "distortion": (_cmd_distortion, {"--poset": _REQUIRED, "--height": _REQUIRED,
                                     "--height2": _REQUIRED}),
    "pullback": (_cmd_pullback, {"--poset": _REQUIRED, "--poset2": _REQUIRED,
                                 "--map": _REQUIRED, "--height": _OPTIONAL,
                                 "--module": _OPTIONAL}),
    "galois": (_cmd_galois, {"--poset": _REQUIRED, "--poset2": _REQUIRED,
                             "--iota": _REQUIRED, "--pi": _REQUIRED}),
    "oracle-grid": (_cmd_oracle_grid, {"--poset": _REQUIRED, "--module": _REQUIRED,
                                       "--module2": _REQUIRED}),
    "repro": (_cmd_repro, {"example": dict(choices=["grid", "chain", "bipath"]),
                           "--C": dict(default="2"), "--G": dict(type=_integer, default=8)}),
}


@lru_cache(maxsize=None)
def _parser(command: Optional[str] = None) -> _Parser:
    """The top-level parser (no command), or the parser of one command's own
    flags, built on first use and reused: parsing does not change a parser,
    and a usage error raises SchemaError instead of leaving it half-used."""
    if command is not None:
        cp = _Parser(prog=f"hipm {command}")
        for flag, kw in _COMMANDS[command][1].items():
            cp.add_argument(flag, **kw)
        return cp
    ap = _Parser(
        prog="hipm",
        description="Exact height-interleaving distances for persistence modules over finite posets",
    )
    ap.add_argument("--field", default="gf2", help="gf2 | gf3 | gfp:P | rational")
    ap.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET, help="candidate cap for searches")
    ap.add_argument("--output", default="-", help="report path, '-' for stdout")
    # the command name and everything after it, as argparse hands them to subparsers
    ap.add_argument("command", nargs=argparse.PARSER, choices=list(_COMMANDS))
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """The global options and the command name first, then the command's own
    flags with a parser built for that command alone."""
    args = _parser().parse_args(argv)
    args.command, *rest = args.command
    _parser(args.command).parse_args(rest, namespace=args)
    args.fn = _COMMANDS[args.command][0]
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        cfg = _config(args)
        return args.fn(args, cfg)
    except (SchemaError, PosetError, IntermediateValueError, FubiniComparisonError,
            UnwritableValueError) as e:
        # bad input, a transformation whose precondition fails on it, or a value
        # computed from it that is too long to write
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
