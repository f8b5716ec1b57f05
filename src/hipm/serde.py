"""JSON schemas for posets, heights, modules, morphisms, and reports.

All numeric payloads are exact: integers for prime-field entries, fraction
strings elsewhere, and "inf" for the infinite value.  Emitted reports re-parse
through these loaders.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from .exactlin import _MAX_INNER, GF2, QQ, FieldSpec, Mat
from .height import (
    HeightDiff,
    HeightFunction,
    format_ext,
    from_phi,
    parse_ext,
    rho_diag,
    validate_rho,
)
from .interleave import StrataReport
from .pmod import ModuleMorphism, PersistenceModule, SearchResult, Subquotient
from .poset import FinitePoset, OrderMap

__all__ = [
    "SchemaError",
    "parse_field",
    "field_to_json",
    "load_poset",
    "poset_to_json",
    "load_height",
    "load_module",
    "module_to_json",
    "load_morphism",
    "morphism_to_json",
    "pair_to_json",
    "strata_report_to_json",
    "en_report_to_json",
    "load_order_map",
    "numeral",
]

# A number written as text: an optional sign, ASCII digits, then at most one
# "/q" or ".d" part.  int() and Fraction() also take other digit scripts, "_",
# padding spaces and (Fraction) exponents: "1e10000000" takes seconds to build.
NUMERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def numeral(parse: Callable[[str], Any], text: str):
    """parse(text) for a `NUMERAL`; ValueError for any other string."""
    if not NUMERAL.fullmatch(text):
        raise ValueError("not a numeral")
    return parse(text)


class SchemaError(ValueError):
    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location, self.message = location, message


def parse_field(spec: Any) -> FieldSpec:
    """Accepts "gf2" | "gf3" | "gfp:P" | "rational" or {"kind": ..., "p": ...}.

    GF(2) and the rationals come back as the shared `GF2` and `QQ` objects, so
    matrices over them compare fields by identity."""
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s == "rational":
            return QQ
        if s == "gf2":
            return GF2
        if s == "gf3":
            return FieldSpec("gfp", 3)
        if s.startswith("gfp:"):
            return _prime_field(s.split(":", 1)[1], "$.field")
        raise SchemaError(f"unknown field spec {spec!r}", "$.field")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind in ("gfp", "prime-field"):
            return _prime_field(spec.get("p"), "$.field.p")
        if kind == "rational":
            return QQ
        raise SchemaError(f"unknown field kind {kind!r}", "$.field.kind")
    raise SchemaError("field must be a string or object", "$.field")


def _prime_field(p: Any, location: str) -> FieldSpec:
    try:
        f = FieldSpec("gfp", numeral(int, p) if isinstance(p, str) else _exact(int, p, location))
        return GF2 if f == GF2 else f
    except ValueError as e:  # not an integer, or not a supported prime
        raise SchemaError(f"bad modulus {_json_text(p)}: {getattr(e, 'message', e)}", location)


def field_to_json(f: FieldSpec) -> Dict[str, Any]:
    if f.is_prime_field:
        return {"kind": "gfp", "p": f.p}
    return {"kind": "rational"}


def _object(doc: Any, what: str, location: str = "$",
            keys: Optional[tuple] = None) -> Dict[str, Any]:
    """`doc` as a JSON object; with `keys`, a top-level document whose every key
    is one of them, so a misspelt key is an error and not silently unread."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object", location)
    unknown = [key for key in doc if key not in keys] if keys is not None else []
    if unknown:
        raise SchemaError(f"unknown key in {what}; expected one of {', '.join(keys)}",
                          f"{location}.{unknown[0]}")
    return doc


def _element_table(doc: Any, poset: FinitePoset, what: str, location: str) -> Dict[str, Any]:
    """An object keyed by element ids of poset: an unknown id is a SchemaError
    at its JSON path, not a key that is silently never read."""
    for e in _object(doc, what, location):
        if e not in poset.index:
            raise SchemaError(f"unknown element id {e!r}", f"{location}[{e!r}]")
    return doc


def load_poset(doc: Dict[str, Any]) -> FinitePoset:
    """{"elements": [...], "covers": [["a","b"], ...]} or {"grid": [4, 3]}.

    Covers need not be reduced in the file; normalization happens on load.
    """
    doc = _object(doc, "poset document", keys=("elements", "covers", "grid"))
    if "grid" in doc:
        shape = doc["grid"]
        if not isinstance(shape, list) or not all(type(x) is int for x in shape):  # no bools
            raise SchemaError("grid must be a list of integers", "$.grid")
        return FinitePoset.grid(shape)
    if "elements" not in doc:
        raise SchemaError("missing 'elements'", "$")
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError("elements must be a list of strings", "$.elements")
    for i, e in enumerate(elements):
        if "|" in e:  # a module's map keys join two ids as "lower|upper"
            raise SchemaError(f"element id {e!r} contains '|'", f"$.elements[{i}]")
    covers = doc.get("covers", [])
    if not isinstance(covers, list):
        raise SchemaError("covers must be a list", "$.covers")
    pairs = []
    for i, c in enumerate(covers):
        if not (isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c)):
            raise SchemaError("cover must be a [lower, upper] pair of ids", f"$.covers[{i}]")
        pairs.append((c[0], c[1]))
    return FinitePoset.from_covers(elements, pairs)


def poset_to_json(p: FinitePoset) -> Dict[str, Any]:
    return {
        "elements": list(p.elements),
        "covers": [[p.elements[a], p.elements[b]] for a, b in p.covers],
    }


def load_height(doc: Dict[str, Any], poset: FinitePoset) -> HeightDiff:
    """{"phi": {...}} or {"rho": [["a","b","3/2"], ...]} or {"diag": true} on grids."""
    doc = _object(doc, "height document", keys=("phi", "rho", "diag"))
    if "diag" in doc:
        if not isinstance(doc["diag"], bool):
            raise SchemaError("diag must be true or false", "$.diag")
        if doc["diag"]:
            return rho_diag(poset)
    if "phi" in doc:
        table = _element_table(doc["phi"], poset, "phi", "$.phi")
        phi = HeightFunction(poset, {k: _exact(Fraction, v, f"$.phi[{k!r}]")
                                     for k, v in table.items()})
        return from_phi(phi)
    if "rho" in doc:
        entries = doc["rho"]
        if not isinstance(entries, list):
            raise SchemaError("rho must be a list of [a, b, value] entries", "$.rho")
        table = {}
        for i, ent in enumerate(entries):
            if not (isinstance(ent, list) and len(ent) == 3
                    and all(isinstance(e, str) for e in ent[:2])):
                raise SchemaError("rho entry must be [a, b, value] with ids a, b", f"$.rho[{i}]")
            table[(ent[0], ent[1])] = _exact(parse_ext, ent[2], f"$.rho[{i}]")
        v = validate_rho(poset, table)
        if not v.ok:
            found = {"missing": v.missing_pairs, "not comparable": v.extra_pairs,
                     "nonzero diagonal": v.diagonal_violations, "negative": v.negative_violations,
                     "superadditivity": v.superadditivity_violations}
            raise SchemaError("invalid height-difference table: " + "; ".join(
                f"{kind}={bad[:3]}" for kind, bad in found.items() if bad), "$.rho")
        return v.rho
    raise SchemaError("height document needs 'phi', 'rho', or 'diag'", "$")


def _json_text(v: Any) -> str:
    """v as a JSON document writes it (`true`, `null`, `"1_1"`), or its repr
    when it is no JSON value."""
    try:
        return json.dumps(v, ensure_ascii=False)
    except (TypeError, ValueError):
        return repr(v)


def _exact(parse: Callable[[Any], Any], v: Any, location: str):
    """parse(v) for an int or a `NUMERAL` string such as "3/2", and for a word
    such as parse_ext's "inf"; no bool, and no float, which is inexact."""
    if type(v) is int or isinstance(v, str) and (NUMERAL.fullmatch(v) or v.strip().isalpha()):
        try:
            return parse(v)
        except (ValueError, ZeroDivisionError):
            pass
    kind = "an integer" if parse is int else "an exact number"
    raise SchemaError(f"{_json_text(v)} is not {kind}", location)


def _matrix(fieldspec: FieldSpec, rows: Any, want_rows: int, want_cols: int, location: str) -> Mat:
    """An exact want_rows x want_cols matrix from a JSON list of rows."""
    if (not isinstance(rows, list) or len(rows) != want_rows
            or any(not isinstance(r, list) or len(r) != want_cols for r in rows)):
        raise SchemaError(f"matrix must be {want_rows}x{want_cols}", location)
    parse = int if fieldspec.is_prime_field else Fraction
    # a plain int (no bool) is its own value: from_rows coerces it
    return Mat.from_rows(fieldspec, [[v if type(v) is int else _exact(parse, v, location)
                                      for v in r] for r in rows], cols=want_cols)


def load_module(doc: Dict[str, Any], poset: FinitePoset,
                default_field: Optional[FieldSpec] = None) -> PersistenceModule:
    """{"field": ..., "dims": {"a": 1, ...}, "maps": {"a|b": [[...]], ...}}.

    A document field equal to `default_field` is replaced by that object, so the
    modules of one run share one field object."""
    doc = _object(doc, "module document", keys=("field", "dims", "maps"))
    fieldspec = parse_field(doc["field"]) if "field" in doc else default_field
    if fieldspec == default_field:
        fieldspec = default_field
    if fieldspec is None:
        raise SchemaError("module needs a field", "$.field")
    dims_doc = _element_table(doc.get("dims", {}), poset, "dims", "$.dims")
    dims = []
    for e in poset.elements:
        d = dims_doc.get(e, 0)
        if type(d) is not int:  # a bool or a float is no dimension
            if not (isinstance(d, str) and NUMERAL.fullmatch(d) and d.isdigit()):
                raise SchemaError(f"dimension must be an integer >= 0, got {d!r}", f"$.dims[{e!r}]")
            # int() refuses a string of more than 4300 digits: one that long is past the bound
            digits = d.lstrip("0") or "0"
            d = int(digits) if len(digits) <= len(str(_MAX_INNER)) else _MAX_INNER + 1
        elif d < 0:
            raise SchemaError(f"dimension must be an integer >= 0, got {d!r}", f"$.dims[{e!r}]")
        if d > _MAX_INNER:  # before any matrix of that size is allocated
            raise SchemaError(f"dimension exceeds the supported bound {_MAX_INNER}",
                              f"$.dims[{e!r}]")
        dims.append(d)
    maps = {}
    covers = set(poset.covers)
    for key, rows in _object(doc.get("maps", {}), "maps", "$.maps").items():
        if "|" not in key:
            raise SchemaError("map key must be 'lower|upper'", f"$.maps[{key!r}]")
        lo, hi = key.split("|", 1)
        a, b = poset.idx(lo), poset.idx(hi)
        if (a, b) not in covers:
            raise SchemaError(f"({lo!r}, {hi!r}) is not a cover", f"$.maps[{key!r}]")
        maps[(a, b)] = _matrix(fieldspec, rows, dims[b], dims[a], f"$.maps[{key!r}]")
    return PersistenceModule(poset, fieldspec, dims, maps)


def module_to_json(m: PersistenceModule) -> Dict[str, Any]:
    P = m.poset
    return {
        "field": field_to_json(m.field),
        "dims": {e: m.dims[i] for i, e in enumerate(P.elements) if m.dims[i]},
        "maps": {
            f"{P.elements[a]}|{P.elements[b]}": m.maps[(a, b)].tolists()
            for (a, b) in P.covers
            if m.dims[a] and m.dims[b]
        },
    }


def load_morphism(doc: Dict[str, Any], source: PersistenceModule,
                  target: PersistenceModule) -> ModuleMorphism:
    """{"components": {"a": [[...]], ...}}; omitted elements mean zero blocks; checked natural."""
    doc = _object(doc, "morphism document", keys=("components",))
    table = _element_table(doc.get("components", {}), source.poset, "components", "$.components")
    comps = []
    for i, e in enumerate(source.poset.elements):
        rows = table.get(e)
        shape = (target.dims[i], source.dims[i])
        comps.append(Mat.zeros(source.field, *shape) if rows is None
                     else _matrix(source.field, rows, *shape, f"$.components[{e!r}]"))
    mor = ModuleMorphism(source, target, comps)
    bad = mor.naturality_violations()
    if bad:
        raise SchemaError(f"naturality fails on cover {bad[0]}", "$.components")
    return mor


def morphism_to_json(source: PersistenceModule, components: Sequence[Mat]) -> Dict[str, Any]:
    """A morphism out of `source` with the given components, keyed by element."""
    return {
        "components": {
            e: c.tolists() for e, c in zip(source.poset.elements, components) if c.rows and c.cols
        }
    }


def pair_to_json(res: SearchResult) -> Dict[str, Any]:
    """The witness pair p, q of a "yes".  A zero pair is written from its
    sources and its targets' dimensions (`SearchResult.zero_pair`), as zero
    matrices of the same shapes, so its R_r targets are never built."""
    if res.zero_pair is None:
        maps = [(f.source, f.components) for f in (res.p, res.q)]
    else:
        maps = [(s, [Mat.zeros(s.field, dt, ds) for ds, dt in zip(s.dims, dims)])
                for s, dims in res.zero_pair()]
    return {name: morphism_to_json(*f) for name, f in zip("pq", maps)}


def _stratum_interval(st) -> List[str]:
    if st.kind == "zero":
        return ["0", "0"]
    return [format_ext(st.lo), "inf" if st.hi is None else format_ext(st.hi)]


def _strata_to_json(rep: StrataReport) -> Dict[str, Any]:
    """The part every stratified report shares: strata, distance, decided, bracket."""
    out: Dict[str, Any] = {
        "strata": [
            {
                "interval": _stratum_interval(sv.stratum),
                "verdict": sv.verdict,
                **({"via": sv.via} if sv.via else {}),
            }
            for sv in rep.strata
        ],
        "distance": format_ext(rep.distance),
        "decided": rep.decided,
    }
    if not rep.decided:
        out["distance_lo"] = format_ext(rep.distance_lo)
        out["distance_hi"] = format_ext(rep.distance)  # the bracket's upper end
    return out


def strata_report_to_json(rep: StrataReport) -> Dict[str, Any]:
    """A `distance` report: its witness is a Certificate."""
    out = _strata_to_json(rep)
    out["attained"] = rep.attained
    if rep.witness is not None:
        cert = rep.witness
        out["certificate"] = {"r": format_ext(cert.r), **pair_to_json(cert.search)}
    return out


def _subquotient_to_json(sq: Subquotient) -> Dict[str, Any]:
    """The bases of M1 and M2 in M, by element, and the quotient module."""
    P = sq.parent.poset
    return {
        "M1": {e: b.tolists() for e, b in zip(P.elements, sq.m1) if b.cols},
        "M2": {e: b.tolists() for e, b in zip(P.elements, sq.m2) if b.cols},
        "quotient": module_to_json(sq.quotient),
    }


def en_report_to_json(rep: StrataReport) -> Dict[str, Any]:
    """An `erosion.d_en` report: its witness is a Subquotient."""
    out = _strata_to_json(rep)
    if rep.witness is not None:
        out["witness"] = _subquotient_to_json(rep.witness)
    return out


def load_order_map(doc: Dict[str, Any], source: FinitePoset, target: FinitePoset) -> OrderMap:
    doc = _object(doc, "order-map document", keys=("map",))
    table = _element_table(doc.get("map"), source, "the order map's 'map'", "$.map")
    for e, v in table.items():
        if not isinstance(v, str):
            raise SchemaError(f"image of {e!r} must be an element id", f"$.map[{e!r}]")
    return OrderMap(source, target, dict(table))
