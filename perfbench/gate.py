"""Correctness gate: every report is checked against the instance's expectation.

A mismatch raises `GateError`, which aborts the run.  An operation that ends
undecided (exit 2) or invalid (exit 1, or an exception) is a failure, not a
mismatch, provided an undecided report still brackets the expected value.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hipm.height import INF, parse_ext
from hipm.functors import apply_R
from hipm.interleave import check_certificate
from hipm.serde import load_height, load_module, load_morphism, load_poset, parse_field

EXIT_OK, EXIT_INVALID, EXIT_UNDECIDED = 0, 1, 2


class GateError(AssertionError):
    """A report disagrees with the expected result."""


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_certificate(op, cert: dict) -> None:
    """Re-verify a distance certificate with `interleave.check_certificate`."""
    poset = load_poset(_load(op.files["poset"]))
    rho = load_height(_load(op.files["height"]), poset)
    field = parse_field(op.inst["field"])
    m = load_module(_load(op.files["module"]), poset, field)
    n = load_module(_load(op.files["module2"]), poset, field)
    r = Fraction(cert["r"])
    p = load_morphism(cert["p"], m, apply_R(rho, r, n).module)
    q = load_morphism(cert["q"], n, apply_R(rho, r, m).module)
    if not check_certificate(rho, r, m, n, p, q):
        raise GateError(f"{op.inst['id']}: certificate at r={cert['r']} does not verify")


def _check_distance(op, code: int, rep: dict) -> None:
    ident = op.inst["id"]
    want = parse_ext(op.inst["expected"]["distance"])
    if rep["decided"] != (code == EXIT_OK):
        raise GateError(f"{ident}: exit code {code} but decided={rep['decided']}")
    if rep["decided"]:
        got = parse_ext(rep["distance"])
        if got != want:
            raise GateError(f"{ident}: distance {rep['distance']}, expected "
                            f"{op.inst['expected']['distance']}")
        attained = op.inst["expected"].get("attained")
        if "attained" in rep and attained is not None and rep["attained"] != attained:
            raise GateError(f"{ident}: attained={rep['attained']}, expected {attained}")
    else:
        lo, hi = parse_ext(rep["distance_lo"]), parse_ext(rep["distance_hi"])
        if not (lo <= want and (hi is INF or want <= hi)):
            raise GateError(f"{ident}: undecided bracket [{rep['distance_lo']}, "
                            f"{rep['distance_hi']}] excludes {op.inst['expected']['distance']}")
    if "certificate" in rep:
        _check_certificate(op, rep["certificate"])


def check(op, code: int) -> bool:
    """Check one finished operation; True if it decided, False if it failed."""
    if code == EXIT_INVALID:
        return False
    if code not in (EXIT_OK, EXIT_UNDECIDED):
        raise GateError(f"{op.inst['id']}: unexpected exit code {code}")
    if not op.report.exists():
        raise GateError(f"{op.inst['id']}: exit code {code} but no report was written")
    rep = _load(op.report)
    kind = op.inst["op"]
    expected = op.inst["expected"]
    if kind in ("distance", "en-distance"):
        _check_distance(op, code, rep)
    elif kind == "c-rho":
        if code != EXIT_OK or rep["c"] != expected["c"] or rep["attained"] != expected["attained"]:
            raise GateError(f"{op.inst['id']}: c-rho {rep}, expected {expected}")
    elif kind == "cip":
        if rep["budget_exceeded"] != (code == EXIT_UNDECIDED):
            raise GateError(f"{op.inst['id']}: exit code {code} but {rep}")
        if code == EXIT_OK and rep["holds"] != expected["holds"]:
            raise GateError(f"{op.inst['id']}: cip holds={rep['holds']}, expected "
                            f"{expected['holds']}")
    else:
        raise GateError(f"{op.inst['id']}: no check for operation {kind!r}")
    return code == EXIT_OK
