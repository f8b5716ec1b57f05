"""Height-difference functions on finite posets.

A height-difference function assigns to every comparable pair (a, b) a value in
[0, oo] with rho(a, a) = 0 and rho(a, c) >= rho(a, b) + rho(b, c) along chains.
This module owns the extended-value conventions, r-neighborhoods, the critical
value stratification, distortion, the connected-intersections property, and the
approximate intermediate-value constant.

All values are exact: `fractions.Fraction` or the INF sentinel.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .exactlin import exact_str
from .poset import FinitePoset, Memo, OrderMap, PosetError

__all__ = [
    "INF",
    "ExtVal",
    "ext_add",
    "abs_diff_inf",
    "parse_ext",
    "format_ext",
    "HeightFunction",
    "HeightDiff",
    "RhoValidation",
    "validate_rho",
    "from_phi",
    "rho_diag",
    "nbhds",
    "nbhd_tops",
    "nbhd_bottoms",
    "nbhd_pairs",
    "level",
    "levels",
    "critical_values",
    "strata",
    "Stratum",
    "distortion",
    "check_cip",
    "check_ivc",
    "c_rho",
    "pullback_rho",
]


class _Infinity:
    """The extended value oo, made once as INF; compares above every Fraction."""

    def __repr__(self):
        return "INF"

    def __reduce__(self):  # copies and pickles resolve to the module's INF
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("hipm-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INF = _Infinity()
ExtVal = Union[Fraction, _Infinity]


def ext_add(a: ExtVal, b: ExtVal) -> ExtVal:
    if a is INF or b is INF:
        return INF
    return a + b


def abs_diff_inf(a: ExtVal, b: ExtVal) -> ExtVal:
    """|a - b| extended to [0, oo]: 0 if both infinite, oo if exactly one is."""
    ai, bi = a is INF, b is INF
    if ai and bi:
        return Fraction(0)
    if ai or bi:
        return INF
    return abs(a - b)


def parse_ext(s: Union[str, int, Fraction]) -> ExtVal:
    if isinstance(s, _Infinity):
        return s
    if isinstance(s, str) and s.strip().lower() in ("inf", "infinity", "oo"):
        return INF
    v = Fraction(s)
    return v


def format_ext(x: ExtVal) -> str:
    """"inf", or the exact value as "p/q" or "p" (`exactlin.exact_str`)."""
    return "inf" if x is INF else exact_str(x)


# ---------------------------------------------------------------------------
# height functions and height-difference functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightFunction:
    """An order-preserving exact-rational map on a poset."""

    poset: FinitePoset
    phi: Dict[str, Fraction]

    def __post_init__(self):
        for e in self.poset.elements:
            if e not in self.phi:
                raise PosetError(f"height value missing for {e!r}")


class HeightDiff(Memo):
    """A validated height-difference function; values indexed by element indices.
    It hashes by identity, so memo keys that name it name this object."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: FinitePoset, values: Dict[Tuple[int, int], ExtVal]):
        super().__init__()
        self.poset = poset
        self.values = values

    def value_idx(self, i: int, j: int) -> ExtVal:
        return self.values[(i, j)]

    def __repr__(self):
        return f"HeightDiff(on {len(self.poset)} elements)"


@dataclass
class RhoValidation:
    ok: bool
    rho: Optional[HeightDiff]
    missing_pairs: List[Tuple[str, str]] = field(default_factory=list)
    extra_pairs: List[Tuple[str, str]] = field(default_factory=list)
    diagonal_violations: List[str] = field(default_factory=list)
    negative_violations: List[Tuple[str, str]] = field(default_factory=list)
    superadditivity_violations: List[Tuple[str, str, str]] = field(default_factory=list)


def validate_rho(poset: FinitePoset, table: Dict[Tuple[str, str], ExtVal]) -> RhoValidation:
    """Validate a value table into a HeightDiff, or report every violation.

    The table must cover exactly the comparable pairs; diagonal entries may be
    omitted (they are forced to 0) but must be 0 when present.
    """
    values: Dict[Tuple[int, int], ExtVal] = {}
    missing, extra, diag_bad, neg_bad = [], [], [], []
    comparable = set(poset.comparable_pairs())
    for (a, b), v in table.items():
        ia, ib = poset.idx(a), poset.idx(b)
        if (ia, ib) not in comparable:
            extra.append((a, b))
            continue
        v = parse_ext(v)
        if ia == ib:
            if v != 0:
                diag_bad.append(a)
        elif v is not INF and v < 0:
            neg_bad.append((a, b))
        else:
            values[(ia, ib)] = v
    for i, j in comparable:
        if i == j:
            values[(i, j)] = Fraction(0)
        elif (poset.elements[i], poset.elements[j]) not in table:
            missing.append((poset.elements[i], poset.elements[j]))
    super_bad: List[Tuple[str, str, str]] = []
    if not (missing or extra or diag_bad or neg_bad):
        els = poset.elements
        for i, j in poset.comparable_pairs():
            target = values[(i, j)]
            for k in poset.interval_idx(i, j):
                if i != k != j and target < ext_add(values[(i, k)], values[(k, j)]):
                    super_bad.append((els[i], els[k], els[j]))
    ok = not (missing or extra or diag_bad or neg_bad or super_bad)
    return RhoValidation(
        ok=ok,
        rho=HeightDiff(poset, values) if ok else None,
        missing_pairs=missing,
        extra_pairs=extra,
        diagonal_violations=diag_bad,
        negative_violations=neg_bad,
        superadditivity_violations=super_bad,
    )


def from_phi(phi: HeightFunction) -> HeightDiff:
    """The height-difference rho(a, b) = phi(b) - phi(a); superadditivity holds with equality.

    Every phi(a) is written over the common denominator L, so the differences
    over the comparable pairs are one subtraction of integer numerators; a
    negative one is an order violation, and the first in comparable-pair order
    is reported."""
    P = phi.poset
    values = [phi.phi[e] for e in P.elements]
    L = math.lcm(*(v.denominator for v in values))
    num = np.array([v.numerator * (L // v.denominator) for v in values], dtype=object)
    i, j = np.nonzero(P.leq)
    diff = num[j] - num[i]
    bad = np.flatnonzero(diff < 0)
    if bad.size:
        k = bad[0]
        raise PosetError(f"height function not order-preserving, e.g. on pair "
                         f"{(P.elements[i[k]], P.elements[j[k]])}")
    return HeightDiff(P, _fractions(i, j, diff.tolist(), L))


def _fractions(i: np.ndarray, j: np.ndarray, nums: List[int],
               L: int) -> Dict[Tuple[int, int], Fraction]:
    """{(i, j): num / L} over the zipped pairs and numerators, one Fraction
    made per distinct numerator."""
    made = {x: Fraction(x, L) for x in set(nums)}
    return dict(zip(zip(i.tolist(), j.tolist()), map(made.__getitem__, nums)))


def rho_diag(grid: FinitePoset) -> HeightDiff:
    """The coordinatewise-minimum difference on a product grid: min_i (b_i - a_i)."""
    if grid.coords is None:
        raise PosetError("poset carries no grid coordinates")
    c = np.array([grid.coords[a] for a in range(len(grid))], dtype=np.int64)
    i, j = np.nonzero(grid.leq)
    # one axis at a time, so a shape with many axes of side 1 needs no pairs x axes array
    low = functools.reduce(np.minimum, (c[j, x] - c[i, x] for x in range(c.shape[1])))
    return HeightDiff(grid, _fractions(i, j, low.tolist(), 1))


def pullback_rho(f: OrderMap, rho: HeightDiff) -> HeightDiff:
    """(f*rho)(q, q') = rho(f(q), f(q')); superadditivity is inherited and
    re-validated on the result."""
    if rho.poset.key() != f.target.key():
        raise PosetError("rho must live on the target of f")
    Q = f.source
    table = {(Q.elements[i], Q.elements[j]): rho.value_idx(f.apply_idx(i), f.apply_idx(j))
             for i, j in Q.comparable_pairs()}
    validation = validate_rho(Q, table)
    assert validation.ok, f"pullback broke superadditivity: {validation.superadditivity_violations[:1]}"
    return validation.rho


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def level(rho: HeightDiff, r) -> int:
    """The level of a scale r >= 0: bisect_left(critical_values(rho), r), the
    number of critical values below r.  rho(x, y) >= r exactly when the pair's
    entry in the level matrix (`levels`) is at least r's, so every
    neighborhood, and every value built on neighborhoods, depends on r through
    its level only.  This is the one place that turns a scale into a level.
    A stratum representative (`strata`) is answered by one lookup in
    `_rep_levels`; any other r bisects.  Raises ValueError for r < 0."""
    if not isinstance(r, Fraction):
        r = Fraction(r)
    k = _rep_levels(rho).get(r.as_integer_ratio())  # every representative is >= 0
    if k is None:
        if r < 0:
            raise ValueError("scale parameter must be >= 0")
        k = bisect.bisect_left(critical_values(rho), r)
    return k


def _rep_levels(rho: HeightDiff) -> Dict[Tuple[int, int], int]:
    """The level of every stratum representative, made once on rho and keyed
    by (numerator, denominator): critical value k has level k, and the top
    representative, one past the last critical value, has their count K."""
    def build():
        crit = critical_values(rho)
        index = {v.as_integer_ratio(): k for k, v in enumerate(crit)}
        index[(crit[-1] + 1).as_integer_ratio()] = len(crit)
        return index

    return rho.cached(("rep-levels",), build)


def levels(rho: HeightDiff) -> np.ndarray:
    """The level matrix, made once on rho: entry (x, y) is the index of
    rho(x, y) among the critical values, their count K where rho(x, y) = oo,
    and -1 where x is not below y.  Read-only.  Values are looked up in
    `_rep_levels`, by (numerator, denominator) like `critical_values`
    deduplicates them."""
    def build():
        index = _rep_levels(rho)
        top = len(critical_values(rho))
        n = len(rho.poset)
        out = np.full((n, n), -1, dtype=np.int64)
        if rho.values:
            out[tuple(zip(*rho.values))] = [top if v is INF else index[v.as_integer_ratio()]
                                            for v in rho.values.values()]
        out.flags.writeable = False
        return out

    return rho.cached(("levels",), build)


def _rows(mask: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """The column indices of each row's True entries, ascending: one
    `nonzero` over the whole mask (row-major, so row by row), cut by the row
    counts."""
    cols = mask.nonzero()[1].tolist()
    out, start = [], 0
    for count in mask.sum(axis=1).tolist():
        out.append(tuple(cols[start:start + count]))
        start += count
    return tuple(out)


def nbhds(rho: HeightDiff, direction: str, k: int) -> Tuple[Tuple[int, ...], ...]:
    """Every element's neighborhood at level k, one ascending tuple per
    element: the lower {x <= a : rho(x, a) >= r} ('down') or the upper
    {y >= a : rho(a, y) >= r} ('up') for any r of level k.  These are the
    columns ('down') and rows ('up') of the level matrix that hold k or more.
    Made once per direction and level on rho."""
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")

    def build():
        inside = levels(rho) >= k
        return _rows(inside.T if direction == "down" else inside)

    return rho.cached((direction, k), build)


def _extremes(rho: HeightDiff, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The masks of the neighborhoods' extremes at level k, made once per level
    on rho: tops[x, a] when x is maximal in a's lower neighborhood, and
    bottoms[a, y] when y is minimal in a's upper neighborhood."""
    def build():
        P = rho.poset
        inside = levels(rho) >= k  # [x, a]: x in a's lower neighborhood, a in x's upper
        strict = P.leq & ~np.eye(len(P), dtype=bool)
        return inside & ~(strict @ inside), inside & ~(inside @ strict)  # nothing above / below

    return rho.cached(("extremes", k), build)


def nbhd_tops(rho: HeightDiff, k: int) -> Tuple[Tuple[int, ...], ...]:
    """The maximal elements of every lower neighborhood at level k, memoized
    like `nbhds`: the x in a's neighborhood with no element of it strictly
    above x.  Every element of a neighborhood lies below one of them, so the
    colimit legs from these elements are jointly epimorphic."""
    return rho.cached(("tops", k), lambda: _rows(_extremes(rho, k)[0].T))


def nbhd_bottoms(rho: HeightDiff, k: int) -> Tuple[Tuple[int, ...], ...]:
    """The minimal elements of every upper neighborhood at level k, memoized
    like `nbhds`: the y in a's neighborhood with no element of it strictly
    below y.  Every element of a neighborhood lies above one of them, so the
    limit legs to these elements are jointly monomorphic."""
    return rho.cached(("bottoms", k), lambda: _rows(_extremes(rho, k)[1]))


def nbhd_pairs(rho: HeightDiff, k: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (x, y), ascending, with x maximal in some a's lower
    neighborhood at level k and y minimal in the same a's upper neighborhood,
    memoized like `nbhds`.  Then x <= a <= y, and the colimit leg from x, the
    limit leg to y and e_r(a) compose to M(x <= y) (`functors.e_r_vanishes`).
    One boolean product of the tops of the lower neighborhoods with the
    bottoms of the upper ones (`nbhd_tops`, `nbhd_bottoms`)."""
    def build():
        tops, bottoms = _extremes(rho, k)
        return tuple(map(tuple, np.argwhere(tops @ bottoms).tolist()))

    return rho.cached(("pairs", k), build)


def nbhd_down_idx(rho: HeightDiff, i: int, r: Fraction) -> Tuple[int, ...]:
    """{x <= i : rho(x, i) >= r}, read from `nbhds` at r's level."""
    return nbhds(rho, "down", level(rho, r))[i]


def nbhd_up_idx(rho: HeightDiff, i: int, r: Fraction) -> Tuple[int, ...]:
    """{y >= i : rho(i, y) >= r}, read from `nbhds` at r's level."""
    return nbhds(rho, "up", level(rho, r))[i]


def nbhd_iterated_idx(rho: HeightDiff, i: int, s: Fraction, r: Fraction, direction: str) -> List[int]:
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    first, second = (s, r) if direction == "down" else (r, s)
    hops = nbhds(rho, direction, level(rho, second))
    return sorted(set().union(*(hops[x] for x in nbhds(rho, direction, level(rho, first))[i])))


# ---------------------------------------------------------------------------
# critical values and strata
# ---------------------------------------------------------------------------


def critical_values(rho: HeightDiff) -> List[Fraction]:
    """Sorted distinct finite values of rho, always including 0.

    Every neighborhood a^{down_r} is constant for r ranging inside a stratum cut
    out by consecutive critical values.
    """
    def build():
        # deduplicated by (numerator, denominator): a tuple of ints hashes far
        # faster than a Fraction, and there is one value per comparable pair
        finite = {v.as_integer_ratio(): v for v in rho.values.values() if v is not INF}
        return sorted({(0, 1): Fraction(0), **finite}.values())

    return list(rho.cached(("crit",), build))


@dataclass(frozen=True)
class Stratum:
    """One constancy interval of r: the point {0}, a half-open (lo, hi], or the
    unbounded tail (lo, oo).  `rep` is the exact representative used for all
    neighborhood computations on the stratum; its level (`level`) is the
    stratum's index in `strata`."""

    lo: Fraction
    hi: Optional[Fraction]  # None for the unbounded tail
    rep: Fraction
    kind: str  # "zero" | "interval" | "top"


def strata(rho: HeightDiff) -> List[Stratum]:
    crit = critical_values(rho)
    out = [Stratum(Fraction(0), Fraction(0), Fraction(0), "zero")]
    for lo, hi in zip(crit, crit[1:]):
        out.append(Stratum(lo, hi, hi, "interval"))
    top = crit[-1]
    out.append(Stratum(top, None, top + 1, "top"))
    return out


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------


def distortion(rho1: HeightDiff, rho2: HeightDiff) -> ExtVal:
    """Largest |rho1 - rho2|_oo over comparable pairs (attained; finite posets)."""
    if rho1.poset.key() != rho2.poset.key():
        raise PosetError("distortion requires the same poset")
    best: ExtVal = Fraction(0)
    for pair, v1 in rho1.values.items():
        d = abs_diff_inf(v1, rho2.values[pair])
        if d > best:
            best = d
        if best is INF:
            break
    return best


# ---------------------------------------------------------------------------
# connected intersections property
# ---------------------------------------------------------------------------


@dataclass
class CipReport:
    holds: Optional[bool]  # None when the budget was exhausted
    witness: Optional[Tuple[str, str, Fraction, Fraction]] = None  # (a, q, s, r)
    witness_set: Optional[Tuple[str, ...]] = None
    tests_run: int = 0
    budget_exceeded: bool = False


def _bitsets(mask: np.ndarray) -> List[int]:
    """Each row of a boolean matrix as one int, bit x set where the row holds
    True in column x: one `packbits` over the whole matrix, cut into rows."""
    width = (mask.shape[1] + 7) // 8
    packed = np.packbits(mask, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little")
            for i in range(mask.shape[0])]


def _connected(inter: int, comparable: List[int]) -> bool:
    """Whether the elements of the nonempty bitset `inter` form a connected
    subposet: a breadth-first search from its lowest element, one step along
    the comparability bitsets of a whole frontier at a time, kept inside
    `inter`."""
    seen = frontier = inter & -inter
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= comparable[low.bit_length() - 1]
            frontier ^= low
        frontier = step & inter & ~seen
        seen |= frontier
    return seen == inter


def check_cip(rho: HeightDiff, budget: int = 4_000_000) -> CipReport:
    """Check that every I_{s,r}(a, q) = a^{down_s} & q^{up_r} is empty or connected.

    (s, r) ranges over the critical stratum representatives, which is exhaustive
    because each neighborhood is constant per stratum: the levels 0..K of the
    K critical values, reps[k] being the representative of level k.  The tests
    run in the order a, q, s, r, one per (a, q, s, r) whose lower neighborhood
    a^{down_s} is nonempty, and `tests_run` counts them up to the first
    disconnected intersection; a run that would pass `budget` stops with
    budget_exceeded and tests_run = budget, rather than sampling.

    Neighborhoods are bitsets, one int per element and level, packed from the
    level matrix (`levels`).  Runs of empty intersections are counted at once:
    when q is not below a every intersection is empty, and for fixed (a, q, s)
    the upper neighborhoods shrink as r grows, so the first empty intersection
    ends the run.  Each distinct nonempty intersection is decided once
    (`_connected`).
    """
    P = rho.poset
    n = len(P)
    if n == 0:  # no element, no test, and no level matrix to take a maximum of
        return CipReport(holds=True)
    reps = [st.rep for st in strata(rho)]
    K = len(reps)
    lev = levels(rho)
    # per element, its neighborhoods by level; a's lower one is nonempty
    # exactly at the levels below depth[a]
    depth = (lev.max(axis=0) + 1).tolist()
    down = list(zip(*(_bitsets(lev.T >= k) for k in range(max(depth)))))
    up = list(zip(*(_bitsets(lev >= k) for k in range(K))))
    comparable = _bitsets(P.leq | P.leq.T)
    below = P.leq.T.tolist()  # below[a][q]: q <= a
    exceeded = CipReport(holds=None, tests_run=budget, budget_exceeded=True)
    total = 0
    verdicts: Dict[int, bool] = {}  # by intersection: each distinct one is decided once
    for a in range(n):
        down_a = down[a][:depth[a]]
        for q in range(n):
            if not below[a][q]:  # nothing lies between q and a
                total += len(down_a) * K
                if total > budget:
                    return exceeded
                continue
            for k, da in enumerate(down_a):
                for j, uq in enumerate(up[q]):
                    inter = da & uq
                    if not inter:  # and so are the rest of the run
                        total += K - j
                        if total > budget:
                            return exceeded
                        break
                    total += 1
                    if total > budget:
                        return exceeded
                    ok = verdicts.get(inter)
                    if ok is None:
                        ok = verdicts[inter] = _connected(inter, comparable)
                    if not ok:
                        return CipReport(
                            holds=False,
                            witness=(P.elements[a], P.elements[q], reps[k], reps[j]),
                            witness_set=tuple(P.elements[x] for x in range(n) if inter >> x & 1),
                            tests_run=total,
                        )
    return CipReport(holds=True, tests_run=total)


# ---------------------------------------------------------------------------
# approximate intermediate-value property and its constant
# ---------------------------------------------------------------------------


_C_RHO_CHUNK = 1 << 18  # points per chunk of c_rho's (pairs x n) arrays


@dataclass
class IvcReport:
    holds: bool
    witness: Optional[Tuple[str, str, Fraction]] = None  # (a, b, uncovered t)


def check_ivc(rho: HeightDiff, c) -> IvcReport:
    """Verify the approximate intermediate-value property at tolerance c.

    For every a < b and every real t in [0, rho(a,b)], some z in [a,b] must
    satisfy |rho(a,z) - t|_oo <= c/2 and |rho(z,b) - (rho(a,b)-t)|_oo <= c/2.
    Each z covers a closed interval of t.  With R = rho(a,b) finite, A =
    rho(a,z) and B = R - rho(z,b), it is [max(A,B) - c/2, min(A,B) + c/2], and
    z with an infinite A or rho(z,b) covers nothing; the target is R.  With
    R = oo only z with A finite and rho(z,b) = oo count, covering
    [A - c/2, A + c/2]; the target T, past every finite value plus c, stands
    for the unbounded t.  The intervals are walked by left end from t = 0, and
    the witness is the midpoint of the first gap.  z = a covers [-c/2, c/2],
    so no walk starts with a gap; on a finite pair z = b covers
    [R - c/2, R + c/2], so no gap lies past R.  An infinite pair runs out of
    intervals below T, and its last gap ends at T.
    """
    c = Fraction(c)
    if c < 0:
        raise ValueError("tolerance c must be >= 0")
    P, vals, half = rho.poset, rho.values, c / 2
    far = max((v for v in vals.values() if v is not INF), default=Fraction(0)) + c + 1
    for ia, ib in P.comparable_pairs():
        if ia == ib:
            continue
        R = vals[(ia, ib)]
        spans = []
        for z in P.interval_idx(ia, ib):
            A, Bz = vals[(ia, z)], vals[(z, ib)]
            if A is INF:
                continue
            if R is INF:
                if Bz is INF:
                    spans.append((A - half, A + half))
            elif Bz is not INF:
                B = R - Bz
                spans.append((max(A, B) - half, min(A, B) + half))
        target = far if R is INF else R
        covered, end = Fraction(0), target
        for lo, hi in sorted(spans):
            if hi < lo:
                continue
            if lo > covered:
                end = lo
                break
            covered = max(covered, hi)
        if covered < target:  # t in (covered, end) is uncovered
            t = (covered + end) / 2
            return IvcReport(holds=False, witness=(P.elements[ia], P.elements[ib], t))
    return IvcReport(holds=True)


@dataclass
class CRhoResult:
    value: ExtVal
    attained: bool


def c_rho(rho: HeightDiff) -> CRhoResult:
    """The least c for which the intermediate-value property holds, in closed form.

    For a strict pair a < b with R = rho(a, b), each z in [a, b] gives
    A = rho(a, z) and B = R - rho(z, b); with x = max(A, B) and y = min(A, B),
    tolerance c covers t in [0, R] exactly when c/2 >= max(x - t, t - y).  The
    endpoints z = a and z = b give (0, 0) and (R, R), so [0, R] is covered iff,
    with the (x, y) sorted by x and `reach` the running maximum of y, no x lies
    more than c beyond the reach before it.  c(rho) is the largest such gap over
    all pairs, and at least 0; it is attained.  When a strict pair has rho = oo
    no finite c can pass and the result is oo (not attained: the infimum is over
    an empty set of finite tolerances).  `check_ivc` decides the same property
    pair by pair and serves as the oracle for this formula.

    The arithmetic is exact on integers: every value times the common
    denominator L, read off the critical values through the level matrix
    (`levels`) into one n x n array, int64 while the values stay below 2**61
    and Python ints (dtype object) from there.  Each strict pair is one row of
    n points, those outside [a, b] padded with (0, 0), which z = a already
    gives; the rows are sorted by (x, y) and taken in chunks of about
    `_C_RHO_CHUNK` points, so the arrays stay small at any poset size.
    """
    P = rho.poset
    crit = critical_values(rho)
    lev = levels(rho)
    if (lev == len(crit)).any():  # the level of oo: a strict pair with rho = oo
        return CRhoResult(value=INF, attained=False)
    L = math.lcm(*(v.denominator for v in crit))
    scaled = [v.numerator * (L // v.denominator) for v in crit]  # ascending
    dtype = np.int64 if scaled[-1] < 2**61 else object
    vals = np.array(scaled, dtype=dtype)[np.maximum(lev, 0)]  # 0 off the order, unread
    pa, pb = np.nonzero(P.leq & ~np.eye(len(P), dtype=bool))
    best = 0
    step = max(1, _C_RHO_CHUNK // max(len(P), 1))
    for lo in range(0, len(pa), step):
        ia, ib = pa[lo:lo + step], pb[lo:lo + step]
        inside = P.leq[ia] & P.leq[:, ib].T  # row: the interval [a, b]
        A = np.where(inside, vals[ia], 0)
        B = np.where(inside, vals[ia, ib][:, None] - vals[:, ib].T, 0)
        x, y = np.maximum(A, B), np.minimum(A, B)
        order = np.lexsort((y, x), axis=-1)
        x, y = np.take_along_axis(x, order, -1), np.take_along_axis(y, order, -1)
        reach = np.maximum.accumulate(y, axis=-1)
        # a row's first point is a (0, 0): x >= y >= 0 on every point
        best = max(best, int((x[:, 1:] - reach[:, :-1]).max()))
    return CRhoResult(value=Fraction(best, L), attained=True)
