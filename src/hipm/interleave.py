"""Interleaving certificates, the per-scale decision procedure, and the exact
distance via critical-value stratification.

Every neighborhood, hence every functor value and every interleaving verdict,
is constant while r ranges inside one stratum of the height-difference
function's critical values.  Testing one exact representative per stratum
therefore computes the distance infimum exactly on a finite poset; the searches
below exploit verdict monotonicity with a binary search over strata.

An r-interleaving is p: M -> R_r N and q: N -> R_r M with q o p# = e_{r,M}
and p o q# = e_{r,N}.  Both sides of each identity are maps out of a colimit
L_r M(a), so the search writes them on the colimit legs from the maximal
elements of a's lower r-neighborhood and never builds L_r, a colimit, a
transpose or e_r (`find_interleaving`).  `check_certificate` verifies through
the transposes, the other route.

Over GF(p) the candidate enumeration is exhaustive, so a "no" verdict is a
proof.  Over the rationals only supplied certificates are verified and a small
integer coefficient lattice is probed; failures come back "unknown".  Over
either field `distance` also proves a "no" from a rank obstruction on the two
modules' own maps, before any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .exactlin import DEFAULT_BUDGET, zeros
from .height import INF, ExtVal, HeightDiff, Stratum, format_ext, rho_diag, strata
from .functors import (R_dims, apply_R, e_r, e_r_legs, e_r_rank_obstruction, e_r_vanishes,
                       sharp, sharp_legs)
from .pmod import (ModuleMorphism, MorphismStack, PersistenceModule, SearchResult, hom_basis,
                   is_isomorphic, search_pair)
from .poset import PosetError

__all__ = [
    "Certificate",
    "check_certificate",
    "find_interleaving",
    "distance",
    "StrataReport",
    "StratumVerdict",
    "shift_oracle_distance",
    "stratified_report",
    "stratified_search",
    "UndecidedError",
    "DEFAULT_BUDGET",
]


@dataclass
class Certificate:
    """An interleaving witness at scale r: the "yes" `search` there, whose
    p: M -> R_r N and q: N -> R_r M satisfy both transpose identities exactly.
    Each of p and q is built on its first read."""

    r: Fraction
    search: SearchResult


def check_certificate(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                      p: ModuleMorphism, q: ModuleMorphism) -> bool:
    """Verify naturality of p and q, then e_{r,M} = q o p# and e_{r,N} = p o q# exactly.

    This goes through L_r, the transposes `sharp` and `e_r` on purpose: the
    search (`find_interleaving`) decides on the colimit legs instead, so every
    certificate it returns is checked here by the other route."""
    if not p.target.same(apply_R(rho, r, n).module):
        raise ValueError("p must land in the r-matching module of n")
    if not q.target.same(apply_R(rho, r, m).module):
        raise ValueError("q must land in the r-matching module of m")
    if p.naturality_violations() or q.naturality_violations():
        return False
    ps = sharp(rho, r, n, p)
    qs = sharp(rho, r, m, q)
    return q.compose(ps) == e_r(rho, r, m) and p.compose(qs) == e_r(rho, r, n)


def find_interleaving(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                      budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for an r-interleaving between m and n: on a "yes", p: m -> R_r n
    and q: n -> R_r m.

    Enumerates p over Hom(m, R_r n) in lexicographic coefficient order; the two
    defining identities q o p# = e_{r,m} and p o q# = e_{r,n} are linear in q
    once p is fixed.

    Both sides of q o p# = e_{r,m} are maps out of the colimit L_r m(a), and
    the colimit legs from the maximal elements x of a's lower r-neighborhood
    are jointly epimorphic.  So the identity holds exactly when, for every a
    and every such x, q(a) leg_a(R_r n at x) p(x) = unit(a) m(x <= a); the
    other identity is the same with m and n swapped (`functors.sharp_legs`,
    `functors.e_r_legs`).  The search solves these equations and builds no L_r
    value, no colimit, no transpose and no e_r.  They are an injective image
    of the equations on p# and e_r: for every p they have the same solutions,
    the same linear relaxations and the same row space, hence the same rref.
    So the verdict, the first witness, its q and `candidates_tried` are those
    of the transposed system.  `check_certificate` deliberately keeps the
    transpose route, so each certificate is verified by the other one.

    One call of `pmod.search_pair` builds and searches the system.  Over GF(p)
    it skips whole blocks of candidates whose linear relaxation is
    inconsistent and tests the rest in batches, in that same order, so the
    first witness and `candidates_tried` (the witness's position, skipped
    candidates included) are those of a one-at-a-time scan.  Over either
    field q is one exact `solve` of the witness's system.  Exhausting the Hom
    space proves "no" (prime fields), and so does an inconsistent relaxation
    of the whole space once the budget reaches candidate 1; otherwise
    reaching the budget first, as a bound on that position, yields "unknown"
    with `candidates_tried` equal to the budget.

    When e_r vanishes on both modules (`functors.e_r_vanishes`, read off
    m(x <= y) and n(x <= y) alone) the right-hand side is zero, so candidate 0
    is the first witness, with q = 0.  Such a stratum is answered before any
    R_r value, eta, Hom basis or equation is built, with the search's own
    result: "yes", the zero pair and `candidates_tried` 1 (a budget of 0 still
    gets "unknown").  The zero pair lands in R_r, so each map of it is built,
    with its R_r value, only when it is first read; so is each map of any
    other "yes".  Writing the zero pair takes only the dimensions of R_r n
    and R_r m, one rank per upper neighborhood (`SearchResult.zero_pair`,
    `functors.R_dims`), so a writer builds no R_r value at all.
    """
    r = Fraction(r)
    if budget >= 1 and e_r_vanishes(rho, r, m, n):
        return SearchResult("yes", 1, lambda: ModuleMorphism.zero(m, apply_R(rho, r, n).module),
                            lambda: ModuleMorphism.zero(n, apply_R(rho, r, m).module),
                            lambda: ((m, R_dims(rho, r, n)), (n, R_dims(rho, r, m))))
    p_basis = hom_basis(m, apply_R(rho, r, n).module)
    q_basis = hom_basis(n, apply_R(rho, r, m).module)
    return search_pair(p_basis, q_basis, sharp_legs(rho, r, n, p_basis),
                       sharp_legs(rho, r, m, q_basis), e_r_legs(rho, r, m), e_r_legs(rho, r, n),
                       budget)


@dataclass
class StratumVerdict:
    stratum: Stratum
    verdict: str  # "yes" | "no" | "unknown" | "implied-yes" | "implied-no" | "skipped"
    via: Optional[str] = None  # what decided an evaluated stratum, when the test says


@dataclass
class StrataReport:
    """Stratified distance verdicts.  `distance` equals the left endpoint of the
    earliest yes stratum (oo when none); with undecided strata the exact value is
    only bracketed by [distance_lo, distance] and `decided` is False.
    `witness` is what the test returned with the earliest yes: a Certificate for
    `distance`, a Subquotient for `erosion.d_en`."""

    strata: List[StratumVerdict]
    distance: ExtVal
    distance_lo: ExtVal
    attained: bool
    decided: bool
    witness: Any = None


def stratified_search(K: int, evaluate: Callable[[int], str]) -> Tuple[int, int]:
    """(first_yes, last_no) over strata 0..K-1 whose verdicts are monotone in r.

    `evaluate(i)` returns "yes", "no" or anything else for undecided, and is
    called at most once per index.  The search bisects on decided verdicts; at
    an undecided stratum it scans the rest of the window linearly for the
    first decided one, and stops when there is none.  first_yes is K when no
    yes was found and last_no is -1 when no no was found; the verdict is decided
    exactly when first_yes == last_no + 1.  An evaluated yes below an evaluated
    no raises AssertionError.  Bisection keeps every evaluation inside the
    window the decided verdicts leave, so that check guards the search's own
    bookkeeping; only evaluating every stratum shows that a verdict is monotone.
    """
    seen: Dict[int, str] = {}

    def verdict(i: int) -> str:
        if i not in seen:
            seen[i] = evaluate(i)
        return seen[i]

    def decided(i: int) -> bool:
        return verdict(i) in ("yes", "no")

    first_yes, last_no = K, -1
    lo, hi = 0, K - 1  # the window: last_no < lo and hi < first_yes throughout
    while lo <= hi:
        j = (lo + hi) // 2
        if not decided(j):  # cannot bisect here: the first decided stratum stands in
            j = next((i for i in range(lo, hi + 1) if decided(i)), None)
            if j is None:
                break
        if verdict(j) == "yes":
            first_yes, hi = j, j - 1
        else:
            last_no, lo = j, j + 1
    yes = [i for i, v in seen.items() if v == "yes"]
    if yes and any(v == "no" and i > min(yes) for i, v in seen.items()):
        raise AssertionError("verdict monotonicity violated: internal error")
    return first_yes, last_no


Evaluation = Tuple[str, Optional[str], Optional[Callable[[], Any]]]


def stratified_report(rho: HeightDiff, evaluate: Callable[[Stratum], Evaluation]) -> StrataReport:
    """`stratified_search` over `strata(rho)`, written up as a report.

    `evaluate(stratum)` returns (verdict, via, build), where `build` is a
    function of no arguments that returns the stratum's witness, or None.
    Strata that were not evaluated are labelled implied-yes, implied-no or
    skipped; the distance is bracketed by the left ends of the strata just
    above the last no and at the first yes (oo past the last stratum).  The
    witness is the first yes's: only its `build` is called, so no other
    stratum's witness is ever built.
    """
    sts = strata(rho)
    seen: Dict[int, Evaluation] = {}

    def verdict(i: int) -> str:
        seen[i] = evaluate(sts[i])
        return seen[i][0]

    first_yes, last_no = stratified_search(len(sts), verdict)

    def label(i: int) -> str:
        return "implied-yes" if i >= first_yes else "implied-no" if i <= last_no else "skipped"

    left = [st.lo for st in sts] + [INF]  # left[i]: the distance if stratum i is the first yes
    decided = first_yes == last_no + 1
    build = seen[first_yes][2] if first_yes in seen else None
    return StrataReport(
        strata=[StratumVerdict(st, *seen[i][:2]) if i in seen else StratumVerdict(st, label(i))
                for i, st in enumerate(sts)],
        distance=left[first_yes], distance_lo=left[last_no + 1],
        attained=decided and first_yes == 0, decided=decided,
        witness=build() if build is not None else None)


def distance(rho: HeightDiff, m: PersistenceModule, n: PersistenceModule,
             budget: int = DEFAULT_BUDGET) -> StrataReport:
    """The exact interleaving distance as a stratified search.

    The zero stratum is decided by the isomorphism test (a 0-interleaving is an
    isomorphism).  Every other stratum is first checked against the rank
    obstruction (`functors.e_r_rank_obstruction`): rank e_{r,M}(a) > dim N(a),
    or the same with m and n swapped, rules out every r-interleaving, so the
    stratum is a "no" (at any budget of 1 or more) with no R_r value, Hom
    basis or search built.  Over GF(p) an exhaustive search ends in the same
    "no"; over Q it is the only "no" there is.  Otherwise the exhaustive
    search at the representative decides.  The witness is the certificate of
    the earliest yes, the only one built, and its maps are built only when
    read: a report writes a zero pair from `SearchResult.zero_pair`, so a
    vanishing stratum builds no R_r value.
    """
    def evaluate(st: Stratum) -> Evaluation:
        if st.kind == "zero":
            return is_isomorphic(m, n, budget=budget).verdict, None, None
        if budget >= 1 and e_r_rank_obstruction(rho, st.rep, m, n) is not None:
            return "no", None, None
        res = find_interleaving(rho, st.rep, m, n, budget)
        return res.verdict, None, lambda: Certificate(st.rep, res)

    return stratified_report(rho, evaluate)


# ---------------------------------------------------------------------------
# grid shift oracle
# ---------------------------------------------------------------------------


def _shift_module(m: PersistenceModule, k: int) -> PersistenceModule:
    """The literal diagonal shift on a grid: a -> M(a + k*diag), zero off the grid."""
    G = m.poset
    shifted = G.diagonal(k)
    dims = [m.dims[s] if s is not None else 0 for s in shifted]
    maps = {}
    for (a, b) in G.covers:
        sa, sb = shifted[a], shifted[b]
        if sa is not None and sb is not None:
            maps[(a, b)] = m.map_for_idx(sa, sb)
    return PersistenceModule(G, m.field, dims, maps)


def _shift_e(m: PersistenceModule, k: int) -> list:
    """The components of e: M(a - k*diag) -> M(a + k*diag), zero off the grid."""
    out = []
    for lo, hi in zip(m.poset.diagonal(-k), m.poset.diagonal(k)):
        if lo is not None and hi is not None:
            out.append(m.map_for_idx(lo, hi).a)
        else:
            out.append(zeros(m.field, (m.dims[hi] if hi is not None else 0,
                                       m.dims[lo] if lo is not None else 0)))
    return out


def _shift_sharp(p: MorphismStack, n: PersistenceModule, k: int) -> list:
    """The transposes of a stack p: M -> N(- + k*diag) under the shift
    adjunction, per element a: (p#)(a) = p(a - k*diag), zero off the grid."""
    return [p.stacks[lo] if lo is not None else zeros(n.field, (len(p), n.dims[a], 0))
            for a, lo in enumerate(n.poset.diagonal(-k))]


def _shift_interleaving(m: PersistenceModule, n: PersistenceModule, k: int,
                        budget: int) -> str:
    if not m.field.is_prime_field:
        raise ValueError("shift oracle is exhaustive only over prime fields")
    p_basis = hom_basis(m, _shift_module(n, k))
    q_basis = hom_basis(n, _shift_module(m, k))
    return search_pair(p_basis, q_basis, _shift_sharp(p_basis, n, k), _shift_sharp(q_basis, m, k),
                       _shift_e(m, k), _shift_e(n, k), budget).verdict


class UndecidedError(Exception):
    """A search ran out of budget: the value is only bracketed by [lo, hi]."""

    def __init__(self, message: str, lo: ExtVal, hi: ExtVal):
        super().__init__(message)
        self.lo, self.hi = lo, hi


def shift_oracle_distance(m: PersistenceModule, n: PersistenceModule,
                          budget: int = DEFAULT_BUDGET) -> ExtVal:
    """Interleaving distance on a grid computed from literal diagonal shifts.

    Same stratified search as `distance`, but the matching/latching values are
    assembled as shifted copies of the module (zero past the boundary, matching
    the empty-neighborhood convention) rather than through the (co)limit engine.
    Used to cross-check the two descriptions against each other.  Raises
    UndecidedError when the budget leaves the distance undecided.
    """
    if m.poset.coords is None:
        raise PosetError("shift oracle needs a grid poset")

    def evaluate(st: Stratum):
        if st.kind == "zero":
            return is_isomorphic(m, n, budget=budget).verdict, None, None
        k = int(st.rep)
        assert Fraction(k) == st.rep, "grid strata representatives are integers"
        return _shift_interleaving(m, n, k, budget), None, None

    rep = stratified_report(rho_diag(m.poset), evaluate)
    if not rep.decided:
        raise UndecidedError(
            f"shift oracle could not decide within budget {budget}: distance in "
            f"[{format_ext(rep.distance_lo)}, {format_ext(rep.distance)}]",
            rep.distance_lo, rep.distance)
    return rep.distance
