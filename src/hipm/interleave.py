"""Interleaving certificates, the per-scale decision procedure, and the exact
distance via critical-value stratification.

Every neighborhood, hence every functor value and every interleaving verdict,
is constant while r ranges inside one stratum of the height-difference
function's critical values.  Testing one exact representative per stratum
therefore computes the distance infimum exactly on a finite poset; the searches
below exploit verdict monotonicity with a binary search over strata.

Over GF(p) the candidate enumeration is exhaustive, so a "no" verdict is a
proof.  Over the rationals only supplied certificates are verified and a small
integer coefficient lattice is probed; failures come back "unknown".
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .exactlin import (Mat, batch_consistent, compressed_family, rref, solve, stacked_matmul,
                       zeros)
from .height import INF, ExtVal, HeightDiff, Stratum, format_ext, rho_diag, strata
from .functors import apply_R, e_r, sharp
from .pmod import ModuleMorphism, MorphismStack, PersistenceModule, hom_basis, is_isomorphic
from .poset import PosetError

__all__ = [
    "Certificate",
    "check_certificate",
    "find_interleaving",
    "InterleaveResult",
    "distance",
    "StrataReport",
    "StratumVerdict",
    "shift_oracle_distance",
    "stratified_report",
    "stratified_search",
    "UndecidedError",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 1 << 20


@dataclass
class Certificate:
    """An interleaving witness at scale r: p: M -> R_r N and q: N -> R_r M with
    both transpose identities holding exactly."""

    r: Fraction
    p: ModuleMorphism
    q: ModuleMorphism


def check_certificate(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                      p: ModuleMorphism, q: ModuleMorphism) -> bool:
    """Verify naturality of p and q, then e_{r,M} = q o p# and e_{r,N} = p o q# exactly."""
    r = Fraction(r)
    if p.target.key() != apply_R(rho, r, n).module.key():
        raise ValueError("p must land in the r-matching module of n")
    if q.target.key() != apply_R(rho, r, m).module.key():
        raise ValueError("q must land in the r-matching module of m")
    if p.naturality_violations() or q.naturality_violations():
        return False
    ps = sharp(rho, r, n, p)
    qs = sharp(rho, r, m, q)
    return q.compose(ps) == e_r(rho, r, m) and p.compose(qs) == e_r(rho, r, n)


@dataclass
class InterleaveResult:
    verdict: str  # "yes" | "no" | "unknown"
    certificate: Optional[Certificate] = None
    candidates_tried: int = 0


def _vec_of(mor: ModuleMorphism) -> np.ndarray:
    parts = [c.a.ravel() for c in mor.components]
    if parts:
        return np.concatenate(parts)
    return np.zeros(0, dtype=np.int64)


def _bilinear_tensor(p_basis: MorphismStack, q_basis: MorphismStack,
                     p_sharps: MorphismStack, q_sharps: MorphismStack,
                     em: ModuleMorphism, en: ModuleMorphism, F) -> Tuple[np.ndarray, np.ndarray]:
    """tensor[j, i, :] and rhs, laid out like `_vec_of`, of the two identities
    sum_{i,j} c_i d_j Q_j o P_i# = e_m and sum_{i,j} c_i d_j P_i o Q_j# = e_n.

    The bases and their transposes come as stacks; per element, every composite
    of one side is one batched matmul of two stacks."""
    rhs = np.concatenate([_vec_of(em), _vec_of(en)])
    h1, h2 = len(p_basis), len(q_basis)
    if not (h1 and h2):
        return zeros(F, (h2, h1, len(rhs))), rhs

    def products(left, right, swap):  # per element, every left o right in one matmul
        for a in range(len(em.components)):
            prod = stacked_matmul(F, left.stacks[a][:, None], right.stacks[a][None])
            yield (prod.swapaxes(0, 1) if swap else prod).reshape(h2, h1, -1)

    tensor = np.concatenate([*products(q_basis, p_sharps, False),
                             *products(p_basis, q_sharps, True)], axis=2)
    return tensor, rhs


_BATCH_BYTES = 1 << 18  # cap on one batch's (B, R, h2 + 1) int64 stack


def _relaxation(family: np.ndarray, F) -> Tuple[np.ndarray, List[int]]:
    """(relaxed, starts): the linear relaxation of every block of candidates.

    A block at level t is the p**t candidates that share their first h1 - t
    digits.  Taking each product c_i x of its t free digits as an unknown of its
    own leaves a linear system that is consistent whenever the system of some
    candidate in the block is.  With A_i = family[i, :, :h2], let T be the row
    transform of rref([A_{h1-1} | ... | A_0 | I]) with pivots among the A
    columns.  Its rows from starts[t] on (pivot at or after column t*h2, or none)
    span the left kernel of [A_{h1-1} | ... | A_{h1-t}].  So rows starts[t]: of
    `relaxed` = T family, contracted with [c | 1] for any candidate c of the
    block, are that relaxation up to an invertible change of rows.
    """
    h1, R, h2 = family.shape[0] - 1, family.shape[1], family.shape[2] - 1
    g = np.concatenate([family[i, :, :h2] for i in reversed(range(h1))]
                       + [np.eye(R, dtype=np.int64)], axis=1)
    res = rref(Mat(F, g), pivot_limit=h1 * h2)
    relaxed = np.matmul(res.matrix.a[None, :, h1 * h2:], family) % F.p
    return relaxed, [bisect.bisect_left(res.pivots, t * h2) for t in range(h1 + 1)]


def _bilinear_search(tensor: np.ndarray, rhs: np.ndarray, F, budget: int):
    """(verdict, c, x, candidates tried) for the first c in lexicographic order
    such that sum_i c_i tensor[:, i, :]^T x = rhs is solvable; x comes from `solve`.

    Over GF(p) the search is exhaustive, so running out of candidates proves "no".
    It walks the tree of blocks (`_relaxation`): a block whose linear relaxation
    is inconsistent holds no witness and is skipped whole, and its candidates
    count as tried.  Blocks of at most one batch (_BATCH_BYTES) are leaves,
    scanned through `batch_consistent` on `compressed_family` systems in batches
    that grow 1, 2, 4, ...; candidate 0 goes first, before the relaxation is
    built, so a first-candidate witness costs one candidate.  `budget` bounds
    the candidate index, so `candidates_tried` is the witness index + 1 or
    min(budget, p**h1), exactly as in a one-at-a-time scan.  Indices and block
    starts are exact Python integers, so any budget is safe.
    Over the rationals a small integer lattice is probed and a miss is "unknown".
    """
    h2, h1, L = tensor.shape

    def solve_at(coeffs) -> Optional[Mat]:
        cols = np.tensordot(tensor, np.array(coeffs, dtype=tensor.dtype), axes=([1], [0]))
        return solve(Mat(F, cols.T.copy()), Mat(F, rhs.reshape(L, 1).copy()))

    if not F.is_prime_field:
        lattice = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
        for tried, coeffs in enumerate(itertools.product(lattice, repeat=h1)):
            if tried >= budget:
                return "unknown", None, None, tried
            x = solve_at(coeffs)
            if x is not None:
                return "yes", coeffs, x, tried + 1
        return "unknown", None, None, 4 ** h1

    p, total = F.p, F.p ** h1
    limit = max(0, min(budget, total))
    family = compressed_family(tensor, rhs, F)
    shape, flat = family.shape[1:], family.reshape(h1 + 1, -1)
    cap = max(1, _BATCH_BYTES // (8 * max(1, flat.shape[1])))
    leaf = 0  # a leaf block holds p**leaf <= cap candidates
    while leaf < h1 and p ** (leaf + 1) <= cap:
        leaf += 1
    low_places = p ** np.arange(leaf - 1, -1, -1, dtype=np.int64)
    size = 1

    def head(index: int) -> np.ndarray:  # [c | 1] of one candidate, digits in exact integers
        c = np.ones(h1 + 1, dtype=np.int64)
        for i in range(h1 - 1, -1, -1):
            index, c[i] = divmod(index, p)
        return c

    def scan(lo: int, hi: int):  # (index, c) of the first witness in lo..hi-1, one leaf block
        nonlocal size
        base = lo - lo % p ** leaf
        row = head(base)
        while lo < hi:
            n = min(size, hi - lo)
            coeffs = np.tile(row, (n, 1))
            coeffs[:, h1 - leaf:h1] = np.arange(lo - base, lo - base + n)[:, None] // low_places % p
            ok = batch_consistent((coeffs @ flat % p).reshape(n, *shape), p)
            if ok.any():
                i = int(ok.argmax())
                return lo + i, coeffs[i, :h1]
            lo, size = lo + n, min(2 * size, cap)
        return None

    def blocked(start: int, top: int) -> Optional[int]:
        """The highest level in leaf+1..top whose block at `start` has an
        inconsistent relaxation, or None; all levels go in one batch, padded
        with zero rows (a lower level's rows include a higher level's)."""
        system = np.tensordot(head(start), relaxed, axes=1) % p
        levels = list(range(top, leaf, -1))
        keep = np.arange(len(system))[None, :] >= np.array([starts[t] for t in levels])[:, None]
        ok = batch_consistent(np.where(keep[:, :, None], system[None], 0), p)
        return next((t for t, good in zip(levels, ok) if not good), None)

    hit = scan(0, 1) if limit else None  # a first-candidate witness costs one candidate
    if hit is None and limit > 1 and h1 > leaf:  # else `blocked` is never called
        relaxed, starts = _relaxation(family, F)
    start = 0
    while hit is None and max(start, 1) < limit:  # candidate 0 is done
        top = 0  # the level of the largest block starting here; those above were tested
        while top < h1 and start % p ** (top + 1) == 0:
            top += 1
        skip = blocked(start, top) if top > leaf else None
        if skip is not None:
            start += p ** skip
            continue
        hit = scan(max(start, 1), min(start + p ** leaf, limit))
        start += p ** leaf
    if hit is None:
        return ("no" if limit == total else "unknown"), None, None, limit
    c = tuple(int(x) for x in hit[1])
    return "yes", c, solve_at(c), hit[0] + 1


def find_interleaving(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                      budget: int = DEFAULT_BUDGET) -> InterleaveResult:
    """Search for an r-interleaving between m and n.

    Enumerates p over Hom(m, R_r n) in lexicographic coefficient order; the two
    defining identities are linear in q once p is fixed.  Over GF(p)
    `_bilinear_search` skips whole blocks of candidates whose linear relaxation
    is inconsistent and tests the rest in batches, in that same order, so the
    first witness, its q (one exact `solve`) and `candidates_tried` (the
    witness's position, skipped candidates included) are those of a
    one-at-a-time scan.  Exhausting the Hom space proves "no" (prime fields);
    reaching the budget first, as a bound on that position, yields "unknown"
    with `candidates_tried` equal to the budget.
    """
    r = Fraction(r)
    F = m.field
    app_rm = apply_R(rho, r, m)
    app_rn = apply_R(rho, r, n)
    p_basis = hom_basis(m, app_rn.module)
    q_basis = hom_basis(n, app_rm.module)
    tensor, rhs = _bilinear_tensor(p_basis, q_basis, sharp(rho, r, n, p_basis),
                                   sharp(rho, r, m, q_basis), e_r(rho, r, m), e_r(rho, r, n), F)
    verdict, coeffs, sol, tried = _bilinear_search(tensor, rhs, F, budget)
    if verdict != "yes":
        return InterleaveResult(verdict, candidates_tried=tried)
    cert = Certificate(r, p_basis.combine(coeffs), q_basis.combine(sol.a[:, 0]))
    return InterleaveResult("yes", cert, tried)


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

    def verdict_at(self, r) -> str:
        r = Fraction(r)
        for sv in self.strata:
            if sv.stratum.contains(r):
                return sv.verdict.replace("implied-", "")
        raise ValueError(f"no stratum contains {r}")


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


def stratified_report(rho: HeightDiff,
                      evaluate: Callable[[Stratum], Tuple[str, Optional[str], Any]]) -> StrataReport:
    """`stratified_search` over `strata(rho)`, written up as a report.

    `evaluate(stratum)` returns (verdict, via, witness).  Strata that were not
    evaluated are labelled implied-yes, implied-no or skipped; the distance is
    bracketed by the left ends of the strata just above the last no and at the
    first yes (oo past the last stratum), and the witness is the first yes's.
    """
    sts = strata(rho)
    seen: Dict[int, Tuple[str, Optional[str], Any]] = {}

    def verdict(i: int) -> str:
        seen[i] = evaluate(sts[i])
        return seen[i][0]

    first_yes, last_no = stratified_search(len(sts), verdict)

    def label(i: int) -> str:
        return "implied-yes" if i >= first_yes else "implied-no" if i <= last_no else "skipped"

    left = [st.lo for st in sts] + [INF]  # left[i]: the distance if stratum i is the first yes
    decided = first_yes == last_no + 1
    return StrataReport(
        strata=[StratumVerdict(st, *seen[i][:2]) if i in seen else StratumVerdict(st, label(i))
                for i, st in enumerate(sts)],
        distance=left[first_yes], distance_lo=left[last_no + 1],
        attained=decided and first_yes == 0, decided=decided,
        witness=seen[first_yes][2] if first_yes in seen else None)


def distance(rho: HeightDiff, m: PersistenceModule, n: PersistenceModule,
             budget: int = DEFAULT_BUDGET) -> StrataReport:
    """The exact interleaving distance as a stratified search.

    The zero stratum is decided by the isomorphism test (a 0-interleaving is an
    isomorphism); every other stratum by the exhaustive search at its
    representative.  The witness is the certificate of the earliest yes.
    """
    def evaluate(st: Stratum):
        if st.kind == "zero":
            return is_isomorphic(m, n, budget=budget).verdict, None, None
        res = find_interleaving(rho, st.rep, m, n, budget=budget)
        return res.verdict, None, res.certificate

    return stratified_report(rho, evaluate)


# ---------------------------------------------------------------------------
# grid shift oracle
# ---------------------------------------------------------------------------


def _shift_module(m: PersistenceModule, k: int) -> PersistenceModule:
    """The literal diagonal shift on a grid: a -> M(a + k*diag), zero off the grid."""
    G = m.poset
    if G.coords is None:
        raise PosetError("shift oracle needs grid coordinates")
    by_coord = {c: i for i, c in G.coords.items()}

    def shifted(i: int) -> Optional[int]:
        tgt = tuple(x + k for x in G.coords[i])
        return by_coord.get(tgt)

    dims = [m.dims[shifted(i)] if shifted(i) is not None else 0 for i in range(len(G))]
    maps = {}
    for (a, b) in G.covers:
        sa, sb = shifted(a), shifted(b)
        if sa is not None and sb is not None:
            maps[(a, b)] = m.map_for_idx(sa, sb)
    return PersistenceModule(G, m.field, dims, maps)


def _shift_e(m: PersistenceModule, k: int, lm: PersistenceModule, rm: PersistenceModule) -> ModuleMorphism:
    G = m.poset
    by_coord = {c: i for i, c in G.coords.items()}
    comps = []
    for a in range(len(G)):
        lo = by_coord.get(tuple(x - k for x in G.coords[a]))
        hi = by_coord.get(tuple(x + k for x in G.coords[a]))
        if lo is not None and hi is not None:
            comps.append(m.map_for_idx(lo, hi))
        else:
            comps.append(Mat.zeros(m.field, rm.dims[a], lm.dims[a]))
    return ModuleMorphism(lm, rm, comps)


def _shift_sharp(p: MorphismStack, k: int, lm_src: PersistenceModule,
                 tgt: PersistenceModule) -> MorphismStack:
    """Transpose a stack under the shift adjunction: (p#)(a) = p(a - k*diag)."""
    G = p.source.poset
    by_coord = {c: i for i, c in G.coords.items()}
    stacks = []
    for a in range(len(G)):
        lo = by_coord.get(tuple(x - k for x in G.coords[a]))
        if lo is not None and lm_src.dims[a] > 0:
            stacks.append(p.stacks[lo])
        else:
            stacks.append(zeros(p.source.field, (len(p), tgt.dims[a], lm_src.dims[a])))
    return MorphismStack(lm_src, tgt, len(p), stacks)


def _shift_interleaving(m: PersistenceModule, n: PersistenceModule, k: int,
                        budget: int) -> str:
    F = m.field
    if not F.is_prime_field:
        raise ValueError("shift oracle is exhaustive only over prime fields")
    lm, rm = _shift_module(m, -k), _shift_module(m, k)
    ln, rn = _shift_module(n, -k), _shift_module(n, k)
    p_basis = hom_basis(m, rn)
    q_basis = hom_basis(n, rm)
    tensor, rhs = _bilinear_tensor(p_basis, q_basis, _shift_sharp(p_basis, k, lm, n),
                                   _shift_sharp(q_basis, k, ln, m),
                                   _shift_e(m, k, lm, rm), _shift_e(n, k, ln, rn), F)
    return _bilinear_search(tensor, rhs, F, budget)[0]


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
