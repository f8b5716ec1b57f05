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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactlin import Mat, batch_consistent, compressed_family, solve
from .height import INF, ExtVal, HeightDiff, Stratum, rho_diag, strata
from .functors import apply_R, e_r, sharp
from .pmod import (
    ModuleMorphism,
    PersistenceModule,
    hom_basis,
    is_isomorphic,
    morphism_from_coeffs,
)
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
    """Verify e_{r,M} = q o p# and e_{r,N} = p o q# as exact matrix identities."""
    r = Fraction(r)
    if p.target.key() != apply_R(rho, r, n).module.key():
        raise ValueError("p must land in the r-matching module of n")
    if q.target.key() != apply_R(rho, r, m).module.key():
        raise ValueError("q must land in the r-matching module of m")
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


def _bilinear_tensor(p_basis: Sequence[ModuleMorphism], q_basis: Sequence[ModuleMorphism],
                     p_sharps: Sequence[ModuleMorphism], q_sharps: Sequence[ModuleMorphism],
                     em: ModuleMorphism, en: ModuleMorphism, F) -> Tuple[np.ndarray, np.ndarray]:
    """tensor[j, i, :] and rhs, laid out like `_vec_of`, of the two identities
    sum_{i,j} c_i d_j Q_j o P_i# = e_m and sum_{i,j} c_i d_j P_i o Q_j# = e_n."""
    rhs = np.concatenate([_vec_of(em), _vec_of(en)])
    h1, h2 = len(p_basis), len(q_basis)
    if not (h1 and h2):
        return np.zeros((h2, h1, len(rhs)), dtype=np.int64 if F.is_prime_field else object), rhs

    def products(left, right, swap):  # per element, every left o right in one matmul
        for a in range(len(em.components)):
            prod = (np.stack([f.components[a].a for f in left])[:, None]
                    @ np.stack([f.components[a].a for f in right])[None])
            yield (prod.swapaxes(0, 1) if swap else prod).reshape(h2, h1, -1)

    tensor = np.concatenate([*products(q_basis, p_sharps, False),
                             *products(p_basis, q_sharps, True)], axis=2)
    if F.is_prime_field:
        tensor %= F.p
    return tensor, rhs


_BATCH_BYTES = 1 << 18  # cap on one batch's (B, R, h2 + 1) int64 stack


def _bilinear_search(tensor: np.ndarray, rhs: np.ndarray, F, budget: int):
    """(verdict, c, x, candidates tried) for the first c in lexicographic order
    such that sum_i c_i tensor[:, i, :]^T x = rhs is solvable; x comes from `solve`.

    Over GF(p) the search is exhaustive, so running out of candidates proves "no".
    Batches of `compressed_family` systems go to `batch_consistent`, growing 1, 2,
    4, ... up to _BATCH_BYTES, so a first-candidate witness costs one candidate.
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
    shape, family = family.shape[1:], family.reshape(h1 + 1, -1)
    cap = max(1, _BATCH_BYTES // (8 * max(1, family.shape[1])))
    # base-p digits of each candidate index; indices stay below 2**62, so capped
    # place values leave the high digits 0
    places = np.array([min(p ** e, 1 << 62) for e in range(h1 - 1, -1, -1)], dtype=np.int64)
    start, size = 0, 1
    while start < limit:
        stop = min(start + size, limit)
        coeffs = np.ones((stop - start, h1 + 1), dtype=np.int64)
        coeffs[:, :h1] = np.arange(start, stop, dtype=np.int64)[:, None] // places % p
        ok = batch_consistent((coeffs @ family % p).reshape(stop - start, *shape), p)
        if ok.any():
            hit = int(ok.argmax())
            c = tuple(int(x) for x in coeffs[hit, :h1])
            return "yes", c, solve_at(c), start + hit + 1
        start, size = stop, min(2 * size, cap)
    return ("no" if limit == total else "unknown"), None, None, limit


def find_interleaving(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                      budget: int = DEFAULT_BUDGET) -> InterleaveResult:
    """Search for an r-interleaving between m and n.

    Enumerates p over Hom(m, R_r n) in lexicographic coefficient order; the two
    defining identities are linear in q once p is fixed.  Over GF(p) candidates
    are tested in batches (`_bilinear_search`) in that same order, so the first
    witness, its q (one exact `solve`) and `candidates_tried` (up to and
    including the witness) are those of a one-at-a-time scan.  Exhausting the
    Hom space proves "no" (prime fields); hitting the budget first yields
    "unknown" with `candidates_tried` equal to the budget.
    """
    r = Fraction(r)
    F = m.field
    app_rm = apply_R(rho, r, m)
    app_rn = apply_R(rho, r, n)
    p_basis = hom_basis(m, app_rn.module)
    q_basis = hom_basis(n, app_rm.module)
    tensor, rhs = _bilinear_tensor(p_basis, q_basis,
                                   [sharp(rho, r, n, pb) for pb in p_basis],
                                   [sharp(rho, r, m, qb) for qb in q_basis],
                                   e_r(rho, r, m), e_r(rho, r, n), F)
    verdict, coeffs, sol, tried = _bilinear_search(tensor, rhs, F, budget)
    if verdict != "yes":
        return InterleaveResult(verdict, candidates_tried=tried)
    p = (morphism_from_coeffs(p_basis, list(coeffs)) if p_basis
         else ModuleMorphism.zero(m, app_rn.module))
    q = (morphism_from_coeffs(q_basis, list(sol.a[:, 0])) if q_basis
         else ModuleMorphism.zero(n, app_rm.module))
    return InterleaveResult("yes", Certificate(r, p, q), tried)


@dataclass
class StratumVerdict:
    stratum: Stratum
    verdict: str  # "yes" | "no" | "unknown" | "implied-yes" | "implied-no" | "skipped"


@dataclass
class StrataReport:
    """Stratified distance verdicts.  `distance` equals the left endpoint of the
    earliest yes stratum (oo when none); with undecided strata the exact value is
    only bracketed by [distance_lo, distance_hi] and `decided` is False."""

    strata: List[StratumVerdict]
    distance: ExtVal
    distance_lo: ExtVal
    distance_hi: ExtVal
    attained: bool
    decided: bool
    certificate: Optional[Certificate] = None

    def verdict_at(self, r) -> str:
        r = Fraction(r)
        for sv in self.strata:
            if sv.stratum.contains(r):
                return sv.verdict.replace("implied-", "")
        raise ValueError(f"no stratum contains {r}")


def distance(rho: HeightDiff, m: PersistenceModule, n: PersistenceModule,
             budget: int = DEFAULT_BUDGET) -> StrataReport:
    """The exact interleaving distance as a stratified search.

    The zero stratum is decided by the isomorphism test (a 0-interleaving is an
    isomorphism); every other stratum by the exhaustive search at its
    representative.  Verdict monotonicity drives a binary search; an evaluated
    yes below an evaluated no is an internal consistency failure.
    """
    sts = strata(rho)
    K = len(sts)
    memo: Dict[int, InterleaveResult] = {}

    def evaluate(i: int) -> str:
        if i in memo:
            return memo[i].verdict
        if sts[i].kind == "zero":
            res = InterleaveResult(is_isomorphic(m, n, budget=budget).verdict)
        else:
            res = find_interleaving(rho, sts[i].rep, m, n, budget=budget)
        memo[i] = res
        return res.verdict

    last_no = -1
    first_yes = K  # sentinel: none found
    lo, hi = 0, K - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        v = evaluate(mid)
        if v == "yes":
            first_yes = min(first_yes, mid)
            hi = mid - 1
        elif v == "no":
            last_no = max(last_no, mid)
            lo = mid + 1
        else:
            # cannot bisect on unknown: resolve the remaining window linearly
            resolved = False
            for j in range(lo, hi + 1):
                if j == mid:
                    continue
                vj = evaluate(j)
                if vj == "yes":
                    first_yes = min(first_yes, j)
                    hi = j - 1
                    resolved = True
                    break
                if vj == "no":
                    last_no = max(last_no, j)
                    lo = j + 1
                    resolved = True
                    break
            if not resolved:
                break
    for i, res in memo.items():
        if res.verdict == "yes" and any(
            memo[j].verdict == "no" for j in memo if j > i
        ):
            raise AssertionError("verdict monotonicity violated: internal error")

    verdicts: List[StratumVerdict] = []
    for i, st in enumerate(sts):
        if i in memo:
            verdicts.append(StratumVerdict(st, memo[i].verdict))
        elif i >= first_yes:
            verdicts.append(StratumVerdict(st, "implied-yes"))
        elif i <= last_no:
            verdicts.append(StratumVerdict(st, "implied-no"))
        else:
            verdicts.append(StratumVerdict(st, "skipped"))

    decided = first_yes == last_no + 1
    if first_yes < K:
        dist: ExtVal = sts[first_yes].lo
        hi_bound: ExtVal = dist
    else:
        dist = INF
        hi_bound = INF
    lo_bound: ExtVal = sts[last_no + 1].lo if last_no + 1 < K else dist
    attained = decided and first_yes == 0
    cert = memo[first_yes].certificate if first_yes < K and first_yes in memo else None
    return StrataReport(
        strata=verdicts,
        distance=dist,
        distance_lo=lo_bound if not decided else dist,
        distance_hi=hi_bound,
        attained=attained,
        decided=decided,
        certificate=cert,
    )


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
    return ModuleMorphism(lm, rm, comps, check=False)


def _shift_sharp(p: ModuleMorphism, k: int, lm_src: PersistenceModule,
                 tgt: PersistenceModule) -> ModuleMorphism:
    """Transpose under the shift adjunction: (p#)(a) = p(a - k*diag)."""
    G = p.source.poset
    by_coord = {c: i for i, c in G.coords.items()}
    comps = []
    for a in range(len(G)):
        lo = by_coord.get(tuple(x - k for x in G.coords[a]))
        if lo is not None and lm_src.dims[a] > 0:
            comps.append(p.components[lo])
        else:
            comps.append(Mat.zeros(p.source.field, tgt.dims[a], lm_src.dims[a]))
    return ModuleMorphism(lm_src, tgt, comps, check=False)


def _shift_interleaving(m: PersistenceModule, n: PersistenceModule, k: int,
                        budget: int) -> str:
    F = m.field
    if not F.is_prime_field:
        raise ValueError("shift oracle is exhaustive only over prime fields")
    lm, rm = _shift_module(m, -k), _shift_module(m, k)
    ln, rn = _shift_module(n, -k), _shift_module(n, k)
    p_basis = hom_basis(m, rn)
    q_basis = hom_basis(n, rm)
    tensor, rhs = _bilinear_tensor(p_basis, q_basis,
                                   [_shift_sharp(pb, k, lm, n) for pb in p_basis],
                                   [_shift_sharp(qb, k, ln, m) for qb in q_basis],
                                   _shift_e(m, k, lm, rm), _shift_e(n, k, ln, rn), F)
    return _bilinear_search(tensor, rhs, F, budget)[0]


def shift_oracle_distance(m: PersistenceModule, n: PersistenceModule,
                          budget: int = DEFAULT_BUDGET) -> ExtVal:
    """Interleaving distance on a grid computed from literal diagonal shifts.

    Same stratified search as `distance`, but the matching/latching values are
    assembled as shifted copies of the module (zero past the boundary, matching
    the empty-neighborhood convention) rather than through the (co)limit engine.
    Used to cross-check the two descriptions against each other.
    """
    if m.poset.coords is None:
        raise PosetError("shift oracle needs a grid poset")
    rho = rho_diag(m.poset)
    sts = strata(rho)
    last_no = -1
    lo, hi = 0, len(sts) - 1
    memo: Dict[int, str] = {}

    def evaluate(i: int) -> str:
        if i not in memo:
            st = sts[i]
            if st.kind == "zero":
                memo[i] = is_isomorphic(m, n, budget=budget).verdict
            else:
                k = int(st.rep)
                assert Fraction(k) == st.rep, "grid strata representatives are integers"
                memo[i] = _shift_interleaving(m, n, k, budget)
        return memo[i]

    K = len(sts)
    first_yes = K
    while lo <= hi:
        mid = (lo + hi) // 2
        v = evaluate(mid)
        if v == "yes":
            first_yes = min(first_yes, mid)
            hi = mid - 1
        elif v == "no":
            last_no = max(last_no, mid)
            lo = mid + 1
        else:
            raise AssertionError("shift oracle could not decide a stratum within budget")
    if first_yes == K:
        return INF
    return sts[first_yes].lo
