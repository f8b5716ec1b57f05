"""Oracles of the paper's statements, checked by the tests and run by no command.

Each function builds one side of an identity the paper proves, from the
engine's functors and (co)limit legs, so that a test can compare it with what
the engine builds directly: the colimit of any diagram as a relation quotient,
the universal property of a (co)limit, the Fubini comparison of an iterated
colimit with the colimit over the union and the connectivity of a subposet
(which `height.check_cip` decides on bitsets), the order violations of a
height function (what `height.from_phi` rejects), c(rho) one pair at a time
(what `height.c_rho` computes on whole arrays), the neighborhoods of the strict
height difference, iterated neighborhoods and diagonal domination on grids,
the transpose flat of L_r -| R_r and functoriality of L_r and R_r on
morphisms, the unit and counit (the triangle identities), the mates of eta
and mu on the L side (which must equal eta and mu on the R side), im_r, ker_r
and the erosion built from L_r, R_r and `eta_id` on both sides, a submodule solved cover by cover, the subquotient of two built submodules solved at every element and cover, the erosion-neighborhood conditions and the canonical neighborhood of an interleaving, the
interleaving between a module and each of its erosion neighborhoods, the
composition of erosion neighborhoods through preimages, and their mediation.  `src/hipm` keeps only what a command runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hipm.exactlin import (Mat, factor_at, hstack, image_basis, kernel_basis, quotient_map, rref,
                           solve, vstack)
from hipm.functors import (_functor, apply_L, apply_R, erosion_subquotient, eta, eta_id, im_r,
                           ker_r, mu, sharp)
from hipm.height import (INF, CipReport, CRhoResult, HeightDiff, HeightFunction, nbhd_down_idx,
                         nbhd_iterated_idx, nbhd_up_idx, strata)
from hipm.interleave import check_certificate
from hipm.kan import (UniversalCone, colim_over, factor, factor_from_colim, factor_into_lim,
                      induced)
from hipm.pmod import (ModuleMorphism, PersistenceModule, SubmoduleError, Subquotient,
                       submodule_from_bases, submodule_image, submodule_intersection,
                       submodule_kernel, submodule_sum)
from hipm.poset import FinitePoset, PosetError, _transitive_closure

# ---------------------------------------------------------------------------
# (co)limits: the universal property and the Fubini comparison
# ---------------------------------------------------------------------------


UNIVERSAL_SIZE_CAP = 6


def _relations(F, nodes, dims, covers, mat) -> Tuple[Mat, Dict[int, int]]:
    """The relations of a colimit in the block sum of the spaces at `nodes`:
    one column per cover (x, y) and basis vector k of the space at x,
    mat(x, y) e_k - e_k; and each node's block offset."""
    offs, total = {}, 0
    for x in nodes:
        offs[x], total = total, total + dims[x]
    cols = []
    for (x, y) in covers:
        mxy = mat(x, y)
        for k in range(dims[x]):
            col = Mat.zeros(F, total, 1)
            for r in range(mxy.rows):
                col.a[offs[y] + r, 0] = mxy.a[r, k]
            col.a[offs[x] + k, 0] -= F.one()
            if F.is_prime_field:
                col.a %= F.p
            cols.append(col)
    return hstack(F, cols, rows=total), offs


def relation_colimit(F, nodes, dims, covers, mat) -> UniversalCone:
    """The colimit of any diagram, built directly as a quotient: the block sum
    over the sorted `nodes` (spaces of dimension `dims[x]`, a map mat(x, y)
    along each cover) modulo the span of its relation columns."""
    rel, offs = _relations(F, nodes, dims, covers, mat)
    proj, free = quotient_map(F, rel.rows, rel)
    legs = {x: proj.take_cols(range(offs[x], offs[x] + dims[x])) for x in nodes}
    return UniversalCone(True, tuple(nodes), len(free), proj, legs, free)


def check_universal(m: PersistenceModule, subset: Sequence[int], candidate) -> bool:
    """Brute-force universal-property oracle for a claimed (co)limit.

    For colimits: the legs must form a cocone, factor uniquely (joint
    surjectivity), and every test cocone built from the standard basis
    functionals must factor.  Dual checks for limits.  Deliberately independent
    of how the candidate was constructed.
    """
    subset = sorted(subset)
    if len(subset) > UNIVERSAL_SIZE_CAP:
        raise ValueError(f"universal-property oracle capped at {UNIVERSAL_SIZE_CAP} elements")
    F, covers, mat = m.field, m.poset.subposet_covers(subset), m.map_for_idx
    rel, offs = _relations(F, subset, m.dims, covers, mat)
    total = rel.rows
    if candidate.latching:
        for (x, y) in covers:
            if candidate.legs[y] @ mat(x, y) != candidate.legs[x]:
                return False
        stacked = hstack(F, [candidate.legs[x] for x in subset], rows=candidate.dim)
        if rref(stacked).rank != candidate.dim:
            return False  # factorizations would not be unique
        test_cocones = kernel_basis(rel.T)  # functionals vanishing on the relations
        for j in range(test_cocones.cols):
            delta = test_cocones.take_cols([j])
            if solve(stacked.T, delta) is None:
                return False
        return True
    for (x, y) in covers:
        if mat(x, y) @ candidate.legs[x] != candidate.legs[y]:
            return False
    stacked = vstack(F, [candidate.legs[x] for x in subset], cols=candidate.dim)
    if rref(stacked).rank != candidate.dim:
        return False
    rows = []
    for (x, y) in covers:
        mxy = mat(x, y)
        block = Mat.zeros(F, mxy.rows, total)
        block.a[:, offs[x] : offs[x] + mxy.cols] = mxy.a
        for r in range(mxy.rows):
            block.a[r, offs[y] + r] -= F.one()
        if F.is_prime_field:
            block.a %= F.p
        rows.append(block)
    eq = vstack(F, rows, cols=total)
    test_cones = kernel_basis(eq)
    for j in range(test_cones.cols):
        if solve(stacked, test_cones.take_cols([j])) is None:
            return False
    return True


class Connectivity:
    EMPTY = "empty"
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


def is_connected_idx(poset: FinitePoset, ix: Sequence[int]) -> str:
    """Whether the full subposet on `ix` is empty, connected or disconnected:
    the transitive closure of its comparabilities, read from the first element."""
    ix = list(ix)
    if not ix:
        return Connectivity.EMPTY
    sub = poset.leq[np.ix_(ix, ix)]
    reach = _transitive_closure(sub | sub.T)
    return Connectivity.CONNECTED if reach[0].all() else Connectivity.DISCONNECTED


@dataclass
class FubiniReport:
    comparison: Mat  # iterated colimit -> colim over the union
    iso: bool
    iterated_dim: int
    union_dim: int
    connected_per_point: Dict[int, str]
    all_connected: bool


def fubini_compare(m: PersistenceModule, index_subset: Sequence[int],
                   family: Dict[int, Sequence[int]]) -> FubiniReport:
    """Compare colim_{x in I} colim M|_{F(x)} with colim M|_{union F(x)}.

    `family[x]` must be monotone in x and each value a downset of the union.
    The report carries the canonical comparison map, whether it is an
    isomorphism, and per point q of the union the connectivity of
    {x in I : q in F(x)} (the finality criterion's index sets).
    """
    P = m.poset
    I = tuple(sorted(index_subset))
    F = {x: sorted(set(family[x])) for x in I}
    union = sorted(set().union(*[set(F[x]) for x in I]) if I else set())
    for x in I:
        for y in I:
            if P.leq[x, y] and not set(F[x]) <= set(F[y]):
                raise ValueError(f"family not monotone between {P.elements[x]!r} and {P.elements[y]!r}")
    for x in I:
        fx = set(F[x])
        for q in F[x]:
            for p_ in union:
                if P.leq[p_, q] and p_ not in fx:
                    raise ValueError(f"family value at {P.elements[x]!r} is not a downset of the union")
    col_union = colim_over(m, union)
    inner = {x: colim_over(m, F[x]) for x in I}
    outer = relation_colimit(m.field, I, {x: inner[x].dim for x in I}, P.subposet_covers(I),
                             lambda x, y: induced(inner[x], inner[y]))
    to_union = {x: induced(inner[x], col_union) for x in I}
    comparison = factor_from_colim(outer, to_union, col_union.dim)
    iso = outer.dim == col_union.dim and rref(comparison).rank == col_union.dim
    connected = {}
    for q in union:
        iq = [x for x in I if q in set(F[x])]
        connected[q] = is_connected_idx(P, iq)
    all_conn = all(v != Connectivity.DISCONNECTED for v in connected.values())
    return FubiniReport(
        comparison=comparison,
        iso=iso,
        iterated_dim=outer.dim,
        union_dim=col_union.dim,
        connected_per_point=connected,
        all_connected=all_conn,
    )


# ---------------------------------------------------------------------------
# height functions and neighborhoods
# ---------------------------------------------------------------------------


def order_violations(phi: HeightFunction) -> List[Tuple[str, str]]:
    """Every comparable pair a < b with phi(a) > phi(b), in comparable-pair
    order, one Fraction comparison per pair."""
    P = phi.poset
    return [(P.elements[i], P.elements[j]) for i, j in P.comparable_pairs()
            if i != j and phi.phi[P.elements[i]] > phi.phi[P.elements[j]]]


def rho_strict(poset: FinitePoset) -> HeightDiff:
    """0 on the diagonal and oo on every strict pair; r-neighborhoods for r > 0
    are then the strict down/up sets (the classical latching/matching index sets)."""
    return HeightDiff(poset, {(i, j): Fraction(0) if i == j else INF
                              for i, j in poset.comparable_pairs()})


def nbhd_iterated(rho: HeightDiff, a: str, s, r, direction: str = "down") -> frozenset:
    """Iterated neighborhood: union of x-neighborhoods over the first hop.

    down: union over x in a^{down_s} of x^{down_r}; always inside a^{down_{s+r}}
    (asserted, a superadditivity consequence).  up dually.
    """
    s, r = Fraction(s), Fraction(r)
    P = rho.poset
    i = P.idx(a)
    out = nbhd_iterated_idx(rho, i, s, r, direction)
    outer = nbhd_down_idx(rho, i, s + r) if direction == "down" else nbhd_up_idx(rho, i, s + r)
    assert set(out) <= set(outer), "iterated neighborhood escaped the (s+r)-neighborhood"
    return frozenset(P.elements[x] for x in out)


def c_rho_by_pairs(rho: HeightDiff) -> CRhoResult:
    """c(rho) one strict pair at a time (the formula of `height.c_rho`): every
    value times the common denominator L, then per pair the points (x, y) of
    its interval sorted, and the largest gap between an x and the running
    maximum of the y before it."""
    P = rho.poset
    pairs = [(i, j) for i, j in P.comparable_pairs() if i != j]
    if any(rho.values[p] is INF for p in pairs):
        return CRhoResult(value=INF, attained=False)
    L = math.lcm(*(v.denominator for v in rho.values.values()))
    vals = {k: v.numerator * (L // v.denominator) for k, v in rho.values.items()}
    best = 0
    for ia, ib in pairs:
        R = vals[(ia, ib)]
        points = []
        for z in P.interval_idx(ia, ib):
            A, B = vals[(ia, z)], R - vals[(z, ib)]
            points.append((B, A) if A <= B else (A, B))
        points.sort()
        reach = 0  # the y of z = a, whose x = 0 sorts first
        for x, y in points:
            if x - reach > best:
                best = x - reach
            if y > reach:
                reach = y
    return CRhoResult(value=Fraction(best, L), attained=True)


def check_cip_keyed(rho: HeightDiff, budget: int = 4_000_000,
                    visited: Optional[list] = None) -> CipReport:
    """CIP test by test (what `height.check_cip` decides on bitsets): every
    (a, q, s, r) over the stratum representatives whose a^{down_s} is
    nonempty, in that order, with the neighborhoods cached by (element, scale).
    It decides every nonempty intersection it meets, and appends each to
    `visited`."""
    P = rho.poset
    reps = [s.rep for s in strata(rho)]
    n = len(P)
    total = 0
    down_cache, up_cache = {}, {}
    for s in reps:
        for a in range(n):
            down_cache[(a, s)] = set(nbhd_down_idx(rho, a, s))
        for q in range(n):
            up_cache[(q, s)] = set(nbhd_up_idx(rho, q, s))
    for a in range(n):
        for q in range(n):
            for s in reps:
                da = down_cache[(a, s)]
                if not da:
                    continue
                for r in reps:
                    total += 1
                    if total > budget:
                        return CipReport(holds=None, tests_run=total - 1, budget_exceeded=True)
                    inter = da & up_cache[(q, r)]
                    if not inter:
                        continue
                    if visited is not None:
                        visited.append(tuple(sorted(inter)))
                    if is_connected_idx(P, sorted(inter)) == Connectivity.DISCONNECTED:
                        return CipReport(
                            holds=False,
                            witness=(P.elements[a], P.elements[q], s, r),
                            witness_set=tuple(P.elements[x] for x in sorted(inter)),
                            tests_run=total,
                        )
    return CipReport(holds=True, tests_run=total)


def dominates_diagonal(rho: HeightDiff, grid: FinitePoset) -> bool:
    """rho(a, a + k*diag) >= k for every grid point a and every step k >= 1
    that stays on the grid."""
    if rho.poset.key() != grid.key():
        raise PosetError("rho must live on the given grid")
    for k in itertools.count(1):
        tops = grid.diagonal(k)
        if all(b is None for b in tops):
            return True
        if any(b is not None and rho.values[(a, b)] < k for a, b in enumerate(tops)):
            return False


# ---------------------------------------------------------------------------
# functoriality, the adjunction L_r -| R_r and its mates
# ---------------------------------------------------------------------------


def flat(rho: HeightDiff, r, m: PersistenceModule, f: ModuleMorphism) -> ModuleMorphism:
    """Transpose a morphism L_r M -> N to its adjoint M -> R_r N."""
    n = f.target
    app_l = apply_L(rho, r, m)
    app_r = apply_R(rho, r, n)
    if not f.source.same(app_l.module):
        raise ValueError("source of f is not the r-latching module of m")
    comps = []
    for a in range(len(m.poset)):
        blocks = {y: f.components[y] @ app_l.data[y].legs[a] for y in app_r.data[a].nodes}
        comps.append(factor_into_lim(app_r.data[a], blocks, m.dims[a]))
    return ModuleMorphism(m, app_r.module, comps)


def _apply_mor(direction: str, rho: HeightDiff, r, f: ModuleMorphism) -> ModuleMorphism:
    apply = _functor(direction)
    am, an = apply(rho, r, f.source), apply(rho, r, f.target)
    lat = direction == "L"
    # factor out of the colimit of f.source, or into the limit of f.target
    here, there = (am, an) if lat else (an, am)
    comps = [
        factor(here.data[a],
               {x: there.data[a].legs[x] @ f.components[x] if lat
                else f.components[x] @ there.data[a].legs[x] for x in here.data[a].nodes},
               there.data[a].dim)
        for a in range(len(f.source.poset))
    ]
    return ModuleMorphism(am.module, an.module, comps)


def apply_L_mor(rho: HeightDiff, r, f: ModuleMorphism) -> ModuleMorphism:
    """Functoriality of the latching functor on a morphism."""
    return _apply_mor("L", rho, r, f)


def apply_R_mor(rho: HeightDiff, r, f: ModuleMorphism) -> ModuleMorphism:
    return _apply_mor("R", rho, r, f)


def unit(rho: HeightDiff, r, m: PersistenceModule) -> ModuleMorphism:
    """M -> R_r L_r M."""
    lm = apply_L(rho, r, m).module
    return flat(rho, r, m, ModuleMorphism(lm, lm, [Mat.eye(m.field, d) for d in lm.dims]))


def counit(rho: HeightDiff, r, n: PersistenceModule) -> ModuleMorphism:
    """L_r R_r N -> N."""
    rn = apply_R(rho, r, n).module
    return sharp(rho, r, n, ModuleMorphism(rn, rn, [Mat.eye(n.field, d) for d in rn.dims]))


def mate_of_eta_L(rho: HeightDiff, s, r, n: PersistenceModule) -> ModuleMorphism:
    """The two-adjunction mate of eta(s, r) on the L side evaluated at n: a map
    R_r N -> R_s N.

    Built as R_s(counit_r) o R_s(eta at R_r N) o unit_s, the composite of the
    two one-adjunction transpositions.
    """
    x = apply_R(rho, r, n).module
    u = unit(rho, s, x)  # R_rN -> R_s L_s R_rN
    e = eta(rho, s, r, x, "L")  # L_s R_rN -> L_r R_rN
    c = counit(rho, r, n)  # L_r R_rN -> N
    return apply_R_mor(rho, s, c.compose(e)).compose(u)


def mate_of_mu_L(rho: HeightDiff, s, r, n: PersistenceModule) -> ModuleMorphism:
    """The mate of mu(s, r) on the L side under the composite adjunction
    L_s L_r -| R_r R_s, evaluated at n: a map R_{s+r} N -> R_r(R_s N).

    The composition maps are constructed independently from neighborhood
    inclusions; agreement of this mate with mu on the R side is verified by the tests as an
    exact identity rather than assumed.
    """
    s, r = Fraction(s), Fraction(r)
    x = apply_R(rho, s + r, n).module  # R_{s+r} N
    # unit of the composite adjunction at x: x -> R_r R_s L_s L_r x
    app_lr_x = apply_L(rho, r, x)
    unit_r_x = unit(rho, r, x)  # x -> R_r L_r x
    unit_s_inner = unit(rho, s, app_lr_x.module)  # L_r x -> R_s L_s L_r x
    comp_unit = apply_R_mor(rho, r, unit_s_inner).compose(unit_r_x)
    # mu at x then the counit of L_{s+r} -| R_{s+r} at n, both pushed through R_r R_s
    mu_x = mu(rho, s, r, x, "L")  # L_s L_r x -> L_{s+r} x
    eps = counit(rho, s + r, n)  # L_{s+r} R_{s+r} N -> N
    pushed = apply_R_mor(rho, r, apply_R_mor(rho, s, eps.compose(mu_x)))
    return pushed.compose(comp_unit)


# ---------------------------------------------------------------------------
# erosion neighborhoods
# ---------------------------------------------------------------------------


def im_r_from_eta(rho: HeightDiff, r, m: PersistenceModule) -> Subquotient:
    """im_r as the paper defines it: the image of L_r M -> M (`eta_id`, 'L')."""
    return submodule_image(eta_id(rho, r, m, "L"))


def ker_r_from_eta(rho: HeightDiff, r, m: PersistenceModule) -> Subquotient:
    """ker_r as the paper defines it: the kernel of M -> R_r M (`eta_id`, 'R')."""
    return submodule_kernel(eta_id(rho, r, m, "R"))


def erosion_from_etas(rho: HeightDiff, r, m: PersistenceModule,
                      incoming: Optional[ModuleMorphism] = None,
                      outgoing: Optional[ModuleMorphism] = None) -> Subquotient:
    """M1 / (M1 & ker[eta_R; outgoing]) in M with M1 = im[eta_L, incoming],
    where eta_L: L_r M -> M and eta_R: M -> R_r M are `eta_id` on the two
    sides, built from L_r M, R_r M and both: per element, M1 is spanned by the
    columns of eta_L(a) beside incoming(a), and the kernel is that of eta_R(a)
    stacked over outgoing(a).  `functors.erosion_subquotient` must write the
    same subquotient from M's own maps."""
    F = m.field
    ins = [f for f in (eta_id(rho, r, m, "L"), incoming) if f is not None]
    outs = [g for g in (eta_id(rho, r, m, "R"), outgoing) if g is not None]
    m1 = submodule_by_covers(m, [hstack(F, [f.components[a] for f in ins], rows=d)
                                 for a, d in enumerate(m.dims)])
    kern = submodule_by_covers(m, [kernel_basis(vstack(F, [g.components[a] for g in outs], cols=d))
                                   for a, d in enumerate(m.dims)])
    return quotient_of_submodules(m1, submodule_intersection(m1, kern))


def submodule_by_covers(parent: PersistenceModule, bases: Sequence[Mat]) -> Subquotient:
    """The submodule spanned pointwise by `bases`, as M1/0, solved cover by
    cover: canonical bases (pivot columns), one `solve` per cover for its
    structure map, and `SubmoduleError` naming the first cover whose span is
    not closed.  `pmod.submodule_from_bases` must build the same record
    through `quotient_by_submodule`, which solves no cover with a zero end."""
    P, F = parent.poset, parent.field
    canon = [image_basis(b) for b in bases]
    maps = {}
    for (a, b) in P.covers:
        w = solve(canon[b], parent.maps[(a, b)] @ canon[a])
        if w is None:
            raise SubmoduleError(f"span not closed under the structure map on cover "
                                 f"({P.elements[a]!r}, {P.elements[b]!r})")
        maps[(a, b)] = w
    module = PersistenceModule(P, F, [c.cols for c in canon], maps)
    return Subquotient(parent, tuple(canon), tuple(Mat.zeros(F, d, 0) for d in parent.dims),
                       module, tuple(Mat.eye(F, c.cols) for c in canon),
                       tuple(tuple(range(c.cols)) for c in canon))


def quotient_of_submodules(big: Subquotient, small: Subquotient) -> Subquotient:
    """The subquotient big/small from two built submodules (each M1/0),
    solved at every element and cover: `pmod.quotient_by_submodule` must
    build the same record from their bases alone.  Raises `SubmoduleError`
    unless small sits inside big."""
    F = big.parent.field
    P = big.parent.poset
    projs = []
    frees = []
    for i in range(len(P)):
        inside = solve(big.m1[i], small.m1[i])
        if inside is None:
            raise SubmoduleError(
                f"submodule containment fails at {P.elements[i]!r}"
            )
        q, free = quotient_map(F, big.m1[i].cols, inside)
        projs.append(q)
        frees.append(free)
    maps = {}
    for (a, b) in P.covers:
        x = factor_at(projs[a].a, frees[a], (projs[b] @ big.quotient.maps[(a, b)]).a, F)
        if x is None:
            raise SubmoduleError("map does not factor through the quotient")
        maps[(a, b)] = Mat._canonical(F, x)
    quot = PersistenceModule(P, F, [len(free) for free in frees], maps)
    return Subquotient(big.parent, big.m1, small.m1, quot, tuple(projs), tuple(frees))


class ErosionNeighborhoodError(ValueError):
    pass


def en_construct(rho: HeightDiff, r, m: PersistenceModule,
                 m1: Subquotient, m2: Subquotient) -> Subquotient:
    """Validate the erosion-neighborhood conditions and form the quotient.

    Needs: m2 <= m1 pointwise, image of the r-latching counit inside m1, and m2
    inside the kernel of the r-matching unit.  Violations name the element.
    """
    P = m.poset
    imr = im_r(rho, r, m)
    kerr = ker_r(rho, r, m)
    for i in range(len(P)):
        if solve(m1.m1[i], m2.m1[i]) is None:
            raise ErosionNeighborhoodError(
                f"M2 is not inside M1 at {P.elements[i]!r}")
        if solve(m1.m1[i], imr.m1[i]) is None:
            raise ErosionNeighborhoodError(
                f"latching image not inside M1 at {P.elements[i]!r}")
        if solve(kerr.m1[i], m2.m1[i]) is None:
            raise ErosionNeighborhoodError(
                f"M2 not inside the matching kernel at {P.elements[i]!r}")
    return quotient_of_submodules(m1, m2)


def en_canonical_Q(rho: HeightDiff, r, m: PersistenceModule, n: PersistenceModule,
                   p: ModuleMorphism, q: ModuleMorphism) -> Tuple[Subquotient, Subquotient]:
    """The canonical shared neighborhood built from an interleaving (p, q).

    Realized twice by `functors.erosion_subquotient`: as a subquotient of m
    (M1 = im[L_r m -> m, q#] and M2 = M1 & ker[m -> R_r m; p]) and symmetrically of n,
    with no `en_construct` check.  The pair must be an interleaving
    (`check_certificate`), so the two quotients are the same isomorphism class.
    """
    if not check_certificate(rho, r, m, n, p, q):
        raise ErosionNeighborhoodError(
            "certificate identities fail; the supplied pair is not an interleaving")
    return (erosion_subquotient(rho, r, m, sharp(rho, r, m, q), p),
            erosion_subquotient(rho, r, n, sharp(rho, r, n, p), q))


def morphism_preimage(f: ModuleMorphism, target_sub: Subquotient) -> Subquotient:
    """The preimage f^{-1}(target_sub) as a submodule of f.source (always closed)."""
    F = f.source.field
    bases = []
    for i in range(len(f.source.poset)):
        q, _ = quotient_map(F, f.target.dims[i], target_sub.m1[i])
        bases.append(kernel_basis(q @ f.components[i]))
    return submodule_from_bases(f.source, bases)


def _push(sq: Subquotient, cols: Sequence[Mat], escape: str) -> List[Mat]:
    """Per element, columns of the parent that lie in M1, pushed into the
    quotient; raises `escape` at the first element where they leave M1."""
    out = []
    for i, c in enumerate(cols):
        inside = solve(sq.m1[i], c)
        if inside is None:
            raise ErosionNeighborhoodError(f"{escape} at {sq.parent.poset.elements[i]!r}")
        out.append(sq.proj[i] @ inside)
    return out


def en_interleaving_certificate(rho: HeightDiff, r, m: PersistenceModule,
                                sq: Subquotient) -> Tuple[ModuleMorphism, ModuleMorphism]:
    """The explicit interleaving p, q between m and one of its erosion neighborhoods:
    alpha: L_r m ->> im -> M1 -> Q transposed on one side, and the factorization
    of the matching unit through the quotient on the other."""
    r = Fraction(r)
    F = m.field
    etaL = eta_id(rho, r, m, "L")
    etaR = eta_id(rho, r, m, "R")
    alpha_comps = _push(sq, etaL.components, "latching image escapes M1")
    beta_comps = []
    for i in range(len(m.poset)):
        # the matching unit on M1 factors through the projection onto Q
        beta = factor_at(sq.proj[i].a, sq.free[i], (etaR.components[i] @ sq.m1[i]).a, F)
        if beta is None:
            raise SubmoduleError("map does not factor through the quotient")
        beta_comps.append(Mat._canonical(F, beta))
    alpha = ModuleMorphism(etaL.source, sq.quotient, alpha_comps)
    beta = ModuleMorphism(sq.quotient, etaR.target, beta_comps)
    p = flat(rho, r, m, alpha)
    return p, beta


def en_mediate(rho: HeightDiff, s, r,
               q1: Subquotient, q2: Subquotient) -> Tuple[Subquotient, Subquotient]:
    """Given Q1 = X1/X1' at scale r and Q2 = X2/X2' at scale s of the same
    middle module X, produce Q3 = (X1 & X2)/((X1' + X2') & X1 & X2) realized both
    as an s-erosion neighborhood of Q1 and an r-erosion neighborhood of Q2."""
    s, r = Fraction(s), Fraction(r)
    x1, x1p, x2, x2p = (submodule_from_bases(q.parent, bases)
                        for q in (q1, q2) for bases in (q.m1, q.m2))
    x3 = submodule_intersection(x1, x2)
    x3p = submodule_intersection(submodule_sum(x1p, x2p), x3)

    def realize(carrier: Subquotient, scale: Fraction) -> Subquotient:
        escape = "mediating submodule escapes the carrier"
        m1 = submodule_from_bases(carrier.quotient, _push(carrier, x3.m1, escape))
        m2 = submodule_from_bases(carrier.quotient, _push(carrier, x3p.m1, escape))
        return en_construct(rho, scale, carrier.quotient, m1, m2)

    return realize(q1, s), realize(q2, r)
