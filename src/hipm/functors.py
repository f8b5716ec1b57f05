"""The functor calculus on persistence modules induced by a height-difference
function: pointwise-colimit latching functors, pointwise-limit matching
functors, their adjunction transposes, the iterated-neighborhood functors, and
the canonical natural transformations between all of them.

Every transformation is assembled directly from the retained (co)cone legs of
the functor applications, so outputs are deterministic matrix computations, and
each claimed factorization identity is verified as an exact matrix identity at
construction time.

Each construction that comes once per side is one function whose last
argument, `direction`, picks the latching side 'L' or the matching side 'R'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .exactlin import (Mat, factor_at, hstack, image_basis, kernel_basis, rref, solve, stacked_matmul,
                       vstack, zeros)
from .height import (HeightDiff, check_ivc, level, nbhd_bottoms, nbhd_iterated_idx, nbhd_pairs,
                     nbhd_tops, nbhds, pullback_rho)
from .kan import (UniversalCone, colim_over, factor, factor_stack_from_colim, induced, lim_dim,
                  lim_over)
from .pmod import (
    ModuleMorphism,
    MorphismStack,
    PersistenceModule,
    Submodule,
    Subquotient,
    pullback_module,
    quotient_by_submodule,
    span_intersection,
    submodule_from_bases,
    submodule_image,
)
from .poset import OrderMap, PosetError

__all__ = [
    "FunctorApplication",
    "apply_L",
    "apply_R",
    "R_dims",
    "apply_T",
    "eta",
    "eta_id",
    "e_r",
    "e_r_vanishes",
    "e_r_rank",
    "e_r_rank_obstruction",
    "mu",
    "sharp",
    "sharp_legs",
    "e_r_legs",
    "kappa",
    "tau",
    "theta",
    "sigma",
    "erosion_bases",
    "im_r",
    "ker_r",
    "erosion_subquotient",
    "erosion_E",
    "ErosionResult",
    "xi_pullback",
    "clear_cache",
    "IntermediateValueError",
    "FubiniComparisonError",
]


@dataclass
class FunctorApplication:
    """One functor value: the output module plus per-element (co)limit data.

    `data[a]` is a `kan.UniversalCone` over the neighborhood `data[a].nodes`:
    for latching-type kinds (`L`, `TL`) a colimit whose legs go M(x) -> out(a),
    for matching-type kinds (`R`, `TR`) a limit whose legs go out(a) -> M(y).  The
    retained legs make transposes and canonical transformations direct matrix
    assemblies.
    """

    kind: str  # "L" | "R" | "TL" | "TR"
    module: PersistenceModule
    data: dict


def clear_cache() -> None:
    """Does nothing.  Every memoized functor value lives on the module it was
    applied to (`Memo.cached`) exactly as long as that module, so there is no
    cache to clear.  Kept only because `perfbench/run.py` and
    `perfbench/make_data.py` still call it."""


def _functor(direction: str):
    """apply_L or apply_R for a direction 'L' or 'R'."""
    if direction == "L":
        return apply_L
    if direction == "R":
        return apply_R
    raise ValueError("direction must be 'L' or 'R'")


def _oriented(app: FunctorApplication, other: PersistenceModule, comps) -> ModuleMorphism:
    """app.module -> other for latching kinds, other -> app.module for matching ones."""
    if app.kind[-1] == "L":
        return ModuleMorphism(app.module, other, comps)
    return ModuleMorphism(other, app.module, comps)


def _induced(m: PersistenceModule, small: UniversalCone, big: UniversalCone) -> Mat:
    """kan.induced between two (co)limits of m.  It depends only on the two
    neighborhoods, so it is made once per module, kind and pair of node sets and
    shared by every stratum, functor and transformation that compares them."""
    return m.cached(("induced", small.latching, small.nodes, big.nodes), lambda: induced(small, big))


def _between(m: PersistenceModule, small: FunctorApplication,
             big: FunctorApplication) -> ModuleMorphism:
    """The induced map at every element: small -> big (latching), big -> small
    (matching), both applied to m."""
    comps = [_induced(m, small.data[a], big.data[a]) for a in range(len(m.poset))]
    return _oriented(small, big.module, comps)


def _nested(m: PersistenceModule, outer: FunctorApplication, inner: FunctorApplication,
            big: FunctorApplication) -> ModuleMorphism:
    """The two-level factorization: each leg of `outer` at a is the (co)limit of
    `inner` (applied to m) at that node, compared into big's value at a."""
    comps = [
        factor(outer.data[a],
               {x: _induced(m, inner.data[x], big.data[a]) for x in outer.data[a].nodes},
               big.data[a].dim)
        for a in range(len(m.poset))
    ]
    return _oriented(outer, big.module, comps)


def _after(direction: str, g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """g o f along the latching arrows, f o g along the reversed matching ones."""
    return g.compose(f) if direction == "L" else f.compose(g)


def _apply(kind: str, levels: tuple, rho: HeightDiff, m: PersistenceModule,
           nbhd_of) -> FunctorApplication:
    """Pointwise colimits (kind 'L', 'TL') or limits ('R', 'TR') over the
    neighborhoods nbhd_of()[a], with the inclusion-induced structure maps;
    memoized on m under the scales' levels."""
    latching = kind[-1] == "L"

    def build():
        P = m.poset
        nodes = nbhd_of()
        data = {a: (colim_over if latching else lim_over)(m, nodes[a]) for a in range(len(P))}
        maps = {(a, b): _induced(m, data[a], data[b]) if latching else _induced(m, data[b], data[a])
                for (a, b) in P.covers}
        out = PersistenceModule(P, m.field, [data[a].dim for a in range(len(P))], maps)
        return FunctorApplication(kind, out, data)

    return m.cached((kind, rho, *levels), build)


def apply_L(rho: HeightDiff, r, m: PersistenceModule) -> FunctorApplication:
    """The r-latching functor value: pointwise colimits over the lower
    r-neighborhoods, with the inclusion-induced structure maps."""
    k = level(rho, r)
    return _apply("L", (k,), rho, m, lambda: nbhds(rho, "down", k))


def apply_R(rho: HeightDiff, r, m: PersistenceModule) -> FunctorApplication:
    """The r-matching functor value: pointwise limits over the upper
    r-neighborhoods."""
    k = level(rho, r)
    return _apply("R", (k,), rho, m, lambda: nbhds(rho, "up", k))


def R_dims(rho: HeightDiff, r, m: PersistenceModule) -> tuple:
    """The dimension vector of R_r M, with no limit built: `kan.lim_dim` over
    each upper r-neighborhood and its minima (`height.nbhd_bottoms`), which is
    dim M(b) with one minimum b."""
    k = level(rho, r)
    return tuple(lim_dim(m, s, b) for s, b in zip(nbhds(rho, "up", k), nbhd_bottoms(rho, k)))


def apply_T(rho: HeightDiff, s, r, m: PersistenceModule, direction: str) -> FunctorApplication:
    """Iterated-neighborhood functor: colim over a's lower-s-then-lower-r union
    (direction 'L'), or lim over the upper-r-then-upper-s union ('R')."""
    _functor(direction)  # rejects any other direction
    way = "down" if direction == "L" else "up"
    return _apply("T" + direction, (level(rho, s), level(rho, r)), rho, m,
                  lambda: [nbhd_iterated_idx(rho, a, s, r, way) for a in range(len(m.poset))])


# ---------------------------------------------------------------------------
# the eta family and the erosion composite
# ---------------------------------------------------------------------------


def eta(rho: HeightDiff, s, r, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The comparison induced by shrinking neighborhoods, for s >= r:
    L_s M -> L_r M (direction 'L'), or R_r M -> R_s M ('R')."""
    if Fraction(s) < Fraction(r):
        raise ValueError(f"eta needs s >= r, got s = {s} < r = {r}")
    apply = _functor(direction)
    return _between(m, apply(rho, s, m), apply(rho, r, m))


def eta_id(rho: HeightDiff, r, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The counit-style map L_r M -> M (direction 'L'), or the unit-style map
    M -> R_r M ('R'), assembled from the structure maps of M."""

    def component(res: UniversalCone, a: int) -> Mat:
        return factor(res, {x: m.map_for_idx(x, a) if direction == "L" else m.map_for_idx(a, x)
                            for x in res.nodes}, m.dims[a])

    def build():
        app = _functor(direction)(rho, r, m)
        return _oriented(app, m, [component(app.data[a], a) for a in range(len(m.poset))])

    return m.cached((f"eta{direction}-id", rho, level(rho, r)), build)


def e_r(rho: HeightDiff, r, m: PersistenceModule) -> ModuleMorphism:
    """The canonical composite L_r M -> M -> R_r M whose image is the erosion."""
    return eta_id(rho, r, m, "R").compose(eta_id(rho, r, m, "L"))


def e_r_vanishes(rho: HeightDiff, r, *modules: PersistenceModule) -> bool:
    """Whether e_{r,M} = 0 for every M of `modules`, read off M's own maps.

    At every a, the colimit legs from the maximal x of a's lower neighborhood
    are jointly epimorphic, the limit legs to the minimal y of its upper one
    are jointly monomorphic (a cone is fixed at the minimal nodes), and
    leg_y e_r(a) leg_x = M(x <= y).  So e_r vanishes exactly when M(x <= y) = 0
    on every pair of `height.nbhd_pairs`; no L_r, R_r or eta is built."""
    pairs = nbhd_pairs(rho, level(rho, r))
    return all(m.map_for_idx(x, y).is_zero() for m in modules for x, y in pairs
               if m.dims[x] and m.dims[y])


def e_r_rank(rho: HeightDiff, r, m: PersistenceModule, a: int) -> int:
    """rank e_{r,M}(a), read off M's own maps: the rank of the block matrix
    [M(x <= y)] over the maximal x of a's lower r-neighborhood and the minimal
    y of its upper one, which is V @ H for H = [M(x <= a)] side by side and
    V = [M(a <= y)] stacked.  The legs from those x are jointly epimorphic and
    the legs to those y jointly monomorphic (`e_r_vanishes`), so the block
    matrix is e_r(a) with an injective map after it and a surjective one
    before it."""
    k = level(rho, r)
    F = m.field
    h = hstack(F, [m.map_for_idx(x, a) for x in nbhd_tops(rho, k)[a]], rows=m.dims[a])
    v = vstack(F, [m.map_for_idx(a, y) for y in nbhd_bottoms(rho, k)[a]], cols=m.dims[a])
    return rref(v @ h).rank


def e_r_rank_obstruction(rho: HeightDiff, r, m: PersistenceModule,
                         n: PersistenceModule) -> Optional[Tuple[str, str]]:
    """The first (side, element) that rules out every r-interleaving of m and
    n, or None: side "M" where rank e_{r,M}(a) > dim N(a), side "N" where
    rank e_{r,N}(a) > dim M(a), "M" first and elements in index order.

    An interleaving has e_{r,M} = q o p#, and p#(a) lands in N(a), so
    rank e_{r,M}(a) <= dim N(a) at every a; likewise with m and n swapped.
    The ranks come from M's own maps (`e_r_rank`); no L_r, R_r or Hom space is
    built.  e_{r,M}(a) factors through M(a), and the block matrix has the
    tops' and the bottoms' total dimensions as its sides; so only an a with
    dim M(a) > dim N(a), and both totals above dim N(a), is ranked."""
    sides = (("M", m, n), ("N", n, m))
    larger = [[a for a, (d, cap) in enumerate(zip(src.dims, dst.dims)) if d > cap]
              for _, src, dst in sides]
    if not any(larger):  # as with equal dimension vectors, at every r
        return None
    k = level(rho, r)
    tops, bottoms = nbhd_tops(rho, k), nbhd_bottoms(rho, k)
    for (side, src, dst), elements in zip(sides, larger):
        dims = src.dims
        for a in elements:
            cap = dst.dims[a]
            if (sum(dims[x] for x in tops[a]) > cap and sum(dims[y] for y in bottoms[a]) > cap
                    and e_r_rank(rho, r, src, a) > cap):
                return side, src.poset.elements[a]
    return None


# ---------------------------------------------------------------------------
# mu: the oplax composition maps
# ---------------------------------------------------------------------------


def _iterated(direction: str, rho: HeightDiff, s, r,
              m: PersistenceModule) -> Tuple[FunctorApplication, FunctorApplication]:
    """(outer, inner) of L_s(L_r M), or of R_r(R_s M)."""
    apply = _functor(direction)
    x, y = (r, s) if direction == "L" else (s, r)
    inner = apply(rho, x, m)
    return apply(rho, y, inner.module), inner


def mu(rho: HeightDiff, s, r, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The canonical composition map L_s(L_r M) -> L_{s+r} M (direction 'L'),
    or R_{s+r} M -> R_r(R_s M) ('R')."""
    s, r = Fraction(s), Fraction(r)
    outer, inner = _iterated(direction, rho, s, r, m)
    return _nested(m, outer, inner, _functor(direction)(rho, s + r, m))


# ---------------------------------------------------------------------------
# the adjunction transposes
# ---------------------------------------------------------------------------


def _leg_family(app_r: FunctorApplication, stack: MorphismStack, n: PersistenceModule,
                nodes, a: int) -> np.ndarray:
    """legs[a] @ stack[x] for every x in `nodes`, one batched matmul per node,
    side by side: the (h, N(a), sum of M(x)) composites of the h morphisms
    M -> R_r N in `stack` with the limit legs R_r N(x) -> N(a)."""
    F = n.field
    family = [stacked_matmul(F, app_r.data[x].legs[a].a, stack.stacks[x]) for x in nodes]
    return np.concatenate(family, axis=2) if family else zeros(F, (len(stack), n.dims[a], 0))


def _stack_into_R(rho: HeightDiff, r, n: PersistenceModule,
                  g: ModuleMorphism | MorphismStack) -> Tuple[MorphismStack, FunctorApplication]:
    """g as a stack, checked to land in R_r n, and R_r n."""
    stack = g if isinstance(g, MorphismStack) else MorphismStack.of(g)
    app_r = apply_R(rho, r, n)
    if not stack.target.same(app_r.module):
        raise ValueError("target of g is not the r-matching module of n")
    return stack, app_r


def sharp(rho: HeightDiff, r, n: PersistenceModule,
          g: ModuleMorphism | MorphismStack) -> ModuleMorphism | MorphismStack:
    """Transpose morphisms M -> R_r N to their adjoints L_r M -> N.

    `g` is a MorphismStack (a whole Hom basis, say), whose transposes come back
    as a MorphismStack, or one ModuleMorphism, transposed as a stack of one.
    Per element a, the cocone family of all h morphisms is one batched matmul
    per node x, legs[a] @ stack[x], and the factors are read off the
    colimit's free coordinates at once (`factor_stack_from_colim`).
    """
    stack, app_r = _stack_into_R(rho, r, n, g)
    app_l = apply_L(rho, r, stack.source)
    out = [factor_stack_from_colim(col, _leg_family(app_r, stack, n, col.nodes, a))
           for a, col in app_l.data.items()]
    res = MorphismStack(app_l.module, n, len(stack), out)
    return res if stack is g else res[0]


def sharp_legs(rho: HeightDiff, r, n: PersistenceModule, g: MorphismStack) -> list:
    """The transposes of `g` on the colimit legs, built without L_r M.

    Per element a, the (h, N(a), w_a) composites g#(a) o leg_x for x among the
    maximal elements of a's lower r-neighborhood (`height.nbhd_tops`), side by
    side: the cocone family `sharp` factors, cut to those x.  The legs from
    the maximal elements are jointly epimorphic, so two maps out of L_r M(a)
    are equal exactly when these composites are.
    """
    stack, app_r = _stack_into_R(rho, r, n, g)
    tops = nbhd_tops(rho, level(rho, r))
    return [_leg_family(app_r, stack, n, tops[a], a) for a in range(len(n.poset))]


def e_r_legs(rho: HeightDiff, r, m: PersistenceModule) -> list:
    """e_{r,M} on the same legs as `sharp_legs`: per element a, the
    (R_r M(a), w_a) blocks unit(a) M(x <= a) side by side, where the unit is
    M -> R_r M (`eta_id` on the 'R' side); built without L_r M."""
    tops = nbhd_tops(rho, level(rho, r))
    unit = eta_id(rho, r, m, "R").components
    out = []
    for a, xs in enumerate(tops):
        legs = hstack(m.field, [m.map_for_idx(x, a) for x in xs], rows=m.dims[a])
        out.append((unit[a] @ legs).a)
    return out


# ---------------------------------------------------------------------------
# kappa, tau, theta, sigma
# ---------------------------------------------------------------------------


def kappa(rho: HeightDiff, s, r, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The Fubini comparison: L_s L_r M -> T^L_{s,r} M, or T^R_{r,s} M -> R_r R_s M."""
    outer, inner = _iterated(direction, rho, s, r, m)
    return _nested(m, outer, inner, apply_T(rho, s, r, m, direction))


def tau(rho: HeightDiff, s, r, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The inclusion-induced comparison T^L_{s,r} M -> L_{s+r} M (or
    R_{s+r} M -> T^R_{r,s} M), second factor of the mu factorization."""
    s, r = Fraction(s), Fraction(r)
    return _between(m, apply_T(rho, s, r, m, direction), _functor(direction)(rho, s + r, m))


class IntermediateValueError(ValueError):
    pass


def theta(rho: HeightDiff, s, r, c, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """The tolerance-c comparison L_{s+r+c} M -> T^L_{s,r} M (dually for R),
    available exactly when the intermediate-value property holds at c.

    The defining neighborhood inclusion and the factorization of the eta
    comparison through tau are both verified exactly.
    """
    s, r, c = Fraction(s), Fraction(r), Fraction(c)
    ivc = check_ivc(rho, c)
    if not ivc.holds:
        a, b, t = ivc.witness
        raise IntermediateValueError(
            f"intermediate-value property fails at tolerance {c}: witness a={a!r}, b={b!r}, t={t}")
    big = _functor(direction)(rho, s + r + c, m)
    t = apply_T(rho, s, r, m, direction)
    for a, name in enumerate(m.poset.elements):
        if not set(big.data[a].nodes) <= set(t.data[a].nodes):
            raise IntermediateValueError(f"neighborhood inclusion fails at {name!r}")
    out = _between(m, big, t)
    assert (_after(direction, tau(rho, s, r, m, direction), out)
            == eta(rho, s + r + c, s + r, m, direction))
    return out


class FubiniComparisonError(ValueError):
    pass


def sigma(rho: HeightDiff, s, r, c, m: PersistenceModule, direction: str) -> ModuleMorphism:
    """kappa^{-1} after theta: the interleaving-composition helper
    L_{s+r+c} M -> L_s L_r M (dually R_r R_s M -> R_{s+r+c} M).

    Requires every kappa component invertible (the connected-intersections
    situation); verifies the eta = mu o sigma factorization exactly.
    """
    s, r, c = Fraction(s), Fraction(r), Fraction(c)
    k = kappa(rho, s, r, m, direction)
    th = theta(rho, s, r, c, m, direction)
    P = m.poset
    lat = direction == "L"
    comps = []
    for a in range(len(P)):
        ka = k.components[a]
        if ka.rows != ka.cols or rref(ka).rank != ka.rows:
            raise FubiniComparisonError(f"iterated-{'colimit' if lat else 'limit'} comparison "
                                        f"not invertible at {P.elements[a]!r}")
        # sigma_a = kappa_a^{-1} theta_a, or theta_a kappa_a^{-1} (solve X @ ka = theta_a)
        comps.append(solve(ka, th.components[a]) if lat
                     else solve(ka.T, th.components[a].T).T)
    out = (ModuleMorphism(th.source, k.source, comps) if lat
           else ModuleMorphism(k.target, th.target, comps))
    assert (_after(direction, mu(rho, s, r, m, direction), out)
            == eta(rho, s + r + c, s + r, m, direction))
    return out


# ---------------------------------------------------------------------------
# image / kernel / erosion functors
# ---------------------------------------------------------------------------


def erosion_bases(rho: HeightDiff, r, m: PersistenceModule,
                  incoming: Optional[ModuleMorphism] = None,
                  outgoing: Optional[ModuleMorphism] = None) -> Tuple[list, list]:
    """Per element a, the generators of im[L_r M -> M, incoming](a) and the
    basis of ker[M -> R_r M; outgoing](a) in M(a), from M's own maps (the two
    maps are `eta_id` on the 'L' and the 'R' side).

    L_r M(a) -> M(a) is the family [M(x <= a)] over a's lower neighborhood read
    at the colimit's free coordinates (`kan.factor`), so only the memoized
    colimit cone is built.  The rows of M(a) -> R_r M(a) span those of
    [M(a <= y)] over the
    minimal y of a's upper neighborhood (the limit legs to them are jointly
    monomorphic), so with `outgoing` stacked under either the rref, and the
    canonical kernel basis, is the same; no R_r or eta is built."""
    k = level(rho, r)
    F = m.field
    downs, bottoms = nbhds(rho, "down", k), nbhd_bottoms(rho, k)
    gens, kerns = [], []
    for a, d in enumerate(m.dims):
        col = colim_over(m, downs[a])
        ins = [hstack(F, [m.map_for_idx(x, a) for x in col.nodes], rows=d).take_cols(col.free)]
        outs = [m.map_for_idx(a, y) for y in bottoms[a]]
        if incoming is not None:
            ins.append(incoming.components[a])
        if outgoing is not None:
            outs.append(outgoing.components[a])
        gens.append(hstack(F, ins, rows=d))
        kerns.append(kernel_basis(vstack(F, outs, cols=d)))
    return gens, kerns


def im_r(rho: HeightDiff, r, m: PersistenceModule) -> Submodule:
    """The image of L_r M -> M, as a submodule of M."""
    return submodule_from_bases(m, erosion_bases(rho, r, m)[0])


def ker_r(rho: HeightDiff, r, m: PersistenceModule) -> Submodule:
    """The kernel of M -> R_r M, as a submodule of M."""
    return submodule_from_bases(m, erosion_bases(rho, r, m)[1])


def erosion_subquotient(rho: HeightDiff, r, m: PersistenceModule,
                        incoming: Optional[ModuleMorphism] = None,
                        outgoing: Optional[ModuleMorphism] = None) -> Subquotient:
    """M1 / (M1 & ker[M -> R_r M; outgoing]) in M with M1 = im[L_r M -> M, incoming]: the erosion
    im_r / (im_r & ker_r) with neither map, and the canonical neighborhood of an
    interleaving (p, q) with q# and p.  Built from M's own maps (`erosion_bases`)."""
    gens, kerns = erosion_bases(rho, r, m, incoming, outgoing)
    m1 = [image_basis(g) for g in gens]
    m2 = [image_basis(span_intersection(v1, v2)) for v1, v2 in zip(m1, kerns)]
    return quotient_by_submodule(m, m1, m2)


@dataclass
class ErosionResult:
    """The erosion subquotient: image of L_r M -> R_r M with its factorization
    retained, plus the verified identification with im/(im & ker)."""

    sub: Submodule  # inside R_r M
    proj: ModuleMorphism  # L_r M ->> erosion


def erosion_E(rho: HeightDiff, r, m: PersistenceModule) -> ErosionResult:
    """The r-erosion of M: the image of the canonical L_r M -> R_r M.

    Its canonical isomorphism with `erosion_subquotient`,
    im(L_r -> M) / (im & ker(M -> R_r)), is checked exactly.
    """
    e = e_r(rho, r, m)
    sub = submodule_image(e)
    comps = [solve(sub.bases[a], e.components[a]) for a in range(len(m.poset))]
    if any(c is None for c in comps):
        raise AssertionError("erosion image must factor its own defining map")
    sq = erosion_subquotient(rho, r, m)
    unit = eta_id(rho, r, m, "R")
    for a in range(len(m.poset)):
        # canonical map im_r -> erosion: push the image generators through M -> R_rM
        phi = solve(sub.bases[a], unit.components[a] @ sq.m1[a])
        if phi is None:
            raise AssertionError("image of im_r must land in the erosion")
        # the map descends to the quotient and the induced map must be an iso
        psi = factor_at(sq.proj[a].a, sq.free[a], phi.a, m.field)
        if psi is None:
            raise AssertionError("canonical map does not descend to the subquotient")
        if psi.shape[0] != psi.shape[1] or rref(Mat._canonical(m.field, psi)).rank != psi.shape[0]:
            raise AssertionError(
                f"erosion is not isomorphic to the canonical subquotient at "
                f"{m.poset.elements[a]!r}"
            )
    return ErosionResult(sub, ModuleMorphism(e.source, sub.module, comps))


# ---------------------------------------------------------------------------
# pullback comparison
# ---------------------------------------------------------------------------


def xi_pullback(f: OrderMap, rho: HeightDiff, r, m: PersistenceModule,
                direction: str) -> ModuleMorphism:
    """The base-change comparison along an order-preserving map f: Q -> P.

    'L': latching of the pulled-back data -> pullback of the latching value;
    'R': pullback of the matching value -> matching of the pulled-back data.
    """
    if rho.poset.key() != f.target.key():
        raise PosetError("rho must live on the target of f")
    rho_q = pullback_rho(f, rho)
    mq = pullback_module(f, m)
    apply = _functor(direction)
    here = apply(rho_q, r, mq)
    there = apply(rho, r, m)
    comps = []
    for q in range(len(f.source)):
        fa = f.apply_idx(q)
        blocks = {y: there.data[fa].legs[f.apply_idx(y)] for y in here.data[q].nodes}
        comps.append(factor(here.data[q], blocks, there.data[fa].dim))
    return _oriented(here, pullback_module(f, there.module), comps)
