"""Oracles of the paper's statements, checked by the tests and run by no command.

Each function builds one side of an identity the paper proves, from the
engine's functors and (co)limit legs, so that a test can compare it with what
the engine builds directly: functoriality of L_r and R_r on morphisms, the
unit and counit of L_r -| R_r (the triangle identities), the mates of eta_L
and mu_L (which must equal eta_R and mu_R), the interleaving between a module
and each of its erosion neighborhoods, the composition of erosion
neighborhoods through preimages, and their mediation.  `src/hipm` keeps only
what a command runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from hipm.erosion import ErosionNeighborhoodError, en_construct
from hipm.exactlin import Mat, factor_at, kernel_basis, quotient_map, solve
from hipm.functors import (_functor, apply_L, apply_R, eta_L, eta_L_to_id, eta_R_from_id, flat,
                           mu_L, sharp)
from hipm.height import HeightDiff
from hipm.interleave import Certificate
from hipm.kan import factor
from hipm.pmod import (ModuleMorphism, PersistenceModule, Submodule, SubmoduleError, Subquotient,
                       submodule_from_bases, submodule_intersection, submodule_sum)

# ---------------------------------------------------------------------------
# functoriality, the adjunction L_r -| R_r and its mates
# ---------------------------------------------------------------------------


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
    """The two-adjunction mate of eta_L(s, r) evaluated at n: a map R_r N -> R_s N.

    Built as R_s(counit_r) o R_s(eta_L at R_r N) o unit_s, the composite of the
    two one-adjunction transpositions.
    """
    x = apply_R(rho, r, n).module
    u = unit(rho, s, x)  # R_rN -> R_s L_s R_rN
    e = eta_L(rho, s, r, x)  # L_s R_rN -> L_r R_rN
    c = counit(rho, r, n)  # L_r R_rN -> N
    return apply_R_mor(rho, s, c.compose(e)).compose(u)


def mate_of_mu_L(rho: HeightDiff, s, r, n: PersistenceModule) -> ModuleMorphism:
    """The mate of mu_L(s, r) under the composite adjunction
    L_s L_r -| R_r R_s, evaluated at n: a map R_{s+r} N -> R_r(R_s N).

    The composition maps are constructed independently from neighborhood
    inclusions; agreement of this mate with mu_R is verified by the tests as an
    exact identity rather than assumed.
    """
    s, r = Fraction(s), Fraction(r)
    x = apply_R(rho, s + r, n).module  # R_{s+r} N
    # unit of the composite adjunction at x: x -> R_r R_s L_s L_r x
    app_lr_x = apply_L(rho, r, x)
    unit_r_x = unit(rho, r, x)  # x -> R_r L_r x
    unit_s_inner = unit(rho, s, app_lr_x.module)  # L_r x -> R_s L_s L_r x
    comp_unit = apply_R_mor(rho, r, unit_s_inner).compose(unit_r_x)
    # mu_L at x then the counit of L_{s+r} -| R_{s+r} at n, both pushed through R_r R_s
    mu_x = mu_L(rho, s, r, x)  # L_s L_r x -> L_{s+r} x
    eps = counit(rho, s + r, n)  # L_{s+r} R_{s+r} N -> N
    pushed = apply_R_mor(rho, r, apply_R_mor(rho, s, eps.compose(mu_x)))
    return pushed.compose(comp_unit)


# ---------------------------------------------------------------------------
# erosion neighborhoods
# ---------------------------------------------------------------------------


def morphism_preimage(f: ModuleMorphism, target_sub: Submodule) -> Submodule:
    """The preimage f^{-1}(target_sub) as a submodule of f.source (always closed)."""
    F = f.source.field
    bases = []
    for i in range(len(f.source.poset)):
        q, _ = quotient_map(F, f.target.dims[i], target_sub.bases[i])
        bases.append(kernel_basis(q @ f.components[i]))
    return submodule_from_bases(f.source, bases)


def _push(sq: Subquotient, cols: Sequence[Mat], escape: str) -> List[Mat]:
    """Per element, columns of the parent that lie in sq.sub1, pushed into the
    quotient; raises `escape` at the first element where they leave sub1."""
    out = []
    for i, c in enumerate(cols):
        inside = solve(sq.sub1.bases[i], c)
        if inside is None:
            raise ErosionNeighborhoodError(f"{escape} at {sq.parent.poset.elements[i]!r}")
        out.append(sq.proj.components[i] @ inside)
    return out


def en_interleaving_certificate(rho: HeightDiff, r, m: PersistenceModule,
                                sq: Subquotient) -> Certificate:
    """The explicit interleaving between m and one of its erosion neighborhoods:
    alpha: L_r m ->> im -> M1 -> Q transposed on one side, and the factorization
    of the matching unit through the quotient on the other."""
    r = Fraction(r)
    F = m.field
    etaL = eta_L_to_id(rho, r, m)
    etaR = eta_R_from_id(rho, r, m)
    alpha_comps = _push(sq, etaL.components, "latching image escapes M1")
    beta_comps = []
    for i in range(len(m.poset)):
        # the matching unit on M1 factors through the projection onto Q
        beta = factor_at(sq.proj.components[i].a, sq.free[i],
                         (etaR.components[i] @ sq.sub1.bases[i]).a, F)
        if beta is None:
            raise SubmoduleError("map does not factor through the quotient")
        beta_comps.append(Mat._canonical(F, beta))
    alpha = ModuleMorphism(etaL.source, sq.quotient, alpha_comps)
    beta = ModuleMorphism(sq.quotient, etaR.target, beta_comps)
    p = flat(rho, r, m, alpha)
    return Certificate(r, p, beta)


def en_mediate(rho: HeightDiff, s, r,
               q1: Subquotient, q2: Subquotient) -> Tuple[Subquotient, Subquotient]:
    """Given Q1 = X1/X1' at scale r and Q2 = X2/X2' at scale s of the same
    middle module X, produce Q3 = (X1 & X2)/((X1' + X2') & X1 & X2) realized both
    as an s-erosion neighborhood of Q1 and an r-erosion neighborhood of Q2."""
    s, r = Fraction(s), Fraction(r)
    x3 = submodule_intersection(q1.sub1, q2.sub1)
    x3p = submodule_intersection(submodule_sum(q1.sub2, q2.sub2), x3)

    def realize(carrier: Subquotient, scale: Fraction) -> Subquotient:
        escape = "mediating submodule escapes the carrier"
        m1 = submodule_from_bases(carrier.quotient, _push(carrier, x3.bases, escape))
        m2 = submodule_from_bases(carrier.quotient, _push(carrier, x3p.bases, escape))
        return en_construct(rho, scale, carrier.quotient, m1, m2)

    return realize(q1, s), realize(q2, r)
