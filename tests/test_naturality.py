"""Naturality of every morphism hipm builds.

`ModuleMorphism` does not re-check naturality: the Hom basis, the transposes,
the eta/mu/kappa/tau family, e_r, the submodule and quotient maps and the
erosion-neighborhood certificates are natural by construction.  This property
test checks that claim on random DAGs and forests over GF(2), GF(3) and Q.
"""

import random

from hypothesis import given, settings, strategies as st

from hipm.exactlin import GF2, QQ, FieldSpec
from hipm.functors import (
    apply_L,
    apply_R,
    e_r,
    eta,
    eta_id,
    im_r,
    kappa,
    ker_r,
    mu,
    sharp,
    tau,
)
from hipm.height import from_phi, strata
from hipm.pmod import (
    ModuleMorphism,
    hom_basis,
    quotient_by_submodule,
    submodule_full,
    submodule_image,
    submodule_intersection,
)
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from paper_statements import (apply_L_mor, apply_R_mor, en_construct, en_interleaving_certificate,
                              flat)

GF3 = FieldSpec("gfp", 3)


@st.composite
def instances(draw):
    """(rho, m, n, r, s): two random modules of pointwise dimension <= 2 on a
    random DAG or forest with 2-6 elements, and two stratum representatives."""
    field = draw(st.sampled_from((GF2, GF3, QQ)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 6))
    poset = random_poset(rng, size) if draw(st.booleans()) else random_forest_poset(rng, size)
    rho = from_phi(random_phi(rng, poset, max_step=2))
    reps = [stratum.rep for stratum in strata(rho)]
    r, s = draw(st.sampled_from(reps)), draw(st.sampled_from(reps))
    return rho, random_module(rng, poset, field, 2), random_module(rng, poset, field, 2), r, s


def _assert_natural(**morphisms):
    for name, f in morphisms.items():
        assert f.naturality_violations() == [], name


@given(instances())
@settings(max_examples=150, deadline=None)
def test_built_morphisms_are_natural(case):
    rho, m, n, r, s = case
    s = r + s  # s >= r for the eta comparisons
    for f in hom_basis(m, n):
        _assert_natural(hom=f, L_mor=apply_L_mor(rho, r, f), R_mor=apply_R_mor(rho, r, f))
    for p in hom_basis(m, apply_R(rho, r, n).module):
        _assert_natural(hom=p, sharp=sharp(rho, r, n, p))
    for f in hom_basis(apply_L(rho, r, m).module, n):
        _assert_natural(hom=f, flat=flat(rho, r, m, f))
    _assert_natural(
        eta_L=eta(rho, s, r, m, "L"), eta_R=eta(rho, s, r, m, "R"),
        eta_id_L=eta_id(rho, r, m, "L"), eta_id_R=eta_id(rho, r, m, "R"),
        e_r=e_r(rho, r, m), mu_L=mu(rho, s, r, m, "L"), mu_R=mu(rho, s, r, m, "R"),
        kappa_L=kappa(rho, s, r, m, "L"), kappa_R=kappa(rho, s, r, m, "R"),
        tau_L=tau(rho, s, r, m, "L"), tau_R=tau(rho, s, r, m, "R"),
    )
    imr, kerr = im_r(rho, r, m), ker_r(rho, r, m)
    inter = submodule_intersection(imr, kerr)
    sq = quotient_by_submodule(m, imr.m1, inter.m1)
    proj = ModuleMorphism(imr.quotient, sq.quotient, sq.proj)
    image = submodule_image(e_r(rho, r, m))
    _assert_natural(image_incl=ModuleMorphism(image.quotient, image.parent, image.m1),
                    quotient_proj=proj)
    # the erosion itself (im / im & ker) and the widest neighborhood (M / ker)
    for m1, m2 in ((imr, inter), (submodule_full(m), kerr)):
        en_p, en_q = en_interleaving_certificate(rho, r, m, en_construct(rho, r, m, m1, m2))
        _assert_natural(en_p=en_p, en_q=en_q)
