import gc
import random
import weakref
from fractions import Fraction
from typing import Tuple

import pytest

from hipm.exactlin import GF2, Mat, rref, solve
from hipm.fixtures import bipath_example, chain_example, grid_example
from hipm.functors import (
    IntermediateValueError,
    apply_L,
    apply_R,
    apply_T,
    e_r,
    erosion_E,
    eta,
    eta_id,
    im_r,
    kappa,
    ker_r,
    mu,
    sharp,
    sigma,
    tau,
    theta,
    xi_pullback,
)
from hipm.height import (HeightDiff, HeightFunction, from_phi, level, nbhd_down_idx, nbhd_up_idx,
                         rho_diag)
from hipm.kan import _cone, factor, induced
from hipm.pmod import (
    ModuleMorphism,
    PersistenceModule,
    direct_sum,
    hom_basis,
    interval_module,
    is_isomorphic,
    submodule_image,
    submodule_kernel,
    validate_module,
)
from hipm.poset import FinitePoset, OrderMap
from hipm.randgen import random_forest_poset, random_module, random_phi
from paper_statements import (apply_L_mor, apply_R_mor, counit, flat, fubini_compare, mate_of_eta_L,
                              mate_of_mu_L, nbhd_iterated, unit)


def test_apply_L_R_grid_printed_dims():
    ge = grid_example()
    aL = apply_L(ge.rho, 1, ge.module)
    aR = apply_R(ge.rho, 1, ge.module)
    for i, e in enumerate(ge.poset.elements):
        assert aL.module.dims[i] == ge.printed_L1_dims[e]
        assert aR.module.dims[i] == ge.printed_R1_dims[e]
    assert validate_module(aL.module).valid
    assert validate_module(aR.module).valid


def test_functor_outputs_are_valid_modules(rng):
    for _ in range(5):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        for r in [0, 1, 2]:
            assert validate_module(apply_L(rho, r, m).module).valid
            assert validate_module(apply_R(rho, r, m).module).valid
        assert validate_module(apply_T(rho, 1, 1, m, "L").module).valid
        assert validate_module(apply_T(rho, 1, 1, m, "R").module).valid


def test_L0_R0_identity(chain4_rho, rng):
    m = __import__("hipm.randgen", fromlist=["random_module"]).random_module(
        rng, chain4_rho.poset, GF2, 2
    )
    assert eta_id(chain4_rho, 0, m, "L").is_iso()
    assert eta_id(chain4_rho, 0, m, "R").is_iso()
    assert e_r(chain4_rho, 0, m).is_iso()


def test_grid_diag_latching_is_shift(rng):
    g = FinitePoset.grid([3, 3])
    rho = rho_diag(g)
    m = random_module(rng, g, GF2, 2)
    aL = apply_L(rho, 1, m)
    by_coord = {c: i for i, c in g.coords.items()}
    for i, c in g.coords.items():
        src = by_coord.get((c[0] - 1, c[1] - 1))
        want = m.dims[src] if src is not None else 0
        assert aL.module.dims[i] == want


def test_eta_composition_law(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    assert eta(chain4_rho, 2, 2, m, "L").is_iso()  # s = r gives the identity comparison
    comp = eta(chain4_rho, 2, 1, m, "L").compose(eta(chain4_rho, 4, 2, m, "L"))
    assert comp == eta(chain4_rho, 4, 1, m, "L")
    comp_r = eta(chain4_rho, 4, 2, m, "R").compose(eta(chain4_rho, 2, 1, m, "R"))
    assert comp_r == eta(chain4_rho, 4, 1, m, "R")


@pytest.mark.parametrize("direction", ["L", "R"])
def test_eta_to_id_factorization(chain4_rho, rng, direction):
    # the counit-style map L_2 M -> M factors as L_2 M -> L_0 M -> M, and the
    # unit-style map M -> R_2 M as M -> R_0 M -> R_2 M; the first has image
    # im_r, the second kernel ker_r
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    to_zero, via = eta_id(chain4_rho, 0, m, direction), eta(chain4_rho, 2, 0, m, direction)
    via_zero = to_zero.compose(via) if direction == "L" else via.compose(to_zero)
    at_two = eta_id(chain4_rho, 2, m, direction)
    assert via_zero == at_two
    if direction == "L":
        got, want = submodule_image(at_two), im_r(chain4_rho, 2, m)
    else:
        got, want = submodule_kernel(at_two), ker_r(chain4_rho, 2, m)
    assert all(got.m1[i] == want.m1[i] for i in range(4))


def test_e_r_chain_nonzero_at_c():
    ce = chain_example(2)
    e2 = e_r(ce.rho, ce.C, ce.M)
    comp = e2.components[e2.source.poset.idx("c")]
    assert (comp.rows, comp.cols) == (1, 1) and not comp.is_zero()


def test_e_r_bipath_threshold():
    bp = bipath_example(6)
    for r in range(0, 8):
        assert any(not c.is_zero() for c in e_r(bp.rho, r, bp.M).components) == (r <= 3)


def test_functoriality_on_morphisms(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    n = random_module(rng, chain4_rho.poset, GF2, 2)
    for f in hom_basis(m, n):
        lf = apply_L_mor(chain4_rho, 1, f)
        rf = apply_R_mor(chain4_rho, 1, f)
        # naturality against the eta family
        assert eta_id(chain4_rho, 1, n, "L").compose(lf) == f.compose(eta_id(chain4_rho, 1, m, "L"))
        assert rf.compose(eta_id(chain4_rho, 1, m, "R")) == eta_id(chain4_rho, 1, n, "R").compose(f)


def test_sharp_flat_round_trip(rng):
    for _ in range(5):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        app_r = apply_R(rho, 1, n)
        for g in hom_basis(m, app_r.module):
            assert flat(rho, 1, m, sharp(rho, 1, n, g)) == g
        app_l = apply_L(rho, 1, m)
        for f in hom_basis(app_l.module, n):
            assert sharp(rho, 1, n, flat(rho, 1, m, f)) == f


def test_sharp_zero(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    n = random_module(rng, chain4_rho.poset, GF2, 2)
    app_r = apply_R(chain4_rho, 1, n)
    z = ModuleMorphism.zero(m, app_r.module)
    assert all(c.is_zero() for c in sharp(chain4_rho, 1, n, z).components)


def test_chain_printed_transposes():
    ce = chain_example(2)
    rho = ce.rho
    one = Mat.eye(GF2, 1)
    z01 = Mat.zeros(GF2, 0, 1)
    rx = apply_R(rho, 1, ce.X).module
    rm = apply_R(rho, 1, ce.M).module
    f = ModuleMorphism(ce.M, rx, [one, one, z01, z01])
    g = ModuleMorphism(ce.X, rm, [one, one, one, Mat.zeros(GF2, 0, 0)])
    assert f.naturality_violations() == g.naturality_violations() == []
    fs = sharp(rho, 1, ce.X, f)
    gs = sharp(rho, 1, ce.M, g)
    # the printed mates: f# has components (0, 1, 1, 1) placed L_eps M -> X
    assert [not c.is_zero() for c in fs.components] == [False, True, True, False]
    assert [not c.is_zero() for c in gs.components] == [False, True, True, True]
    assert g.compose(fs) == e_r(rho, 1, ce.M)
    assert f.compose(gs) == e_r(rho, 1, ce.X)


def test_unit_counit_triangle_identities(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    u = unit(chain4_rho, 1, m)
    c = counit(chain4_rho, 1, m)
    app_l = apply_L(chain4_rho, 1, m)
    app_r = apply_R(chain4_rho, 1, m)
    # counit_L o L(unit) = id and R(counit) o unit_R = id
    lu = apply_L_mor(chain4_rho, 1, u)
    assert counit(chain4_rho, 1, app_l.module).compose(lu) == ModuleMorphism(
        app_l.module, app_l.module, [Mat.eye(GF2, d) for d in app_l.module.dims])
    rc = apply_R_mor(chain4_rho, 1, c)
    assert rc.compose(unit(chain4_rho, 1, app_r.module)) == ModuleMorphism(
        app_r.module, app_r.module, [Mat.eye(GF2, d) for d in app_r.module.dims])


def test_mate_of_eta_is_eta_R(rng):
    for _ in range(4):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        n = random_module(rng, p, GF2, 2)
        assert mate_of_eta_L(rho, 2, 1, n) == eta(rho, 2, 1, n, "R")


def test_mate_of_mu_is_mu_R(rng):
    for _ in range(3):
        p = random_forest_poset(rng, 4)
        rho = from_phi(random_phi(rng, p))
        n = random_module(rng, p, GF2, 2)
        for s, r in [(1, 1), (2, 1)]:
            assert mate_of_mu_L(rho, s, r, n) == mu(rho, s, r, n, "R")


def test_mu_factorization(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    for s, r in [(1, 1), (2, 1), (0, 2)]:
        assert tau(chain4_rho, s, r, m, "L").compose(kappa(chain4_rho, s, r, m, "L")) == mu(chain4_rho, s, r, m, "L")
        assert kappa(chain4_rho, s, r, m, "R").compose(tau(chain4_rho, s, r, m, "R")) == mu(chain4_rho, s, r, m, "R")


@pytest.mark.parametrize("direction", ["L", "R"])
def test_mu_zero_scale_reduces(chain4_rho, rng, direction):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    # L_0 applied on top of L_2 collapses along the iso to L_2; dually R_2
    # applied on top of R_0
    assert mu(chain4_rho, 0, 2, m, direction).is_iso()


@pytest.mark.parametrize("direction", ["L", "R"])
def test_eta_eta_id_and_mu_reject_a_bad_scale_order_or_side(chain4_rho, rng, direction):
    """eta needs s >= r on both sides, and eta, eta_id and mu know only the
    sides 'L' and 'R'."""
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    with pytest.raises(ValueError, match="eta needs s >= r"):
        eta(chain4_rho, 1, 2, m, direction)
    other = direction.lower()  # 'l' or 'r': not a side
    for call in (lambda: eta(chain4_rho, 2, 1, m, other), lambda: eta_id(chain4_rho, 1, m, other),
                 lambda: mu(chain4_rho, 1, 1, m, other)):
        with pytest.raises(ValueError, match="direction must be 'L' or 'R'"):
            call()


def test_mu_rank_against_fubini(chain4_rho):
    ce = chain_example(2)
    m = ce.M
    mu_11 = mu(ce.rho, 1, 1, m, "L")
    d = ce.poset.idx("d")
    I = nbhd_down_idx(ce.rho, d, Fraction(1))
    fam = {x: nbhd_down_idx(ce.rho, x, Fraction(1)) for x in I}
    rep = fubini_compare(m, I, fam)
    assert rep.iso  # chain: iterated colimit agrees with the union colimit
    comp = mu_11.components[d]
    assert rref(comp).rank == rref(rep.comparison).rank


def test_T_kappa_iso_on_diamond_free(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        assert kappa(rho, 1, 1, m, "L").is_iso()
        assert kappa(rho, 1, 1, m, "R").is_iso()


def test_kappa_fails_on_diamond(diamond, diamond_rho):
    kp = interval_module(diamond, diamond.elements, GF2)
    k = kappa(diamond_rho, 1, 1, kp, "L")
    assert not k.is_iso()
    comp = k.components[diamond.idx("d")]
    assert (comp.rows, comp.cols) == (1, 2)  # collapses a 2-dimensional iterated colimit


def test_T_zero_scale(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    t = apply_T(chain4_rho, 0, 2, m, "L")
    l = apply_L(chain4_rho, 2, m)
    assert t.module.dims == l.module.dims
    assert kappa(chain4_rho, 0, 2, m, "L").is_iso()


def test_theta_exists_at_c_rho(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    for s, r in [(1, 1), (2, 1)]:
        theta(chain4_rho, s, r, 2, m, "L")
        theta(chain4_rho, s, r, 2, m, "R")


def test_theta_rejects_small_c(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    with pytest.raises(IntermediateValueError):
        theta(chain4_rho, 1, 1, 0, m, "L")


def test_sigma_on_grid_diag(rng):
    g = FinitePoset.grid([3, 3])
    rho = rho_diag(g)
    m = random_module(rng, g, GF2, 2)
    # the discrete grid passes the intermediate-value check at one lattice step
    sg = sigma(rho, 1, 1, 1, m, "L")
    assert sg.source.dims == apply_L(rho, 3, m).module.dims
    sigma(rho, 1, 1, 1, m, "R")


def test_sigma_chain(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    sigma(chain4_rho, 1, 1, 2, m, "L")
    sigma(chain4_rho, 1, 1, 2, m, "R")


def test_im_ker_duality_and_vanishing(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        for r in [0, 1, 2]:
            kerm = ker_r(rho, r, m)
            imm = im_r(rho, r, m)
            assert (kerm.quotient.dims == m.dims) == (sum(imm.quotient.dims) == 0)


def test_erosion_zero_scale(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    res = erosion_E(chain4_rho, 0, m)
    assert is_isomorphic(res.sub.quotient, m).verdict == "yes"


def test_erosion_grid_dims():
    ge = grid_example()
    res = erosion_E(ge.rho, 1, ge.module)
    e = e_r(ge.rho, 1, ge.module)
    for i in range(len(ge.poset)):
        assert res.sub.quotient.dims[i] == rref(e.components[i]).rank


def test_erosion_subquotient_identity(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        erosion_E(rho, 1, m)  # raises if the identification fails


def random_mono_epi(rng: random.Random, m: PersistenceModule,
                    extra: PersistenceModule) -> Tuple[ModuleMorphism, ModuleMorphism]:
    """A canonical mono m -> m + extra and epi m + extra -> m, both twisted."""
    big = direct_sum(m, extra)
    mono_comps = []
    epi_comps = []
    for i in range(len(m.poset)):
        dm, dbig = m.dims[i], big.dims[i]
        inc = Mat.zeros(m.field, dbig, dm)
        prj = Mat.zeros(m.field, dm, dbig)
        for k in range(dm):
            inc.a[k, k] = m.field.one()
            prj.a[k, k] = m.field.one()
        mono_comps.append(inc)
        epi_comps.append(prj)
    return (ModuleMorphism(m, big, mono_comps), ModuleMorphism(big, m, epi_comps))


def test_erosion_preserves_mono_epi(rng):
    for _ in range(5):
        p = random_forest_poset(rng, 4)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        x = random_module(rng, p, GF2, 1)
        mono, epi = random_mono_epi(rng, m, x)
        assert mono.naturality_violations() == epi.naturality_violations() == []
        for f, check in [(mono, "mono"), (epi, "epi")]:
            ea = erosion_E(rho, 1, f.source)
            eb = erosion_E(rho, 1, f.target)
            rf = apply_R_mor(rho, 1, f)
            for i in range(len(p)):
                pushed = rf.components[i] @ ea.sub.m1[i]
                comp = solve(eb.sub.m1[i], pushed)
                assert comp is not None
                if check == "mono":
                    assert rref(comp).rank == comp.cols
                else:
                    assert rref(comp).rank == comp.rows


def test_erosion_subquotient_chain(rng):
    # gamma: L_s -> L_r -> M -> R_r has image H with a mono H -> E_r, and the
    # further comparison into R_s maps H onto E_s: the epi-mono pair realizing
    # the larger-scale erosion as a subquotient of the smaller-scale one
    p = random_forest_poset(rng, 5)
    rho = from_phi(random_phi(rng, p))
    m = random_module(rng, p, GF2, 2)
    s, r = 2, 1
    gamma = e_r(rho, r, m).compose(eta(rho, s, r, m, "L"))  # L_s M -> R_r M
    h = submodule_image(gamma)
    es = erosion_E(rho, s, m)
    er = erosion_E(rho, r, m)
    comparison = eta(rho, s, r, m, "R")  # R_r M -> R_s M
    for i in range(len(p)):
        # mono: H sits inside E_r pointwise
        assert solve(er.sub.m1[i], h.m1[i]) is not None
        # epi: pushing H along the matching comparison covers E_s exactly
        pushed = comparison.components[i] @ h.m1[i]
        into_es = solve(es.sub.m1[i], pushed)
        assert into_es is not None
        assert rref(into_es).rank == es.sub.quotient.dims[i]


def test_im_compose_subfunctor(rng):
    p = random_forest_poset(rng, 5)
    rho = from_phi(random_phi(rng, p))
    m = random_module(rng, p, GF2, 2)
    im1 = im_r(rho, 1, m)
    inner = im_r(rho, 1, im1.quotient)
    ambient = [im1.m1[i] @ inner.m1[i] for i in range(len(p))]
    im2 = im_r(rho, 2, m)
    for i in range(len(p)):
        assert solve(im2.m1[i], ambient[i]) is not None


def test_xi_pullback_identity(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    ident = OrderMap(chain4_rho.poset, chain4_rho.poset, {e: e for e in chain4_rho.poset.elements})
    xl = xi_pullback(ident, chain4_rho, 1, m, "L")
    assert xl.is_iso()
    xr = xi_pullback(ident, chain4_rho, 1, m, "R")
    assert xr.is_iso()


def test_xi_pullback_subchain(chain4, chain4_rho, rng):
    m = random_module(rng, chain4, GF2, 2)
    sub = FinitePoset.from_covers(["a", "c"], [("a", "c")])
    incl = OrderMap(sub, chain4, {"a": "a", "c": "c"})
    xl = xi_pullback(incl, chain4_rho, 1, m, "L")
    # canonical comparisons: injective out of the restricted colimit here
    for comp in xl.components:
        assert rref(comp).rank == comp.cols
    xi_pullback(incl, chain4_rho, 1, m, "R")


def test_xi_pullback_constant(chain4, chain4_rho, rng):
    m = random_module(rng, chain4, GF2, 2)
    const = OrderMap(chain4, chain4, {e: "a" for e in chain4.elements})
    xr = xi_pullback(const, chain4_rho, 1, m, "R")
    # target: matching of the constant module for the pulled-back (zero) heights
    assert validate_module(xr.target).valid


def test_functor_values_die_with_their_module():
    ge = grid_example()
    rho, m = ge.rho, ge.module
    del ge
    values = apply_R(rho, 1, m), e_r(rho, 1, m), im_r(rho, 1, m)
    refs = [weakref.ref(v) for v in values]
    assert apply_R(rho, 1, m) is values[0]  # memoized on m
    del m, values
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_equal_modules_get_equal_values_but_do_not_share_them():
    rho = grid_example().rho
    m1, m2 = grid_example().module, grid_example().module
    assert m1 is not m2 and m1.key() == m2.key()
    for apply in (apply_L, apply_R):
        a1, a2 = apply(rho, 1, m1), apply(rho, 1, m2)
        assert a1 is not a2 and a1.module is not a2.module
        assert a1.module.key() == a2.module.key() and a1.data == a2.data
    e1, e2 = e_r(rho, 1, m1), e_r(rho, 1, m2)
    assert e1 is not e2 and e1 == e2
    for sub in (im_r, ker_r):
        s1, s2 = sub(rho, 1, m1), sub(rho, 1, m2)
        assert s1 is not s2 and s1.parent is m1 and s2.parent is m2
        assert s1.m1 == s2.m1

    # the same holds for two equal-content height functions on one module:
    # functor values are keyed by the rho object, not its content
    twin = HeightDiff(rho.poset, dict(rho.values))
    for apply in (apply_L, apply_R):
        a1, a2 = apply(rho, 1, m1), apply(twin, 1, m1)
        assert a1 is not a2 and a1.module is not a2.module
        assert a1.module.key() == a2.module.key() and a1.data == a2.data
    e1, e2 = e_r(rho, 1, m1), e_r(twin, 1, m1)
    assert e1 is not e2 and e1 == e2


def _strata_sharing_a_cover(name):
    """(rho, m, r, s): two scales in different strata of rho, with a module.

    On a grid under rho_diag two strata share only empty neighborhoods, so the
    chain with heights 0, 1, 3, 5 supplies a cover whose neighborhoods are
    nonempty and equal at r = 1 and s = 2."""
    rng = random.Random(11)
    if name == "grid":
        G = FinitePoset.grid([4, 4])
        return rho_diag(G), random_module(rng, G, GF2, 2), Fraction(1), Fraction(2)
    chain = FinitePoset.chain(["a", "b", "c", "d"])
    rho = from_phi(HeightFunction(chain, dict(zip("abcd", map(Fraction, (0, 1, 3, 5))))))
    return rho, random_module(rng, chain, GF2, 2), Fraction(1), Fraction(2)


@pytest.mark.parametrize("name", ["grid", "chain"])
@pytest.mark.parametrize("direction", ["L", "R"])
def test_strata_with_equal_neighborhoods_share_maps(name, direction):
    """Where a cover's neighborhoods agree at r < s (in different strata), the
    functor values at r and s hold one structure-map object, which equals a
    fresh build and dies with its module; the eta components at its endpoint
    equal a fresh factorization."""
    rho, m, r, s = _strata_sharing_a_cover(name)
    assert level(rho, r) != level(rho, s)
    nbhd = nbhd_down_idx if direction == "L" else nbhd_up_idx
    apply = apply_L if direction == "L" else apply_R
    a, b = next((a, b) for a, b in m.poset.covers
                if all(nbhd(rho, x, r) == nbhd(rho, x, s) for x in (a, b))
                and (name == "grid" or nbhd(rho, a, r) and nbhd(rho, b, r)))
    fresh = {x: _cone(m, nbhd(rho, x, r), direction == "L") for x in (a, b)}
    at_r, at_s = apply(rho, r, m).module.maps[(a, b)], apply(rho, s, m).module.maps[(a, b)]
    assert at_s is at_r
    assert at_r == (induced(fresh[a], fresh[b]) if direction == "L" else induced(fresh[b], fresh[a]))
    comp_r, comp_s = (eta_id(rho, x, m, direction).components[a] for x in (r, s))
    legs = {x: m.map_for_idx(x, a) if direction == "L" else m.map_for_idx(a, x)
            for x in fresh[a].nodes}
    assert comp_r == comp_s == factor(fresh[a], legs, m.dims[a])
    ref = weakref.ref(at_r.a)
    del m, at_r, at_s
    gc.collect()
    assert ref() is None


def test_scales_are_exact_numbers_at_least_zero():
    """`height.level` rejects r < 0 for every function that takes a scale, and
    the functions that add or compare scales read "1/2" as the number 1/2."""
    ce = chain_example(2, GF2)
    rho, m, half = ce.rho, ce.M, Fraction(1, 2)
    for call in (lambda: apply_L(rho, -half, m), lambda: apply_T(rho, 1, -1, m, "L"),
                 lambda: eta(rho, 1, -half, m, "L"), lambda: nbhd_down_idx(rho, 0, -1),
                 lambda: nbhd_iterated(rho, rho.poset.elements[0], -1, 2)):
        with pytest.raises(ValueError, match="scale parameter must be >= 0"):
            call()
    assert eta(rho, "1", "1/2", m, "L") == eta(rho, 1, half, m, "L")
    assert mu(rho, "1", "1/2", m, "L") == mu(rho, 1, half, m, "L")
    assert tau(rho, "1", "1/2", m, "R") == tau(rho, 1, half, m, "R")
