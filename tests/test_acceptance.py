"""Acceptance suite: one test per shipped criterion, each printing a pass/fail
line.  Every expected value is exact; runtime bounds are wall-clock."""

import itertools
import random
import time
from fractions import Fraction

from hipm.erosion import d_en, en_enumerate
from hipm.exactlin import GF2
from hipm.fixtures import bipath_example, chain_example, grid_example
from hipm.functors import (
    apply_L,
    apply_R,
    e_r,
    erosion_E,
    eta,
    kappa,
    sharp,
)
from hipm.height import (
    HeightFunction,
    abs_diff_inf,
    c_rho,
    check_cip,
    distortion,
    ext_add,
    from_phi,
    level,
    pullback_rho,
    rho_diag,
    strata,
)
from hipm.interleave import check_certificate, distance, find_interleaving, shift_oracle_distance
from hipm.kan import colim_over, lim_over
from hipm.pmod import direct_sum, hom_basis, interval_module, is_isomorphic, pullback_module
from hipm.poset import FinitePoset, OrderMap, check_galois_insertion
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from paper_statements import check_universal, en_interleaving_certificate, flat, mate_of_eta_L


def _report(number: int, description: str):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:02d}: PASS - {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


@_report(1, "grid example: printed latching/matching values and decompositions")
def test_criterion_01_grid_example():
    t0 = time.monotonic()
    ge = grid_example(GF2)
    aL = apply_L(ge.rho, 1, ge.module)
    aR = apply_R(ge.rho, 1, ge.module)
    for i, e in enumerate(ge.poset.elements):
        assert aL.module.dims[i] == ge.printed_L1_dims[e]
        assert aR.module.dims[i] == ge.printed_R1_dims[e]
    assert aL.module.dims[ge.poset.idx("v_2_2")] == 0
    L_dec = direct_sum(
        direct_sum(interval_module(ge.poset, ge.J1, GF2),
                   interval_module(ge.poset, ["v_1_2"], GF2)),
        interval_module(ge.poset, ["v_2_1"], GF2),
    )
    R_dec = direct_sum(
        direct_sum(interval_module(ge.poset, ge.J2, GF2),
                   interval_module(ge.poset, ge.J3, GF2)),
        interval_module(ge.poset, ["v_3_0"], GF2),
    )
    assert is_isomorphic(aL.module, L_dec).verdict == "yes"
    assert is_isomorphic(aR.module, R_dec).verdict == "yes"
    assert time.monotonic() - t0 < 1.0


@_report(2, "chain example: distances (0, 0, C) with a proven middle stratum")
def test_criterion_02_chain_example():
    t0 = time.monotonic()
    ce = chain_example(2, GF2)
    d_mx = distance(ce.rho, ce.M, ce.X)
    d_xn = distance(ce.rho, ce.X, ce.N)
    d_mn = distance(ce.rho, ce.M, ce.N)
    assert d_mx.distance == 0 and not d_mx.attained
    assert d_xn.distance == 0 and not d_xn.attained
    assert d_mn.distance == 2 and d_mn.decided
    # the stratum (1, 2] is a proven exhaustive "no"
    res = find_interleaving(ce.rho, 2, ce.M, ce.N)
    assert res.verdict == "no"
    assert d_mn.strata[level(ce.rho, Fraction(3, 2))].verdict.replace("implied-", "") == "no"
    assert d_mn.distance > ext_add(d_mx.distance, d_xn.distance)  # triangle failure
    assert time.monotonic() - t0 < 5.0


@_report(3, "bipath: hom vanishing, erosion threshold, distance G/2, defect violation")
def test_criterion_03_bipath():
    t0 = time.monotonic()
    bp = bipath_example(8, GF2)
    M = bp.M
    M1 = apply_L(bp.rho, 1, M).module
    N = apply_L(bp.rho, 1, M1).module
    for st in strata(bp.rho):
        if st.rep < 8:
            assert len(hom_basis(apply_L(bp.rho, st.rep, M).module, N)) == 0
        assert any(not c.is_zero() for c in e_r(bp.rho, st.rep, M).components) == (st.rep <= 4)
    d_mn = distance(bp.rho, M, N)
    assert d_mn.distance == 4 and d_mn.decided
    d_mm1 = distance(bp.rho, M, M1)
    d_m1n = distance(bp.rho, M1, N)
    c = c_rho(bp.rho)
    assert c.value == 1
    assert d_mn.distance > ext_add(ext_add(d_mm1.distance, d_m1n.distance), c.value)
    assert time.monotonic() - t0 < 30.0


@_report(4, "diagonal recovery: stratified search equals the literal shift oracle")
def test_criterion_04_shift_oracle():
    rng = random.Random(404)
    g = FinitePoset.grid([3, 3])
    rho = rho_diag(g)
    for _ in range(50):
        m = random_module(rng, g, GF2, 2)
        n = random_module(rng, g, GF2, 2)
        assert distance(rho, m, n).distance == shift_oracle_distance(m, n)


@_report(5, "adjunction: transpose round trips on full Hom bases plus the mate identity")
def test_criterion_05_adjunction():
    rng = random.Random(505)
    for _ in range(100):
        p = random_poset(rng, rng.randint(2, 8))
        rho = from_phi(random_phi(rng, p))
        a = random_module(rng, p, GF2, 2)
        b = random_module(rng, p, GF2, 2)
        r = Fraction(rng.randint(0, 3))
        app_r = apply_R(rho, r, b)
        for g in hom_basis(a, app_r.module):
            assert flat(rho, r, a, sharp(rho, r, b, g)) == g
        app_l = apply_L(rho, r, a)
        for f in hom_basis(app_l.module, b):
            assert sharp(rho, r, b, flat(rho, r, a, f)) == f
        assert mate_of_eta_L(rho, r + 1, r, b) == eta(rho, r + 1, r, b, "R")


@_report(6, "connected intersections: kappa iso on diamond-free, explicit diamond failure")
def test_criterion_06_cip_fubini():
    rng = random.Random(606)
    for _ in range(50):
        p = random_forest_poset(rng, rng.randint(2, 6))
        rho = from_phi(random_phi(rng, p))
        assert check_cip(rho).holds is True
        m = random_module(rng, p, GF2, 2)
        reps = [st.rep for st in strata(rho)]
        s = rng.choice(reps)
        r = rng.choice(reps)
        assert kappa(rho, s, r, m, "L").is_iso()
        assert kappa(rho, s, r, m, "R").is_iso()
    diamond = FinitePoset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    drho = from_phi(HeightFunction(diamond, {"a": Fraction(0), "b": Fraction(1),
                                             "c": Fraction(1), "d": Fraction(2)}))
    rep = check_cip(drho)
    assert rep.holds is False
    assert rep.witness == ("d", "a", Fraction(1), Fraction(1))
    assert rep.witness_set == ("b", "c")
    kp = interval_module(diamond, diamond.elements, GF2)
    assert not kappa(drho, 1, 1, kp, "L").is_iso()


@_report(7, "intermediate-value constant equals the largest cover gap")
def test_criterion_07_c_rho():
    rng = random.Random(707)
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 10))
        phi = random_phi(rng, p, max_step=4, denominator=2)
        rho = from_phi(phi)
        gap = max((phi.phi[p.elements[b]] - phi.phi[p.elements[a]]
                   for a, b in p.covers), default=Fraction(0))
        res = c_rho(rho)
        assert res.value == gap and res.attained
    for C in [Fraction(2), Fraction(7, 2), Fraction(5)]:
        ce = chain_example(C, GF2)
        assert c_rho(ce.rho).value == C


@_report(8, "stability: pullback and 1-Lipschitz functional bounds, insertion sandwich")
def test_criterion_08_stability():
    rng = random.Random(808)
    for _ in range(50):
        p = random_forest_poset(rng, 6)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        d = distance(rho, m, n)
        assert d.decided
        size = rng.randint(1, len(p))
        sub_idx = sorted(rng.sample(range(len(p)), size))
        els = [p.elements[i] for i in sub_idx]
        q = FinitePoset.from_covers(
            els,
            [(els[i], els[j]) for i in range(size) for j in range(size)
             if i != j and p.leq[sub_idx[i], sub_idx[j]]],
        )
        f = OrderMap(q, p, {e: e for e in els})
        dq = distance(pullback_rho(f, rho), pullback_module(f, m), pullback_module(f, n))
        assert dq.decided and dq.distance <= d.distance
    for _ in range(50):
        p = random_forest_poset(rng, 5)
        r1 = from_phi(random_phi(rng, p))
        r2 = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        d1 = distance(r1, m, n)
        d2 = distance(r2, m, n)
        assert d1.decided and d2.decided
        assert abs_diff_inf(d1.distance, d2.distance) <= distortion(r1, r2)
    # insertion pairs: chain into a random refinement
    for _ in range(10):
        n_small = rng.randint(2, 4)
        small = [f"p{i}" for i in range(n_small)]
        big, proj_map = [], {}
        for i, e in enumerate(small):
            big.append(e)
            proj_map[e] = e
            if i + 1 < n_small:
                for h in range(rng.randint(0, 2)):
                    mid = f"m{i}_{h}"
                    big.append(mid)
                    proj_map[mid] = e
        P = FinitePoset.chain(small)
        Pp = FinitePoset.chain(big)
        iota = OrderMap(P, Pp, {e: e for e in small})
        pi = OrderMap(Pp, P, proj_map)
        assert check_galois_insertion(iota, pi).valid
        phi_p = random_phi(rng, Pp, max_step=2)
        rho_p = from_phi(phi_p)
        rho = pullback_rho(iota, rho_p)
        delta = distortion(rho_p, pullback_rho(pi, rho))
        m = random_module(rng, P, GF2, 2)
        n = random_module(rng, P, GF2, 2)
        d = distance(rho, m, n).distance
        dp = distance(rho_p, pullback_module(pi, m), pullback_module(pi, n)).distance
        assert d <= dp <= ext_add(d, delta)


@_report(9, "relaxed triangle inequality with the intermediate-value defect")
def test_criterion_09_relaxed_triangle():
    rng = random.Random(909)
    for _ in range(30):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        c = c_rho(rho).value
        m = random_module(rng, p, GF2, 2)
        x = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        d_mn = distance(rho, m, n)
        d_mx = distance(rho, m, x)
        d_xn = distance(rho, x, n)
        assert d_mn.decided and d_mx.decided and d_xn.decided
        assert d_mn.distance <= ext_add(ext_add(d_mx.distance, d_xn.distance), c)


@_report(10, "erosion: subquotient identity, neighborhood interleavings, sandwich")
def test_criterion_10_erosion():
    rng = random.Random(1010)
    for _ in range(50):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p, max_step=2))
        m = random_module(rng, p, GF2, 2)
        r = Fraction(rng.randint(0, 3))
        erosion_E(rho, r, m)  # raises unless E ~ im/(im & ker)
    for _ in range(6):
        p = random_forest_poset(rng, 4)
        rho = from_phi(random_phi(rng, p, max_step=2))
        m = random_module(rng, p, GF2, 2)
        enum = en_enumerate(rho, 1, m, budget=4000)
        for sq in enum.members_with(enum.vectors):
            en_p, en_q = en_interleaving_certificate(rho, 1, m, sq)
            assert check_certificate(rho, 1, m, sq.quotient, en_p, en_q)
            assert find_interleaving(rho, 1, m, sq.quotient).verdict == "yes"
    decided = 0
    trials = 0
    while decided < 20 and trials < 80:
        trials += 1
        p = random_forest_poset(rng, 4)
        rho = from_phi(random_phi(rng, p, max_step=2))
        assert check_cip(rho).holds is True
        c = c_rho(rho).value
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        den = d_en(rho, m, n, budget=20000)
        dd = distance(rho, m, n)
        if not (den.decided and dd.decided):
            continue
        decided += 1
        assert den.distance <= dd.distance
        from hipm.height import INF

        if den.distance is INF:
            assert dd.distance is INF
        else:
            assert dd.distance <= ext_add(2 * den.distance, c)
    assert decided >= 20


@_report(11, "universal-property oracle on every small subposet")
def test_criterion_11_universal_oracle():
    rng = random.Random(1111)
    for _ in range(200):
        p = random_poset(rng, 5)
        m = random_module(rng, p, GF2, 2)
        for k in range(len(p) + 1):
            for subset in itertools.combinations(range(len(p)), k):
                assert check_universal(m, list(subset), colim_over(m, list(subset)))
                assert check_universal(m, list(subset), lim_over(m, list(subset)))
