from fractions import Fraction

from hipm.exactlin import GF2, QQ, Mat
from hipm.fixtures import chain_example
from hipm.functors import apply_L, apply_R, e_r
from hipm.height import (
    INF,
    HeightDiff,
    abs_diff_inf,
    c_rho,
    distortion,
    ext_add,
    from_phi,
    level,
    pullback_rho,
    rho_diag,
    strata,
)
from hipm.interleave import check_certificate, distance, find_interleaving, shift_oracle_distance
from hipm.pmod import ModuleMorphism, interval_module, pullback_module, zero_module
from hipm.poset import FinitePoset, OrderMap
from hipm.randgen import random_forest_poset, random_module, random_phi
from paper_statements import dominates_diagonal, flat, rho_strict


def test_certificate_zero_pair(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    n = zero_module(chain4_rho.poset, GF2)
    rep = Fraction(6)  # top stratum: all neighborhoods empty
    p = ModuleMorphism.zero(m, apply_R(chain4_rho, rep, n).module)
    q = ModuleMorphism.zero(n, apply_R(chain4_rho, rep, m).module)
    em = e_r(chain4_rho, rep, m)
    ok = check_certificate(chain4_rho, rep, m, n, p, q)
    assert ok == all(c.is_zero() for c in em.components)


def test_chain_certificates():
    ce = chain_example(2)
    rho = ce.rho
    one = Mat.eye(GF2, 1)
    z = Mat.zeros(GF2, 0, 1)
    rx = apply_R(rho, 1, ce.X).module
    rm = apply_R(rho, 1, ce.M).module
    f = ModuleMorphism(ce.M, rx, [one, one, z, z])
    g = ModuleMorphism(ce.X, rm, [one, one, one, Mat.zeros(GF2, 0, 0)])
    assert check_certificate(rho, 1, ce.M, ce.X, f, g)
    rn3 = apply_R(rho, 3, ce.N).module
    rm3 = apply_R(rho, 3, ce.M).module
    u = ModuleMorphism(ce.M, rn3, [Mat.zeros(GF2, 0, 1)] * 4)
    v = ModuleMorphism(ce.N, rm3, [one, one, Mat.zeros(GF2, 0, 0), Mat.zeros(GF2, 0, 0)])
    assert check_certificate(rho, 3, ce.M, ce.N, u, v)


def test_find_self_interleaving(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    for st in strata(chain4_rho)[1:3]:
        assert find_interleaving(chain4_rho, st.rep, m, m).verdict == "yes"


def test_find_no_is_exhaustive():
    ce = chain_example(2)
    res = find_interleaving(ce.rho, 2, ce.M, ce.N)
    assert res.verdict == "no"
    assert res.candidates_tried == 2 ** len(
        __import__("hipm.pmod", fromlist=["hom_basis"]).hom_basis(
            ce.M, apply_R(ce.rho, 2, ce.N).module
        )
    )


def test_interleaved_with_latching_and_matching(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    r = Fraction(1)
    lr = apply_L(chain4_rho, r, m).module
    rr = apply_R(chain4_rho, r, m).module
    assert find_interleaving(chain4_rho, r, m, lr).verdict == "yes"
    assert find_interleaving(chain4_rho, r, m, rr).verdict == "yes"
    # the canonical pair for the matching side: p = (e_r)^flat, q = id
    p = flat(chain4_rho, r, m, e_r(chain4_rho, r, m).compose(
        ModuleMorphism(lr, lr, [Mat.eye(GF2, d) for d in lr.dims])))
    q = ModuleMorphism(rr, rr, [Mat.eye(GF2, d) for d in rr.dims])
    assert check_certificate(chain4_rho, r, m, rr, p, q)


def test_budget_unknown(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    n = random_module(rng, chain4_rho.poset, GF2, 2)
    res = find_interleaving(chain4_rho, 1, m, n, budget=1)
    assert res.verdict in ("yes", "unknown")  # at most one candidate inspected
    assert res.candidates_tried <= 1


def test_distance_chain_family():
    ce = chain_example(2)
    d_mx = distance(ce.rho, ce.M, ce.X)
    d_xn = distance(ce.rho, ce.X, ce.N)
    d_mn = distance(ce.rho, ce.M, ce.N)
    assert (d_mx.distance, d_mx.attained) == (0, False)
    assert (d_xn.distance, d_xn.attained) == (0, False)
    assert (d_mn.distance, d_mn.attained) == (2, False)
    assert d_mn.strata[level(ce.rho, 2)].verdict.replace("implied-", "") == "no"
    assert d_mn.strata[level(ce.rho, Fraction(5, 2))].verdict.replace("implied-", "") == "yes"
    assert d_mn.distance > ext_add(d_mx.distance, d_xn.distance)  # triangle failure


def test_distance_self_attained(chain4_rho, rng):
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    rep = distance(chain4_rho, m, m)
    assert rep.distance == 0 and rep.attained and rep.decided


def test_distance_symmetry(chain4_rho, rng):
    for _ in range(5):
        m = random_module(rng, chain4_rho.poset, GF2, 2)
        n = random_module(rng, chain4_rho.poset, GF2, 2)
        assert distance(chain4_rho, m, n).distance == distance(chain4_rho, n, m).distance


def test_distance_infinite():
    # strict heights: no finite scale ever merges distinct interval supports
    p = FinitePoset.chain(["a", "b"])
    rho = rho_strict(p)
    m = interval_module(p, ["a", "b"], GF2)
    n = interval_module(p, ["a"], GF2)
    rep = distance(rho, m, n)
    assert rep.distance == 0 or rep.distance is INF or rep.decided
    # same module: still zero
    assert distance(rho, m, m).distance == 0


def test_stratum_constancy(chain4_rho, rng):
    # verdicts agree at several sample scales inside one stratum
    m = random_module(rng, chain4_rho.poset, GF2, 2)
    n = random_module(rng, chain4_rho.poset, GF2, 2)
    for st in strata(chain4_rho)[1:4]:
        samples = [st.rep]
        if st.hi is not None:
            width = st.hi - st.lo
            samples += [st.lo + width / 3, st.lo + width * 2 / 3]
        else:
            samples += [st.lo + 5, st.lo + 100]
        verdicts = {find_interleaving(chain4_rho, r, m, n).verdict for r in samples}
        assert len(verdicts) == 1


def test_monotone_in_rho(rng):
    for _ in range(5):
        p = random_forest_poset(rng, 5)
        phi = random_phi(rng, p)
        rho2 = from_phi(phi)
        rho1 = HeightDiff(p, {k: v / 2 for k, v in rho2.values.items()})
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        assert distance(rho1, m, n).distance <= distance(rho2, m, n).distance


def test_pullback_stability(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 6)
        rho = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        d = distance(rho, m, n).distance
        sub_idx = sorted(rng.sample(range(len(p)), 4))
        els = [p.elements[i] for i in sub_idx]
        q = FinitePoset.from_covers(
            els,
            [(els[i], els[j]) for i in range(len(els)) for j in range(len(els))
             if i != j and p.leq[sub_idx[i], sub_idx[j]]],
        )
        f = OrderMap(q, p, {e: e for e in els})
        dq = distance(pullback_rho(f, rho), pullback_module(f, m), pullback_module(f, n)).distance
        assert dq <= d


def test_functional_stability(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 5)
        r1 = from_phi(random_phi(rng, p))
        r2 = from_phi(random_phi(rng, p))
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        d1 = distance(r1, m, n).distance
        d2 = distance(r2, m, n).distance
        assert abs_diff_inf(d1, d2) <= distortion(r1, r2)


def test_relaxed_triangle_on_diamond_free(rng):
    for _ in range(6):
        p = random_forest_poset(rng, 5)
        rho = from_phi(random_phi(rng, p))
        c = c_rho(rho).value
        m = random_module(rng, p, GF2, 2)
        x = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        dmn = distance(rho, m, n).distance
        bound = ext_add(ext_add(distance(rho, m, x).distance,
                                distance(rho, x, n).distance), c)
        assert dmn <= bound


def test_transported_relaxed_triangle(rng):
    # defect c(rho1) + 3 delta(rho1, rho2) transfers to rho2
    for _ in range(4):
        p = random_forest_poset(rng, 4)
        r1 = from_phi(random_phi(rng, p))
        r2 = from_phi(random_phi(rng, p))
        defect = ext_add(c_rho(r1).value, 3 * distortion(r1, r2)
                         if distortion(r1, r2) is not INF else INF)
        m = random_module(rng, p, GF2, 2)
        x = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        dmn = distance(r2, m, n).distance
        bound = ext_add(ext_add(distance(r2, m, x).distance,
                                distance(r2, x, n).distance), defect)
        assert dmn <= bound


def test_galois_sandwich(rng):
    P = FinitePoset.chain(["p0", "p1", "p2"])
    Pp = FinitePoset.chain(["q0", "qh", "q1", "q2"])
    iota = OrderMap(P, Pp, {"p0": "q0", "p1": "q1", "p2": "q2"})
    pi = OrderMap(Pp, P, {"q0": "p0", "qh": "p0", "q1": "p1", "q2": "p2"})
    from hipm.poset import check_galois_insertion
    from hipm.height import HeightFunction

    assert check_galois_insertion(iota, pi).valid
    phi = HeightFunction(Pp, {"q0": Fraction(0), "qh": Fraction(1, 2),
                              "q1": Fraction(1), "q2": Fraction(2)})
    rho_p = from_phi(phi)
    rho = pullback_rho(iota, rho_p)
    delta = distortion(rho_p, pullback_rho(pi, rho))
    for _ in range(5):
        m = random_module(rng, P, GF2, 2)
        n = random_module(rng, P, GF2, 2)
        d = distance(rho, m, n).distance
        dp = distance(rho_p, pullback_module(pi, m), pullback_module(pi, n)).distance
        assert d <= dp <= ext_add(d, delta)


def test_diagonal_domination(rng):
    g = FinitePoset.grid([3, 2])
    rho2 = HeightDiff(g, {k: 2 * v for k, v in rho_diag(g).values.items()})
    assert dominates_diagonal(rho2, g)
    for _ in range(4):
        m = random_module(rng, g, GF2, 2)
        n = random_module(rng, g, GF2, 2)
        d_i = distance(rho_diag(g), m, n).distance
        d_rho = distance(rho2, m, n).distance
        assert d_i <= d_rho


def test_shift_oracle_interior_dims(rng):
    g = FinitePoset.grid([4, 4])
    rho = rho_diag(g)
    m = random_module(rng, g, GF2, 2)
    ar = apply_R(rho, 1, m)
    by_coord = {c: i for i, c in g.coords.items()}
    for i, c in g.coords.items():
        tgt = (c[0] + 1, c[1] + 1)
        if tgt in by_coord:
            assert ar.module.dims[i] == m.dims[by_coord[tgt]]


def test_shift_oracle_agreement(rng):
    g = FinitePoset.grid([3, 3])
    rho = rho_diag(g)
    for _ in range(8):
        m = random_module(rng, g, GF2, 2)
        n = random_module(rng, g, GF2, 2)
        assert distance(rho, m, n).distance == shift_oracle_distance(m, n)


def test_rational_never_claims_no(chain4_rho):
    p = chain4_rho.poset
    m = interval_module(p, ["a", "b", "c", "d"], QQ)
    n = interval_module(p, ["a", "b"], QQ)
    res = find_interleaving(chain4_rho, 1, m, n, budget=64)
    assert res.verdict in ("yes", "unknown")
