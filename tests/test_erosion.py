from fractions import Fraction

import pytest

from hipm.erosion import d_en, en_enumerate
from hipm.exactlin import GF2
from hipm.fixtures import chain_example
from hipm.functors import erosion_E, erosion_subquotient, im_r, ker_r
from hipm.height import HeightFunction, c_rho, ext_add, from_phi
from hipm.interleave import check_certificate, distance, find_interleaving
from hipm.pmod import (
    ModuleMorphism,
    interval_module,
    is_isomorphic,
    submodule_from_bases,
    submodule_full,
    submodule_intersection,
    submodule_zero,
)
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi
from paper_statements import (ErosionNeighborhoodError, en_canonical_Q, en_construct,
                              en_interleaving_certificate, en_mediate, morphism_preimage)


@pytest.fixture
def unit_chain():
    p = FinitePoset.chain(["a", "b", "c", "d"])
    rho = from_phi(HeightFunction(p, {e: Fraction(i) for i, e in enumerate(p.elements)}))
    return p, rho


def test_en_construct_trivial_membership(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    sq = en_construct(rho, 1, m, submodule_full(m), submodule_zero(m))
    assert sq.quotient.dims == m.dims
    assert is_isomorphic(sq.quotient, m).verdict == "yes"


def test_en_construct_erosion_member(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    imr = im_r(rho, 1, m)
    kerr = ker_r(rho, 1, m)
    sq = en_construct(rho, 1, m, imr, submodule_intersection(imr, kerr))
    er = erosion_E(rho, 1, m)
    assert is_isomorphic(sq.quotient, er.sub.quotient).verdict == "yes"


def test_en_construct_containment_violation(unit_chain):
    p, rho = unit_chain
    m = interval_module(p, ["a", "b", "c", "d"], GF2)
    # M1 = 0 cannot contain the latching image at higher points
    with pytest.raises(ErosionNeighborhoodError, match="latching image"):
        en_construct(rho, 1, m, submodule_zero(m), submodule_zero(m))


def submodules(sq):
    """M1 and M2 of a subquotient, built as submodules of its parent."""
    return submodule_from_bases(sq.parent, sq.m1), submodule_from_bases(sq.parent, sq.m2)


def assert_neighborhoods(rho, r, m, n, qm, qn):
    """Both sides of en_canonical_Q pass en_construct's erosion-neighborhood checks."""
    for base, sq in ((m, qm), (n, qn)):
        en_construct(rho, r, base, *submodules(sq))


def test_en_canonical_Q_identity(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    res = find_interleaving(rho, 0, m, m)
    assert res.verdict == "yes"
    qm, qn = en_canonical_Q(rho, 0, m, m, res.p, res.q)
    assert_neighborhoods(rho, 0, m, m, qm, qn)
    assert is_isomorphic(qm.quotient, m).verdict == "yes"
    assert is_isomorphic(qn.quotient, m).verdict == "yes"


def test_en_canonical_Q_chain_certificate():
    ce = chain_example(2)
    res = find_interleaving(ce.rho, 3, ce.M, ce.N)
    assert res.verdict == "yes"
    qm, qn = en_canonical_Q(ce.rho, 3, ce.M, ce.N, res.p, res.q)
    assert_neighborhoods(ce.rho, 3, ce.M, ce.N, qm, qn)
    # both realizations carry the same isomorphism class
    assert is_isomorphic(qm.quotient, qn.quotient).verdict == "yes"
    # and the class is 3-interleaved with both endpoints
    assert find_interleaving(ce.rho, 3, ce.M, qm.quotient).verdict == "yes"
    assert find_interleaving(ce.rho, 3, ce.N, qn.quotient).verdict == "yes"


def test_en_canonical_Q_rejects_a_non_interleaving():
    # M and X are 1-interleaved, and e_1 of M is nonzero, so a zero p breaks the pair
    ce = chain_example(2)
    res = find_interleaving(ce.rho, 1, ce.M, ce.X)
    qm, qx = en_canonical_Q(ce.rho, 1, ce.M, ce.X, res.p, res.q)
    assert_neighborhoods(ce.rho, 1, ce.M, ce.X, qm, qx)
    zero = ModuleMorphism.zero(res.p.source, res.p.target)
    with pytest.raises(ErosionNeighborhoodError, match="not an interleaving"):
        en_canonical_Q(ce.rho, 1, ce.M, ce.X, zero, res.q)


def test_en_canonical_Q_zero_modules(unit_chain):
    p, rho = unit_chain
    from hipm.pmod import zero_module

    z = zero_module(p, GF2)
    res = find_interleaving(rho, 1, z, z)
    qm, qn = en_canonical_Q(rho, 1, z, z, res.p, res.q)
    assert_neighborhoods(rho, 1, z, z, qm, qn)
    assert sum(qm.quotient.dims) == 0 and sum(qn.quotient.dims) == 0


def test_en_enumerate_interval_family(unit_chain):
    p, rho = unit_chain
    m = interval_module(p, ["a", "b", "c", "d"], GF2)
    enum = en_enumerate(rho, 1, m)
    assert enum.complete
    classes = [sq.quotient for sq in enum.members_with(enum.vectors)]
    for want in [["a", "b", "c", "d"], ["b", "c", "d"], ["a", "b", "c"], ["b", "c"]]:
        tgt = interval_module(p, want, GF2)
        assert any(is_isomorphic(c, tgt).verdict == "yes" for c in classes)
    assert len(classes) == 4


def test_en_enumerate_zero_scale_forced(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    enum = en_enumerate(rho, 0, m)
    members = list(enum.members_with(enum.vectors))
    assert enum.complete and len(members) == 1
    assert is_isomorphic(members[0].quotient, m).verdict == "yes"


def test_en_enumerate_large_scale_all_subquotients(unit_chain):
    p, rho = unit_chain
    m = interval_module(p, ["a", "b"], GF2)
    # past every finite value: constraints vacuous, so all subquotients appear
    enum = en_enumerate(rho, 10, m)
    assert enum.complete
    quots = list(enum.members_with(enum.vectors))
    for want in [[], ["a"], ["b"], ["a", "b"]]:
        tgt = interval_module(p, want, GF2)
        assert any(is_isomorphic(c.quotient, tgt).verdict == "yes" for c in quots)


def test_en_members_validate(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    enum = en_enumerate(rho, 1, m, budget=4000)
    for sq in enum.members_with(enum.vectors):
        rebuilt = en_construct(rho, 1, m, *submodules(sq))
        assert rebuilt.quotient.dims == sq.quotient.dims


def test_en_members_interleaved(unit_chain, rng):
    p, rho = unit_chain
    for _ in range(3):
        m = random_module(rng, p, GF2, 2)
        enum = en_enumerate(rho, 1, m, budget=4000)
        for sq in enum.members_with(enum.vectors):
            en_p, en_q = en_interleaving_certificate(rho, 1, m, sq)
            assert check_certificate(rho, 1, m, sq.quotient, en_p, en_q)
            assert find_interleaving(rho, 1, m, sq.quotient).verdict == "yes"


def test_en_composition_lemma(unit_chain):
    p, rho = unit_chain
    m = interval_module(p, ["a", "b", "c", "d"], GF2)
    c = c_rho(rho).value
    outer = en_enumerate(rho, 1, m)
    for sq_n in outer.members_with(outer.vectors):
        n = sq_n.quotient
        inner = en_enumerate(rho, 1, n)
        for sq_q in inner.members_with(inner.vectors):
            f = ModuleMorphism(submodule_from_bases(m, sq_n.m1).quotient, n, sq_n.proj)
            n1 = submodule_from_bases(n, sq_q.m1)
            n2 = submodule_from_bases(n, sq_q.m2)
            pre1 = morphism_preimage(f, n1)
            pre2 = morphism_preimage(f, n2)
            amb1 = [sq_n.m1[i] @ pre1.m1[i] for i in range(len(p))]
            amb2 = [sq_n.m1[i] @ pre2.m1[i] for i in range(len(p))]
            m1p = submodule_from_bases(m, amb1)
            m2p = submodule_from_bases(m, amb2)
            sq_big = en_construct(rho, ext_add(Fraction(2), c), m, m1p, m2p)
            assert is_isomorphic(sq_big.quotient, sq_q.quotient).verdict == "yes"


def test_en_mediation(unit_chain):
    p, rho = unit_chain
    m = interval_module(p, ["a", "b", "c", "d"], GF2)
    enum = en_enumerate(rho, 1, m)
    members = list(enum.members_with(enum.vectors))
    q1, q2 = members[0], members[-1]
    q3_in_q1, q3_in_q2 = en_mediate(rho, 1, 1, q1, q2)
    assert is_isomorphic(q3_in_q1.quotient, q3_in_q2.quotient).verdict == "yes"


def test_d_en_self_zero(unit_chain, rng):
    p, rho = unit_chain
    m = random_module(rng, p, GF2, 2)
    rep = d_en(rho, m, m)
    assert rep.distance == 0 and rep.decided
    assert rep.strata[0].via == "erosion-iso"
    fresh = erosion_subquotient(rho, rep.strata[0].stratum.rep, m)
    assert rep.witness.m1 == fresh.m1
    assert rep.witness.m2 == fresh.m2
    assert rep.witness.quotient.key() == fresh.quotient.key()


def test_d_en_below_distance_and_sandwich(rng):
    for _ in range(4):
        p = random_forest_poset(rng, 4)
        rho = from_phi(random_phi(rng, p, max_step=2))
        c = c_rho(rho).value
        m = random_module(rng, p, GF2, 1)
        n = random_module(rng, p, GF2, 1)
        den = d_en(rho, m, n, budget=4000)
        dd = distance(rho, m, n)
        if den.decided and dd.decided:
            assert den.distance <= dd.distance
            from hipm.height import INF

            if den.distance is INF:
                assert dd.distance is INF
            else:
                assert dd.distance <= ext_add(2 * den.distance, c)


def test_d_en_chain_value():
    ce = chain_example(2)
    rep = d_en(ce.rho, ce.M, ce.N, budget=20000)
    assert rep.decided and rep.distance == 2
    dd = distance(ce.rho, ce.M, ce.N)
    c = c_rho(ce.rho).value
    assert rep.distance <= dd.distance <= 2 * rep.distance + c
    assert rep.witness is not None
