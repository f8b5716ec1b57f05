"""The rank obstruction read off the modules' own maps.

An r-interleaving has e_{r,M} = q o p#, with p#(a) landing in N(a), so
rank e_{r,M}(a) <= dim N(a) at every a, and the same with M and N swapped.
`functors.e_r_rank` reads rank e_{r,M}(a) off the block matrix [M(x <= y)]
over the tops of a's lower neighborhood and the bottoms of its upper one;
it must equal the rank of e_r(a) built through L_r and R_r.  The obstruction
(`functors.e_r_rank_obstruction`) must name the first violation of those
ranks, and must never fire where the exhaustive GF(p) search finds an
interleaving.  Over Q, where the search never says "no", `distance` proves
"no" from the obstruction alone.  The same obstruction proves a `d_en` "no":
it must leave the two modules' erosion neighborhoods no dimension vector in
common.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hipm import interleave
from hipm.erosion import _en_stratum_test, d_en, en_enumerate
from hipm.exactlin import FieldSpec, rref
from hipm.functors import e_r, e_r_rank, e_r_rank_obstruction
from hipm.height import HeightFunction, from_phi, strata
from hipm.interleave import distance, find_interleaving
from hipm.pmod import interval_module
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

GF2, GF3, QQ = FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")


@st.composite
def module_pairs(draw):
    """(rho, m, n): two random modules of dimension at most 2 on one random
    forest or DAG of at most 6 elements, over GF(2), GF(3) or Q."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n_el = draw(st.integers(1, 6))
    P = random_poset(rng, n_el, 0.45) if draw(st.booleans()) else random_forest_poset(rng, n_el)
    rho = from_phi(random_phi(rng, P, denominator=draw(st.sampled_from([1, 2]))))
    field = draw(st.sampled_from([GF2, GF3, QQ]))
    m, n = (random_module(rng, P, field, 2, summands=draw(st.integers(0, 4))) for _ in range(2))
    return rho, m, n


def oracle_violation(rho, r, m, n):
    """The first (side, element) with rank e_r(a) > the other module's dim,
    the ranks taken from e_r built through L_r and R_r."""
    for side, src, dst in (("M", m, n), ("N", n, m)):
        comps = e_r(rho, r, src).components
        for a, comp in enumerate(comps):
            if rref(comp).rank > dst.dims[a]:
                return side, src.poset.elements[a]
    return None


@given(module_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_block_rank_and_the_obstruction_agree_with_the_transpose_route(case):
    rho, m, n = case
    for st_ in strata(rho):
        r = st_.rep
        for mod in (m, n):
            ranks = [rref(comp).rank for comp in e_r(rho, r, mod).components]
            assert [e_r_rank(rho, r, mod, a) for a in range(len(mod.poset))] == ranks
        assert e_r_rank_obstruction(rho, r, m, n) == oracle_violation(rho, r, m, n)


@given(module_pairs().filter(lambda case: case[1].field.is_prime_field))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_obstruction_never_fires_where_the_search_finds_an_interleaving(case):
    rho, m, n = case
    for st_ in strata(rho)[1:]:
        res = find_interleaving(rho, st_.rep, m, n, budget=4096)
        if e_r_rank_obstruction(rho, st_.rep, m, n) is not None:
            assert res.verdict != "yes"


@st.composite
def lopsided_pairs(draw):
    """(rho, m, n) over GF(2) or GF(3) on a random forest or DAG of at most 6
    elements, one module with 2-6 interval summands tried and the other with
    0-2, in either order, so that the obstruction fires on nonzero strata."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n_el = draw(st.integers(2, 6))
    P = random_poset(rng, n_el, 0.45) if draw(st.booleans()) else random_forest_poset(rng, n_el)
    rho = from_phi(random_phi(rng, P, denominator=draw(st.sampled_from([1, 2]))))
    field = draw(st.sampled_from([GF2, GF3]))
    big = random_module(rng, P, field, 2, summands=draw(st.integers(2, 6)))
    small = random_module(rng, P, field, 2, summands=draw(st.integers(0, 2)))
    return (rho, big, small) if draw(st.booleans()) else (rho, small, big)


@given(lopsided_pairs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_an_obstructed_d_en_stratum_shares_no_erosion_neighborhood(case):
    """Where the obstruction fires, complete enumerations of both modules'
    erosion neighborhoods share no dimension vector, so no class: the "no"
    that `_en_stratum_test` reports there without enumerating."""
    rho, m, n = case
    for st_ in strata(rho)[1:]:  # at r = 0 it fires only on different dimension vectors
        if e_r_rank_obstruction(rho, st_.rep, m, n) is not None:
            enum_m, enum_n = (en_enumerate(rho, st_.rep, mod) for mod in (m, n))
            if enum_m.complete and enum_n.complete:
                assert not enum_m.vectors & enum_n.vectors
                assert _en_stratum_test(rho, st_.rep, m, n, 20000)[:2] == ("no", "obstruction")


def chain4_pair():
    """[a, d] against [a, b] over Q on the chain a < b < c < d with phi 0, 1,
    3, 5: at r = 1 and 2, e_r of [a, d] is nonzero at c, where [a, b] is 0."""
    P = FinitePoset.chain(["a", "b", "c", "d"])
    rho = from_phi(HeightFunction(P, {"a": Fraction(0), "b": Fraction(1),
                                      "c": Fraction(3), "d": Fraction(5)}))
    return rho, interval_module(P, ["a", "b", "c", "d"], QQ), interval_module(P, ["a", "b"], QQ)


def test_distance_over_q_proves_no_where_the_search_says_unknown():
    rho, m, n = chain4_pair()
    rep = distance(rho, m, n, budget=64)
    assert rep.decided and rep.distance == 2
    no = [sv.stratum for sv in rep.strata if sv.verdict == "no"]
    assert [st_.rep for st_ in no] == [1, 2]
    for st_ in no:
        assert e_r_rank_obstruction(rho, st_.rep, m, n) == ("M", "c")
        assert find_interleaving(rho, st_.rep, m, n, budget=64).verdict == "unknown"
    assert rep.witness is not None and rep.witness.r == 3


def test_budget_zero_takes_no_verdict_from_the_obstruction(monkeypatch):
    """A "no" at budget 0 would be a verdict no search was allowed to reach."""
    rho, m, n = chain4_pair()
    searched = []
    original = interleave.find_interleaving

    def recording(rho_, r, *args):
        searched.append(r)
        return original(rho_, r, *args)

    monkeypatch.setattr(interleave, "find_interleaving", recording)
    rep = distance(rho, m, n, budget=0)
    assert searched and not any(sv.verdict == "no" for sv in rep.strata[1:])  # past the iso test


def test_the_erosion_test_skips_the_search_on_an_obstructed_stratum(monkeypatch):
    rho, m, n = chain4_pair()
    asked = []
    monkeypatch.setattr("hipm.erosion.find_interleaving", lambda *args: asked.append(args))
    monkeypatch.setattr("hipm.erosion.erosion_subquotient", lambda *args: asked.append(args))
    monkeypatch.setattr("hipm.erosion.en_enumerate", lambda *args: asked.append(args))
    for r in (1, 2):
        assert _en_stratum_test(rho, Fraction(r), m, n, 64) == ("no", "obstruction", None)
    assert asked == []
    monkeypatch.undo()
    assert [sv.verdict for sv in d_en(rho, m, n, budget=64).strata][1:3] == ["no"] * 2
