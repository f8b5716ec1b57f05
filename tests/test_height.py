import copy
import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hipm import height
from hipm.height import (
    INF,
    HeightDiff,
    HeightFunction,
    abs_diff_inf,
    c_rho,
    check_cip,
    check_ivc,
    critical_values,
    distortion,
    ext_add,
    from_phi,
    nbhd_down_idx,
    nbhd_up_idx,
    parse_ext,
    pullback_rho,
    rho_diag,
    strata,
    validate_rho,
)
from hipm.poset import FinitePoset, OrderMap, PosetError
from hipm.randgen import random_forest_poset, random_phi, random_poset
from paper_statements import (c_rho_by_pairs, check_cip_keyed, dominates_diagonal, nbhd_iterated,
                              order_violations, rho_strict)


def test_ext_value_conventions():
    assert abs_diff_inf(INF, INF) == 0
    assert abs_diff_inf(Fraction(1), INF) is INF
    assert abs_diff_inf(Fraction(1), Fraction(3, 2)) == Fraction(1, 2)
    assert ext_add(INF, Fraction(5)) is INF
    assert parse_ext("inf") is INF and parse_ext("3/2") == Fraction(3, 2)
    assert Fraction(10) < INF and INF <= INF and not (INF < Fraction(10))


def test_inf_survives_copies_and_pickles():
    assert copy.copy(INF) is INF and copy.deepcopy({"v": [INF]})["v"][0] is INF
    assert pickle.loads(pickle.dumps(INF)) is INF


def test_validate_rho_from_phi(chain4, chain4_rho):
    table = {
        (chain4.elements[i], chain4.elements[j]): chain4_rho.value_idx(i, j)
        for i, j in chain4.comparable_pairs()
    }
    v = validate_rho(chain4, table)
    assert v.ok


def test_validate_rho_superadditivity_violation():
    p = FinitePoset.chain(["a", "b", "c"])
    table = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1,
             ("a", "a"): 0, ("b", "b"): 0, ("c", "c"): 0}
    v = validate_rho(p, table)
    assert not v.ok
    assert ("a", "b", "c") in v.superadditivity_violations


def test_validate_rho_zero_always_valid():
    p = FinitePoset.chain(["a", "b", "c"])
    table = {(p.elements[i], p.elements[j]): 0 for i, j in p.comparable_pairs()}
    assert validate_rho(p, table).ok


def test_validate_rho_missing_pair():
    p = FinitePoset.chain(["a", "b"])
    v = validate_rho(p, {})
    assert not v.ok and ("a", "b") in v.missing_pairs


def test_from_phi_grid_value():
    g = FinitePoset.grid([4, 3])
    phi = HeightFunction(g, {e: Fraction(sum(g.coords[g.idx(e)])) for e in g.elements})
    rho = from_phi(phi)
    assert rho.value_idx(g.idx("v_0_0"), g.idx("v_3_2")) == 5


def test_from_phi_constant_and_violation(chain4):
    const = HeightFunction(chain4, {e: Fraction(7) for e in chain4.elements})
    rho = from_phi(const)
    assert all(v == 0 for v in rho.values.values())
    bad = HeightFunction(chain4, {"a": Fraction(1), "b": Fraction(0),
                                  "c": Fraction(2), "d": Fraction(3)})
    with pytest.raises(PosetError):
        from_phi(bad)


def test_chain_heights_value(chain4_rho):
    P = chain4_rho.poset
    assert chain4_rho.value_idx(P.idx("b"), P.idx("c")) == 2  # C = 2 family


def test_rho_diag_values():
    g = FinitePoset.grid([4, 3])
    rho = rho_diag(g)
    assert rho.value_idx(g.idx("v_0_0"), g.idx("v_3_2")) == 2
    assert rho.value_idx(g.idx("v_1_1"), g.idx("v_1_1")) == 0
    g1 = FinitePoset.grid([5])
    r1 = rho_diag(g1)
    phi = HeightFunction(g1, {e: Fraction(g1.coords[g1.idx(e)][0]) for e in g1.elements})
    assert r1.values == from_phi(phi).values  # one dimension: plain height difference


BIG = 1 << 64  # numerators and denominators past int64


@st.composite
def height_functions(draw):
    """A random poset with phi of mixed denominators, some numerators past
    2^63, and either order-preserving (values sorted by the size of each
    element's down-set) or drawn freely, which mostly violates the order."""
    P = random_poset(random.Random(draw(st.integers(0, 10 ** 6))), draw(st.integers(0, 8)))
    values = [Fraction(draw(st.integers(-6, 6) | st.integers(-3 * BIG, 3 * BIG)),
                       draw(st.integers(1, 12) | st.just(BIG + 1))) for _ in P.elements]
    if draw(st.booleans()):
        below = P.leq.sum(axis=0)
        rank = sorted(range(len(P)), key=lambda i: below[i])
        values = dict(zip(rank, sorted(values)))
    return HeightFunction(P, {e: values[i] for i, e in enumerate(P.elements)})


@given(height_functions())
@settings(max_examples=150, deadline=None)
def test_from_phi_matches_the_per_pair_differences(phi):
    """Each value is the Fraction phi(b) - phi(a), keyed in comparable-pair
    order; an order violation raises naming the first violating pair."""
    P = phi.poset
    bad = order_violations(phi)
    if bad:
        with pytest.raises(PosetError) as info:
            from_phi(phi)
        assert str(info.value) == f"height function not order-preserving, e.g. on pair {bad[0]}"
        return
    want = {(i, j): phi.phi[P.elements[j]] - phi.phi[P.elements[i]]
            for i, j in P.comparable_pairs()}
    got = from_phi(phi).values
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction for v in got.values())


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rho_diag_matches_the_per_pair_minimum(shape):
    g = FinitePoset.grid(shape)
    want = {(i, j): Fraction(min(b - a for a, b in zip(g.coords[i], g.coords[j])))
            for i, j in g.comparable_pairs()}
    got = rho_diag(g).values
    assert list(got.items()) == list(want.items())
    assert all(type(v) is Fraction for v in got.values())


def test_rho_strict_neighborhoods():
    p = FinitePoset.chain(["a", "b"])
    rho = rho_strict(p)
    assert {p.elements[x] for x in nbhd_down_idx(rho, p.idx("b"), 1)} == {"a"}
    assert {p.elements[x] for x in nbhd_down_idx(rho, p.idx("a"), 1)} == frozenset()
    assert validate_rho(p, {(x, y): rho.value_idx(p.idx(x), p.idx(y))
                            for x in p.elements for y in p.elements
                            if p.leq[p.idx(x), p.idx(y)]}).ok


def test_nbhd_chain_values(chain4_rho):
    P = chain4_rho.poset
    assert {P.elements[y] for y in nbhd_up_idx(chain4_rho, P.idx("a"), 1)} == {"b", "c", "d"}
    assert ({P.elements[y] for y in nbhd_up_idx(chain4_rho, P.idx("a"), Fraction(1, 2))}
            == {"b", "c", "d"})
    assert {P.elements[x] for x in nbhd_down_idx(chain4_rho, P.idx("a"), 0)} == {"a"}
    assert {P.elements[x] for x in nbhd_down_idx(chain4_rho, P.idx("c"), 2)} == {"a", "b"}
    assert {P.elements[x] for x in nbhd_down_idx(chain4_rho, P.idx("c"), 3)} == {"a"}


def test_nbhd_iterated(chain4_rho):
    assert nbhd_iterated(chain4_rho, "d", 2, 1, "down") == {"a", "b"}
    P = chain4_rho.poset
    full_down = {P.elements[x] for x in nbhd_down_idx(chain4_rho, P.idx("d"), 0)}
    assert nbhd_iterated(chain4_rho, "d", 0, 0, "down") == full_down


def test_critical_values(chain4_rho):
    assert critical_values(chain4_rho) == [0, 1, 2, 3, 4, 5]
    p = FinitePoset.chain(["a", "b"])
    zero = from_phi(HeightFunction(p, {"a": Fraction(0), "b": Fraction(0)}))
    assert critical_values(zero) == [0]
    assert critical_values(rho_strict(p)) == [0]


def test_strata_partition(chain4_rho):
    sts = strata(chain4_rho)
    assert sts[0].kind == "zero" and sts[-1].kind == "top"
    assert [st.rep for st in sts] == [0, 1, 2, 3, 4, 5, 6]
    # representatives sit inside their strata
    for st in sts:
        assert (st.rep == 0 if st.kind == "zero" else st.rep > st.lo if st.kind == "top"
                else st.lo < st.rep <= st.hi)


def test_distortion_examples():
    p = FinitePoset.chain(["a", "b", "c"])
    r1 = from_phi(HeightFunction(p, {"a": Fraction(0), "b": Fraction(1), "c": Fraction(2)}))
    r2 = from_phi(HeightFunction(p, {"a": Fraction(0), "b": Fraction(3, 2), "c": Fraction(2)}))
    assert distortion(r1, r2) == Fraction(1, 2)
    assert distortion(r1, r1) == 0
    p2 = FinitePoset.chain(["a", "b"])
    fin = from_phi(HeightFunction(p2, {"a": Fraction(0), "b": Fraction(1)}))
    assert distortion(fin, rho_strict(p2)) is INF


def test_distortion_pseudo_metric(rng):
    p = random_forest_poset(rng, 5)
    rhos = [from_phi(random_phi(rng, p)) for _ in range(3)]
    for a in rhos:
        assert distortion(a, a) == 0
        for b in rhos:
            assert distortion(a, b) == distortion(b, a)
            for c in rhos:
                assert distortion(a, c) <= ext_add(distortion(a, b), distortion(b, c))


def test_cip_diamond_fails(diamond_rho):
    rep = check_cip(diamond_rho)
    assert rep.holds is False
    assert rep.witness == ("d", "a", Fraction(1), Fraction(1))
    assert rep.witness_set == ("b", "c")


def test_cip_diamond_free_holds(rng):
    for _ in range(10):
        p = random_forest_poset(rng, 6)
        rho = from_phi(random_phi(rng, p))
        assert check_cip(rho).holds is True


def test_cip_grid_holds():
    rep = check_cip(rho_diag(FinitePoset.grid([3, 3])))
    assert rep.holds is True


def test_cip_budget():
    rep = check_cip(rho_diag(FinitePoset.grid([3, 3])), budget=5)
    assert rep.holds is None and rep.budget_exceeded


def test_ivc_chain(chain4_rho):
    assert check_ivc(chain4_rho, 2).holds
    rep = check_ivc(chain4_rho, 1)
    assert not rep.holds and rep.witness is not None
    res = c_rho(chain4_rho)
    assert res.value == 2 and res.attained


def test_ivc_monotone_in_c(chain4_rho):
    # once it passes it keeps passing at larger tolerances
    for c in [2, Fraction(5, 2), 3, 10]:
        assert check_ivc(chain4_rho, c).holds


@pytest.mark.parametrize("a_z, a_b, c, t", [
    ("1", "5", 1, Fraction(5, 2)),  # z covers nothing: |A - B| = 3 > c, so the gap runs to 9/2
    ("1", "inf", 2, Fraction(5, 2)),  # z has rho(z, b) finite: the gap runs from 1 to T = 4
])
def test_ivc_witness_is_the_midpoint_of_the_first_gap(a_z, a_b, c, t):
    p = FinitePoset.chain(["a", "z", "b"])
    rho = validate_rho(p, {("a", "z"): a_z, ("z", "b"): "1", ("a", "b"): a_b}).rho
    assert check_ivc(rho, c).witness == ("a", "b", t)


def test_ivc_coverage_keeps_the_furthest_right_end():
    """At c = 2, z1 covers [1, 3] and z2 the nested [3/2, 5/2] of [0, 4]; z = b
    covers from 3 on, so after z2 the coverage must still reach 3."""
    p = FinitePoset.from_covers(["a", "z1", "z2", "b"],
                                [("a", "z1"), ("a", "z2"), ("z1", "b"), ("z2", "b")])
    rho = validate_rho(p, {("a", "z1"): "2", ("z1", "b"): "2", ("a", "z2"): "3/2",
                           ("z2", "b"): "3/2", ("a", "b"): "4"}).rho
    assert check_ivc(rho, 2).holds and c_rho(rho).value == 2


def test_c_rho_equals_max_cover_gap(rng):
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 7))
        phi = random_phi(rng, p, max_step=4, denominator=2)
        rho = from_phi(phi)
        gap = max((phi.phi[p.elements[b]] - phi.phi[p.elements[a]]
                   for a, b in p.covers), default=Fraction(0))
        res = c_rho(rho)
        assert res.value == gap and res.attained


def test_c_rho_chain_formula():
    for C in [Fraction(2), Fraction(3), Fraction(5, 2)]:
        p = FinitePoset.chain(["a", "b", "c", "d"])
        phi = HeightFunction(p, {"a": Fraction(0), "b": Fraction(1),
                                 "c": C + 1, "d": 2 * C + 1})
        assert c_rho(from_phi(phi)).value == C


def test_c_rho_infinite_values():
    p = FinitePoset.chain(["a", "b"])
    res = c_rho(rho_strict(p))
    assert res.value is INF and not res.attained
    assert not check_ivc(rho_strict(p), 100).holds


def test_c_rho_discrete_grid_is_lattice_step():
    # the coordinatewise-minimum difference on an integer grid needs tolerance
    # one full lattice step (the continuum statement c = 0 needs all real points)
    res = c_rho(rho_diag(FinitePoset.grid([3, 3])))
    assert res.value == 1 and res.attained
    assert check_ivc(rho_diag(FinitePoset.grid([3, 3])), 1).holds
    assert not check_ivc(rho_diag(FinitePoset.grid([3, 3])), Fraction(1, 2)).holds


def test_pullback_rho(chain4, chain4_rho):
    ident = OrderMap(chain4, chain4, {e: e for e in chain4.elements})
    assert pullback_rho(ident, chain4_rho).values == chain4_rho.values
    sub = FinitePoset.from_covers(["a", "c"], [("a", "c")])
    incl = OrderMap(sub, chain4, {"a": "a", "c": "c"})
    pulled = pullback_rho(incl, chain4_rho)
    assert pulled.value_idx(sub.idx("a"), sub.idx("c")) == 3
    const = OrderMap(chain4, chain4, {e: "a" for e in chain4.elements})
    assert all(v == 0 for v in pullback_rho(const, chain4_rho).values.values())


def test_dominates_diagonal():
    g = FinitePoset.grid([3, 2])
    rho = rho_diag(g)
    assert dominates_diagonal(rho, g)
    doubled = HeightDiff(g, {k: 2 * v for k, v in rho.values.items()})
    assert dominates_diagonal(doubled, g)
    g2 = FinitePoset.grid([2, 2])
    zero = HeightDiff(g2, {k: Fraction(0) for k in rho_diag(g2).values})
    assert not dominates_diagonal(zero, g2)
    # failing on exactly one diagonal pair is enough
    g3 = FinitePoset.grid([3, 3, 2])
    diagonal = [(a, b) for a, b in g3.comparable_pairs() if a != b
                and len({y - x for x, y in zip(g3.coords[a], g3.coords[b])}) == 1]
    assert diagonal
    for pair in diagonal:
        values = dict(rho_diag(g3).values)
        values[pair] -= Fraction(1, 2)
        assert not dominates_diagonal(HeightDiff(g3, values), g3)


def dominates_by_brute_force(rho, g):
    """Every comparable pair a < b with b - a = (k, ..., k) has rho(a, b) >= k."""
    for a, b in g.comparable_pairs():
        steps = {y - x for x, y in zip(g.coords[a], g.coords[b])}
        if a != b and len(steps) == 1 and rho.values[(a, b)] < steps.pop():
            return False
    return True


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
@settings(max_examples=80, deadline=None)
def test_dominates_diagonal_matches_brute_force(shape, data):
    g = FinitePoset.grid(shape)
    values = dict(rho_diag(g).values)
    pair = data.draw(st.sampled_from(sorted(values)))
    values[pair] += data.draw(st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0)]))
    rho = HeightDiff(g, values)
    assert dominates_diagonal(rho, g) == dominates_by_brute_force(rho, g)


def test_from_phi_always_superadditive_with_equality(rng):
    for _ in range(10):
        p = random_poset(rng, 6)
        rho = from_phi(random_phi(rng, p))
        for i, j in p.comparable_pairs():
            for k in range(len(p)):
                if i != k != j and p.leq[i, k] and p.leq[k, j]:
                    assert rho.values[(i, j)] == rho.values[(i, k)] + rho.values[(k, j)]


def test_nbhd_monotonicity_and_duality(rng):
    for _ in range(10):
        p = random_poset(rng, 6)
        rho = from_phi(random_phi(rng, p))
        for e in p.elements:
            assert (set(nbhd_down_idx(rho, p.idx(e), 2))
                    <= set(nbhd_down_idx(rho, p.idx(e), 1)))
            assert ({p.elements[x] for x in nbhd_down_idx(rho, p.idx(e), 0)}
                    == frozenset(p.elements[j] for j in np.flatnonzero(p.leq[:, p.idx(e)])))
        for i, j in p.comparable_pairs():
            assert set(nbhd_down_idx(rho, i, 1)) <= set(nbhd_down_idx(rho, j, 1))
        for x in p.elements:
            for y in p.elements:
                assert ((p.idx(y) in nbhd_down_idx(rho, p.idx(x), 1))
                        == (p.idx(x) in nbhd_up_idx(rho, p.idx(y), 1)))


# ---------------------------------------------------------------------------
# oracles for c(rho) and the CIP loop: the earlier implementations, kept here
# ---------------------------------------------------------------------------


def _ivc_breakpoints(rho):
    """Every tolerance at which check_ivc can change its verdict."""
    P = rho.poset
    cands = {Fraction(0)}
    for ia, ib in P.comparable_pairs():
        if ia == ib:
            continue
        R = rho.values[(ia, ib)]
        ends = set()
        for z in P.interval_idx(ia, ib):
            ends.add(rho.values[(ia, z)])
            ends.add(R - rho.values[(z, ib)])
        for x in ends:
            cands.add(2 * abs(x))
            cands.add(2 * abs(R - x))
        for x in ends:
            for y in ends:
                cands.add(abs(x - y))
    return sorted(cands)


def _c_rho_bisection(rho):
    """(value, attained) by binary search of check_ivc over the breakpoints."""
    if any(v is INF for (i, j), v in rho.values.items() if i != j):
        return INF, False
    cand = _ivc_breakpoints(rho)
    lo, hi = 0, len(cand) - 1
    if not check_ivc(rho, cand[hi]).holds:
        return INF, False
    while lo < hi:
        mid = (lo + hi) // 2
        if check_ivc(rho, cand[mid]).holds:
            hi = mid
        else:
            lo = mid + 1
    return cand[lo], True


@st.composite
def heights(draw):
    """Heights on random DAGs and forests of up to 12 elements, sums and maxima
    of two such tables, diagonal grids, single points, the empty poset and
    tables with infinite strict pairs."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dag", "forest", "sum", "max", "grid", "point", "empty",
                                 "strict"]))
    if kind == "grid":
        return rho_diag(FinitePoset.grid([rng.randint(1, 4), rng.randint(1, 3)]))
    if kind == "point":
        return from_phi(HeightFunction(FinitePoset.chain(["a"]), {"a": Fraction(0)}))
    if kind == "empty":
        return from_phi(HeightFunction(FinitePoset.from_covers([], []), {}))
    gen = random_forest_poset if kind == "forest" else random_poset
    p = gen(rng, rng.randint(1, 12))
    if kind == "strict":
        return rho_strict(p)

    def table():
        phi = random_phi(rng, p, max_step=4, denominator=rng.choice([1, 2, 3]))
        return from_phi(phi).values

    t1 = table()
    if kind in ("dag", "forest"):
        return HeightDiff(p, t1)
    t2 = table()
    op = (lambda x, y: x + y) if kind == "sum" else max
    return HeightDiff(p, {k: op(v, t2[k]) for k, v in t1.items()})


@given(heights())
@settings(max_examples=200, deadline=None)
def test_c_rho_matches_the_breakpoint_bisection(rho):
    res = c_rho(rho)
    assert (res.value, res.attained) == _c_rho_bisection(rho)
    if res.value is INF:
        return
    assert check_ivc(rho, res.value).holds
    below = [c for c in _ivc_breakpoints(rho) if c < res.value]
    if below:
        assert not check_ivc(rho, below[-1]).holds


@given(st.one_of(heights(), st.builds(lambda rho, f: HeightDiff(rho.poset, {
    k: v if v is INF else v * f for k, v in rho.values.items()}), heights(),
    st.fractions(2**60, 2**70, max_denominator=30))))
@settings(max_examples=200, deadline=None)
def test_c_rho_matches_the_pair_by_pair_loop(rho):
    """On the heights above, and on them times a factor between 2**60 and
    2**70 with a denominator up to 30, so that the values over their common
    denominator pass 2**61 and `c_rho` works on Python ints (dtype object)."""
    assert c_rho(rho) == c_rho_by_pairs(rho)


def test_c_rho_on_values_past_int64():
    P = FinitePoset.from_covers(["a", "b", "c", "d"],
                                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    phi = {"a": Fraction(0), "b": Fraction(2**64, 3), "c": Fraction(2**63 + 1, 7),
           "d": Fraction(2**66 + 5, 11)}
    rho = from_phi(HeightFunction(P, phi))
    assert max(v * 231 for v in rho.values.values()) > 2**63
    got = c_rho(rho)  # the largest gap is the longest cover, a < b
    assert got == c_rho_by_pairs(rho) and got.value == phi["b"]


@given(heights())
@settings(max_examples=200, deadline=None)
def test_check_ivc_against_the_definition(rho):
    """A "no" names a strict pair a < b and a t >= 0, within [0, rho(a, b)]
    on a finite pair, that no z in [a, b] matches within c/2 on both sides;
    and the verdict is "yes" exactly from c(rho) on."""
    P, least = rho.poset, c_rho(rho).value
    tolerances = {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5)}
    if least is not INF:
        tolerances |= {least, *_ivc_breakpoints(rho)}
    for c in sorted(tolerances):
        rep = check_ivc(rho, c)
        assert rep.holds == (least is not INF and c >= least)
        if rep.holds:
            continue
        a, b, t = rep.witness
        ia, ib = P.idx(a), P.idx(b)
        R = rho.values[(ia, ib)]
        assert ia != ib and P.leq[ia, ib] and t >= 0 and (R is INF or t <= R)
        rest = INF if R is INF else R - t
        assert not any(abs_diff_inf(rho.values[(ia, z)], t) <= c / 2
                       and abs_diff_inf(rho.values[(z, ib)], rest) <= c / 2
                       for z in P.interval_idx(ia, ib))


@given(heights(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_memoized_neighborhoods_match_the_definition(rho, rnd):
    """nbhd_down_idx / nbhd_up_idx against {x <= a : rho(x, a) >= r} and
    {y >= a : rho(a, y) >= r}, at, between and above the critical values, each
    asked twice in shuffled order; a repeated request is the memoized object."""
    P = rho.poset
    crit = critical_values(rho)
    scales = {*crit, crit[-1] + Fraction(1, 3), crit[-1] + 1,
              *((lo + hi) / 2 for lo, hi in zip(crit, crit[1:]))}
    queries = [(d, a, r) for d in ("down", "up") for a in range(len(P)) for r in scales] * 2
    rnd.shuffle(queries)
    seen = {}
    for d, a, r in queries:
        if d == "down":
            got = nbhd_down_idx(rho, a, r)
            want = tuple(x for x in range(len(P)) if P.leq[x, a] and rho.values[(x, a)] >= r)
        else:
            got = nbhd_up_idx(rho, a, r)
            want = tuple(y for y in range(len(P)) if P.leq[a, y] and rho.values[(a, y)] >= r)
        assert got == want
        assert seen.setdefault((d, a, r), got) is got


def test_c_rho_gap_needs_the_reach_of_every_lower_point():
    # on a -> z -> b with phi = 0, 1, 3 the pair (a, b) has points (0,0), (1,1), (3,3)
    # sorted by x: the gap 3 - 1 = 2 is measured from the reach before (3, 3) is added
    p = FinitePoset.chain(["a", "z", "b"])
    rho = from_phi(HeightFunction(p, {"a": Fraction(0), "z": Fraction(1), "b": Fraction(3)}))
    assert c_rho(rho).value == 2


@given(heights(), st.one_of(st.none(), st.integers(1, 60)))
@settings(max_examples=150, deadline=None)
def test_check_cip_matches_the_keyed_loop(rho, budget):
    kw = {} if budget is None else {"budget": budget}
    got, want = check_cip(rho, **kw), check_cip_keyed(rho, **kw)
    for name in ("holds", "witness", "witness_set", "tests_run", "budget_exceeded"):
        assert getattr(got, name) == getattr(want, name), name


def test_check_cip_tiny_budget_matches_the_keyed_loop(diamond_rho):
    for budget in (1, 2, 3):
        got, want = check_cip(diamond_rho, budget), check_cip_keyed(diamond_rho, budget)
        assert got == want and got.budget_exceeded and got.tests_run == budget


def cip_budget_cases():
    """The diamond (a witness after an incomparable pair), the 2x3 grid (CIP
    holds), a 6-element DAG whose witness is test 261, and a three-element
    tree with an incomparable pair.  Their tests run in both kinds of run
    `check_cip` counts at once: every (a, q) with q not below a, and the tail
    of each r-run after its first empty intersection."""
    diamond = FinitePoset.from_covers(["a", "b", "c", "d"],
                                      [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    rng = random.Random(28)
    dag = random_poset(rng, 6)
    tree = FinitePoset.from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")])
    return [
        from_phi(HeightFunction(diamond, dict(zip("abcd", map(Fraction, (0, 1, 1, 2)))))),
        rho_diag(FinitePoset.grid([2, 3])),
        from_phi(random_phi(rng, dag)),
        from_phi(HeightFunction(tree, {"r": Fraction(0), "x": Fraction(1), "y": Fraction(2)})),
    ]


@pytest.mark.parametrize("case", range(4))
def test_check_cip_matches_the_keyed_loop_at_every_budget(case):
    """Every budget from 0 to one past the tests a full run makes, so that the
    budget falls inside every run counted at once, and at its last test."""
    rho = cip_budget_cases()[case]
    full = check_cip_keyed(rho)
    assert full.tests_run > 0 and (case in (1, 3)) == full.holds
    for budget in range(full.tests_run + 2):
        assert check_cip(rho, budget) == check_cip_keyed(rho, budget), budget


@given(heights())
@settings(max_examples=150, deadline=None)
def test_check_cip_decides_each_distinct_intersection_once(rho):
    """Against the keyed loop, which decides every intersection: the same report,
    and one connectivity decision per distinct intersection that loop meets."""
    decided = []
    decide = height._connected

    def counting(inter, comparable):
        decided.append(tuple(x for x in range(len(rho.poset)) if inter >> x & 1))
        return decide(inter, comparable)

    with mock.patch.object(height, "_connected", counting):
        got = check_cip(rho)
    visited = []
    assert got == check_cip_keyed(rho, visited=visited)
    assert len(decided) == len(set(decided))
    assert set(decided) == set(visited)
