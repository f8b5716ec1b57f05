"""Order facts read off whole arrays agree with pair-by-pair oracles.

`validate_module` checks functoriality only on the squares a < h1, h2 <= c
with h1, h2 covers of a and c a minimal common upper bound of h1 and h2.  The
oracle composes every maximal chain between every comparable pair.  The
neighborhoods read off the level matrix must equal the sets
{y >= a : rho(a, y) >= r} computed with `Fraction`s, `nbhd_tops` their
maximal elements, and `comparable_pairs` the `np.argwhere` list.  The level
of a scale must be `bisect_left` on the critical values, whether it is looked
up (a stratum representative) or bisected (any other scale).
"""

import bisect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipm.exactlin import FieldSpec, Mat
from hipm.height import (INF, critical_values, from_phi, level, nbhd_tops, nbhds, rho_diag, strata,
                         validate_rho)
from hipm.pmod import PersistenceModule, validate_module
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from paper_statements import rho_strict

FIELDS = [FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")]


def chains(P: FinitePoset, a: int, b: int):
    """Every maximal chain from a to b, as a list of elements."""
    if a == b:
        yield [a]
        return
    for h in P.ups[a]:
        if P.leq[h, b]:
            for rest in chains(P, h, b):
                yield [a] + rest


def along(m: PersistenceModule, chain) -> Mat:
    out = Mat.eye(m.field, m.dims[chain[0]])
    for lo, hi in zip(chain, chain[1:]):
        out = m.maps[(lo, hi)] @ out
    return out


def path_dependent_pairs(m: PersistenceModule):
    """The comparable pairs (a, b) whose maximal chains compose to more than one map."""
    bad = []
    for a, b in m.poset.comparable_pairs():
        first, *rest = (along(m, c) for c in chains(m.poset, a, b))
        if any(x != first for x in rest):
            bad.append((a, b))
    return bad


def random_maps(rng: random.Random, P: FinitePoset, F: FieldSpec) -> PersistenceModule:
    """Dimensions 0-2 and random cover maps, which need not commute."""
    dims = [rng.randint(0, 2) for _ in range(len(P))]
    maps = {}
    for a, b in P.covers:
        maps[(a, b)] = Mat.zeros(F, dims[b], dims[a])
        for i, j in itertools.product(range(dims[b]), range(dims[a])):
            maps[(a, b)].a[i, j] = F.coerce(rng.randint(0, 2))
    return PersistenceModule(P, F, dims, maps)


def perturbed(rng: random.Random, m: PersistenceModule) -> PersistenceModule:
    """m with one cover map between nonzero spaces changed, when there is one."""
    covers = [(a, b) for (a, b) in m.poset.covers if m.dims[a] and m.dims[b]]
    if not covers:
        return m
    cover = rng.choice(covers)
    bump = Mat.zeros(m.field, m.dims[cover[1]], m.dims[cover[0]])
    bump.a[rng.randrange(bump.rows), rng.randrange(bump.cols)] = m.field.one()
    maps = dict(m.maps)
    maps[cover] = Mat(m.field, maps[cover].a + bump.a)
    return PersistenceModule(m.poset, m.field, m.dims, maps)


@st.composite
def modules(draw):
    """A module on a random DAG, forest or small grid with at most 7 elements,
    over GF(2), GF(3) or Q: functorial, with one cover map perturbed, or with
    random cover maps."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dag", "forest", "grid"]))
    if kind == "grid":
        poset = FinitePoset.grid(draw(st.sampled_from([[2, 2], [2, 3], [3, 2], [1, 7]])))
    else:
        n = draw(st.integers(1, 7))
        poset = random_poset(rng, n, 0.45) if kind == "dag" else random_forest_poset(rng, n)
    field = draw(st.sampled_from(FIELDS))
    how = draw(st.sampled_from(["functor", "perturbed", "random"]))
    if how == "random":
        return random_maps(rng, poset, field)
    m = random_module(rng, poset, field, 2)
    return perturbed(rng, m) if how == "perturbed" else m


@given(modules())
@settings(max_examples=150, deadline=None)
def test_validate_module_agrees_with_composing_every_chain(m):
    P = m.poset
    rep = validate_module(m)
    bad = path_dependent_pairs(m)
    assert rep.valid == (not bad)
    for names in rep.commutativity_violations:
        a, c, h1, h2 = (P.index[x] for x in names)
        assert h1 in P.ups[a] and h2 in P.ups[a] and h1 != h2
        bounds = [x for x in range(len(P)) if P.leq[h1, x] and P.leq[h2, x]]
        assert c in bounds and not any(x != c and P.leq[x, c] for x in bounds)
        assert m.map_for_idx(h1, c) @ m.maps[(a, h1)] != m.map_for_idx(h2, c) @ m.maps[(a, h2)]
        assert (a, c) in bad


def threshold_rho(rng: random.Random, P: FinitePoset):
    """phi(b) - phi(a) where that is at most t, oo above: superadditive, since a
    pair above t contains none of its sub-pairs' values in excess of it."""
    phi = random_phi(rng, P)
    t = Fraction(rng.randint(0, 4))
    table = {}
    for i, j in P.comparable_pairs():
        v = phi.phi[P.elements[j]] - phi.phi[P.elements[i]]
        table[(P.elements[i], P.elements[j])] = v if v <= t else INF
    res = validate_rho(P, table)
    assert res.ok
    return res.rho


@st.composite
def heights(draw):
    """A height-difference function on a random DAG, forest or grid: from a
    height, the grid diagonal, the strict difference or a table holding oo."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dag", "forest", "grid"]))
    if kind == "grid":
        P = FinitePoset.grid(draw(st.sampled_from([[3, 3], [2, 4], [4], [2, 2, 2]])))
    else:
        n = draw(st.integers(0, 8))
        P = random_poset(rng, n) if kind == "dag" else random_forest_poset(rng, n)
    how = draw(st.sampled_from(["phi", "diag", "strict", "threshold"] if kind == "grid"
                               else ["phi", "strict", "threshold"]))
    if how == "diag":
        return rho_diag(P)
    if how == "strict":
        return rho_strict(P)
    if how == "threshold":
        return threshold_rho(rng, P)
    return from_phi(random_phi(rng, P, denominator=draw(st.sampled_from([1, 2]))))


@given(heights(), st.fractions(min_value=0, max_value=20, max_denominator=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_level_is_the_count_of_critical_values_below_the_scale(rho, extra):
    """The lookup for stratum representatives and the bisection for every
    other scale agree with bisect_left on the critical values; r < 0 raises."""
    crit = critical_values(rho)
    scales = [st_.rep for st_ in strata(rho)] + [Fraction(0), extra, crit[-1] + Fraction(1, 3)]
    scales += [(lo + hi) / 2 for lo, hi in zip(crit, crit[1:])]
    for r in scales:
        assert level(rho, r) == bisect.bisect_left(crit, r)
    for r in (Fraction(-1, 2), -extra - 1):
        with pytest.raises(ValueError):
            level(rho, r)


@given(heights())
@settings(max_examples=150, deadline=None)
def test_level_matrix_neighborhoods_match_fraction_comparisons(rho):
    P = rho.poset
    n = len(P)
    assert P.comparable_pairs() == [(int(i), int(j)) for i, j in np.argwhere(P.leq)]
    for stratum in strata(rho):
        r = stratum.rep
        k = level(rho, r)
        up = [tuple(y for y in range(n) if P.leq[a, y] and rho.value_idx(a, y) >= r)
              for a in range(n)]
        down = [tuple(x for x in range(n) if P.leq[x, a] and rho.value_idx(x, a) >= r)
                for a in range(n)]
        assert nbhds(rho, "up", k) == tuple(up)
        assert nbhds(rho, "down", k) == tuple(down)
        tops = tuple(tuple(x for x in nb if not any(y != x and P.leq[x, y] for y in nb))
                     for nb in down)
        assert nbhd_tops(rho, k) == tops


def test_minimal_upper_bounds_on_a_crown():
    # x, y both below u and v, which are incomparable: two minimal bounds
    P = FinitePoset.from_covers(["x", "y", "u", "v", "top"],
                                [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v"),
                                 ("u", "top"), ("v", "top")])
    assert P.minimal_upper_bounds(0, 1) == [2, 3]
    assert P.minimal_upper_bounds(2, 3) == [4]
    assert P.minimal_upper_bounds(0, 4) == [4]
    assert P.minimal_upper_bounds(0, 0) == [0]


def test_a_non_functor_on_a_crown_names_both_bounds():
    P = FinitePoset.from_covers(["a", "x", "y", "u", "v"],
                                [("a", "x"), ("a", "y"), ("x", "u"), ("x", "v"),
                                 ("y", "u"), ("y", "v")])
    F = FieldSpec("gfp", 3)
    one, two = Mat.from_rows(F, [[1]]), Mat.from_rows(F, [[2]])
    maps = {cover: one for cover in P.covers}
    maps[(P.idx("y"), P.idx("v"))] = two
    rep = validate_module(PersistenceModule(P, F, [1] * 5, maps))
    assert rep.commutativity_violations == [("a", "v", "x", "y")]
    maps[(P.idx("y"), P.idx("u"))] = two
    rep = validate_module(PersistenceModule(P, F, [1] * 5, maps))
    assert rep.commutativity_violations == [("a", "u", "x", "y"), ("a", "v", "x", "y")]


def test_the_first_and_last_covers_are_compared_too():
    # a has three covers; only x and z share the bound u, so only that pair sees it
    P = FinitePoset.from_covers(["a", "x", "y", "z", "u", "v", "w"],
                                [("a", "x"), ("a", "y"), ("a", "z"), ("x", "u"), ("z", "u"),
                                 ("x", "v"), ("y", "v"), ("y", "w"), ("z", "w")])
    F = FieldSpec("rational")
    maps = {cover: Mat.eye(F, 1) for cover in P.covers}
    maps[(P.idx("z"), P.idx("u"))] = Mat.from_rows(F, [[2]])
    m = PersistenceModule(P, F, [1] * 7, maps)
    assert validate_module(m).commutativity_violations == [("a", "u", "x", "z")]
    assert path_dependent_pairs(m) == [(P.idx("a"), P.idx("u"))]


def test_zero_spaces_are_not_checked():
    # each square below would fail, but a zero space at its bottom or its top
    # makes both of its sides zero maps
    P = FinitePoset.grid([2, 2])  # covers (0, 1), (0, 2), (1, 3), (2, 3)
    F = FieldSpec("rational")
    for dims, flipped in (([0, 1, 1, 1], (1, 3)), ([1, 1, 1, 0], (0, 2))):
        maps = {cover: Mat.eye(F, 1) for cover in P.covers if dims[cover[0]] and dims[cover[1]]}
        maps[flipped] = Mat.from_rows(F, [[-1]])
        m = PersistenceModule(P, F, dims, maps)
        assert validate_module(m).valid and not path_dependent_pairs(m)
    maps = {cover: Mat.eye(F, 1) for cover in P.covers}
    maps[(1, 3)] = Mat.from_rows(F, [[-1]])
    assert validate_module(PersistenceModule(P, F, [1] * 4, maps)).commutativity_violations \
        == [("v_0_0", "v_1_1", "v_0_1", "v_1_0")]


def test_composing_chains_is_the_oracle_on_a_grid():
    # sanity of the oracle itself: the 2x2 grid has two chains corner to corner
    P = FinitePoset.grid([2, 2])
    assert sorted(chains(P, 0, 3)) == [[0, 1, 3], [0, 2, 3]]
    assert list(itertools.chain.from_iterable(chains(P, 1, 1))) == [1]
