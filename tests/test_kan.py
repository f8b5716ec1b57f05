import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipm.exactlin import GF2, QQ, FieldSpec, Mat, hstack, kernel_basis, rref, solve, vstack
from hipm.fixtures import chain_example, grid_example
from hipm.functors import R_dims, apply_R
from hipm.height import critical_values, from_phi, nbhd_down_idx, nbhds, rho_diag, strata
from hipm.kan import (
    UniversalCone,
    _cone,
    _minima,
    colim_over,
    factor_from_colim,
    factor_into_lim,
    induced,
    lim_dim,
    lim_over,
)
from hipm.pmod import PersistenceModule, interval_module, zero_module
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from paper_statements import Connectivity, check_universal, fubini_compare, relation_colimit

GF3 = FieldSpec("gfp", 3)


def _edge_module(field=GF2):
    p = FinitePoset.chain(["x", "y"])
    return PersistenceModule(p, field, [1, 1], {(0, 1): Mat.eye(field, 1)})


def test_colim_edge():
    m = _edge_module()
    col = colim_over(m, [0, 1])
    assert col.dim == 1
    assert not col.legs[0].is_zero() and not col.legs[1].is_zero()


def test_colim_singleton_and_empty(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    col = colim_over(m, [2])
    assert col.dim == m.dims[2]
    assert col.legs[2] == Mat.eye(GF2, m.dims[2])
    assert colim_over(m, []).dim == 0
    assert lim_over(m, []).dim == 0


def test_colim_grid_v22_vanishes():
    ge = grid_example()
    a = ge.poset.idx("v_2_2")
    nb = nbhd_down_idx(ge.rho, a, Fraction(1))
    assert colim_over(ge.module, nb).dim == 0


def test_lim_edge_and_chain():
    m = _edge_module()
    lim = lim_over(m, [0, 1])
    assert lim.dim == 1  # the graph of the identity
    ce = chain_example(2)
    lim2 = lim_over(ce.M, [1, 2, 3])  # the upper set {b, c, d}
    assert lim2.dim == 1
    assert all(not lim2.legs[i].is_zero() for i in [1, 2, 3])


def test_induced_identity_and_zero(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    s = [0, 1]
    assert induced(colim_over(m, s), colim_over(m, s)) == Mat.eye(GF2, colim_over(m, s).dim)
    assert induced(lim_over(m, s), lim_over(m, s)) == Mat.eye(GF2, lim_over(m, s).dim)
    z = induced(colim_over(m, []), colim_over(m, [0, 1]))
    assert z.cols == 0


def test_induced_composes(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    s, t, u = [0], [0, 1], [0, 1, 2]
    c = {k: colim_over(m, v) for k, v in (("s", s), ("t", t), ("u", u))}
    assert induced(c["t"], c["u"]) @ induced(c["s"], c["t"]) == induced(c["s"], c["u"])
    lim = {k: lim_over(m, v) for k, v in (("s", s), ("t", t), ("u", u))}
    assert induced(lim["s"], lim["t"]) @ induced(lim["t"], lim["u"]) == induced(lim["s"], lim["u"])


def test_grid_example_induced_map_rank():
    # the printed transpose-[1 0] arrow between consecutive latching values
    ge = grid_example()
    a, b = ge.poset.idx("v_1_1"), ge.poset.idx("v_2_1")
    na = nbhd_down_idx(ge.rho, a, Fraction(1))
    nb = nbhd_down_idx(ge.rho, b, Fraction(1))
    ca, cb = colim_over(ge.module, na), colim_over(ge.module, nb)
    comparison = induced(ca, cb)
    assert (comparison.rows, comparison.cols) == (2, 1)
    assert rref(comparison).rank == 1
    for x in ca.nodes:  # leg commutation pins the map down
        assert comparison @ ca.legs[x] == cb.legs[x]


def test_check_universal_accepts_and_rejects(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    for subset in [[0], [0, 1], [0, 1, 2, 3]]:
        assert check_universal(m, subset, colim_over(m, subset))
        assert check_universal(m, subset, lim_over(m, subset))
    col = colim_over(m, [0, 1])
    if col.dim > 0:
        truncated = UniversalCone(
            True, col.nodes, col.dim + 1,
            Mat(GF2, np.vstack([col.proj.a, col.proj.a[:1] * 0])),
            {x: Mat(GF2, np.vstack([col.legs[x].a, col.legs[x].a[:1] * 0]))
             for x in col.nodes},
            col.free,
        )
        assert not check_universal(m, [0, 1], truncated)
        zero_cand = UniversalCone(
            True, col.nodes, 0,
            Mat.zeros(GF2, 0, sum(m.dims[x] for x in col.nodes)),
            {x: Mat.zeros(GF2, 0, m.dims[x]) for x in col.nodes},
            (),
        )
        assert not check_universal(m, [0, 1], zero_cand)


def test_check_universal_size_cap(chain4, rng):
    m = random_module(rng, FinitePoset.chain([f"x{i}" for i in range(7)]), GF2, 1)
    with pytest.raises(ValueError, match="capped"):
        check_universal(m, list(range(7)), colim_over(m, list(range(7))))


def test_universal_oracle_random_exhaustive(rng):
    for _ in range(15):
        p = random_poset(rng, 4)
        m = random_module(rng, p, GF2, 2)
        for k in range(len(p) + 1):
            for subset in itertools.combinations(range(len(p)), k):
                assert check_universal(m, list(subset), colim_over(m, list(subset)))
                assert check_universal(m, list(subset), lim_over(m, list(subset)))


def test_colim_lim_duality_dimensions(rng):
    # reversing the poset and transposing all maps swaps colim and lim
    for _ in range(10):
        p = random_poset(rng, 5)
        m = random_module(rng, p, GF2, 2)
        rev = FinitePoset.from_covers(
            p.elements, [(p.elements[b], p.elements[a]) for a, b in p.covers]
        )
        maps = {}
        for (a, b) in p.covers:
            ra, rb = rev.idx(p.elements[b]), rev.idx(p.elements[a])
            maps[(ra, rb)] = Mat(GF2, m.maps[(a, b)].a.T.copy())
        dual = PersistenceModule(
            rev, GF2, [m.dims[p.idx(e)] for e in rev.elements], maps
        )
        subset = sorted(rng.sample(range(len(p)), rng.randint(0, len(p))))
        dual_subset = [rev.idx(p.elements[i]) for i in subset]
        assert colim_over(m, subset).dim == lim_over(dual, dual_subset).dim


def test_fubini_connected_iso(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    # downset family along the chain: always connected index sets
    fam = {0: [0], 1: [0, 1], 2: [0, 1, 2]}
    rep = fubini_compare(m, [0, 1, 2], fam)
    assert rep.all_connected and rep.iso


def test_fubini_singleton(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    rep = fubini_compare(m, [1], {1: [0, 1]})
    assert rep.iso


def test_fubini_diamond_witness(diamond, diamond_rho):
    kp = interval_module(diamond, diamond.elements, GF2)
    d = diamond.idx("d")
    I = nbhd_down_idx(diamond_rho, d, Fraction(1))
    fam = {x: nbhd_down_idx(diamond_rho, x, Fraction(1)) for x in I}
    rep = fubini_compare(kp, I, fam)
    # a lies in F(b) and F(c) only, and b, c are incomparable
    assert rep.connected_per_point == {diamond.idx("a"): Connectivity.DISCONNECTED}
    assert not rep.all_connected
    assert not rep.iso
    assert rep.iterated_dim == 2 and rep.union_dim == 1  # the comparison collapses


def test_fubini_validates_family(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    with pytest.raises(ValueError, match="monotone"):
        fubini_compare(m, [0, 1], {0: [0, 1], 1: [1]})
    with pytest.raises(ValueError, match="downset"):
        fubini_compare(m, [0, 1], {0: [1], 1: [0, 1, 2]})  # {1} misses 0 below it


# ---------------------------------------------------------------------------
# factorization by coordinate selection, and the per-module memo
# ---------------------------------------------------------------------------


def _random_matrix(rng, field, rows, cols):
    if field.is_prime_field:
        return Mat.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)]
                                     for _ in range(rows)], cols=cols)
    return Mat.from_rows(field, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                  for _ in range(cols)] for _ in range(rows)], cols=cols)


@st.composite
def restrictions(draw):
    """(module, subset, rng): a random module over GF(2), GF(3) or Q on a random
    poset with 0-5 elements, pointwise dimension 0-2, and a subset of its elements."""
    field = draw(st.sampled_from((GF2, GF3, QQ)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    poset = random_poset(rng, draw(st.integers(0, 5)))
    m = random_module(rng, poset, field, draw(st.integers(0, 2)))
    subset = draw(st.lists(st.integers(0, len(poset) - 1), unique=True)) if len(poset) else []
    return m, subset, rng


@given(restrictions(), st.booleans(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_factor_from_colim_agrees_with_solve(case, cocone, rows):
    """The selected factor equals solve(proj.T, stacked.T).T; where that has
    no solution the family is not a cocone and the factor raises."""
    m, subset, rng = case
    col = colim_over(m, subset)
    if cocone:  # g composed with the legs: the unique factor is g itself
        g = _random_matrix(rng, m.field, rows, col.dim)
        blocks = {x: g @ col.legs[x] for x in col.nodes}
    else:
        blocks = {x: _random_matrix(rng, m.field, rows, m.dims[x]) for x in col.nodes}
    old = solve(col.proj.T, hstack(m.field, [blocks[x] for x in col.nodes], rows=rows).T)
    if old is None:
        assert not cocone
        with pytest.raises(ValueError, match="not a cocone"):
            factor_from_colim(col, blocks, rows)
        return
    got = factor_from_colim(col, blocks, rows)
    assert got == old.T
    if cocone:
        assert got == g


@given(restrictions(), st.booleans(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_factor_into_lim_agrees_with_solve(case, cone, cols):
    """Dual: the selected factor equals solve(incl, stacked)."""
    m, subset, rng = case
    lim = lim_over(m, subset)
    if cone:
        g = _random_matrix(rng, m.field, lim.dim, cols)
        blocks = {x: lim.legs[x] @ g for x in lim.nodes}
    else:
        blocks = {x: _random_matrix(rng, m.field, m.dims[x], cols) for x in lim.nodes}
    old = solve(lim.proj.T, vstack(m.field, [blocks[x] for x in lim.nodes], cols=cols))
    if old is None:
        assert not cone
        with pytest.raises(ValueError, match="not a cone"):
            factor_into_lim(lim, blocks, cols)
        return
    got = factor_into_lim(lim, blocks, cols)
    assert got == old
    if cone:
        assert got == g


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_factor_rejects_a_non_cocone_and_a_non_cone(field):
    m = _edge_module(field)  # x -> y, the identity on a line
    one, zero = Mat.eye(field, 1), Mat.zeros(field, 1, 1)
    col, lim = colim_over(m, [0, 1]), lim_over(m, [0, 1])
    assert factor_from_colim(col, {0: one, 1: one}, 1) == one
    assert factor_into_lim(lim, {0: one, 1: one}, 1) == one
    with pytest.raises(ValueError, match="family is not a cocone"):
        factor_from_colim(col, {0: one, 1: zero}, 1)  # the leg at y does not extend x's
    with pytest.raises(ValueError, match="family is not a cone"):
        factor_into_lim(lim, {0: one, 1: zero}, 1)
    # a zero (co)limit: only the zero family factors through it
    dead = PersistenceModule(FinitePoset.chain(["x", "y"]), field, [1, 0], {})
    assert colim_over(dead, [0, 1]).dim == 0
    with pytest.raises(ValueError, match="family is not a cocone"):
        factor_from_colim(colim_over(dead, [0, 1]), {0: one, 1: Mat.zeros(field, 1, 0)}, 1)
    born = PersistenceModule(FinitePoset.chain(["x", "y"]), field, [0, 1], {})
    assert lim_over(born, [0, 1]).dim == 0
    with pytest.raises(ValueError, match="family is not a cone"):
        factor_into_lim(lim_over(born, [0, 1]), {0: Mat.zeros(field, 0, 1), 1: one}, 1)


def _same_result(a, b) -> bool:
    return (a.latching == b.latching and a.nodes == b.nodes and a.dim == b.dim and a.free == b.free
            and a.legs.keys() == b.legs.keys() and all(a.legs[x] == b.legs[x] for x in a.legs)
            and a.proj == b.proj)


@given(restrictions())
@settings(max_examples=100, deadline=None)
def test_memoized_limits_equal_a_fresh_build(case):
    m, subset, _ = case
    for over, latching in ((colim_over, True), (lim_over, False)):
        first = over(m, subset)
        assert over(m, list(reversed(subset))) is first  # one build per node set
        assert _same_result(first, _cone(m, tuple(sorted(subset)), latching))


@given(restrictions())
@settings(max_examples=150, deadline=None)
def test_colimit_as_transposed_limit_equals_the_relation_quotient(case):
    """The transposed-limit colimit and the quotient by the relation columns
    agree in every coordinate: projection, legs, free coordinates, dimension."""
    m, subset, _ = case
    assert_colim_matches_reference(m, subset)


def assert_colim_matches_reference(m, subset):
    col = colim_over(m, subset)
    ref = relation_colimit(m.field, col.nodes, m.dims, m.poset.subposet_covers(subset), m.map_for_idx)
    assert col.dim == len(col.free) == col.proj.rows
    assert _same_result(col, ref)


def reference_lim(m, subset, covers):
    """A limit built directly as the equalizer: one block of equations
    M(x<=y) v_x - v_y = 0 per cover (x, y) of the subposet, and the canonical
    kernel basis of the stacked equations, the identity at their non-pivot
    columns."""
    F, nodes = m.field, sorted(subset)
    offs, total = {}, 0
    for x in nodes:
        offs[x], total = total, total + m.dims[x]
    rows = []
    for (x, y) in covers:
        mxy = m.map_for_idx(x, y)
        block = Mat.zeros(F, mxy.rows, total)
        block.a[:, offs[x] : offs[x] + mxy.cols] = mxy.a
        for r in range(mxy.rows):
            block.a[r, offs[y] + r] -= F.one()
        if F.is_prime_field:
            block.a %= F.p
        rows.append(block)
    eq = vstack(F, rows, cols=total)
    incl, pivots = kernel_basis(eq), rref(eq).pivots
    free = tuple(j for j in range(total) if j not in pivots)
    legs = {x: incl.take_rows(range(offs[x], offs[x] + m.dims[x])) for x in nodes}
    return incl, legs, free


def assert_lim_matches_reference(m, subset):
    lim = lim_over(m, subset)
    incl, legs, free = reference_lim(m, subset, m.poset.subposet_covers(subset))
    assert lim.proj.T == incl and lim.free == free and lim.dim == len(free) == incl.cols
    assert lim.legs.keys() == legs.keys() and all(lim.legs[x] == legs[x] for x in legs)


@given(restrictions())
@settings(max_examples=150, deadline=None)
def test_limit_from_minimal_nodes_equals_the_cover_equalizer(case):
    """The limit built from the minimal nodes and the kernel of the cover
    equations agree in every coordinate: inclusion, legs, free coordinates,
    dimension."""
    m, subset, _ = case
    assert_lim_matches_reference(m, subset)


# minima a, b, c; d over a and b; e over b and c; f over d and e; g on its own
W = FinitePoset.from_covers("abcdefg", [("a", "d"), ("b", "d"), ("b", "e"), ("c", "e"),
                                        ("d", "f"), ("e", "f")])


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["GF2", "GF3", "QQ"])
@pytest.mark.parametrize("names", ["", "d", "abd", "abcdef", "acg", "defg", "bdef"])
def test_limits_and_colimits_on_shaped_node_sets(field, names):
    """The empty set, one node, two and three minima under one node, disconnected
    node sets, and modules that vanish at some or every node."""
    rng = random.Random(7)
    subset = [W.idx(e) for e in names]
    for m in (random_module(rng, W, field, 2), random_module(rng, W, field, 3),
              interval_module(W, "bdef", field), zero_module(W, field)):
        assert_lim_matches_reference(m, subset)
        assert_colim_matches_reference(m, subset)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["GF2", "QQ"])
@pytest.mark.parametrize("names", ["abcdefg", "bdef"])
def test_cone_legs_are_views_of_proj(field, names):
    """Every leg of a limit and of a colimit, at a nonzero space, is a view
    into the cone's `proj`, not a copy: several minima (maxima) and one."""
    m, subset = interval_module(W, W.elements, field), [W.idx(e) for e in names]
    for cone in (colim_over(m, subset), lim_over(m, subset)):
        assert cone.dim > 0
        assert all(np.shares_memory(cone.legs[x].a, cone.proj.a) for x in cone.nodes)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["GF2", "GF3", "QQ"])
@pytest.mark.parametrize("seed", range(3))
def test_lim_dim_and_R_dims_equal_the_built_limits(field, seed):
    """`lim_dim` against a fresh limit build, then again once the limit is
    memoized on the module; `R_dims` against apply_R's module.  Node
    sets: W's shaped ones (empty, one minimum, minima with and without a node
    above two of them) and every upper neighborhood of every level of a random
    height on a DAG, a forest and a grid.  Modules: random, constant and
    zero."""
    rng = random.Random(seed)
    heights = [from_phi(random_phi(rng, P)) for P in (W, random_poset(rng, 8, 0.4),
                                                      random_forest_poset(rng, 8))]
    heights.append(rho_diag(FinitePoset.grid([3, 3])))
    several = 0
    for rho in heights:
        P = rho.poset
        shaped = [tuple(W.idx(e) for e in names) for names in ("", "d", "abd", "abcdef", "acg")]
        sets = {s for k in range(len(critical_values(rho)) + 1) for s in nbhds(rho, "up", k)}
        sets |= set(shaped) if P is W else set()
        for m in (random_module(rng, P, field, 3), interval_module(P, P.elements, field),
                  zero_module(P, field)):
            for s in sorted(sets):
                minima = [s[i] for i in _minima(P.leq[np.ix_(s, s)])] if s else []
                assert lim_dim(m, s, minima) == _cone(m, s, False).dim, s
                assert ("lim", s) not in m.memo  # lim_dim builds no cone
                assert lim_over(m, s).dim == lim_dim(m, s, minima)  # also once memoized
                several += len(minima) > 1
            fresh = random_module(rng, P, field, 3)
            for st in strata(rho):
                assert R_dims(rho, st.rep, fresh) == apply_R(rho, st.rep, fresh).module.dims
    assert several  # some node sets have two or more minima
