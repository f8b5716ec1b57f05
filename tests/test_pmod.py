import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hipm.exactlin import GF2, QQ, FieldSpec, Mat, factor_at, quotient_map, solve
from hipm.fixtures import bipath_example, grid_example
from hipm.functors import apply_R
from hipm.interleave import check_certificate
from hipm.pmod import (
    ModuleMorphism,
    PersistenceModule,
    SubmoduleError,
    direct_sum,
    hom_basis,
    interval_module,
    is_isomorphic,
    pullback_module,
    quotient_by_submodule,
    submodule_from_bases,
    submodule_full,
    submodule_image,
    submodule_intersection,
    submodule_kernel,
    submodule_sum,
    submodule_zero,
    validate_module,
    zero_module,
)
from hipm.poset import FinitePoset, OrderMap, PosetError
from hipm.randgen import random_module, random_poset
from hipm.serde import SchemaError, load_morphism, morphism_to_json
from paper_statements import morphism_preimage


def test_grid_example_module_valid():
    assert validate_module(grid_example().module).valid


def test_anticommuting_square_detected():
    g = FinitePoset.grid([2, 2])
    idx = g.idx
    dims = [1, 1, 1, 1]
    maps = {
        (idx("v_0_0"), idx("v_1_0")): Mat.from_rows(QQ, [[1]]),
        (idx("v_0_0"), idx("v_0_1")): Mat.from_rows(QQ, [[1]]),
        (idx("v_1_0"), idx("v_1_1")): Mat.from_rows(QQ, [[1]]),
        (idx("v_0_1"), idx("v_1_1")): Mat.from_rows(QQ, [[-1]]),
    }
    m = PersistenceModule(g, QQ, dims, maps)
    rep = validate_module(m)
    assert not rep.valid
    assert rep.commutativity_violations


def test_zero_module_valid(chain4):
    assert validate_module(zero_module(chain4, GF2)).valid


def test_shape_violation(chain4):
    m = PersistenceModule(chain4, GF2, [1, 2, 1, 1],
                          {(0, 1): Mat.from_rows(GF2, [[1]])})
    rep = validate_module(m)
    assert not rep.valid and rep.shape_violations


def test_interval_module_bipath():
    bp = bipath_example(8)
    kb = interval_module(bp.poset, bp.poset.elements, GF2)
    assert kb.dims == bp.M.dims
    assert is_isomorphic(kb, bp.M).verdict == "yes"


def test_interval_empty_and_nonconvex(chain4):
    z = interval_module(chain4, [], GF2)
    assert sum(z.dims) == 0
    with pytest.raises(PosetError, match="convex"):
        interval_module(chain4, ["a", "c"], GF2)  # misses b


def test_direct_sum_dims(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    n = random_module(rng, chain4, GF2, 2)
    s = direct_sum(m, n)
    assert s.dims == tuple(a + b for a, b in zip(m.dims, n.dims))
    assert validate_module(s).valid
    z = direct_sum(m, zero_module(chain4, GF2))
    assert is_isomorphic(z, m).verdict == "yes"


def test_pullback_module_examples(chain4):
    ge = grid_example()
    ident = OrderMap(ge.poset, ge.poset, {e: e for e in ge.poset.elements})
    back = pullback_module(ident, ge.module)
    assert back.dims == ge.module.dims and all(
        back.maps[c] == ge.module.maps[c] for c in back.maps
    )
    # middle row of the printed diagram: k -> k^2 -> k -> k
    row = FinitePoset.chain(["v_0_1", "v_1_1", "v_2_1", "v_3_1"])
    incl = OrderMap(row, ge.poset, {e: e for e in row.elements})
    restricted = pullback_module(incl, ge.module)
    assert list(restricted.dims) == [1, 2, 1, 1]
    assert restricted.maps[(0, 1)].tolists() == [[1], [0]]
    assert restricted.maps[(1, 2)].tolists() == [[1, 0]]
    const = OrderMap(chain4, ge.poset, {e: "v_1_1" for e in chain4.elements})
    cm = pullback_module(const, ge.module)
    assert set(cm.dims) == {2}
    assert all(m == Mat.eye(GF2, 2) for m in cm.maps.values())


def test_matrices_and_morphisms_do_not_hash(chain4):
    """Both compare by value and are mutable, so neither hashes; `Mat.entries()`
    and `PersistenceModule.key()` are the hashable content keys."""
    m = interval_module(chain4, ["b", "c"], GF2)
    with pytest.raises(TypeError):
        hash(Mat.eye(GF2, 1))
    with pytest.raises(TypeError):
        hash(ModuleMorphism.zero(m, m))


def test_hom_endomorphisms_of_interval(chain4):
    kj = interval_module(chain4, ["b", "c"], GF2)
    assert len(hom_basis(kj, kj)) == 1
    assert len(hom_basis(kj, zero_module(chain4, GF2))) == 0


def test_hom_naturality_on_all_pairs(rng):
    for _ in range(5):
        p = random_poset(rng, 5)
        m = random_module(rng, p, GF2, 2)
        n = random_module(rng, p, GF2, 2)
        for f in hom_basis(m, n):
            for a, b in p.comparable_pairs():
                lhs = n.map_for_idx(a, b) @ f.components[a]
                rhs = f.components[b] @ m.map_for_idx(a, b)
                assert lhs == rhs


def test_hom_additive_in_first_argument(rng):
    p = random_poset(rng, 4)
    m1 = random_module(rng, p, GF2, 2)
    m2 = random_module(rng, p, GF2, 2)
    n = random_module(rng, p, GF2, 2)
    assert len(hom_basis(direct_sum(m1, m2), n)) == len(hom_basis(m1, n)) + len(hom_basis(m2, n))


def test_is_isomorphic_basics(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    assert is_isomorphic(m, m).verdict == "yes"
    kab = interval_module(chain4, ["a", "b"], GF2)
    kac = interval_module(chain4, ["a", "b", "c"], GF2)
    assert is_isomorphic(kab, kac).verdict == "no"


def test_is_isomorphic_symmetry(chain4, rng):
    for _ in range(6):
        m = random_module(rng, chain4, GF2, 2)
        n = random_module(rng, chain4, GF2, 2)
        assert is_isomorphic(m, n).verdict == is_isomorphic(n, m).verdict


def test_is_isomorphic_rational_verify_only(chain4):
    kab = interval_module(chain4, ["a", "b"], QQ)
    scaled = PersistenceModule(chain4, QQ, kab.dims,
                               {(0, 1): Mat.from_rows(QQ, [[Fraction(2, 3)]])})
    res = is_isomorphic(kab, scaled)
    assert res.verdict in ("yes", "unknown")  # never a rational "no" on equal dims
    assert is_isomorphic(kab, kab).verdict == "yes"


def test_morphism_naturality_enforced(chain4, chain4_rho):
    """The constructor does not check naturality; the trust boundary does.
    R_0 N is N on this chain, so the same bad components also form a p: M -> R_0 N."""
    m = interval_module(chain4, ["a", "b", "c", "d"], GF2)
    n = interval_module(chain4, ["a", "b"], GF2)
    rn = apply_R(chain4_rho, 0, n).module
    assert rn.key() == n.key()
    p = ModuleMorphism(m, rn, [Mat.zeros(GF2, 1, 1), Mat.eye(GF2, 1),
                               Mat.zeros(GF2, 0, 1), Mat.zeros(GF2, 0, 1)])
    assert p.naturality_violations() == [("a", "b")]
    with pytest.raises(SchemaError, match=r"\$\.components: naturality fails on cover \('a', 'b'\)"):
        load_morphism(morphism_to_json(p.source, p.components), m, rn)
    q = ModuleMorphism.zero(n, apply_R(chain4_rho, 0, m).module)
    assert not check_certificate(chain4_rho, 0, m, n, p, q)


@pytest.mark.parametrize("rows", [[[1], [0, 1]], [[1, 0]], 5],
                         ids=["ragged", "wrong-size", "not-a-list"])
def test_load_morphism_component_shape(chain4, rows):
    m = interval_module(chain4, ["a", "b", "c", "d"], GF2)
    n = direct_sum(m, m)
    with pytest.raises(SchemaError, match=r"\$\.components\['b'\]: matrix must be 2x1"):
        load_morphism({"components": {"b": rows}}, m, n)


def test_submodule_operations(chain4, rng):
    m = random_module(rng, chain4, GF2, 2)
    full = submodule_full(m)
    zero = submodule_zero(m)
    assert all(solve(full.m1[i], zero.m1[i]) is not None for i in range(len(full.m1)))
    inter = submodule_intersection(full, zero)
    assert all(b.cols == 0 for b in inter.m1)
    s = submodule_sum(zero, full)
    assert all(s.m1[i].cols == m.dims[i] for i in range(len(chain4)))
    sq = quotient_by_submodule(m, full.m1, zero.m1)
    assert sq.parent is m and sq.m1 == full.m1 and sq.m2 == zero.m1
    assert sq.quotient.dims == m.dims
    assert ModuleMorphism(full.quotient, sq.quotient, sq.proj).is_iso()
    assert sq.free == tuple(tuple(range(d)) for d in m.dims)


def test_submodule_image_kernel(chain4):
    m = interval_module(chain4, ["a", "b", "c", "d"], GF2)
    n = interval_module(chain4, ["a", "b"], GF2)
    f = ModuleMorphism(m, n, [Mat.eye(GF2, 1), Mat.eye(GF2, 1),
                              Mat.zeros(GF2, 0, 1), Mat.zeros(GF2, 0, 1)])
    assert f.naturality_violations() == []
    img = submodule_image(f)
    assert [b.cols for b in img.m1] == [1, 1, 0, 0]
    ker = submodule_kernel(f)
    assert [b.cols for b in ker.m1] == [0, 0, 1, 1]
    pre = morphism_preimage(f, submodule_zero(n))
    assert [b.cols for b in pre.m1] == [0, 0, 1, 1]


def test_submodule_spans_with_an_empty_side(chain4):
    """An empty span on either end of a cover gives the zero map, and closure
    fails only when a nonzero span is pushed onto an empty one."""
    m = interval_module(chain4, ["a", "b", "c", "d"], GF2)
    one, none = Mat.eye(GF2, 1), Mat.zeros(GF2, 1, 0)
    sub = submodule_from_bases(m, [none, none, one, one])
    assert [b.cols for b in sub.m1] == [0, 0, 1, 1]
    assert sub.quotient.maps[(1, 2)] == Mat.zeros(GF2, 1, 0)
    assert sub.quotient.maps[(0, 1)] == Mat.zeros(GF2, 0, 0)
    with pytest.raises(SubmoduleError, match=r"M1 not closed .* on cover \('b', 'c'\)"):
        submodule_from_bases(m, [one, one, none, none])
    short = interval_module(chain4, ["a", "b"], GF2)  # zero past b: nothing is pushed out
    sub = submodule_from_bases(short, [one, one, Mat.zeros(GF2, 0, 0), Mat.zeros(GF2, 0, 0)])
    assert sub.quotient.dims == (1, 1, 0, 0) and validate_module(sub.quotient).valid


@pytest.mark.parametrize("full_m1, which", [(False, "M1"), (True, "M2")])
def test_quotient_builder_names_the_cover_a_span_is_not_closed_on(chain4, full_m1, which):
    """On k_[a, d] + k_[a, d] with e1 at a and e2 at b, the identity map of the
    cover (a, b) leaves the span: as M1 over M2 = 0 the solve fails, as M2
    under the whole of M the factorization through the quotient does."""
    line = interval_module(chain4, ["a", "b", "c", "d"], GF2)
    m = direct_sum(line, line)
    e1, e2 = Mat.from_rows(GF2, [[1], [0]]), Mat.from_rows(GF2, [[0], [1]])
    full, zero = Mat.eye(GF2, 2), Mat.zeros(GF2, 2, 0)
    span = [e1, e2, zero, zero]
    m1, m2 = ([full] * 4, span) if full_m1 else (span, [zero] * 4)
    with pytest.raises(SubmoduleError,
                       match=rf"^{which} not closed under the structure map on cover \('a', 'b'\)$"):
        quotient_by_submodule(m, m1, m2)


def test_canonical_pair_map_deterministic():
    ge = grid_example()
    m = ge.module
    a, b = ge.poset.idx("v_0_1"), ge.poset.idx("v_1_2")
    assert m.map_for_idx(a, b) == m.map_for_idx(a, b)
    # composite over the square equals both cover paths (validated module)
    via1 = m.maps[(ge.poset.idx("v_1_1"), b)] @ m.maps[(a, ge.poset.idx("v_1_1"))]
    assert m.map_for_idx(a, b) == via1


def map_by_cover_scan(m, a, b):
    """M(a <= b) along the path whose every step is the first cover, in `covers`
    order, out of the current element that stays below b."""
    out = Mat.eye(m.field, m.dims[a])
    while a != b:
        step = next(hi for lo, hi in m.poset.covers if lo == a and m.poset.leq[hi, b])
        out, a = m.maps[(a, step)] @ out, step
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_map_for_idx_takes_the_first_cover_path(seed):
    """Random cover maps need not commute, so a different path gives a different map."""
    rng = random.Random(seed)
    F = FieldSpec("gfp", 3)
    P = random_poset(rng, rng.randint(1, 7))
    dims = [rng.randint(0, 2) for _ in range(len(P))]
    m = PersistenceModule(P, F, dims, {(a, b): _random_matrix(rng, F, dims[b], dims[a])
                                       for a, b in P.covers})
    for a, b in P.comparable_pairs():
        assert m.map_for_idx(a, b) == map_by_cover_scan(m, a, b)


def _random_matrix(rng, field, rows, cols):
    if field.is_prime_field:
        return Mat.from_rows(field, [[rng.randrange(field.p) for _ in range(cols)]
                                     for _ in range(rows)], cols=cols)
    return Mat.from_rows(field, [[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
                                 for _ in range(rows)], cols=cols)


@given(st.sampled_from((GF2, FieldSpec("gfp", 3), QQ)), st.integers(0, 2**32 - 1),
       st.integers(0, 5), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_factor_at_a_quotient_map_matches_solve(field, seed, ambient, sub, rows):
    """Column selection at quotient_map's free coordinates against `solve`, on
    right-hand sides that factor and on random ones that mostly do not."""
    rng = random.Random(seed)
    q, free = quotient_map(field, ambient, _random_matrix(rng, field, ambient, sub))
    assert q.take_cols(free) == Mat.eye(field, len(free))
    for rhs in (_random_matrix(rng, field, rows, len(free)) @ q,
                _random_matrix(rng, field, rows, ambient)):
        want = solve(q.T, rhs.T)
        got = factor_at(q.a, free, rhs.a, field)
        if want is None:
            assert got is None
        else:
            assert Mat._canonical(field, got) == want.T
