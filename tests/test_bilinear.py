"""The batched GF(p) candidate search against a scalar reference that tries one
candidate at a time with `solve`: same verdict, same `candidates_tried`, same
first witness.  The reference searches the bilinear tensor of the transposes,
built one transpose and one composite at a time; it also builds the tensor on
the colimit legs that `find_interleaving` searches one composite at a time,
and the tensor `search_pair` stacks must equal it.  Deep
families with tiny batches drive the search through blocks it skips by their
linear relaxation.  `is_isomorphic`, which runs on the same search, is compared
with a scan that tests one combination of the Hom basis at a time for full
rank."""

import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hipm import exactlin
from hipm.exactlin import (DEFAULT_BUDGET, FieldSpec, Mat, _bilinear_search, batch_consistent,
                           compressed_family, hstack, rref, solve, solve_candidate)
from hipm.fixtures import bipath_example, chain_example, grid_example
from hipm.functors import apply_R, e_r, e_r_legs, eta_id, sharp, sharp_legs
from hipm.height import level, nbhd_tops, rho_diag
from hipm.interleave import check_certificate, distance, find_interleaving
from hipm.pmod import ModuleMorphism, direct_sum, hom_basis, interval_module, is_isomorphic, search_pair
from hipm.poset import FinitePoset
from hipm.randgen import random_conjugate, random_forest_poset, random_module, random_poset


def candidate_system(tensor, rhs, field, coeffs):
    cols = np.tensordot(tensor, np.array(coeffs, dtype=np.int64), axes=([1], [0])) % field.p
    return Mat(field, cols.T.copy()), Mat(field, rhs.reshape(-1, 1).copy())


def relaxation_consistent(tensor, rhs, field):
    """Whether the system stays solvable with each product c_i x_j of a
    coefficient and an unknown taken as an unknown of its own: one `solve`."""
    h2, h1, L = tensor.shape
    return solve(Mat(field, tensor.reshape(h2 * h1, L).T.copy()),
                 Mat(field, rhs.reshape(-1, 1).copy())) is not None


def scalar_search(tensor, rhs, field, budget):
    """Reference: candidates in itertools.product order, one `solve` each.
    Before candidate 1 the relaxed system decides: if it is inconsistent, no
    candidate is a witness, and that is a "no" whatever the budget."""
    tried = 0
    for coeffs in itertools.product(range(field.p), repeat=tensor.shape[1]):
        if tried >= budget:
            return "unknown", None, None, tried
        if tried == 1 and not relaxation_consistent(tensor, rhs, field):
            return "no", None, None, field.p ** tensor.shape[1]
        tried += 1
        x = solve(*candidate_system(tensor, rhs, field, coeffs))
        if x is not None:
            return "yes", coeffs, x, tried
    return "no", None, None, tried


def _ints(draw, p, n):
    return np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
                    dtype=np.int64)


@st.composite
def bilinear_families(draw):
    """(field, tensor, rhs, budget) with small shapes, zero sizes included; half
    of them have a planted witness c0 with solution x0."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    h1 = draw(st.integers(0, 3 if p <= 3 else 2))
    h2, L = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    tensor = _ints(draw, p, h2 * h1 * L).reshape(h2, h1, L)
    rhs = _ints(draw, p, L)
    if draw(st.booleans()):
        rhs = np.einsum("jil,i,j->l", tensor, _ints(draw, p, h1), _ints(draw, p, h2)) % p
    budget = draw(st.integers(1, p ** h1 + 1))
    return FieldSpec("gfp", p), tensor, rhs, budget


def assert_search_matches(field, tensor, rhs, budget, want):
    """`_bilinear_search` against the reference result `want`, and the witness's
    x from `solve_candidate` against the reference's."""
    verdict, coeffs, tried = _bilinear_search(tensor, rhs, field, budget)
    assert (verdict, coeffs, tried) == (want[0], want[1], want[3])
    if verdict == "yes":
        assert solve_candidate(tensor, rhs, coeffs, field) == want[2]


# (field, tensor, rhs, budget) with h1 = 0, h2 = 0 and L = 0
ZERO_SHAPES = [(FieldSpec("gfp", 3), np.zeros(shape, dtype=np.int64),
                np.ones(shape[2], dtype=np.int64), 2)
               for shape in ((2, 0, 3), (0, 2, 3), (2, 2, 0))]


@given(bilinear_families())
@example(ZERO_SHAPES[0])
@example(ZERO_SHAPES[1])
@example(ZERO_SHAPES[2])
@settings(max_examples=200, deadline=None)
def test_compressed_rows_keep_every_candidate(case):
    field, tensor, rhs, _ = case
    h2, h1, L = tensor.shape
    family = compressed_family(tensor, rhs, field)
    assert family.shape[0] == h1 + 1 and family.shape[1] <= L and family.shape[2] == h2 + 1
    for coeffs in itertools.product(range(field.p), repeat=h1):
        a, y = candidate_system(tensor, rhs, field, coeffs)
        full = np.concatenate([a.a, y.a], axis=1)[None]
        cut = np.tensordot(np.array(coeffs + (1,), dtype=np.int64), family, axes=1)[None] % field.p
        expected = solve(a, y) is not None
        assert batch_consistent(full, field.p)[0] == expected
        assert batch_consistent(cut, field.p)[0] == expected


@given(bilinear_families())
@example(ZERO_SHAPES[0])
@example(ZERO_SHAPES[1])
@example(ZERO_SHAPES[2])
@settings(max_examples=200, deadline=None)
def test_bilinear_search_matches_scalar_reference(case):
    field, tensor, rhs, budget = case
    assert_search_matches(field, tensor, rhs, budget, scalar_search(tensor, rhs, field, budget))


@st.composite
def pruned_families(draw):
    """(field, tensor, rhs, budget, leaf) deep enough for blocks above the
    leaves: h1 up to 7 over GF(2) and 5 over GF(3), some (i, l) slices zeroed so
    that digit i leaves row l alone and relaxations fail, budgets anywhere up to
    past the end, and batches of `leaf` = 1..8 candidates."""
    p = draw(st.sampled_from((2, 3)))
    h1 = draw(st.integers(2, 7 if p == 2 else 5))
    h2, L = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    tensor = _ints(draw, p, h2 * h1 * L).reshape(h2, h1, L)
    zeroed = draw(st.lists(st.booleans(), min_size=h1 * L, max_size=h1 * L))
    tensor[:, np.array(zeroed).reshape(h1, L)] = 0
    rhs = _ints(draw, p, L)
    if draw(st.booleans()):
        rhs = np.einsum("jil,i,j->l", tensor, _ints(draw, p, h1), _ints(draw, p, h2)) % p
    budget = draw(st.integers(1, p ** h1 + 1))
    return FieldSpec("gfp", p), tensor, rhs, budget, draw(st.integers(1, 8))


def small_batches(field, tensor, rhs, leaf):
    """Patch `_BATCH_BYTES` so that one batch holds `leaf` candidate systems."""
    family = compressed_family(tensor, rhs, field)
    width = family.shape[1] * family.shape[2]
    return mock.patch.object(exactlin, "_BATCH_BYTES", 8 * max(1, width) * leaf)


def digit_family(p, h1, rows):
    """One equation c_i x = v per (i, v) in `rows`, with h2 = 1.  With (0, 1)
    among them every candidate with c_0 = 0, the first block of p**(h1 - 1),
    fails, and so does its relaxation."""
    tensor = np.zeros((1, h1, len(rows)), dtype=np.int64)
    for l, i in enumerate(rows):
        tensor[0, i, l] = 1
    return FieldSpec("gfp", p), tensor, np.array(list(rows.values()), dtype=np.int64)


@given(pruned_families())
@example((*digit_family(2, 7, {0: 1}), 2 ** 6 - 3, 2))  # budget ends inside the skipped block
@example((*digit_family(3, 5, {0: 1}), 3 ** 4, 1))  # ... at its last candidate
@example((*digit_family(3, 5, {0: 1}), 3 ** 4 + 1, 4))  # ... on the witness just after it
@example((*digit_family(3, 5, {0: 1, 4: 1}), 3 ** 4 + 1, 3))  # ... inside the witness's leaf
@settings(max_examples=300, deadline=None)
def test_pruned_search_matches_scalar_reference(case):
    """At the drawn budget, and when that finds a witness, at each budget that
    ends up to `leaf` candidates before it."""
    field, tensor, rhs, budget, leaf = case
    want = scalar_search(tensor, rhs, field, budget)
    with small_batches(field, tensor, rhs, leaf):
        assert_search_matches(field, tensor, rhs, budget, want)
        for short in range(max(1, want[3] - leaf), want[3] if want[0] == "yes" else 0):
            assert_search_matches(field, tensor, rhs, short, ("unknown", None, None, short))


def test_block_indices_past_2_62_are_exact():
    """Skipping the c_0 = 0 block of 3**40 > 2**62 candidates lands past int64
    range in one step; the witness c_0 = 1, c_40 = 2 sits at index 3**40 + 2."""
    field, tensor, rhs = digit_family(3, 41, {0: 1, 40: 2})
    assert 3 ** 40 > 2 ** 62
    witness = (1,) + (0,) * 39 + (2,)
    verdict, coeffs, tried = _bilinear_search(tensor, rhs, field, 10 ** 20)
    assert (verdict, coeffs, tried) == ("yes", witness, 3 ** 40 + 3)
    assert solve_candidate(tensor, rhs, coeffs, field).a.tolist() == [[1]]
    assert _bilinear_search(tensor, rhs, field, 3 ** 40 + 2)[::2] == ("unknown", 3 ** 40 + 2)


def flat(mor):
    return np.concatenate([c.a.ravel() for c in mor.components] + [np.zeros(0, np.int64)])


def morphism_from_coeffs(basis, coeffs):
    """sum_i coeffs[i] * basis[i], one scaled morphism at a time."""
    basis = list(basis)
    F = basis[0].source.field
    out = ModuleMorphism.zero(basis[0].source, basis[0].target)
    for b, x in zip(basis, coeffs):
        out = ModuleMorphism(b.source, b.target, [Mat(F, o.a + c.a * F.coerce(x))
                                                  for o, c in zip(out.components, b.components)])
    return out


def on_legs(rho, r, field, rows, block):
    """Per element a, block(a, x) for each maximal x of a's lower
    r-neighborhood, side by side (`rows[a]` rows), flattened and concatenated."""
    tops = nbhd_tops(rho, level(rho, r))
    return np.concatenate([hstack(field, [block(a, x) for x in xs], rows=rows[a]).a.ravel()
                           for a, xs in enumerate(tops)] + [np.zeros(0, np.int64)])


def reference_interleaving(rho, r, m, n, budget):
    """`scalar_search` on the bilinear data of an r-interleaving on the
    transposes, built one transpose and one composite at a time: (verdict,
    tried, p, q), with p and q None where their Hom space is zero.  Also builds
    the data on the colimit legs one composite at a time and checks that the
    tensor and right-hand side `search_pair` stacks from `sharp_legs` /
    `e_r_legs` are the same."""
    r = Fraction(r)
    rm, rn = apply_R(rho, r, m).module, apply_R(rho, r, n).module
    p_basis, q_basis = hom_basis(m, rn), hom_basis(n, rm)
    p_sharps = [sharp(rho, r, n, b) for b in p_basis]
    q_sharps = [sharp(rho, r, m, b) for b in q_basis]
    rhs = np.concatenate([flat(e_r(rho, r, m)), flat(e_r(rho, r, n))])
    tensor = np.zeros((len(q_basis), len(p_basis), len(rhs)), dtype=np.int64)
    for j, i in itertools.product(range(len(q_basis)), range(len(p_basis))):
        tensor[j, i] = np.concatenate([flat(q_basis[j].compose(p_sharps[i])),
                                       flat(p_basis[i].compose(q_sharps[j]))])

    def composites(f, g, app):  # f(a) o leg_a(app at x) o g(x)
        return on_legs(rho, r, m.field, f.target.dims,
                       lambda a, x: f.components[a] @ app.data[x].legs[a] @ g.components[x])

    def e_blocks(mod):  # eta(a) o mod(x <= a), eta the unit mod -> R_r mod
        eta = eta_id(rho, r, mod, "R")
        return on_legs(rho, r, m.field, eta.target.dims,
                       lambda a, x: eta.components[a] @ mod.map_for_idx(x, a))

    leg_rhs = np.concatenate([e_blocks(m), e_blocks(n)])
    legs = np.zeros((len(q_basis), len(p_basis), len(leg_rhs)), dtype=np.int64)
    for j, i in itertools.product(range(len(q_basis)), range(len(p_basis))):
        legs[j, i] = np.concatenate([composites(q_basis[j], p_basis[i], apply_R(rho, r, n)),
                                     composites(p_basis[i], q_basis[j], apply_R(rho, r, m))])
    with mock.patch("hipm.pmod._bilinear_search", wraps=_bilinear_search) as search:
        search_pair(p_basis, q_basis, sharp_legs(rho, r, n, p_basis), sharp_legs(rho, r, m, q_basis),
                    e_r_legs(rho, r, m), e_r_legs(rho, r, n), budget)
    stacked, stacked_rhs = search.call_args.args[:2]
    assert np.array_equal(stacked, legs) and np.array_equal(stacked_rhs, leg_rhs)
    verdict, coeffs, x, tried = scalar_search(tensor, rhs, m.field, budget)
    if verdict != "yes":
        return verdict, tried, None, None
    p = morphism_from_coeffs(p_basis, list(coeffs)) if p_basis else None
    q = morphism_from_coeffs(q_basis, list(x.a[:, 0])) if q_basis else None
    return verdict, tried, p, q


def assert_matches_reference(rho, r, m, n, budget):
    res = find_interleaving(rho, r, m, n, budget=budget)
    verdict, tried, p, q = reference_interleaving(rho, r, m, n, budget)
    assert (res.verdict, res.candidates_tried) == (verdict, tried)
    if verdict == "yes":
        for got, want in ((res.p, p), (res.q, q)):
            if want is None:
                assert all(c.is_zero() for c in got.components)
            else:
                assert got.components == want.components
    return res


def stress_family(p, k, shift):
    """k copies of the interval [c1, c4] on the 8-chain against k copies of it
    shifted up by `shift`, with the diagonal height."""
    g = FinitePoset.grid([8])
    field = FieldSpec("gfp", p)

    def copies(lo, hi):
        one = interval_module(g, list(g.elements[lo:hi + 1]), field)
        out = one
        for _ in range(k - 1):
            out = direct_sum(out, one)
        return out

    return rho_diag(g), copies(1, 4), copies(1 + shift, 4 + shift)


@pytest.mark.parametrize("p,k,shift", [(p, k, s) for p in (2, 3, 5) for k in (1, 2, 3)
                                       for s in (1, 2)])
def test_find_interleaving_matches_reference_on_stress_family(p, k, shift):
    rho, m, n = stress_family(p, k, shift)
    for r in (1, 2):
        for budget in (1, 200):
            res = assert_matches_reference(rho, r, m, n, budget)
            assert res.candidates_tried <= budget


def test_find_interleaving_matches_reference_on_fixtures():
    for p in (2, 3):
        field = FieldSpec("gfp", p)
        ce = chain_example(2, field)
        for a, b in ((ce.M, ce.N), (ce.N, ce.M), (ce.M, ce.X), (ce.M, ce.M)):
            for r in ("1/2", 1, 2, 3):
                assert_matches_reference(ce.rho, r, a, b, 1 << 12)
    ge, be = grid_example(), bipath_example()
    assert_matches_reference(ge.rho, 1, ge.module, ge.module, 1 << 12)
    assert_matches_reference(be.rho, 1, be.M, be.M, 1 << 12)


def identity_family(p, h1):
    """c_i x_j = [i == j] for i, j < 2, with h2 = 2: the relaxation takes
    z_ij = [i == j] and is solvable, but the rank-one c x^T is never the
    identity, so no candidate is a witness."""
    tensor = np.zeros((2, h1, 4), dtype=np.int64)
    for l, (i, j) in enumerate(itertools.product(range(2), repeat=2)):
        tensor[j, i, l] = 1
    return FieldSpec("gfp", p), tensor, np.array([1, 0, 0, 1], dtype=np.int64)


def test_budget_edges():
    """A pair whose relaxation fails is a "no" as soon as the budget reaches
    candidate 1; a pair whose relaxation holds stays "unknown" up to p**h1."""
    ce = chain_example(2, FieldSpec("gfp", 3))
    m, n = direct_sum(ce.M, ce.M), direct_sum(ce.N, ce.N)  # not 1-interleaved, h1 = 4
    full = find_interleaving(ce.rho, 1, m, n)
    assert (full.verdict, full.candidates_tried) == ("no", 3 ** 4)
    for budget in (2, 3 ** 4 - 1, 3 ** 4):
        short = find_interleaving(ce.rho, 1, m, n, budget=budget)
        assert (short.verdict, short.candidates_tried) == ("no", 3 ** 4)
    short = find_interleaving(ce.rho, 1, m, n, budget=1)
    assert (short.verdict, short.candidates_tried) == ("unknown", 1)
    field, tensor, rhs = identity_family(3, 4)
    assert relaxation_consistent(tensor, rhs, field)
    assert _bilinear_search(tensor, rhs, field, 3 ** 4)[::2] == ("no", 3 ** 4)
    for budget in (1, 2, 3 ** 4 - 1):
        assert _bilinear_search(tensor, rhs, field, budget)[::2] == ("unknown", budget)


@pytest.mark.parametrize("p,tried", [(3, 551_881), (2, 4_681)])
def test_stress_target_at_default_budget(p, tried):
    """The GF(3), k = 4 pair took about 29 s to reach its witness one candidate
    at a time; skipping blocks reaches the same witness."""
    rho, m, n = stress_family(p, 4, 1)
    start = time.perf_counter()
    res = find_interleaving(rho, 1, m, n)
    elapsed = time.perf_counter() - start
    assert (res.verdict, res.candidates_tried) == ("yes", tried)
    assert check_certificate(rho, 1, m, n, res.p, res.q)
    assert elapsed < 10


def test_stress_target_stays_undecided_at_small_budget():
    rho, m, n = stress_family(3, 4, 1)
    rep = distance(rho, m, n, budget=5000)
    assert not rep.decided and (rep.distance_lo, rep.distance) == (0, 1)
    assert rep.strata[level(rho, 1)].verdict.replace("implied-", "") == "unknown"


def iso_relaxation_consistent(f_basis, g_basis):
    """Whether sum z_ij g_j f_i = id and sum z_ij f_i g_j = id has a solution
    z, one unknown per product c_i d_j: one `solve` on composites built one
    pair at a time."""
    m, n = f_basis.source, f_basis.target

    def flat_identity(mod):
        return np.concatenate([Mat.eye(mod.field, d).a.ravel() for d in mod.dims])

    cols = [np.concatenate([flat(g.compose(f)), flat(f.compose(g))])
            for f in f_basis for g in g_basis]
    rhs = np.concatenate([flat_identity(m), flat_identity(n)])
    a = np.array(cols, dtype=np.int64).T if cols else np.zeros((len(rhs), 0), dtype=np.int64)
    return solve(Mat(m.field, a), Mat(m.field, rhs.reshape(-1, 1))) is not None


def scalar_is_isomorphic(m, n, budget):
    """Reference over GF(p), for modules of equal dimensions and nonzero total
    dimension: the combinations of `hom_basis(m, n)` in itertools.product
    order, one at a time, each tested for full rank at every element.  Before
    candidate 1, an inconsistent relaxation is a "no" whatever the budget.
    Returns (verdict, witness, candidates counted)."""
    basis = hom_basis(m, n)
    h = len(basis)
    if h == 0:
        return "no", None, 0
    order = sorted(range(len(m.dims)), key=lambda i: (-m.dims[i], i))
    check_order = [i for i in order if m.dims[i] > 0]

    def try_coeffs(coeffs):
        cand = basis.combine(coeffs)
        for i in check_order:
            c = cand.components[i]
            if rref(c).rank != c.rows:
                return None
        return cand

    count = 0
    for coeffs in itertools.product(range(m.field.p), repeat=h):
        count += 1
        if count > budget:
            return "unknown", None, budget
        if count == 2 and not iso_relaxation_consistent(basis, hom_basis(n, m)):
            return "no", None, m.field.p ** h
        cand = try_coeffs(coeffs)
        if cand is not None:
            return "yes", cand, count
    return "no", None, count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_is_isomorphic_finds_the_first_witness_of_a_scalar_scan(seed):
    """Same verdict and same witness as the scan, at the default budget, at
    budgets 0 and 1, just before and at the witness, and one below p**h, where
    a "no" becomes "unknown" on both sides unless the relaxation proved it."""
    rng = random.Random(seed)
    pairs = {"yes": 0, "no": 0}
    short_no = {True: 0, False: 0}  # below p**h: proved by the relaxation, or not
    for i in range(60):
        field = FieldSpec("gfp", (2, 3)[i % 2])
        size = rng.randint(2, 4)
        poset = random_poset(rng, size) if i % 4 < 2 else random_forest_poset(rng, size)
        m = random_module(rng, poset, field, 2)
        n = random_conjugate(rng, m) if i % 3 == 0 else random_module(rng, poset, field, 2)
        for _ in range(20):
            if n.dims == m.dims:
                break
            n = random_module(rng, poset, field, 2)
        h = len(hom_basis(m, n))
        if m.dims != n.dims or m.total_dim() == 0 or field.p ** h > 4096:
            continue
        full, _, position = scalar_is_isomorphic(m, n, DEFAULT_BUDGET)
        pairs[full] += 1
        budgets = {DEFAULT_BUDGET, 0, 1, position - 1, position, field.p ** h - 1}
        for budget in sorted(b for b in budgets if b >= 0):
            verdict, witness, _ = scalar_is_isomorphic(m, n, budget)
            got = is_isomorphic(m, n, budget=budget)
            assert got.verdict == verdict, (i, budget)
            if verdict == "yes":
                assert got.p.components == witness.components
            elif budget < field.p ** h:
                relaxed = budget > 1 and not iso_relaxation_consistent(hom_basis(m, n),
                                                                       hom_basis(n, m))
                assert verdict == ("no" if relaxed else "unknown")
                short_no[relaxed] += 1
    assert pairs["yes"] >= 5 and pairs["no"] >= 5, pairs
    assert all(short_no.values()), short_no
