"""The batched GF(p) candidate search against a scalar reference that tries one
candidate at a time with `solve`: same verdict, same `candidates_tried`, same
first witness."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hipm.exactlin import FieldSpec, Mat, batch_consistent, compressed_family, solve
from hipm.fixtures import bipath_example, chain_example, grid_example
from hipm.functors import apply_R, e_r, sharp
from hipm.height import rho_diag
from hipm.interleave import _bilinear_search, find_interleaving
from hipm.pmod import direct_sum, hom_basis, interval_module, morphism_from_coeffs
from hipm.poset import FinitePoset


def candidate_system(tensor, rhs, field, coeffs):
    cols = np.tensordot(tensor, np.array(coeffs, dtype=np.int64), axes=([1], [0])) % field.p
    return Mat(field, cols.T.copy()), Mat(field, rhs.reshape(-1, 1).copy())


def scalar_search(tensor, rhs, field, budget):
    """Reference: candidates in itertools.product order, one `solve` each."""
    tried = 0
    for coeffs in itertools.product(range(field.p), repeat=tensor.shape[1]):
        if tried >= budget:
            return "unknown", None, None, tried
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
    verdict, coeffs, x, tried = _bilinear_search(tensor, rhs, field, budget)
    want = scalar_search(tensor, rhs, field, budget)
    assert (verdict, coeffs, tried) == (want[0], want[1], want[3])
    if verdict == "yes":
        assert x == want[2]


def flat(mor):
    return np.concatenate([c.a.ravel() for c in mor.components] + [np.zeros(0, np.int64)])


def reference_interleaving(rho, r, m, n, budget):
    """`scalar_search` on the bilinear data of an r-interleaving, built one
    composite at a time: (verdict, tried, p, q), with p and q None where their
    Hom space is zero."""
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
        for got, want in ((res.certificate.p, p), (res.certificate.q, q)):
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


def test_budget_edges():
    ce = chain_example(2, FieldSpec("gfp", 3))
    m, n = direct_sum(ce.M, ce.M), direct_sum(ce.N, ce.N)  # not 1-interleaved, h1 = 4
    full = find_interleaving(ce.rho, 1, m, n)
    assert (full.verdict, full.candidates_tried) == ("no", 3 ** 4)
    exact = find_interleaving(ce.rho, 1, m, n, budget=3 ** 4)
    assert (exact.verdict, exact.candidates_tried) == ("no", 3 ** 4)
    for budget in (1, 2, 3 ** 4 - 1):
        short = find_interleaving(ce.rho, 1, m, n, budget=budget)
        assert (short.verdict, short.candidates_tried) == ("unknown", budget)
