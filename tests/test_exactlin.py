from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hipm.exactlin import (
    GF2,
    QQ,
    FieldSpec,
    Mat,
    batch_consistent,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rref,
    solve,
)

GF3 = FieldSpec("gfp", 3)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec("gfp", 4)
    with pytest.raises(ValueError):
        FieldSpec("gfp", None)
    with pytest.raises(ValueError):
        FieldSpec("weird")
    assert GF2.p == 2 and QQ.kind == "rational"


def test_rref_gf2_rank_one():
    m = Mat.from_rows(GF2, [[1, 1], [1, 1]])
    res = rref(m)
    assert res.rank == 1
    assert res.pivots == (0,)


def test_rref_identity_rational():
    res = rref(Mat.eye(QQ, 3))
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)


def test_rref_empty():
    res = rref(Mat.zeros(QQ, 0, 0))
    assert res.rank == 0 and res.pivots == ()


def test_kernel_identity_trivial():
    assert kernel_basis(Mat.eye(GF2, 2)).cols == 0


def test_kernel_sum_gf2():
    k = kernel_basis(Mat.from_rows(GF2, [[1, 1]]))
    assert k.tolists() == [[1], [1]]


def test_kernel_zero_map():
    k = kernel_basis(Mat.zeros(QQ, 1, 3))
    assert k == Mat.eye(QQ, 3)


def test_image_basis_examples():
    b = image_basis(Mat.from_rows(QQ, [[1, 0], [0, 0]]))
    assert b.tolists() == [["1"], ["0"]]
    assert image_basis(Mat.zeros(QQ, 2, 2)).cols == 0
    inv = Mat.from_rows(QQ, [[1, 1], [0, 1]])
    assert image_basis(inv).cols == 2


def test_solve_identity():
    b = Mat.from_rows(QQ, [[3], [Fraction(1, 2)]])
    assert solve(Mat.eye(QQ, 2), b) == b


def test_solve_free_variable_zeroed():
    x = solve(Mat.from_rows(GF2, [[1, 1]]), Mat.from_rows(GF2, [[1]]))
    assert x.tolists() == [[1], [0]]


def test_solve_inconsistent():
    assert solve(Mat.from_rows(QQ, [[0]]), Mat.from_rows(QQ, [[1]])) is None


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(Mat.zeros(QQ, 2, 2), Mat.zeros(QQ, 3, 1))


def test_quotient_map_line():
    q, d = quotient_map(QQ, 2, Mat.from_rows(QQ, [[-1], [1]]))
    assert d == 1
    assert (q @ Mat.from_rows(QQ, [[-1], [1]])).is_zero()


def test_quotient_full_and_empty():
    _, d = quotient_map(GF2, 2, Mat.eye(GF2, 2))
    assert d == 0
    q, d = quotient_map(GF2, 3, Mat.zeros(GF2, 3, 0))
    assert d == 3 and q == Mat.eye(GF2, 3)


def _random_mat(draw, field, rows, cols):
    if field.is_prime_field:
        entries = draw(st.lists(st.integers(0, field.p - 1),
                                min_size=rows * cols, max_size=rows * cols))
    else:
        entries = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                             max_denominator=4),
                                min_size=rows * cols, max_size=rows * cols))
    m = Mat.zeros(field, rows, cols)
    for i in range(rows):
        for j in range(cols):
            m.a[i, j] = field.coerce(entries[i * cols + j])
    return m


@st.composite
def matrices(draw, fields=(GF2, GF3, QQ), max_dim=5):
    field = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return _random_mat(draw, field, rows, cols)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).cols == m.cols


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_annihilated(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rref(k).rank == k.cols


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_quotient_of_column_space(m):
    q, d = quotient_map(m.field, m.rows, m)
    assert (q @ m).is_zero()
    assert rref(q).rank == d  # surjective
    assert d == m.rows - rref(m).rank


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_deterministic_and_idempotent(m):
    r1 = rref(m)
    r2 = rref(m)
    assert r1.matrix == r2.matrix and r1.pivots == r2.pivots
    again = rref(r1.matrix)
    assert again.matrix == r1.matrix


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_solve_verifies(m):
    rhs = m @ Mat.from_rows(m.field, [[m.field.one()] for _ in range(m.cols)],
                            cols=1) if m.cols else Mat.zeros(m.field, m.rows, 1)
    x = solve(m, rhs)
    assert x is not None
    assert m @ x == rhs


@st.composite
def system_batches(draw):
    """(p, kind, stack): a (B, R, c + 1) stack of augmented systems over a small
    prime field that is random, all zero, or of full row rank R <= c."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nb, nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("random", "zero", "full")))
    if kind == "full":
        nr = min(nr, nc)
    size = nb * nr * (nc + 1)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    stack = np.array(entries, dtype=np.int64).reshape(nb, nr, nc + 1)
    if kind == "zero":
        stack[:] = 0
    elif kind == "full":  # an identity block in permuted columns
        stack[:, :, :nr] = np.eye(nr, dtype=np.int64)
        perm = draw(st.permutations(range(nc)))
        stack[:, :, :nc] = stack[:, :, perm]
    return p, kind, stack


@given(system_batches())
@example((2, "random", np.ones((0, 3, 3), dtype=np.int64)))  # B = 0
@example((3, "zero", np.zeros((2, 0, 4), dtype=np.int64)))  # R = 0
@example((5, "random", np.array([[[0], [4]], [[0], [0]]], dtype=np.int64)))  # no unknowns
@settings(max_examples=300, deadline=None)
def test_batch_consistent_matches_solve(case):
    p, kind, stack = case
    field = FieldSpec("gfp", p)
    got = batch_consistent(stack, p)
    assert got.shape == stack.shape[:1]
    for b in range(stack.shape[0]):
        a, y = Mat(field, stack[b, :, :-1].copy()), Mat(field, stack[b, :, -1:].copy())
        assert bool(got[b]) == (solve(a, y) is not None)
    if kind != "random":
        assert got.all()


def test_batch_consistent_large_prime():
    p = 1048573  # the largest prime below the supported bound 2**20
    field = FieldSpec("gfp", p)
    rng = np.random.default_rng(5)
    stack = rng.integers(0, p, size=(6, 9, 6), dtype=np.int64)  # 9 equations, 5 unknowns
    stack[3:, :, -1] = np.einsum("brc,bc->br", stack[3:, :, :-1],
                                 rng.integers(0, p, size=(3, 5))) % p  # planted solutions
    got = batch_consistent(stack, p)
    for b in range(6):
        a, y = Mat(field, stack[b, :, :-1].copy()), Mat(field, stack[b, :, -1:].copy())
        assert bool(got[b]) == (solve(a, y) is not None)
    assert got[3:].all() and not got[:3].any()
