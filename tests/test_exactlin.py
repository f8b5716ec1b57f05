from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF as SympyGF, QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from hipm.exactlin import (
    _MAX_INNER,
    GF2,
    QQ,
    FieldSpec,
    Mat,
    _null_space,
    batch_consistent,
    factor_at,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rref,
    solve,
    stacked_matmul,
    vstack,
    zeros,
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
    q, free = quotient_map(QQ, 2, Mat.from_rows(QQ, [[-1], [1]]))
    assert free == (1,)
    assert (q @ Mat.from_rows(QQ, [[-1], [1]])).is_zero()


def test_quotient_full_and_empty():
    _, free = quotient_map(GF2, 2, Mat.eye(GF2, 2))
    assert free == ()
    q, free = quotient_map(GF2, 3, Mat.zeros(GF2, 3, 0))
    assert free == (0, 1, 2) and q == Mat.eye(GF2, 3)


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
    q, free = quotient_map(m.field, m.rows, m)
    d = len(free)
    assert (q @ m).is_zero()
    assert rref(q).rank == d  # surjective
    assert d == m.rows - rref(m).rank
    assert q.take_cols(free) == Mat.eye(m.field, d)


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


# ---------------------------------------------------------------------------
# differential tests against sympy's DomainMatrix, and canonical outputs
# ---------------------------------------------------------------------------


SYMPY_FIELDS = (GF2, GF3, FieldSpec("gfp", 7), QQ)


def _to_sympy(m: Mat) -> DomainMatrix:
    K = SympyGF(m.field.p) if m.field.is_prime_field else SympyQQ
    if m.field.is_prime_field:
        rows = [[K(int(x)) for x in row] for row in m.a]
    else:
        rows = [[K(x.numerator, x.denominator) for x in row] for row in m.a]
    return DomainMatrix(rows, m.a.shape, K)


def _from_sympy(d: DomainMatrix, field) -> Mat:
    out = Mat.zeros(field, *d.shape)
    for i, row in enumerate(d.to_list()):
        for j, x in enumerate(row):
            out.a[i, j] = (int(x) % field.p if field.is_prime_field
                           else Fraction(int(x.numerator), int(x.denominator)))
    return out


def _canonical(m: Mat) -> bool:
    """int64 entries in [0, p) over GF(p), Fraction objects over Q."""
    if m.a.ndim != 2:
        return False
    if m.field.is_prime_field:
        return m.a.dtype == np.int64 and bool(((m.a >= 0) & (m.a < m.field.p)).all())
    return m.a.dtype == object and all(type(x) is Fraction for x in m.a.ravel())


@st.composite
def products(draw, fields=SYMPY_FIELDS, max_dim=4):
    """(a, b) over one field with a.cols == b.rows, zero sizes included."""
    field = draw(st.sampled_from(fields))
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    return _random_mat(draw, field, n, k), _random_mat(draw, field, k, m)


@given(matrices(fields=SYMPY_FIELDS))
@settings(max_examples=200, deadline=None)
def test_rref_and_kernel_match_sympy(m):
    ref, pivots = _to_sympy(m).rref()
    res = rref(m)
    assert res.matrix == _from_sympy(ref, m.field)
    assert res.pivots == tuple(pivots) and res.rank == len(pivots)
    # sympy scales its null vectors differently; the canonical basis is the one
    # that m kills and that is the identity on the non-pivot columns
    basis, free = _null_space(m)
    assert kernel_basis(m) == basis
    assert free == tuple(j for j in range(m.cols) if j not in pivots)
    assert basis.take_rows(free) == Mat.eye(m.field, len(free))
    assert (_to_sympy(m) * _to_sympy(basis)).is_zero_matrix
    assert len(free) == _to_sympy(m).nullspace().shape[0]


EMPTY_SHAPES = ((0, 0), (0, 3), (3, 0))


def _pin_empty_shapes(make):
    """An @example per field of GF(2), GF(3), Q and per empty shape, from make(F, rows, cols)."""
    def pin(test):
        for F in (GF2, GF3, QQ):
            for rows, cols in EMPTY_SHAPES:
                test = example(make(F, rows, cols))(test)
        return test
    return pin


@given(matrices(fields=SYMPY_FIELDS))
@_pin_empty_shapes(Mat.zeros)
@settings(max_examples=150, deadline=None)
def test_rref_with_a_pivot_limit_matches_sympy(m):
    """rref(m, pivot_limit=k) for every k: its pivots and left block are sympy's
    rref of m[:, :k], and its rows span no more than m's."""
    rank = _to_sympy(m).rank()
    for k in range(m.cols + 1):
        res = rref(m, pivot_limit=k)
        ref, pivots = _to_sympy(m.take_cols(range(k))).rref()
        assert res.pivots == tuple(pivots) and res.rank == len(pivots)
        assert res.matrix.take_cols(range(k)) == _from_sympy(ref, m.field)
        assert _to_sympy(vstack(m.field, [m, res.matrix])).rank() == rank
        assert _canonical(res.matrix)


@st.composite
def systems(draw):
    """(a, b) over one field with b = a @ x for a random x, or b random."""
    a = draw(matrices(fields=SYMPY_FIELDS))
    width = draw(st.integers(0, 2))
    if draw(st.booleans()):
        return a, a @ _random_mat(draw, a.field, a.cols, width)
    return a, _random_mat(draw, a.field, a.rows, width)


def _empty_system(F, rows, cols):
    """A zero a of an empty shape; b is all ones, so 3 x 0 is inconsistent."""
    return Mat.zeros(F, rows, cols), Mat.from_rows(F, [[1, 1]] * rows, cols=2)


@given(systems())
@_pin_empty_shapes(_empty_system)
@settings(max_examples=200, deadline=None)
def test_solve_matches_sympy(system):
    """solve returns None exactly when sympy's ranks of A and [A | b] differ;
    otherwise it returns the solution that is zero off A's pivot columns."""
    a, b = system
    x = solve(a, b)
    rank_a = _to_sympy(a).rank()
    rank_ab = _to_sympy(hstack(a.field, [a, b], rows=a.rows)).rank()
    assert (x is None) == (rank_ab > rank_a)
    if x is not None:
        assert _canonical(x) and (x.rows, x.cols) == (a.cols, b.cols)
        assert a @ x == b
        _, pivots = _to_sympy(a).rref()
        off = [j for j in range(a.cols) if j not in pivots]
        assert x.take_rows(off).is_zero()


@given(products())
@settings(max_examples=200, deadline=None)
def test_matmul_matches_sympy(pair):
    a, b = pair
    prod = a @ b
    assert _canonical(prod)
    assert prod == _from_sympy(_to_sympy(a) * _to_sympy(b), a.field)


def _empty_product(F, rows, cols):
    return Mat.zeros(F, rows, cols), Mat.zeros(F, cols, rows)


@given(products())
@_pin_empty_shapes(_empty_product)
@settings(max_examples=200, deadline=None)
def test_unnormalised_ops_return_canonical_arrays(pair):
    """The ops that skip Mat's normalising pass still return canonical arrays."""
    a, b = pair
    F = a.field
    q, free = quotient_map(F, a.rows, a)
    outs = [Mat.zeros(F, a.rows, a.cols), Mat.eye(F, a.cols), a.T, a @ b,
            a.take_cols(range(0, a.cols, 2)), a.take_rows(range(1, a.rows, 2)),
            hstack(F, [a, a], rows=a.rows), vstack(F, [b, b], cols=b.cols),
            hstack(F, [], rows=a.rows), vstack(F, [], cols=b.cols),
            kernel_basis(a), _null_space(a)[0], q, image_basis(a), rref(a).matrix,
            solve(a, a @ b), solve(a, Mat.zeros(F, a.rows, 0)), solve(b, Mat.zeros(F, b.rows, 2)),
            Mat._canonical(F, factor_at(q.a, free, q.a, F)),
            Mat._canonical(F, factor_at(q.a, free, zeros(F, (0, a.rows)), F)),
            Mat._canonical(F, factor_at(q.a, free, zeros(F, (2, 0, a.rows)), F)[1])]
    outs += [rref(a, pivot_limit=k).matrix for k in range(a.cols + 1)]
    outs += [a.take_cols([j]) for j in range(a.cols)]
    assert all(_canonical(m) for m in outs)


@pytest.mark.parametrize("F", [GF2, GF3, QQ], ids=["GF2", "GF3", "QQ"])
def test_malformed_calls_raise_with_an_empty_side(F):
    with pytest.raises(ValueError, match="row mismatch"):
        solve(Mat.zeros(F, 2, 0), Mat.zeros(F, 3, 1))
    with pytest.raises(ValueError, match="row mismatch"):
        solve(Mat.zeros(F, 0, 2), Mat.zeros(F, 1, 0))
    q, free = quotient_map(F, 3, Mat.from_rows(F, [[1], [1], [0]]))  # q is 2 x 3
    for rhs in (zeros(F, (0, 4)), zeros(F, (2, 0, 4))):  # rhs one column too wide
        with pytest.raises(ValueError):
            factor_at(q.a, free, rhs, F)
    with pytest.raises(ValueError, match="shape mismatch"):  # free does not match q's rows
        factor_at(q.a, free + (0,), zeros(F, (0, 3)), F)


def test_stacked_matmul_refuses_an_inner_dimension_past_the_bound():
    F = FieldSpec("gfp", 1048573)
    for inner in (_MAX_INNER + 1, 2 * _MAX_INNER):
        with pytest.raises(ValueError, match="bound"):
            stacked_matmul(F, np.ones((2, 1, inner), dtype=np.int64), np.ones((inner, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="bound"):
            Mat(F, np.ones((1, inner), dtype=np.int64)) @ Mat(F, np.ones((inner, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape mismatch"):
        stacked_matmul(F, np.ones((2, 3), dtype=np.int64), np.ones((2, 2), dtype=np.int64))


# (batch of a, batch of b) pairs that np.matmul broadcasts
BATCHES = [((), ()), ((3,), ()), ((), (2,)), ((3,), (3,)), ((2, 1), (3,)), ((1,), (2,))]


@given(st.integers(0, 2**32 - 1), st.sampled_from(BATCHES), st.integers(0, 3),
       st.sampled_from([0, 1, 5, 64]), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_stacked_matmul_agrees_with_python_integers(seed, batches, rows, inner, cols):
    """With p = 1 048 573, the largest prime below 2**20, against exact Python-int
    sums reduced mod p, on broadcast stacks."""
    p = 1048573
    F = FieldSpec("gfp", p)
    rs = np.random.default_rng(seed)
    a = rs.integers(0, p, batches[0] + (rows, inner), dtype=np.int64)
    b = rs.integers(0, p, batches[1] + (inner, cols), dtype=np.int64)
    got = stacked_matmul(F, a, b)
    batch = np.broadcast_shapes(*batches)
    aa = np.broadcast_to(a, batch + a.shape[-2:])
    bb = np.broadcast_to(b, batch + b.shape[-2:])
    assert got.dtype == np.int64 and got.shape == batch + (rows, cols)
    for idx in np.ndindex(*got.shape):
        *at, i, j = idx
        left, right = aa[tuple(at)], bb[tuple(at)]
        assert got[idx] == sum(int(left[i, k]) * int(right[k, j]) for k in range(inner)) % p


def test_stacked_matmul_at_the_bound_does_not_overflow():
    p = 1048573
    F = FieldSpec("gfp", p)
    a = np.full((2, 1, _MAX_INNER), p - 1, dtype=np.int64)
    got = stacked_matmul(F, a, np.full((_MAX_INNER, 2), p - 1, dtype=np.int64))
    assert got.tolist() == [[[(p - 1) ** 2 * _MAX_INNER % p] * 2]] * 2


def test_stacked_matmul_empty_inner_dimension_gives_field_zeros():
    a, b = zeros(QQ, (3, 2, 0)), zeros(QQ, (0, 4))
    out = stacked_matmul(QQ, a, b)
    assert out.shape == (3, 2, 4) and all(type(x) is Fraction and x == 0 for x in out.ravel())
    assert stacked_matmul(GF2, np.zeros((2, 0), np.int64), np.zeros((1, 0, 3), np.int64)).shape == (1, 2, 3)
    assert all(type(x) is Fraction for x in (Mat.zeros(QQ, 2, 0) @ Mat.zeros(QQ, 0, 2)).a.ravel())
    q = stacked_matmul(QQ, np.array([[Fraction(1, 2)]], dtype=object)[None],
                       np.array([[Fraction(2, 3)]], dtype=object))
    assert q.tolist() == [[[Fraction(1, 3)]]]


# ---------------------------------------------------------------------------
# rref against the scalar loop it replaced
# ---------------------------------------------------------------------------


def scalar_rref(m: Mat, pivot_limit=None):
    """The reference elimination: (matrix, pivots) by a scalar scan for each
    pivot and a whole-matrix update, reduced mod p after every step."""
    field = m.field
    a = m.a.copy()
    nrows, ncols = a.shape
    limit = ncols if pivot_limit is None else pivot_limit
    if a.size == 0 or limit == 0:
        return a, ()
    zero, one = field.zero(), field.one()
    pivots = []
    row = 0
    for col in range(limit):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if a[i, col] != zero), None)
        if sel is None:
            continue
        if sel != row:
            a[[row, sel], :] = a[[sel, row], :]
        if a[row, col] != one:
            a[row, :] = a[row, :] * field.inv(a[row, col])
            if field.is_prime_field:
                a[row, :] %= field.p
        if np.count_nonzero(a[:, col]) > 1:
            factor = a[:, col].copy()
            factor[row] = zero
            a -= np.outer(factor, a[row, :])
            if field.is_prime_field:
                a %= field.p
        pivots.append(col)
        row += 1
    return a, tuple(pivots)


ORACLE_FIELDS = (GF2, GF3, FieldSpec("gfp", 5), FieldSpec("gfp", 1048573), QQ)


def _seeded_mat(F, rows, cols, seed, density, zero_runs=(), rank=None):
    """A random matrix over F: entries nonzero with probability `density`,
    the columns of each (start, length) run in `zero_runs` zeroed, and with a
    `rank`, a product of random rows x rank and rank x cols factors."""
    gen = np.random.default_rng(seed)

    def draw(r, c):
        if F.is_prime_field:
            return gen.integers(0, F.p, (r, c)) * (gen.random((r, c)) < density)
        return gen.integers(-3, 4, (r, c)) * (gen.random((r, c)) < density)

    a = draw(rows, cols) if rank is None else draw(rows, rank) @ draw(rank, cols)
    for start, length in zero_runs:
        a[:, start:start + length] = 0
    if F.is_prime_field:
        return Mat(F, a % F.p)
    q = np.empty(a.shape, dtype=object)
    denominators = gen.integers(1, 4, rows)  # one per row, which keeps the rank
    for i, j in np.ndindex(a.shape):
        q[i, j] = Fraction(int(a[i, j]), int(denominators[i]))
    return Mat._canonical(F, q)


def _assert_matches_the_scalar_loop(m: Mat, pivot_limit=None):
    before = m.a.copy()
    want, pivots = scalar_rref(m, pivot_limit)
    res = rref(m, pivot_limit)
    assert res.pivots == pivots and res.rank == len(pivots)
    assert res.matrix.a.dtype == want.dtype and res.matrix.a.shape == want.shape
    assert (res.matrix.a == want).all()
    assert _canonical(res.matrix)  # int64 in [0, p), or Fractions that stay Fractions
    assert m.a.dtype == before.dtype and (m.a == before).all()  # the input is not touched


@st.composite
def oracle_cases(draw):
    """(matrix, pivot_limit): tall and wide shapes up to 40 x 80, dense and
    sparse, low rank or not, with runs of all-zero columns."""
    F = draw(st.sampled_from(ORACLE_FIELDS))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 80))
    runs = draw(st.lists(st.tuples(st.integers(0, max(cols - 1, 0)), st.integers(1, 12)),
                         max_size=3))
    rank = draw(st.none() | st.integers(1, 8))
    m = _seeded_mat(F, rows, cols, draw(st.integers(0, 2 ** 32 - 1)),
                    draw(st.sampled_from([0.05, 0.3, 1.0])), runs, rank)
    return m, draw(st.none() | st.integers(0, cols))


@given(oracle_cases())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_rref_matches_the_scalar_loop(case):
    _assert_matches_the_scalar_loop(*case)


@pytest.mark.parametrize("F", ORACLE_FIELDS)
def test_rref_matches_the_scalar_loop_on_empty_and_zero_matrices(F):
    for rows, cols in ((0, 0), (0, 5), (5, 0), (3, 4)):
        for limit in (None, 0, cols):
            _assert_matches_the_scalar_loop(Mat.zeros(F, rows, cols), limit)


def test_rref_matches_the_scalar_loop_on_a_compressed_family_system():
    """A (16 * 16 + 1) x 64 GF(2) system of rank at most 40, as
    `compressed_family` reduces for a Hom pair of dimension 16 each."""
    _assert_matches_the_scalar_loop(_seeded_mat(GF2, 257, 64, 7, 0.3, rank=40))


def test_rref_matches_the_scalar_loop_on_a_relaxation_transform():
    """[A_15 | ... | A_0 | I] for 16 blocks of 31 x 16 over GF(3), reduced with
    pivots among the A columns, as `_relaxation` does."""
    blocks = _seeded_mat(GF3, 31, 256, 11, 0.1, zero_runs=[(40, 20)])
    m = hstack(GF3, [blocks, Mat.eye(GF3, 31)])
    assert (m.rows, m.cols) == (31, 287)
    _assert_matches_the_scalar_loop(m, pivot_limit=256)


def from_rows_by_entry(field, rows, cols):
    """`Mat.from_rows` as one `field.coerce` per entry into a zero matrix."""
    m = Mat.zeros(field, len(rows), len(rows[0]) if rows else cols)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m.a[i, j] = field.coerce(x)
    return m


ENTRIES = (st.integers(-5, 5) | st.integers(-(1 << 80), 1 << 80)
           | st.fractions(max_denominator=1 << 70))


@given(st.sampled_from([GF2, GF3, FieldSpec("gfp", 1000003), QQ]), st.integers(0, 4),
       st.integers(0, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_from_rows_equals_coercing_each_entry(field, rows, cols, data):
    """Negative entries, entries past int64 and Fractions (which GF(p) truncates
    as int() does), and the 0 x k and k x 0 shapes."""
    entries = [[data.draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    got, want = Mat.from_rows(field, entries, cols=cols), from_rows_by_entry(field, entries, cols)
    assert got == want and got.a.shape == (rows, cols) and got.a.dtype == want.a.dtype
    assert all(type(x) is (int if field.is_prime_field else Fraction) for x in got.a.ravel().tolist())


def test_from_rows_rejects_ragged_rows():
    for field in (GF2, QQ):
        with pytest.raises(ValueError, match="ragged rows"):
            Mat.from_rows(field, [[1, 2], [3]])
