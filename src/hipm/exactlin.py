"""Exact dense linear algebra over GF(p) and over the rationals.

Everything downstream (limits, colimits, Hom spaces, subquotients) reduces to
row reduction here.  All routines are deterministic: identical inputs produce
bit-identical outputs, so bases chosen here are stable across runs.

GF(p) matrices are int64 numpy arrays with entries reduced into [0, p);
rational matrices are object arrays of `fractions.Fraction`.  No floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FieldSpec",
    "GF2",
    "QQ",
    "Mat",
    "rref",
    "RrefResult",
    "kernel_basis",
    "image_basis",
    "solve",
    "compressed_family",
    "batch_consistent",
    "quotient_map",
]

# int64 matmul must not overflow: entries < p, products summed over <= _MAX_INNER terms.
_MAX_PRIME = 1 << 20
_MAX_INNER = 1 << 12


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: GF(p) for a prime p, or the rationals."""

    kind: str  # "gfp" | "rational"
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "gfp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p}")
            if self.p > _MAX_PRIME:
                raise ValueError(f"modulus {self.p} exceeds supported bound {_MAX_PRIME}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "gfp"

    def zero(self):
        return 0 if self.is_prime_field else Fraction(0)

    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def coerce(self, x):
        if self.is_prime_field:
            return int(x) % self.p
        return Fraction(x)

    def inv(self, x):
        if self.is_prime_field:
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / Fraction(x)

    def format_scalar(self, x) -> str:
        return str(int(x)) if self.is_prime_field else str(Fraction(x))

    def parse_scalar(self, s):
        if self.is_prime_field:
            return int(s) % self.p
        return Fraction(s)


GF2 = FieldSpec("gfp", 2)
QQ = FieldSpec("rational")


class Mat:
    """A rows x cols matrix over a fixed FieldSpec.  Zero-sized shapes are legal."""

    __slots__ = ("field", "a")

    def __init__(self, field: FieldSpec, a: np.ndarray):
        if a.ndim != 2:
            raise ValueError(f"expected 2-d array, got shape {a.shape}")
        if field.is_prime_field:
            a = np.asarray(a, dtype=np.int64) % field.p
        else:
            if a.dtype != object:
                b = np.empty(a.shape, dtype=object)
                for i in range(a.shape[0]):
                    for j in range(a.shape[1]):
                        b[i, j] = Fraction(a[i, j])
                a = b
        self.field = field
        self.a = a

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Mat":
        if field.is_prime_field:
            return cls(field, np.zeros((rows, cols), dtype=np.int64))
        a = np.empty((rows, cols), dtype=object)
        a[:] = Fraction(0)
        return cls(field, a)

    @classmethod
    def eye(cls, field: FieldSpec, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.a[i, i] = field.one()
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Mat":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        m = cls.zeros(field, nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                m.a[i, j] = field.coerce(x)
        return m

    # -- shape --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def copy(self) -> "Mat":
        return Mat(self.field, self.a.copy())

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Mat") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        if self.cols > _MAX_INNER:
            raise ValueError("inner dimension exceeds supported bound")
        if self.cols == 0:
            return Mat.zeros(self.field, self.rows, other.cols)
        c = np.dot(self.a, other.a)
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        c = self.a + other.a
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        c = self.a - other.a
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def __neg__(self) -> "Mat":
        c = -self.a
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def scale(self, x) -> "Mat":
        x = self.field.coerce(x)
        c = self.a * x
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.all(self.a == other.a))
        )

    def __hash__(self):
        raise TypeError("Mat is mutable; use entries() for a hashable key")

    def is_zero(self) -> bool:
        return self.a.size == 0 or bool(np.all(self.a == self.field.zero()))

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.a.T.copy())

    def col(self, j: int) -> "Mat":
        return Mat(self.field, self.a[:, j : j + 1].copy())

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if not idx:
            return Mat.zeros(self.field, self.rows, 0)
        return Mat(self.field, self.a[:, idx].copy())

    def entries(self) -> tuple:
        """Hashable content key (shape + all entries)."""
        if self.field.is_prime_field:
            flat = tuple(int(x) for x in self.a.ravel())
        else:
            flat = tuple(Fraction(x) for x in self.a.ravel())
        return (self.rows, self.cols, flat)

    def tolists(self) -> list:
        if self.field.is_prime_field:
            return [[int(x) for x in row] for row in self.a]
        return [[str(Fraction(x)) for x in row] for row in self.a]

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over {self.field.kind}{self.field.p or ''})"


def hstack(field: FieldSpec, mats: Sequence[Mat], rows: Optional[int] = None) -> Mat:
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, rows if rows is not None else 0, 0)
    return Mat(field, np.concatenate([m.a for m in mats], axis=1))


def vstack(field: FieldSpec, mats: Sequence[Mat], cols: Optional[int] = None) -> Mat:
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, 0, cols if cols is not None else 0)
    return Mat(field, np.concatenate([m.a for m in mats], axis=0))


def block_diag(field: FieldSpec, mats: Sequence[Mat]) -> Mat:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = Mat.zeros(field, rows, cols)
    i = j = 0
    for m in mats:
        out.a[i : i + m.rows, j : j + m.cols] = m.a
        i += m.rows
        j += m.cols
    return out


@dataclass(frozen=True)
class RrefResult:
    matrix: "Mat"
    pivots: tuple
    rank: int


def rref(m: Mat, pivot_limit: Optional[int] = None) -> RrefResult:
    """Reduced row-echelon form with the leftmost-pivot, scaled-leading-one convention.

    `pivot_limit` restricts pivot search to the first so-many columns (used by
    `solve` on augmented systems).
    """
    field = m.field
    a = m.a.copy()
    nrows, ncols = a.shape
    limit = ncols if pivot_limit is None else pivot_limit
    zero = field.zero()
    pivots = []
    row = 0
    for col in range(limit):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if a[i, col] != zero:
                sel = i
                break
        if sel is None:
            continue
        if sel != row:
            a[[row, sel], :] = a[[sel, row], :]
        inv = field.inv(a[row, col])
        a[row, :] = a[row, :] * inv
        if field.is_prime_field:
            a[row, :] %= field.p
        factor = a[:, col].copy()
        factor[row] = zero
        a -= np.outer(factor, a[row, :])
        if field.is_prime_field:
            a %= field.p
        pivots.append(col)
        row += 1
    return RrefResult(Mat(field, a), tuple(pivots), len(pivots))


def kernel_basis(m: Mat) -> Mat:
    """Basis of the right null space, one column per free variable.

    Free columns are extended by unit vectors in increasing column order, so the
    basis is canonical.
    """
    field = m.field
    res = rref(m)
    r = res.matrix.a
    pivots = list(res.pivots)
    free = [j for j in range(m.cols) if j not in set(pivots)]
    out = Mat.zeros(field, m.cols, len(free))
    for k, f in enumerate(free):
        out.a[f, k] = field.one()
        for i, p in enumerate(pivots):
            v = -r[i, f]
            out.a[p, k] = v % field.p if field.is_prime_field else v
    return out


def image_basis(m: Mat) -> Mat:
    """Basis of the column space: the pivot columns of `m` itself."""
    return m.take_cols(rref(m).pivots)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """One exact solution X of a @ X = b, free variables set to zero; None if inconsistent."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    field = a.field
    aug = hstack(field, [a, b], rows=a.rows)
    res = rref(aug, pivot_limit=a.cols)
    r = res.matrix.a
    zero = field.zero()
    for i in range(res.rank, a.rows):
        if any(r[i, j] != zero for j in range(a.cols, aug.cols)):
            return None
    x = Mat.zeros(field, a.cols, b.cols)
    for i, p in enumerate(res.pivots):
        x.a[p, :] = r[i, a.cols :]
    return x


def compressed_family(tensor: np.ndarray, rhs: np.ndarray, field: FieldSpec) -> np.ndarray:
    """The systems sum_i c_i tensor[:, i, :]^T x = rhs, c in GF(p)^h1, cut to R rows.

    `tensor` is (h2, h1, L) and `rhs` has length L.  Returns the (h1 + 1, R, h2 + 1)
    int64 array whose contraction with [c | 1] is the augmented system of c cut
    to R of its L rows.  Row l of every system is one fixed linear form of column
    l of W = [tensor rows | rhs], so keeping the rows at a column basis of W keeps
    the solutions of every system.
    """
    h2, h1, L = tensor.shape
    rows = list(rref(Mat(field, np.vstack([tensor.reshape(h2 * h1, L), rhs]))).pivots)
    out = np.zeros((h1 + 1, len(rows), h2 + 1), dtype=np.int64)
    out[:h1, :, :h2] = tensor[:, :, rows].transpose(1, 2, 0)
    out[h1, :, h2] = rhs[rows]
    return out


@lru_cache(maxsize=8)
def _inverse_table(p: int) -> np.ndarray:
    """x -> x^(p-2) mod p on 0..p-1: the inverse of every unit of GF(p), and 0 at 0."""
    x = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * x % p
        x = x * x % p
        e >>= 1
    inv[0] = 0
    inv.flags.writeable = False  # shared by every caller through the cache
    return inv


def batch_consistent(stack: np.ndarray, p: int) -> np.ndarray:
    """Which systems of a batch over GF(p) have a solution.

    `stack` is a (B, R, c + 1) int64 array with entries in [0, p); slice b is an
    augmented system [A_b | y_b].  Returns a (B,) bool array that is True where
    A_b x = y_b is consistent, the verdict `solve` gives without a solution.
    Elimination runs on the whole batch at once.  Per column j each system takes
    its first row with a nonzero entry as the pivot, scales it by the inverse
    table and subtracts it from every row, itself included.  That row is then
    zero: its equation fixes x_j, which no other row uses any more, so dropping
    it keeps the verdict.  Only the column and the pivot row are reduced mod p
    at each step; the rest of the array just stays congruent.  Each step adds
    less than p**2 to any entry, so with p <= 2**20 and c < 2**22 no int64 entry
    overflows.
    """
    a = np.array(stack, dtype=np.int64)
    nb, nr, width = a.shape
    inv = _inverse_table(p)
    every = np.arange(nb)
    for j in range(width - 1 if nr else 0):
        col = a[:, :, j] % p
        piv = (col != 0).argmax(axis=1)
        lead = col[every, piv]  # 0 where column j is zero in every row
        row = a[every, piv, j:] % p * inv[lead][:, None] % p
        a[:, :, j:] -= col[:, :, None] * row[:, None, :]
    # every row is now zero left of the bar: consistent iff it is zero right of it
    return ~(a[:, :, -1] % p != 0).any(axis=1)


def quotient_map(field: FieldSpec, ambient_dim: int, subspace: Mat) -> tuple:
    """Surjection q onto ambient/span(columns of subspace), plus the quotient dimension.

    The pivot coordinates of the subspace are completed by the remaining unit
    vectors; q reads off the unit-vector coefficients, so ker q = the span.
    """
    if subspace.rows != ambient_dim:
        raise ValueError("subspace columns must live in the ambient dimension")
    res = rref(subspace.T)
    r = res.matrix.a
    pivots = list(res.pivots)
    free = [j for j in range(ambient_dim) if j not in set(pivots)]
    q = Mat.zeros(field, len(free), ambient_dim)
    for k, f in enumerate(free):
        q.a[k, f] = field.one()
        for i, p in enumerate(pivots):
            v = -r[i, f]
            q.a[k, p] = v % field.p if field.is_prime_field else v
    return q, len(free)
