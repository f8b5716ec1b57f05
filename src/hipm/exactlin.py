"""Exact dense linear algebra over GF(p) and over the rationals.

Everything downstream (limits, colimits, Hom spaces, subquotients) reduces to
row reduction here.  All routines are deterministic: identical inputs produce
bit-identical outputs, so bases chosen here are stable across runs.  The one
candidate search, `_bilinear_search`, which decides interleavings and
isomorphisms from their bilinear tensor, works on arrays only and lives here too.

GF(p) matrices are int64 numpy arrays with entries reduced into [0, p);
rational matrices are object arrays of `fractions.Fraction`.  No floats.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "exact_str",
    "UnwritableValueError",
    "FieldSpec",
    "GF2",
    "QQ",
    "Mat",
    "rref",
    "RrefResult",
    "kernel_basis",
    "image_basis",
    "stacked_matmul",
    "zeros",
    "solve",
    "compressed_family",
    "batch_consistent",
    "solve_candidate",
    "quotient_map",
    "DEFAULT_BUDGET",
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


class UnwritableValueError(ValueError):
    """An exact value whose numerator or denominator has more digits than
    Python converts to a string (`sys.get_int_max_str_digits`)."""


def exact_str(x) -> str:
    """str(x) for an int or a Fraction.  A product, sum or difference of
    values can have far more digits than any value read in; one past the
    conversion limit raises UnwritableValueError."""
    try:
        return str(x)
    except ValueError:  # str(int) past the conversion limit; nothing else fails here
        raise UnwritableValueError("an exact value has more digits than can be written") from None


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

    @classmethod
    def _canonical(cls, field: FieldSpec, a: np.ndarray) -> "Mat":
        """Wrap an array that is already canonical (2-d; int64 in [0, p), or
        Fractions) without the normalising pass of __init__."""
        m = object.__new__(cls)
        m.field = field
        m.a = a
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Mat":
        return cls._canonical(field, zeros(field, (rows, cols)))

    @classmethod
    def eye(cls, field: FieldSpec, n: int) -> "Mat":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.a[i, i] = field.one()
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Mat":
        """The matrix with these rows, each entry as `field.coerce` takes it;
        `cols` gives the width when there are no rows."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        if not field.is_prime_field:
            a = np.array([[Fraction(x) for x in row] for row in rows], dtype=object)
        else:
            try:  # int64 takes int(x) of each entry, as coerce does
                a = np.array(rows, dtype=np.int64) % field.p
            except (OverflowError, TypeError, ValueError):  # past int64, say
                a = np.array([[field.coerce(x) for x in row] for row in rows], dtype=np.int64)
        return cls._canonical(field, a.reshape(nrows, ncols))

    # -- shape --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        return Mat._canonical(self.field, stacked_matmul(self.field, self.a, other.a))

    def __neg__(self) -> "Mat":
        c = -self.a
        if self.field.is_prime_field:
            c = c % self.field.p
        return Mat(self.field, c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.a.shape == other.a.shape
            and bool(np.all(self.a == other.a))
        )

    def is_zero(self) -> bool:
        return self.a.size == 0 or bool(np.all(self.a == self.field.zero()))

    @property
    def T(self) -> "Mat":
        return Mat._canonical(self.field, self.a.T.copy())

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if not idx:
            return Mat.zeros(self.field, self.rows, 0)
        return Mat._canonical(self.field, self.a[:, idx])

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if not idx:
            return Mat.zeros(self.field, 0, self.cols)
        return Mat._canonical(self.field, self.a[idx, :])

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
        return [[exact_str(Fraction(x)) for x in row] for row in self.a]

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over {self.field.kind}{self.field.p or ''})"


def zeros(field: FieldSpec, shape: tuple) -> np.ndarray:
    """The canonical zero array of any shape: int64 zeros, or Fraction(0) objects."""
    if field.is_prime_field:
        return np.zeros(shape, dtype=np.int64)
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    return a


def stacked_matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over `field` for canonical arrays, stacked as np.matmul broadcasts them.

    Every product over GF(p) goes through here: the inner dimension is capped at
    _MAX_INNER, so no int64 sum of products overflows, and the result is reduced
    mod p.  An empty inner dimension gives `zeros` (np.matmul gives int 0 on
    object arrays).
    """
    inner = a.shape[-1]
    if inner != b.shape[-2]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if inner > _MAX_INNER:
        raise ValueError("inner dimension exceeds supported bound")
    c = np.dot(a, b) if a.ndim == b.ndim == 2 else np.matmul(a, b)  # dot: less call overhead
    if field.is_prime_field:
        c %= field.p
    elif inner == 0:
        c = zeros(field, c.shape)
    return c


def hstack(field: FieldSpec, mats: Sequence[Mat], rows: Optional[int] = None) -> Mat:
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, rows if rows is not None else 0, 0)
    return Mat._canonical(field, np.concatenate([m.a for m in mats], axis=1))


def vstack(field: FieldSpec, mats: Sequence[Mat], cols: Optional[int] = None) -> Mat:
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, 0, cols if cols is not None else 0)
    return Mat._canonical(field, np.concatenate([m.a for m in mats], axis=0))


@dataclass(frozen=True)
class RrefResult:
    matrix: "Mat"
    pivots: tuple
    rank: int


def rref(m: Mat, pivot_limit: Optional[int] = None) -> RrefResult:
    """Reduced row-echelon form with the leftmost-pivot, scaled-leading-one convention.

    `pivot_limit` restricts pivot search to the first so-many columns (used by
    `solve` on augmented systems).  One elimination loop serves GF(2), GF(p)
    and Q, working on array slices.  Every row at or below the current one is
    zero left of the current column.  So per pivot one `nonzero` on the column
    gives the pivot (its first nonzero at or below the current row) and the
    rows to clear; a run of columns that are zero from the current row down is
    skipped with one `any`; and the pivot row, scaled to a leading one, is
    subtracted from the pivot column rightwards on just the rows with a nonzero
    there.  The update is XOR over GF(2), subtraction reduced mod p over other
    primes, and exact Fraction subtraction over Q.  The array stays canonical,
    so it skips Mat's normalising pass.
    """
    field, p = m.field, m.field.p  # p is None over Q
    a = m.a.copy()
    nrows, ncols = a.shape
    limit = ncols if pivot_limit is None else pivot_limit
    pivots = []
    row = col = 0
    while row < nrows and col < limit:
        nz = a[:, col].nonzero()[0].tolist()  # the rows with a nonzero in this column
        k = bisect_left(nz, row)
        if k == len(nz):  # zero from `row` down: skip the run of such columns
            later = a[row:, col + 1:limit].any(axis=0).nonzero()[0]
            if not later.size:
                break
            col += 1 + int(later[0])
            nz = a[:, col].nonzero()[0].tolist()
            k = bisect_left(nz, row)
        sel = nz[k]
        if sel != row:  # row's entry here is zero, so after the swap nz holds row, not sel
            swap = a[sel, col:].copy()
            a[sel, col:] = a[row, col:]
            a[row, col:] = swap
        if a[row, col] != 1:
            scaled = a[row, col:] * field.inv(a[row, col])
            a[row, col:] = scaled % p if p else scaled
        if len(nz) > 1:
            others = nz[:k] + nz[k + 1:]
            pivot_row = a[row, col:]
            if p == 2:
                a[others, col:] ^= pivot_row
            else:
                block = a[others, col:]
                block -= block[:, :1] * pivot_row
                a[others, col:] = block % p if p else block
        pivots.append(col)
        row += 1
        col += 1
    return RrefResult(Mat._canonical(field, a), tuple(pivots), len(pivots))


def _null_space(m: Mat) -> tuple:
    """The kernel basis of `m` and its free coordinates, as (basis, free).

    One column per free (non-pivot) column f of rref(m), in increasing order:
    the unit vector at f, completed at the pivot coordinates so that m kills
    it.  So basis[free, :] is the identity, which makes the basis canonical.
    With no rows every coordinate is free; with no columns the basis is empty.
    """
    field = m.field
    if m.rows == 0 or m.cols == 0:
        return Mat.eye(field, m.cols), tuple(range(m.cols))
    res = rref(m)
    pivots = list(res.pivots)
    pivot_set = set(pivots)
    free = tuple(j for j in range(m.cols) if j not in pivot_set)
    out = Mat.zeros(field, m.cols, len(free))
    if free:
        out.a[free, range(len(free))] = field.one()
        neg = -res.matrix.a[: res.rank][:, free]
        out.a[pivots, :] = neg % field.p if field.is_prime_field else neg
    return out, free


def kernel_basis(m: Mat) -> Mat:
    """Basis of the right null space, one column per free variable.

    Free columns are extended by unit vectors in increasing column order, so the
    basis is canonical.
    """
    return _null_space(m)[0]


def image_basis(m: Mat) -> Mat:
    """Basis of the column space: the pivot columns of `m` itself.  An empty
    shape spans nothing: its basis is empty, found without an rref."""
    if m.rows == 0 or m.cols == 0:
        return Mat.zeros(m.field, m.rows, 0)
    return m.take_cols(rref(m).pivots)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """One exact solution X of a @ X = b, free variables set to zero; None if inconsistent.
    With no rows or no right-hand columns X is zero, found without an rref."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError("field mismatch")
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    x = Mat.zeros(a.field, a.cols, b.cols)
    if a.rows == 0 or b.cols == 0:
        return x
    res = rref(hstack(a.field, [a, b]), pivot_limit=a.cols)
    r = res.matrix.a
    if r[res.rank:, a.cols:].any():
        return None
    x.a[list(res.pivots), :] = r[: res.rank, a.cols:]
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


DEFAULT_BUDGET = 1 << 20  # candidates a search may try, as a bound on the witness's position
_BATCH_BYTES = 1 << 18  # cap on one batch's (B, R, h2 + 1) int64 stack


def _relaxation(family: np.ndarray, F) -> Tuple[np.ndarray, List[int]]:
    """(relaxed, starts): the linear relaxation of every block of candidates.

    A block at level t is the p**t candidates that share their first h1 - t
    digits.  Taking each product c_i x of its t free digits as an unknown of its
    own leaves a linear system that is consistent whenever the system of some
    candidate in the block is.  With A_i = family[i, :, :h2], let T be the row
    transform of rref([A_{h1-1} | ... | A_0 | I]) with pivots among the A
    columns.  Its rows from starts[t] on (pivot at or after column t*h2, or none)
    span the left kernel of [A_{h1-1} | ... | A_{h1-t}].  So rows starts[t]: of
    `relaxed` = T family, contracted with [c | 1] for any candidate c of the
    block, are that relaxation up to an invertible change of rows.
    """
    h1, R, h2 = family.shape[0] - 1, family.shape[1], family.shape[2] - 1
    g = np.concatenate([family[i, :, :h2] for i in reversed(range(h1))]
                       + [np.eye(R, dtype=np.int64)], axis=1)
    res = rref(Mat(F, g), pivot_limit=h1 * h2)
    relaxed = np.matmul(res.matrix.a[None, :, h1 * h2:], family) % F.p
    starts = np.searchsorted(np.array(res.pivots, dtype=np.int64), h2 * np.arange(h1 + 1))
    return relaxed, starts.tolist()


def solve_candidate(tensor: np.ndarray, rhs: np.ndarray, coeffs, F) -> Optional[Mat]:
    """One x with sum_i c_i tensor[:, i, :]^T x = rhs for the candidate c =
    `coeffs`, from `solve`; None if that system is inconsistent."""
    cols = np.tensordot(tensor, np.array(coeffs, dtype=tensor.dtype), axes=([1], [0]))
    return solve(Mat(F, cols.T.copy()), Mat(F, rhs.reshape(-1, 1).copy()))


def _bilinear_search(tensor: np.ndarray, rhs: np.ndarray, F, budget: int):
    """(verdict, c, candidates tried) for the first c in lexicographic order
    such that sum_i c_i tensor[:, i, :]^T x = rhs is solvable; `solve_candidate`
    gives its x.

    Over GF(p) the search is exhaustive, so running out of candidates proves "no".
    It walks the tree of blocks (`_relaxation`): a block whose linear relaxation
    is inconsistent holds no witness and is skipped whole, and its candidates
    count as tried.  Blocks of at most one batch (_BATCH_BYTES) are leaves,
    scanned through `batch_consistent` on `compressed_family` systems in batches
    that grow 1, 2, 4, ...; candidate 0 goes first, before the relaxation is
    built, so a first-candidate witness costs one candidate.  `budget` bounds
    the candidate index, so `candidates_tried` is the witness index + 1 or
    min(budget, p**h1), exactly as in a one-at-a-time scan.  One proof needs
    no budget: when the budget reaches candidate 1, the relaxation of the root
    block, which holds every candidate, is tested first, and if it is
    inconsistent the search reports "no" with p**h1 candidates tried.  Indices
    and block starts are exact Python integers, so any budget is safe.
    Over the rationals a small integer lattice is probed and a miss is "unknown".
    """
    h1 = tensor.shape[1]
    if not F.is_prime_field:
        lattice = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
        for tried, coeffs in enumerate(itertools.product(lattice, repeat=h1)):
            if tried >= budget:
                return "unknown", None, tried
            if solve_candidate(tensor, rhs, coeffs, F) is not None:
                return "yes", coeffs, tried + 1
        return "unknown", None, 4 ** h1

    p, total = F.p, F.p ** h1
    limit = max(0, min(budget, total))
    family = compressed_family(tensor, rhs, F)
    shape, flat = family.shape[1:], family.reshape(h1 + 1, -1)
    cap = max(1, _BATCH_BYTES // (8 * max(1, flat.shape[1])))
    leaf = 0  # a leaf block holds p**leaf <= cap candidates
    while leaf < h1 and p ** (leaf + 1) <= cap:
        leaf += 1
    low_places = p ** np.arange(leaf - 1, -1, -1, dtype=np.int64)
    size = 1

    def head(index: int) -> np.ndarray:  # [c | 1] of one candidate, digits in exact integers
        c = np.ones(h1 + 1, dtype=np.int64)
        for i in range(h1 - 1, -1, -1):
            index, c[i] = divmod(index, p)
        return c

    def scan(lo: int, hi: int):  # (index, c) of the first witness in lo..hi-1, one leaf block
        nonlocal size
        base = lo - lo % p ** leaf
        row = head(base)
        while lo < hi:
            n = min(size, hi - lo)
            coeffs = np.tile(row, (n, 1))
            coeffs[:, h1 - leaf:h1] = np.arange(lo - base, lo - base + n)[:, None] // low_places % p
            ok = batch_consistent((coeffs @ flat % p).reshape(n, *shape), p)
            if ok.any():
                i = int(ok.argmax())
                return lo + i, coeffs[i, :h1]
            lo, size = lo + n, min(2 * size, cap)
        return None

    def blocked(start: int, top: int) -> Optional[int]:
        """The highest level in leaf+1..top whose block at `start` has an
        inconsistent relaxation, or None; all levels go in one batch, padded
        with zero rows (a lower level's rows include a higher level's)."""
        system = np.tensordot(head(start), relaxed, axes=1) % p
        levels = list(range(top, leaf, -1))
        keep = np.arange(len(system))[None, :] >= np.array([starts[t] for t in levels])[:, None]
        ok = batch_consistent(np.where(keep[:, :, None], system[None], 0), p)
        return next((t for t, good in zip(levels, ok) if not good), None)

    hit = scan(0, 1) if limit else None  # a first-candidate witness costs one candidate
    if hit is None and limit > 1:
        relaxed, starts = _relaxation(family, F)
        if relaxed[h1, starts[h1]:].any():  # the root block's relaxation [0 | T rhs] fails
            return "no", None, total
    start = 0
    while hit is None and max(start, 1) < limit:  # candidate 0 is done
        top = 0  # the level of the largest block starting here; those above were tested
        while top < h1 and start % p ** (top + 1) == 0:
            top += 1
        skip = blocked(start, top) if top > leaf else None
        if skip is not None:
            start += p ** skip
            continue
        hit = scan(max(start, 1), min(start + p ** leaf, limit))
        start += p ** leaf
    if hit is None:
        return ("no" if limit == total else "unknown"), None, limit
    return "yes", tuple(int(x) for x in hit[1]), hit[0] + 1


def quotient_map(field: FieldSpec, ambient_dim: int, subspace: Mat) -> tuple:
    """Surjection q onto ambient/span(columns of subspace), plus its free coordinates.

    q is kernel_basis(subspace.T) transposed: it reads off the coordinates that
    are not pivots of the subspace's rref, so ker q = the span.  Returns
    (q, free) with q[:, free] the identity; the quotient dimension is len(free).
    """
    if subspace.rows != ambient_dim:
        raise ValueError("subspace columns must live in the ambient dimension")
    basis, free = _null_space(subspace.T)
    return basis.T, free


def factor_at(q: np.ndarray, free: Sequence[int], rhs: np.ndarray,
              field: FieldSpec) -> Optional[np.ndarray]:
    """The unique X with X @ q = rhs for a surjection q that is the identity at
    the columns `free` (a colimit projection, a quotient map, a transposed
    limit inclusion): `rhs` at those columns, checked by one batched matmul
    unless `rhs` is empty; None if `rhs`, one array or a stack, does not factor."""
    x = rhs[..., free]
    if rhs.size == 0 and x.shape[-1:] + rhs.shape[-1:] == q.shape:
        return x
    if not (stacked_matmul(field, x, q) == rhs).all():
        return None
    return x
