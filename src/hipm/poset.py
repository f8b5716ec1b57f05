"""Finite posets as index categories: order queries, diamond-freeness,
order-preserving maps, and Galois insertions.

Elements are opaque string ids; internal dense indices follow input order, so
every derived object (neighborhoods, bases, reports) is stable across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Memo",
    "FinitePoset",
    "OrderMap",
    "PosetError",
    "check_order_map",
    "check_galois_insertion",
]

MAX_ELEMENTS = 512


class PosetError(ValueError):
    pass


class Memo:
    """Values derived from an immutable object, memoized on it: a height
    function's critical values and neighborhoods, a module's maps, (co)limits
    and functor values.  A value lives as long as its owner, is shared and must
    not be mutated; keys name other objects by identity."""

    __slots__ = ("memo",)

    def __init__(self):
        self.memo: Dict[tuple, object] = {}

    def cached(self, key: tuple, build):
        """build(), made once per owner and key and kept in `memo`."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]


class FinitePoset:
    """Immutable finite poset: elements, Hasse covers, and the full order relation.

    `leq` is a dense boolean matrix (leq[i, j] iff element i <= element j), so
    order queries are O(1).  Covers are stored transitively reduced and sorted;
    `ups[i]` and `downs[i]` are the elements covering i and covered by i,
    ascending.  A grid also keeps, per element, its one-step neighbours up and
    down the diagonal (`diagonal`).
    """

    __slots__ = ("elements", "index", "leq", "covers", "ups", "downs", "coords", "_diag_steps")

    def __init__(self, elements: Tuple[str, ...], leq: np.ndarray, covers: Tuple[Tuple[int, int], ...],
                 coords: Optional[Dict[int, Tuple[int, ...]]] = None):
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        self.leq = leq
        self.covers = covers
        ups, downs = [[] for _ in elements], [[] for _ in elements]
        for lo, hi in covers:  # sorted, so both lists come out ascending
            ups[lo].append(hi)
            downs[hi].append(lo)
        self.ups = tuple(map(tuple, ups))
        self.downs = tuple(map(tuple, downs))
        self.coords = coords
        self._diag_steps = _diagonal_steps(coords, len(elements)) if coords is not None else None

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_covers(elements: Sequence[str], covers: Iterable[Tuple[str, str]]) -> "FinitePoset":
        elements = tuple(elements)
        n = len(elements)
        if n > MAX_ELEMENTS:
            raise PosetError(f"poset has {n} elements, configured cap is {MAX_ELEMENTS}")
        seen = set()
        for e in elements:
            if e in seen:
                raise PosetError(f"duplicate element id {e!r}")
            seen.add(e)
        index = {e: i for i, e in enumerate(elements)}
        adj = np.zeros((n, n), dtype=bool)
        for lo, hi in covers:
            if lo not in index:
                raise PosetError(f"unknown element id {lo!r} in covers")
            if hi not in index:
                raise PosetError(f"unknown element id {hi!r} in covers")
            if lo == hi:
                raise PosetError(f"self-cover {lo!r}")
            adj[index[lo], index[hi]] = True
        lt = _transitive_closure(adj)
        cyc = lt & lt.T
        np.fill_diagonal(cyc, False)  # self-covers are rejected, so a cycle has two distinct ids
        if cyc.any():
            i, j = map(int, np.argwhere(cyc)[0])
            raise PosetError(f"cycle detected through {elements[i]!r} and {elements[j]!r}")
        leq = lt | np.eye(n, dtype=bool)
        return FinitePoset(elements, leq, _pairs(_transitive_reduction(lt)))

    @staticmethod
    def grid(shape: Sequence[int]) -> "FinitePoset":
        """Product-order grid {0..s1-1} x ... with elements named v_i_j_... and coords attached.

        Points are listed in row-major order; a <= b when every coordinate of a
        is at most b's, and b covers a when they differ by one unit step."""
        shape = tuple(int(s) for s in shape)
        if not shape or any(s < 1 for s in shape):
            raise PosetError("grid shape must be a non-empty list of entries >= 1")
        if math.prod(shape) > MAX_ELEMENTS:  # before listing the points
            raise PosetError(f"grid has {math.prod(shape)} elements, configured cap is {MAX_ELEMENTS}")
        points = list(itertools.product(*[range(s) for s in shape]))
        elements = tuple("v_" + "_".join(map(str, pt)) for pt in points)
        # the axes of side 1 never differ: leaving them out bounds the arrays
        # by n x n x log2(n) entries, whatever the shape's length
        c = np.array(points, dtype=np.int16)[:, np.array(shape) > 1]
        step = c[None, :, :] - c[:, None, :]  # [i, j]: point j less point i
        leq = (step >= 0).all(axis=2)
        return FinitePoset(elements, leq, _pairs(leq & (step.sum(axis=2) == 1)),
                           dict(enumerate(points)))

    @staticmethod
    def chain(elements: Sequence[str]) -> "FinitePoset":
        els = list(elements)
        return FinitePoset.from_covers(els, list(zip(els, els[1:])))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def idx(self, e: str) -> int:
        try:
            return self.index[e]
        except KeyError:
            raise PosetError(f"unknown element {e!r}") from None

    def comparable_pairs(self) -> List[Tuple[int, int]]:
        """All (i, j) with element i <= element j, including i == j, in index order."""
        return list(_pairs(self.leq))

    def down_idx(self, i: int) -> List[int]:
        return [int(j) for j in np.flatnonzero(self.leq[:, i])]

    def up_idx(self, i: int) -> List[int]:
        return [int(j) for j in np.flatnonzero(self.leq[i, :])]

    def minimal_upper_bounds(self, i: int, j: int) -> List[int]:
        """The minimal elements of {c : i <= c and j <= c}, ascending: a bound
        c is minimal when it is the only common upper bound below c."""
        common = self.leq[i] & self.leq[j]
        return np.flatnonzero(common & (self.leq[common].sum(axis=0) == 1)).tolist()

    def interval_idx(self, i: int, j: int) -> List[int]:
        return [int(z) for z in np.flatnonzero(self.leq[i, :] & self.leq[:, j])]

    def subposet_covers(self, subset_idx: Sequence[int]) -> List[Tuple[int, int]]:
        """Hasse covers of the full subposet on `subset_idx` (its own transitive
        reduction, not the ambient covers restricted), ascending."""
        ix = tuple(sorted(subset_idx))
        sub = self.leq[np.ix_(ix, ix)].copy()
        np.fill_diagonal(sub, False)
        red = _transitive_reduction(sub)
        return [(ix[i], ix[j]) for i, j in _pairs(red)]

    def diagonal(self, k: int) -> List[Optional[int]]:
        """Per element a, the element at a + k*(1, ..., 1) on the grid (k < 0
        steps down), or None where that point is off the grid."""
        if self._diag_steps is None:
            raise PosetError("diagonal steps need grid coordinates")
        up, down = self._diag_steps
        step = down if k < 0 else up
        out: List[Optional[int]] = list(range(len(self)))
        for _ in range(abs(k)):
            out = [None if i is None else step[i] for i in out]
        return out

    def key(self) -> tuple:
        return (self.elements, self.covers)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self.elements)} elements, {len(self.covers)} covers)"


def _diagonal_steps(coords: Dict[int, Tuple[int, ...]], n: int) -> Tuple[Tuple[Optional[int], ...], ...]:
    """(up, down): per element, the element one diagonal step above and below it."""
    by_coord = {c: i for i, c in coords.items()}
    return tuple(tuple(by_coord.get(tuple(x + d for x in coords[i])) for i in range(n))
                 for d in (1, -1))


def _transitive_closure(adj: np.ndarray) -> np.ndarray:
    """Every pair joined by a path of one or more steps.  Each squaring doubles
    the path length covered, so a longest path of L steps takes ceil(log2 L)
    products and one more to see nothing change."""
    n = adj.shape[0]
    reach = adj.copy()
    if n == 0:
        return reach
    while True:
        nxt = reach | (reach @ reach)  # a bool matmul is an OR of ANDs: no count to wrap
        if (nxt == reach).all():
            return reach
        reach = nxt


def _pairs(mask: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    """The (i, j) with mask[i, j], ascending: `nonzero` lists them in row-major order."""
    return tuple(zip(*(ix.tolist() for ix in np.nonzero(mask))))


def _transitive_reduction(lt: np.ndarray) -> np.ndarray:
    # a cover survives iff no intermediate element witnesses it as composite
    if lt.shape[0] == 0:
        return lt.copy()
    via = lt @ lt  # bool: an OR of ANDs, no count to wrap
    return lt & ~via


def is_diamond_free(poset: FinitePoset) -> bool:
    """True iff every interval [a, b] is a chain.

    Equivalent test: no incomparable pair has both a common lower and a common
    upper bound (such a pair together with those bounds spans a non-chain
    interval, and conversely).
    """
    n = len(poset)
    if n == 0:
        return True
    L = poset.leq  # bool matmuls: ORs of ANDs, no count to wrap
    common_lower = L.T @ L  # [x,y]: exists z <= x and z <= y
    common_upper = L @ L.T  # [x,y]: exists z >= x and z >= y
    incomparable = ~(poset.leq | poset.leq.T)
    return not bool((incomparable & common_lower & common_upper).any())


@dataclass(frozen=True)
class OrderMap:
    """A map between posets given by an element-to-element assignment."""

    source: FinitePoset
    target: FinitePoset
    assignment: Dict[str, str]

    def __post_init__(self):
        for e in self.source.elements:
            if e not in self.assignment:
                raise PosetError(f"assignment missing source element {e!r}")
            if self.assignment[e] not in self.target.index:
                raise PosetError(f"assignment sends {e!r} to unknown element {self.assignment[e]!r}")

    def __call__(self, e: str) -> str:
        return self.assignment[e]

    def apply_idx(self, i: int) -> int:
        return self.target.index[self.assignment[self.source.elements[i]]]


@dataclass
class OrderMapReport:
    preserving: bool
    preservation_violations: List[Tuple[str, str]] = field(default_factory=list)


def check_order_map(f: OrderMap) -> OrderMapReport:
    """Verify order preservation."""
    pres_bad: List[Tuple[str, str]] = []
    src, tgt = f.source, f.target
    for i in range(len(src)):
        for j in range(len(src)):
            if src.leq[i, j] and not tgt.leq[f.apply_idx(i), f.apply_idx(j)]:
                pres_bad.append((src.elements[i], src.elements[j]))
    return OrderMapReport(preserving=not pres_bad, preservation_violations=pres_bad)


@dataclass
class GaloisReport:
    valid: bool
    adjunction_violations: List[Tuple[str, str]] = field(default_factory=list)
    embedding_violations: List[Tuple[str, str]] = field(default_factory=list)
    preservation_violations: List[Tuple[str, str]] = field(default_factory=list)


def check_galois_insertion(iota: OrderMap, pi: OrderMap) -> GaloisReport:
    """Check that iota -| pi and iota is an order-embedding.

    The adjunction condition iota(a) <= x  <=>  a <= pi(x) is verified over all
    pairs (a, x), and the embedding condition iota(a) <= iota(b)  =>  a <= b
    over all pairs (a, b) in the same pass; every failing pair is listed.
    """
    if iota.target.key() != pi.source.key() or pi.target.key() != iota.source.key():
        raise PosetError("iota and pi must connect the same pair of posets")
    P, Pp = iota.source, iota.target
    pres = check_order_map(iota).preservation_violations + check_order_map(pi).preservation_violations
    adj_bad: List[Tuple[str, str]] = []
    emb: List[Tuple[str, str]] = []
    for a_i in range(len(P)):
        for x_i in range(len(Pp)):
            lhs = Pp.leq[iota.apply_idx(a_i), x_i]
            rhs = P.leq[a_i, pi.apply_idx(x_i)]
            if bool(lhs) != bool(rhs):
                adj_bad.append((P.elements[a_i], Pp.elements[x_i]))
        for b_i in range(len(P)):
            if Pp.leq[iota.apply_idx(a_i), iota.apply_idx(b_i)] and not P.leq[a_i, b_i]:
                emb.append((P.elements[a_i], P.elements[b_i]))
    return GaloisReport(
        valid=not (adj_bad or emb or pres),
        adjunction_violations=adj_bad,
        embedding_violations=emb,
        preservation_violations=pres,
    )
