"""Seeded random instance generators for the property suites, the golden corpus and the benchmark.

Random modules are built as direct sums of interval modules twisted by random
basis changes at every element: this guarantees functoriality on any poset
while producing generic-looking matrices.  On diamond-free posets cover paths
are unique, so fully random cover matrices are also functorial and we use them
there for extra coverage.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .exactlin import FieldSpec, Mat, rref, solve
from .height import HeightFunction
from .pmod import PersistenceModule, direct_sum, interval_module, zero_module
from .poset import FinitePoset

__all__ = [
    "random_poset",
    "random_forest_poset",
    "random_phi",
    "random_module",
    "random_conjugate",
    "random_invertible",
]


def random_poset(rng: random.Random, n: int, edge_prob: float = 0.35) -> FinitePoset:
    """A random DAG poset on n elements (edges only from lower to higher index)."""
    elements = [f"e{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                covers.append((elements[i], elements[j]))
    return FinitePoset.from_covers(elements, covers)


def random_forest_poset(rng: random.Random, n: int, orient_prob: float = 0.5) -> FinitePoset:
    """A random Hasse-forest poset (each tree edge oriented either way): the
    underlying graph is acyclic, so every interval is a chain (diamond-free)."""
    elements = [f"e{i}" for i in range(n)]
    covers = []
    for j in range(1, n):
        if rng.random() < 0.85:
            i = rng.randrange(j)
            if rng.random() < orient_prob:
                covers.append((elements[i], elements[j]))
            else:
                covers.append((elements[j], elements[i]))
    return FinitePoset.from_covers(elements, covers)


def random_phi(rng: random.Random, poset: FinitePoset, max_step: int = 3,
               denominator: int = 1) -> HeightFunction:
    """A random order-preserving height: each element sits a random nonnegative
    step above the max of its strict lower set."""
    n = len(poset)
    values: List[Optional[Fraction]] = [None] * n
    # process in a linear extension (indices are not sorted topologically in general)
    remaining = set(range(n))
    while remaining:
        for i in sorted(remaining):
            below = [j for j in poset.down_idx(i) if j != i]
            if all(values[j] is not None for j in below):
                base = max((values[j] for j in below), default=Fraction(0))
                step = Fraction(rng.randint(0, max_step * denominator), denominator)
                values[i] = base + step
                remaining.discard(i)
                break
        else:
            raise AssertionError("no linear extension progress")
    return HeightFunction(poset, {poset.elements[i]: values[i] for i in range(n)})


def _random_convex(rng: random.Random, poset: FinitePoset) -> List[str]:
    """A random convex subset: the interval hull of a random comparable pair,
    or a single element."""
    n = len(poset)
    if n == 0:
        return []
    a = rng.randrange(n)
    ups = poset.up_idx(a)
    b = rng.choice(ups)
    return [poset.elements[z] for z in poset.interval_idx(a, b)]


def random_invertible(rng: random.Random, fieldspec: FieldSpec, n: int) -> Mat:
    while True:
        if fieldspec.is_prime_field:
            m = Mat.from_rows(fieldspec, [[rng.randrange(fieldspec.p) for _ in range(n)] for _ in range(n)], cols=n)
        else:
            m = Mat.from_rows(fieldspec, [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)], cols=n)
        if n == 0 or rref(m).rank == n:
            return m


def random_conjugate(rng: random.Random, m: PersistenceModule) -> PersistenceModule:
    """Twist by a random basis change at each element (an isomorphic module)."""
    P = m.poset
    bases = [random_invertible(rng, m.field, d) for d in m.dims]
    inverses = []
    for b in bases:
        inv = solve(b, Mat.eye(m.field, b.rows))
        inverses.append(inv)
    maps = {}
    for (a, b) in P.covers:
        maps[(a, b)] = bases[b] @ m.maps[(a, b)] @ inverses[a]
    return PersistenceModule(P, m.field, m.dims, maps)


def random_module(rng: random.Random, poset: FinitePoset, fieldspec: FieldSpec,
                  max_dim: int = 2, summands: Optional[int] = None) -> PersistenceModule:
    """A random module with pointwise dimensions <= max_dim.

    Interval summands are accumulated while respecting the dimension cap, then
    the result is twisted by a random conjugation.
    """
    n = len(poset)
    out = zero_module(poset, fieldspec)
    if n == 0:
        return out
    tries = summands if summands is not None else max_dim * 2
    for _ in range(tries):
        J = _random_convex(rng, poset)
        cand = direct_sum(out, interval_module(poset, J, fieldspec))
        if all(d <= max_dim for d in cand.dims):
            out = cand
    return random_conjugate(rng, out)

