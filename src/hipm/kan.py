"""Finite limits and colimits of module restrictions over subposets, from one
builder; the induced map between them.

`_cone` builds a limit from the subposet's minimal nodes: a cone is fixed by
its values there, so only the consistency equations at the nodes above two or
more minima are solved (none with one minimum, whose M(b) is the limit).  Its
basis is the equalizer kernel's in the block direct sum over the subposet: one
rref of the stacked legs with the coordinates reversed finds the same free
coordinates (matroid duality, see `_cone`).  A colimit is the transposed limit
of the transposed diagram, read as the limit is built: the order reversed and
every map a transposed view of the module's own.  Both are one
`UniversalCone`, told apart by its `latching` flag, whose `proj` (a colimit's
projection, a limit's inclusion transposed) is the identity on its free
coordinates of the block sum.  So `factor`, the unique map out of a colimit or
into a limit with given leg composites, reads those coordinates off the
stacked family (`exactlin.factor_at`), and `induced` is `factor` on the legs of
a bigger (co)limit; no system is solved.  `colim_over` / `lim_over` build each
(co)limit once per module object and node set.  `lim_dim` gives a limit's
dimension alone, with no cone, from minima its caller already knows: the
minima's coordinates less the rank of the same equations (`_minima_equations`,
which both assemble).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exactlin import (
    Mat,
    factor_at,
    hstack,
    kernel_basis,
    rref,
    stacked_matmul,
    vstack,
    zeros,
)
from .pmod import PersistenceModule

__all__ = [
    "UniversalCone",
    "colim_over",
    "lim_over",
    "lim_dim",
    "factor",
    "induced",
    "factor_from_colim",
    "factor_stack_from_colim",
    "factor_into_lim",
]


@dataclass
class UniversalCone:
    """colim (`latching`) or lim of a module restriction: its dimension, `proj`
    from the block sum, and one leg per node, M(x) -> object for a colimit and
    object -> M(x) for a limit.  A colimit's `proj` is its projection; a
    limit's is its inclusion transposed.  `proj.field` is the field."""

    latching: bool
    nodes: Tuple[int, ...]
    dim: int
    proj: Mat  # dim x (sum of the node dims), surjective
    legs: Dict[int, Mat]
    free: Tuple[int, ...]  # proj[:, free] is the identity


def _minima(leq: np.ndarray) -> List[int]:
    """The positions of the minimal nodes of a subposet, given its order matrix."""
    return [j for j, under in enumerate(leq.sum(axis=0).tolist()) if under == 1]  # itself only


def _minima_equations(m: PersistenceModule, nodes: Tuple[int, ...], minima: Sequence[int],
                      under: np.ndarray, mat) -> Tuple[list, Dict[int, int], Mat]:
    """The equations a cone's values at the `minima` (ambient indices, in node
    order) solve: M(b <= y) v_b = M(c <= y) v_c for consecutive minima b, c
    below each node y, where `under[i, j]` says whether minima[i] lies below
    nodes[j] and `mat` gives M(x <= y).  Returns, per node, the minima below
    it; each minimum's offset among the minima's coordinates; and the stacked
    equations, a matrix over those coordinates (no rows when no node lies
    above two minima)."""
    F, dims = m.field, m.dims
    below = [[b for b, inside in zip(minima, col) if inside] for col in under.T.tolist()]
    moffs, mtot = {}, 0
    for b in minima:
        moffs[b], mtot = mtot, mtot + dims[b]
    rows = []
    for y, bs in zip(nodes, below):
        for b, c in zip(bs, bs[1:]):
            eq = zeros(F, (dims[y], mtot))
            eq[:, moffs[b]: moffs[b] + dims[b]] = mat(b, y)
            eq[:, moffs[c]: moffs[c] + dims[c]] = -mat(c, y)
            rows.append(eq % F.p if F.is_prime_field else eq)
    return below, moffs, Mat._canonical(F, np.concatenate(rows) if rows else zeros(F, (0, mtot)))


def _cone(m: PersistenceModule, nodes: Tuple[int, ...], latching: bool) -> UniversalCone:
    """The limit of M over the sorted `nodes`, or with `latching` its colimit:
    the transposed limit of the transposed diagram.

    A cone is fixed by its values at the minimal nodes, v_y = M(b <= y) v_b for
    any minimum b <= y.  So the cones are the solutions of M(b <= y) v_b =
    M(b' <= y) v_b' for consecutive minima b, b' below each node y, pushed to
    every node; with one minimum there is no equation and the limit is M(b).
    The stacked legs of those cones span the limit inside the block sum.  One
    rref of their transpose with the columns reversed then picks the free
    coordinates greedily from the right, and by matroid duality these are the
    non-pivot columns of the leftmost-pivot rref of the cover equations.  So
    incl[free, :] is the identity, coordinate for coordinate the equalizer's
    kernel basis (`exactlin._null_space`).  The legs are row slices of the
    C-contiguous inclusion (transposed for a colimit), and `proj` is its
    transposed view."""
    F, dims = m.field, m.dims
    ix = np.array(nodes, dtype=np.intp)
    leq = m.poset.leq[np.ix_(ix, ix)]
    if latching:  # the transposed diagram: the order reversed, each map a transposed view
        leq, mat = leq.T, lambda x, y: m.map_for_idx(y, x).a.T
    else:
        mat = lambda x, y: m.map_for_idx(x, y).a
    offs, total = {}, 0
    for x in nodes:
        offs[x], total = total, total + dims[x]
    if total == 0:  # every space is zero: the zero cone, with no equation and no rref
        incl = zeros(F, (0, 0))
        return UniversalCone(latching, nodes, 0, Mat._canonical(F, incl.T),
                             {x: Mat._canonical(F, incl) for x in nodes}, ())
    minima = _minima(leq)
    if len(minima) == 1:  # no equations: the legs are M(b <= y)
        b = nodes[minima[0]]
        stacked = [mat(b, y) for y in nodes]
    else:
        ends = [nodes[i] for i in minima]
        below, moffs, eqs = _minima_equations(m, nodes, ends, leq[minima], mat)
        cones = kernel_basis(eqs).a
        stacked = [stacked_matmul(F, mat(bs[0], y), cones[moffs[bs[0]]: moffs[bs[0]] + dims[bs[0]]])
                   for y, bs in zip(nodes, below)]
    res = rref(Mat._canonical(F, np.concatenate(stacked).T[:, ::-1]))  # stacked is total x dim
    incl = np.ascontiguousarray(res.matrix.a[::-1, ::-1].T)
    free = tuple(total - 1 - j for j in reversed(res.pivots))
    blocks = (incl[offs[x]: offs[x] + dims[x]] for x in nodes)
    legs = {x: Mat._canonical(F, a.T if latching else a) for x, a in zip(nodes, blocks)}  # read-only views
    return UniversalCone(latching, nodes, len(free), Mat._canonical(F, incl.T), legs, free)


def colim_over(m: PersistenceModule, subset: Sequence[int]) -> UniversalCone:
    """colim of M restricted to the full subposet on `subset` (ambient indices).

    The empty subset yields the zero object.  The result is made once per
    module object and sorted node set (`Memo.cached`) and shared
    by every later call; treat it as read-only.
    """
    nodes = tuple(sorted(subset))
    return m.cached(("colim", nodes), lambda: _cone(m, nodes, True))


def lim_over(m: PersistenceModule, subset: Sequence[int]) -> UniversalCone:
    """lim of M restricted to the full subposet on `subset`; shared like colim_over."""
    nodes = tuple(sorted(subset))
    return m.cached(("lim", nodes), lambda: _cone(m, nodes, False))


def lim_dim(m: PersistenceModule, nodes: Sequence[int], minima: Sequence[int]) -> int:
    """dim lim of M restricted to the full subposet on `nodes`, whose minimal
    nodes are `minima` (both ascending ambient indices), with no cone built:
    dim M(b) with one minimum b, 0 when every space is zero, and otherwise the
    dimension of the minima's coordinates less the rank of the equations
    `_cone` solves on them."""
    if len(minima) == 1:
        return m.dims[minima[0]]
    if not any(m.dims[x] for x in nodes):
        return 0
    under = m.poset.leq[np.ix_(minima, nodes)]
    eqs = _minima_equations(m, nodes, minima, under, lambda x, y: m.map_for_idx(x, y).a)[2]
    return eqs.cols - rref(eqs).rank


def factor_from_colim(col: UniversalCone, blocks: Dict[int, Mat], target_rows: int) -> Mat:
    """The unique map out of the colimit whose composites with the legs are
    `blocks`: the stacked family at the free coordinates.  Raises ValueError
    unless `blocks` is a cocone."""
    F = col.proj.field
    stacked = hstack(F, [blocks[x] for x in col.nodes], rows=target_rows)
    return Mat._canonical(F, factor_stack_from_colim(col, stacked.a))


def factor_stack_from_colim(col: UniversalCone, stacked: np.ndarray) -> np.ndarray:
    """factor_from_colim for an (h, rows, total) stack of families, each one's
    blocks side by side in node order: the (h, rows, dim) factors, checked by
    one batched matmul (ValueError if a family is not a cocone)."""
    f = factor_at(col.proj.a, col.free, stacked, col.proj.field)
    if f is None:
        raise ValueError("family is not a cocone: no factorization through the colimit")
    return f


def factor_into_lim(lim: UniversalCone, blocks: Dict[int, Mat], source_cols: int) -> Mat:
    """The unique map into the limit whose composites with the legs are
    `blocks`: factor_from_colim transposed, the stacked family at the free rows."""
    F = lim.proj.field
    stacked = vstack(F, [blocks[x] for x in lim.nodes], cols=source_cols)
    f = factor_at(lim.proj.a, lim.free, stacked.a.T, F)
    if f is None:
        raise ValueError("family is not a cone: no factorization through the limit")
    return Mat._canonical(F, f.T)


def factor(res: UniversalCone, blocks: Dict[int, Mat], dim: int) -> Mat:
    """The unique map out of a colimit, or into a limit, with the given leg composites."""
    return (factor_from_colim if res.latching else factor_into_lim)(res, blocks, dim)


def induced(small: UniversalCone, big: UniversalCone) -> Mat:
    """The map induced by nested node sets, small <= big: colim over small ->
    colim over big, or lim over big -> lim over small."""
    return factor(small, {x: big.legs[x] for x in small.nodes}, big.dim)
