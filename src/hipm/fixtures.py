"""Bundled reproduction instances.

Three families, generated programmatically:

* grid:   the 4x3 grid with height i+j and the indecomposable module whose
          1-latching and 1-matching values decompose into named interval
          summands.
* chain:  the four-point chain with heights (0, 1, C+1, 2C+1) and the triple
          (M, X, N) whose pairwise distances are (0, 0, C) -- the standard
          triangle-inequality failure with defect exactly C.
* bipath: two chains of integer points glued at both ends (a discretized
          circle), where Hom vanishing forces the distance G/2 while both
          one-step latchings stay distance 0 from their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .exactlin import FieldSpec, GF2, Mat
from .height import HeightDiff, HeightFunction, from_phi
from .pmod import PersistenceModule
from .poset import MAX_ELEMENTS, FinitePoset, PosetError

__all__ = ["grid_example", "chain_example", "bipath_example", "GridExample", "ChainExample", "BipathExample"]


@dataclass
class GridExample:
    poset: FinitePoset
    phi: HeightFunction
    rho: HeightDiff
    module: PersistenceModule
    J1: List[str]
    J2: List[str]
    J3: List[str]
    printed_L1_dims: Dict[str, int]
    printed_R1_dims: Dict[str, int]


def grid_example(fieldspec: FieldSpec = GF2) -> GridExample:
    G = FinitePoset.grid([4, 3])
    phi = HeightFunction(G, {e: Fraction(sum(G.coords[G.idx(e)])) for e in G.elements})
    rho = from_phi(phi)

    def idx(i: int, j: int) -> int:
        return G.idx(f"v_{i}_{j}")

    dims = [0] * 12
    for (i, j), d in {(0, 2): 1, (1, 2): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (3, 1): 1}.items():
        dims[idx(i, j)] = d
    maps = {}

    def put(a: Tuple[int, int], b: Tuple[int, int], rows: List[List[int]]) -> None:
        maps[(idx(*a), idx(*b))] = Mat.from_rows(fieldspec, rows)

    put((0, 1), (0, 2), [[1]])
    put((0, 2), (1, 2), [[1]])
    put((1, 1), (1, 2), [[1, 1]])
    put((0, 1), (1, 1), [[1], [0]])
    put((1, 1), (2, 1), [[1, 0]])
    put((2, 1), (3, 1), [[1]])
    module = PersistenceModule(G, fieldspec, dims, maps)
    name = lambda i, j: f"v_{i}_{j}"
    printed_L1 = {name(0, 2): 1, name(1, 2): 2, name(1, 1): 1, name(2, 1): 2, name(3, 1): 1}
    printed_R1 = {name(0, 2): 1, name(0, 1): 2, name(1, 1): 2, name(2, 1): 1, name(1, 0): 1, name(3, 0): 1}
    for i in range(4):
        for j in range(3):
            printed_L1.setdefault(name(i, j), 0)
            printed_R1.setdefault(name(i, j), 0)
    return GridExample(
        poset=G,
        phi=phi,
        rho=rho,
        module=module,
        J1=[name(0, 2), name(1, 2), name(1, 1), name(2, 1), name(3, 1)],
        J2=[name(0, 1), name(1, 1), name(2, 1)],
        J3=[name(1, 0), name(0, 1), name(1, 1), name(0, 2)],
        printed_L1_dims=printed_L1,
        printed_R1_dims=printed_R1,
    )


@dataclass
class ChainExample:
    poset: FinitePoset
    phi: HeightFunction
    rho: HeightDiff
    C: Fraction
    M: PersistenceModule
    X: PersistenceModule
    N: PersistenceModule


def chain_example(C=2, fieldspec: FieldSpec = GF2) -> ChainExample:
    C = Fraction(C)
    if C <= 1:
        raise ValueError("the chain family needs C > 1")
    P = FinitePoset.chain(["a", "b", "c", "d"])
    phi = HeightFunction(P, {"a": Fraction(0), "b": Fraction(1), "c": C + 1, "d": 2 * C + 1})
    rho = from_phi(phi)
    one = Mat.eye(fieldspec, 1)
    M = PersistenceModule(P, fieldspec, [1, 1, 1, 1], {(0, 1): one, (1, 2): one, (2, 3): one})
    X = PersistenceModule(P, fieldspec, [1, 1, 1, 0], {(0, 1): one, (1, 2): one})
    N = PersistenceModule(P, fieldspec, [1, 1, 0, 0], {(0, 1): one})
    return ChainExample(P, phi, rho, C, M, X, N)


@dataclass
class BipathExample:
    poset: FinitePoset
    phi: HeightFunction
    rho: HeightDiff
    G: int
    M: PersistenceModule  # the constant interval module on the whole bipath


def bipath_example(G: int = 8, fieldspec: FieldSpec = GF2) -> BipathExample:
    """Two integer chains s = c_0 < c_1 < ... < c_G = t and s = d_0 < ... < d_G = t
    glued at the shared endpoints, with height z at level z."""
    if G <= 4:
        raise ValueError("the bipath family needs G > 4")
    if 2 * G > MAX_ELEMENTS:  # before listing the elements
        raise PosetError(f"poset has {2 * G} elements, configured cap is {MAX_ELEMENTS}")
    elements = ["s"] + [f"c{z}" for z in range(1, G)] + [f"d{z}" for z in range(1, G)] + ["t"]
    covers = []
    prev = "s"
    for z in range(1, G):
        covers.append((prev, f"c{z}"))
        prev = f"c{z}"
    covers.append((prev, "t"))
    prev = "s"
    for z in range(1, G):
        covers.append((prev, f"d{z}"))
        prev = f"d{z}"
    covers.append((prev, "t"))
    P = FinitePoset.from_covers(elements, covers)
    heights = {"s": Fraction(0), "t": Fraction(G)}
    for z in range(1, G):
        heights[f"c{z}"] = Fraction(z)
        heights[f"d{z}"] = Fraction(z)
    phi = HeightFunction(P, heights)
    rho = from_phi(phi)
    one = Mat.eye(fieldspec, 1)
    maps = {(a, b): one for (a, b) in P.covers}
    M = PersistenceModule(P, fieldspec, [1] * len(P), maps)
    return BipathExample(P, phi, rho, G, M)
