"""e_r read off a module's own maps against the two routes that build it.

`functors.e_r_vanishes` says e_{r,M} = 0 when M(x <= y) = 0 on every pair of
`height.nbhd_pairs`: x maximal in some a's lower neighborhood, y minimal in the
same a's upper one.  That must agree with the transpose route (`e_r`, through
L_r and R_r) and with the colimit-leg blocks the search uses (`e_r_legs`), at
every level including the zero and top strata; and `nbhd_bottoms` and the pair
list must be the ones built element by element from `nbhd_tops` and the minima
of `nbhds`.
"""

import random

from hypothesis import given, settings, strategies as st

from hipm.exactlin import FieldSpec
from hipm.functors import e_r, e_r_legs, e_r_vanishes
from hipm.height import (from_phi, level, nbhd_bottoms, nbhd_pairs, nbhd_tops, nbhds, rho_diag,
                         strata)
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

FIELDS = [FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")]


@st.composite
def modules_with_heights(draw):
    """(rho, m): a random module of dimension at most 2 on a random DAG,
    forest or small diagonal grid, over GF(2), GF(3) or Q."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dag", "forest", "grid"]))
    if kind == "grid":
        P = FinitePoset.grid(draw(st.sampled_from([[3, 3], [2, 4], [5], [2, 2, 2]])))
        rho = rho_diag(P)
    else:
        n = draw(st.integers(1, 7))
        P = random_poset(rng, n, 0.45) if kind == "dag" else random_forest_poset(rng, n)
        rho = from_phi(random_phi(rng, P, denominator=draw(st.sampled_from([1, 2]))))
    summands = draw(st.integers(0, 4))
    return rho, random_module(rng, P, draw(st.sampled_from(FIELDS)), 2, summands=summands)


def brute_bottoms(rho, k):
    P = rho.poset
    return tuple(tuple(y for y in up if not any(z != y and P.leq[z, y] for z in up))
                 for up in nbhds(rho, "up", k))


def brute_pairs(rho, k):
    out = set()
    for tops, bottoms in zip(nbhd_tops(rho, k), brute_bottoms(rho, k)):
        out.update((x, y) for x in tops for y in bottoms)
    return tuple(sorted(out))


@given(modules_with_heights())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_e_r_vanishes_agrees_with_the_transpose_and_leg_routes(case):
    rho, m = case
    sts = strata(rho)
    assert level(rho, sts[0].rep) == 0 and sts[-1].kind == "top"
    for st_ in sts:
        r = st_.rep
        k = level(rho, r)
        assert nbhd_bottoms(rho, k) == brute_bottoms(rho, k)
        assert nbhd_pairs(rho, k) == brute_pairs(rho, k)
        vanishes = e_r_vanishes(rho, r, m)
        assert vanishes == all(c.is_zero() for c in e_r(rho, r, m).components)
        assert vanishes == (not any(block.any() for block in e_r_legs(rho, r, m)))
