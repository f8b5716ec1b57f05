"""`find_interleaving` decides on the colimit legs; the transposes must decide
the same.

The oracle is the bilinear tensor of q o p# = e_{r,M} and p o q# = e_{r,N}
built from the stacks `sharp` returns and the components of `e_r`, searched
by `search_pair`.  On random DAGs and forests with at most 6 elements
over GF(2), GF(3) and Q, at every stratum representative, the leg-wise search
must give the same verdict, the same `candidates_tried` and the same
certificate, and `check_certificate` must accept it.  `distance` itself must
build no latching value, no colimit and no e_r.
"""

import random
from contextlib import ExitStack
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from hipm import functors, interleave
from hipm.exactlin import FieldSpec
from hipm.functors import apply_R, e_r, sharp
from hipm.height import from_phi, strata
from hipm.interleave import check_certificate, distance, find_interleaving
from hipm.pmod import hom_basis, search_pair
from hipm.randgen import (random_conjugate, random_forest_poset, random_module, random_phi,
                          random_poset)
from paper_statements import rho_strict

BUDGET = 300  # keeps the rational lattice walk short; "unknown" must match too


def transposed_search(rho, r, m, n, budget):
    """(verdict, tried, p, q) of `search_pair` on the transposes."""
    p_basis = hom_basis(m, apply_R(rho, r, n).module)
    q_basis = hom_basis(n, apply_R(rho, r, m).module)
    res = search_pair(p_basis, q_basis, sharp(rho, r, n, p_basis).stacks,
                      sharp(rho, r, m, q_basis).stacks, [c.a for c in e_r(rho, r, m).components],
                      [c.a for c in e_r(rho, r, n).components], budget)
    return res.verdict, res.candidates_tried, res.p, res.q


@st.composite
def instances(draw):
    """(rho, m, n): a DAG or forest with 1-6 elements, a height or the strict
    difference (oo on every strict pair), and two modules of dimension <= 2,
    the second often a twisted copy of the first."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    field = draw(st.sampled_from([FieldSpec("gfp", 2), FieldSpec("gfp", 3),
                                  FieldSpec("rational")]))
    gen = draw(st.sampled_from([random_poset, random_forest_poset]))
    poset = gen(rng, draw(st.integers(1, 6)))
    rho = rho_strict(poset) if draw(st.integers(0, 4)) == 0 else from_phi(random_phi(rng, poset))
    m = random_module(rng, poset, field, 2)
    n = random_conjugate(rng, m) if draw(st.booleans()) else random_module(rng, poset, field, 2)
    return rho, m, n


@given(instances())
@settings(max_examples=60, deadline=None)
def test_leg_equations_decide_like_the_transposes(case):
    rho, m, n = case
    for stratum in strata(rho):
        r = stratum.rep
        res = find_interleaving(rho, r, m, n, budget=BUDGET)
        verdict, tried, p, q = transposed_search(rho, r, m, n, BUDGET)
        assert (res.verdict, res.candidates_tried) == (verdict, tried)
        if verdict == "yes":
            assert res.p.components == p.components and res.q.components == q.components
            assert check_certificate(rho, r, m, n, res.p, res.q)


@given(instances())
@settings(max_examples=15, deadline=None)
def test_distance_builds_no_latching_value_colimit_or_e_r(case):
    rho, m, n = case
    builds = []

    def counted_e_r(*args):
        builds.append(args)
        return e_r(*args)

    # e_r is not memoized, so its calls are counted wherever a module imports it
    with ExitStack() as stack:
        for mod in (functors, interleave):
            stack.enter_context(patch.object(mod, "e_r", counted_e_r))
        distance(rho, m, n, budget=BUDGET)
    assert builds == []
    for mod in (m, n):
        kinds = {key[:2] for key in mod.memo}
        assert not any(k[0] in ("L", "colim") or k[1:] == ("colim",) for k in kinds), kinds
