"""e_r read off a module's own maps against the two routes that build it.

`functors.e_r_vanishes` says e_{r,M} = 0 when M(x <= y) = 0 on every pair of
`height.nbhd_pairs`: x maximal in some a's lower neighborhood, y minimal in the
same a's upper one.  That must agree with the transpose route (`e_r`, through
L_r and R_r) and with the colimit-leg blocks the search uses (`e_r_legs`), at
every level including the zero and top strata; and `nbhd_bottoms` and the pair
list must be the ones built element by element from `nbhd_tops` and the minima
of `nbhds`.  `functors.erosion_bases` reads im_r and ker_r off M's own maps
and the lower neighborhoods' colimit cones; `im_r`, `ker_r` and
`erosion_subquotient` (with and without the maps an interleaving adds, and
where e_r vanishes, as the erosion `d_en` reports there) must each equal the
oracle `paper_statements.erosion_from_etas` or its halves, which build L_r,
R_r, both etas, the submodules and the quotient.
"""

import random

from hypothesis import given, settings, strategies as st

from hipm.exactlin import FieldSpec
from hipm.functors import e_r, e_r_legs, e_r_vanishes, erosion_subquotient, eta_id, im_r, ker_r
from hipm.height import (from_phi, level, nbhd_bottoms, nbhd_pairs, nbhd_tops, nbhds, rho_diag,
                         strata)
from hipm.kan import colim_over
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from hipm.serde import _subquotient_to_json

from paper_statements import erosion_from_etas, im_r_from_eta, ker_r_from_eta

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


def vanishing_instance(seed: int):
    """(rho, m) from one seed: a random module of dimension at most 3 on a
    random DAG or forest (2-8 elements, random height) or a 3x3 grid (the
    diagonal difference or a random height), over GF(2), GF(3) or Q."""
    rng = random.Random(seed)
    kind = rng.choice(["dag", "forest", "grid"])
    if kind == "grid":
        P = FinitePoset.grid([3, 3])
        rho = rho_diag(P) if rng.random() < 0.5 else from_phi(random_phi(rng, P))
    else:
        n = rng.randint(2, 8)
        P = random_poset(rng, n, 0.45) if kind == "dag" else random_forest_poset(rng, n)
        rho = from_phi(random_phi(rng, P, denominator=rng.choice([1, 2])))
    return rho, random_module(rng, P, rng.choice(FIELDS), 3, summands=rng.randint(1, 8))


def vanishing_witnesses_agree(rho, m) -> set:
    """Check the witness `d_en` writes where e_{r,M} = 0, `erosion_subquotient`,
    against the eta-built erosion (`erosion_from_etas`) at every such
    stratum: the written JSON and the record's bases, projections and free
    coordinates; return the shapes met there: an empty lower
    neighborhood, a colimit read at fewer coordinates than its legs (several
    maxima), and a nonzero ker_r under a nonzero M1."""
    met = set()
    for st_ in strata(rho):
        r = st_.rep
        if not e_r_vanishes(rho, r, m):
            continue
        got = erosion_subquotient(rho, r, m)
        want = erosion_from_etas(rho, r, m)
        assert _subquotient_to_json(got) == _subquotient_to_json(want)
        assert (got.m1, got.m2, got.proj, got.free) == (want.m1, want.m2, want.proj, want.free)
        assert got.quotient.dims == want.quotient.dims == (0,) * len(m.dims)
        k = level(rho, r)
        kern = ker_r_from_eta(rho, r, m).m1
        for a, down in enumerate(nbhds(rho, "down", k)):
            col = colim_over(m, down)
            met |= {"empty"} if not down else set()
            met |= {"maxima"} if len(col.free) < sum(m.dims[x] for x in down) else set()
            met |= {"ker"} if kern[a].cols and got.m1[a].cols else set()
    return met


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_vanishing_erosion_is_written_as_erosion_subquotient_writes_it(seed):
    vanishing_witnesses_agree(*vanishing_instance(seed))


def test_the_vanishing_erosion_check_meets_every_shape():
    """The same check on fixed seeds, which meet all three shapes over all
    three fields."""
    met = set()
    for seed in range(40):
        rho, m = vanishing_instance(seed)
        shapes = vanishing_witnesses_agree(rho, m)
        met |= shapes | ({FIELDS.index(m.field)} if shapes else set())
    assert met == {"empty", "maxima", "ker", 0, 1, 2}


def erosion_bases_agree(rho, m) -> set:
    """At every stratum, check `im_r`, `ker_r` and `erosion_subquotient`
    against the eta-built oracle, the last also with the previous stratum's
    L_r M -> M as `incoming` and its M -> R_r M as `outgoing` (natural maps
    into and out of M, as an interleaving's q# and p are); return the shapes
    met: a nonzero quotient, an `incoming` that enlarges M1 and an `outgoing`
    that shrinks the kernel."""
    met = set()
    previous = previous_kern = None
    for st_ in strata(rho):
        r = st_.rep
        kern = ker_r_from_eta(rho, r, m).m1
        assert im_r(rho, r, m).m1 == im_r_from_eta(rho, r, m).m1
        assert ker_r(rho, r, m).m1 == kern
        plain = erosion_from_etas(rho, r, m)
        assert _subquotient_to_json(erosion_subquotient(rho, r, m)) == _subquotient_to_json(plain)
        met |= {"quotient"} if any(plain.quotient.dims) else set()
        if previous is not None:
            incoming, outgoing = eta_id(rho, previous, m, "L"), eta_id(rho, previous, m, "R")
            want = erosion_from_etas(rho, r, m, incoming, outgoing)
            got = erosion_subquotient(rho, r, m, incoming, outgoing)
            assert _subquotient_to_json(got) == _subquotient_to_json(want)
            met |= {"incoming"} if want.m1 != plain.m1 else set()
            met |= {"outgoing"} if previous_kern != kern else set()
        previous, previous_kern = r, kern
    return met


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_erosion_bases_read_off_the_maps_equal_the_eta_built_oracle(seed):
    erosion_bases_agree(*vanishing_instance(seed))


def test_the_eta_oracle_check_meets_every_shape():
    """The same check on fixed seeds, which meet all three shapes over all
    three fields."""
    met = set()
    for seed in range(30):
        rho, m = vanishing_instance(seed)
        shapes = erosion_bases_agree(rho, m)
        met |= shapes | ({FIELDS.index(m.field)} if shapes else set())
    assert met == {"quotient", "incoming", "outgoing", 0, 1, 2}
