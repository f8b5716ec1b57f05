"""`pmod.quotient_by_submodule` against the subquotient of two built submodules.

The builder takes the column bases of M1 >= M2 and solves nothing where the
quotient is zero: an element where the bases have equal column counts gets an
empty projection and no free coordinates, and a cover with a zero end the
zero map.  The oracle `paper_statements.quotient_of_submodules` builds both
submodules and solves at every element and cover.  They must build the same
record, the bases, the projections, the free coordinates and the quotient
module, on the bases `d_en` hands the builder: the erosions, the canonical
neighborhoods of natural maps into and out of M (`incoming`, `outgoing`), and
the (M1, M2) pairs of `erosion.en_enumerate`.
"""

import random

from hypothesis import given, settings, strategies as st

from hipm.erosion import en_enumerate
from hipm.exactlin import FieldSpec
from hipm.functors import erosion_subquotient, eta_id
from hipm.height import from_phi, rho_diag, strata
from hipm.pmod import quotient_by_submodule, submodule_from_bases
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

from paper_statements import quotient_of_submodules

FIELDS = [FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")]
ENUMERATION_BUDGET = 60


def instance(seed: int):
    """(rho, m) from one seed: a random module of dimension at most 2 on a
    random DAG or forest (2-6 elements, random height) or a 2x3 grid (the
    diagonal difference), over GF(2), GF(3) or Q."""
    rng = random.Random(seed)
    kind = rng.choice(["dag", "forest", "grid"])
    if kind == "grid":
        P = FinitePoset.grid([2, 3])
        rho = rho_diag(P)
    else:
        n = rng.randint(2, 6)
        P = random_poset(rng, n, 0.45) if kind == "dag" else random_forest_poset(rng, n)
        rho = from_phi(random_phi(rng, P, max_step=2))
    return rho, random_module(rng, P, rng.choice(FIELDS), 2, summands=rng.randint(1, 6))


def neighborhoods(rho, m):
    """(source, M1 bases, M2 bases) for every neighborhood `d_en` can build
    for m: at each stratum the erosion, the canonical neighborhood with the
    previous stratum's L_r M -> M as `incoming` and M -> R_r M as
    `outgoing`, and over GF(p) the pairs of a capped enumeration."""
    previous = None
    for st_ in strata(rho):
        r = st_.rep
        sq = erosion_subquotient(rho, r, m)
        yield "erosion", sq.m1, sq.m2
        if previous is not None:
            sq = erosion_subquotient(rho, r, m, eta_id(rho, previous, m, "L"),
                                     eta_id(rho, previous, m, "R"))
            yield "canonical", sq.m1, sq.m2
        if m.field.is_prime_field:
            for m1, m2, _ in en_enumerate(rho, r, m, ENUMERATION_BUDGET).pairs:
                yield "enumeration", m1, m2
        previous = r


def shape(dims) -> str:
    if not any(dims):
        return "zero"
    return "nonzero" if all(dims) else "partly zero"


def builder_agrees_with_the_oracle(rho, m) -> set:
    """Check every neighborhood of m; return the (source, shape) pairs met."""
    met = set()
    for source, m1, m2 in neighborhoods(rho, m):
        got = quotient_by_submodule(m, m1, m2)
        want = quotient_of_submodules(submodule_from_bases(m, m1), submodule_from_bases(m, m2))
        assert got.parent is want.parent is m
        assert (got.m1, got.m2) == (want.m1, want.m2) == (tuple(m1), tuple(m2))
        assert got.proj == want.proj and got.free == want.free
        assert got.quotient.dims == want.quotient.dims
        assert got.quotient.maps == want.quotient.maps
        assert got.quotient.dims == tuple(b1.cols - b2.cols for b1, b2 in zip(m1, m2))
        met.add((source, shape(got.quotient.dims)))
    return met


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_builder_equals_the_two_submodule_oracle(seed):
    builder_agrees_with_the_oracle(*instance(seed))


def test_the_builder_check_meets_every_shape():
    """The same check on fixed seeds meets, from each source, quotients that
    are zero everywhere, zero at some elements only and nonzero everywhere,
    over every field."""
    met, fields = set(), set()
    for seed in range(30):
        rho, m = instance(seed)
        met |= builder_agrees_with_the_oracle(rho, m)
        fields.add(FIELDS.index(m.field))
    assert met == {(source, s) for source in ("erosion", "canonical", "enumeration")
                   for s in ("zero", "partly zero", "nonzero")}
    assert fields == {0, 1, 2}
