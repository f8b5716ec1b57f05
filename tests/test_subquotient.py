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

A submodule is the subquotient M1/0: `pmod.submodule_from_bases` checks the
one cover the builder does not solve, a nonzero span into a zero one, and
hands the rest to `quotient_by_submodule`.  The oracle
`paper_statements.submodule_by_covers` solves every cover.  They must build the
same record from the same spans, closed or not, or both raise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hipm.erosion import en_enumerate
from hipm.exactlin import FieldSpec, Mat, hstack, image_basis, kernel_basis
from hipm.functors import erosion_bases, erosion_subquotient, eta_id
from hipm.height import from_phi, rho_diag, strata
from hipm.pmod import (SubmoduleError, hom_basis, quotient_by_submodule, span_intersection,
                       submodule_from_bases)
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

from paper_statements import quotient_of_submodules, submodule_by_covers

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
        want = quotient_of_submodules(submodule_by_covers(m, m1), submodule_by_covers(m, m2))
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


def spans(seed: int, rho, m):
    """(kind, bases) for spans of m: the images and kernels of a random
    endomorphism, im_r and ker_r at a random stratum, and the sums and
    intersections of two of these (all closed); random columns (mostly not
    closed); and, for every cover (a, b) with a nonzero map, M with its span
    at b cut to zero, which a nonzero span at a maps into."""
    rng = random.Random(seed)
    F = m.field

    def entry():
        return rng.randrange(F.p) if F.is_prime_field else rng.randint(-2, 2)

    ends = hom_basis(m, m)
    f = ends.combine([entry() for _ in ends])
    gens, kerns = erosion_bases(rho, rng.choice([s.rep for s in strata(rho)]), m)
    closed = {"image": f.components, "kernel": [kernel_basis(c) for c in f.components],
              "im_r": gens, "ker_r": kerns}
    yield from closed.items()
    canon = {kind: [image_basis(b) for b in bases] for kind, bases in closed.items()}
    (k1, v1), (k2, v2) = rng.sample(sorted(canon.items()), 2)
    yield f"{k1} + {k2}", [hstack(F, [a, b], rows=d) for a, b, d in zip(v1, v2, m.dims)]
    yield f"{k1} & {k2}", [span_intersection(a, b) for a, b in zip(v1, v2)]
    yield "random", [Mat.from_rows(F, [[entry() for _ in range(k)] for _ in range(d)], cols=k)
                     for d in m.dims for k in [rng.randint(0, d)]]
    for (a, b), mat in m.maps.items():
        if mat.a.any():
            yield "into zero", [Mat.zeros(F, d, 0) if i == b else Mat.eye(F, d)
                                for i, d in enumerate(m.dims)]


def submodule_agrees_with_the_oracle(seed: int) -> set:
    """Check every span of one instance; return the (kind, closed) pairs met."""
    rho, m = instance(seed)
    met = set()
    for kind, bases in spans(seed, rho, m):
        try:
            want = submodule_by_covers(m, bases)
        except SubmoduleError:
            with pytest.raises(SubmoduleError, match="not closed under the structure map on cover"):
                submodule_from_bases(m, bases)
            met.add((kind, False))
            continue
        got = submodule_from_bases(m, bases)
        assert got.parent is want.parent is m
        assert (got.m1, got.m2) == (want.m1, want.m2)
        assert got.proj == want.proj and got.free == want.free
        assert got.quotient.dims == want.quotient.dims
        assert got.quotient.maps == want.quotient.maps
        met.add((kind, True))
    return met


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_submodule_from_bases_equals_the_cover_by_cover_oracle(seed):
    submodule_agrees_with_the_oracle(seed)


def test_the_submodule_check_meets_closed_and_unclosed_spans():
    """On fixed seeds the check meets every closed kind built, random columns
    both closed and not, and spans mapped into a zero span, over every field."""
    met, fields = set(), set()
    for seed in range(30):
        met |= submodule_agrees_with_the_oracle(seed)
        fields.add(FIELDS.index(instance(seed)[1].field))
    kinds = {kind for kind, _ in met}
    assert {(kind, True) for kind in ("image", "kernel", "im_r", "ker_r")} <= met
    assert any("+" in kind for kind in kinds) and any("&" in kind for kind in kinds)
    assert {("random", True), ("random", False), ("into zero", False)} <= met
    assert fields == {0, 1, 2}
