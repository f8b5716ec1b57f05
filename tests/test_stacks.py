"""Hom bases held as per-element stacks, against the per-morphism code they replace.

`hom_basis` cuts every element's (h, N(a), M(a)) stack straight from the kernel
matrix, and `sharp` transposes a whole stack with one batched matmul per node
and one batched cocone check.  The references below are copies of the
one-morphism-at-a-time `hom_basis` and `sharp` that these replaced, with their
own factorization through the colimit; they share no stacked code.
"""

import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipm.exactlin import GF2, QQ, FieldSpec, Mat, hstack, kernel_basis, vstack, zeros
from hipm.functors import apply_L, apply_R, sharp
from hipm.height import from_phi, strata
from hipm.kan import colim_over, factor_stack_from_colim
from hipm.pmod import ModuleMorphism, MorphismStack, PersistenceModule, hom_basis, zero_module
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

GF3 = FieldSpec("gfp", 3)


def reference_hom_basis(m, n):
    """The per-morphism Hom basis: one ModuleMorphism per kernel column."""
    P, F = m.poset, m.field
    offsets, pos = [], 0
    for i in range(len(P)):
        offsets.append((pos, n.dims[i] * m.dims[i]))
        pos += n.dims[i] * m.dims[i]
    rows = []
    for (a, b) in P.covers:
        nm, mm = n.maps[(a, b)], m.maps[(a, b)]
        eqs = nm.rows * m.dims[a]
        if eqs == 0:
            continue
        block = Mat.zeros(F, eqs, pos)
        oa, ob = offsets[a][0], offsets[b][0]
        for r in range(nm.rows):
            for c in range(m.dims[a]):
                eq = r * m.dims[a] + c
                for k in range(n.dims[a]):
                    block.a[eq, oa + k * m.dims[a] + c] = nm.a[r, k]
                for k in range(m.dims[b]):
                    v = -mm.a[k, c]
                    block.a[eq, ob + r * m.dims[b] + k] = v % F.p if F.is_prime_field else v
        rows.append(block)
    kern = kernel_basis(vstack(F, rows, cols=pos) if rows else Mat.zeros(F, 0, pos))
    basis = []
    for j in range(kern.cols):
        comps = []
        for i, (o, size) in enumerate(offsets):
            comp = Mat.zeros(F, n.dims[i], m.dims[i])
            if size:
                comp.a[:, :] = kern.a[o : o + size, j].reshape(n.dims[i], m.dims[i])
            comps.append(comp)
        basis.append(ModuleMorphism(m, n, comps))
    return basis


def reference_factor(col, blocks, rows):
    """The factor out of a colimit, one family at a time: the stacked family at
    the free coordinates, checked by one Mat product."""
    stacked = hstack(col.proj.field, [blocks[x] for x in col.nodes], rows=rows)
    f = stacked.take_cols(col.free)
    if f @ col.proj != stacked:
        raise ValueError("family is not a cocone: no factorization through the colimit")
    return f


def reference_sharp(rho, r, n, g):
    """The one-morphism-at-a-time transpose M -> R_r N  ~>  L_r M -> N."""
    app_l, app_r = apply_L(rho, r, g.source), apply_R(rho, r, n)
    comps = []
    for a in range(len(g.source.poset)):
        blocks = {x: app_r.data[x].legs[a] @ g.components[x] for x in app_l.data[a].nodes}
        comps.append(reference_factor(app_l.data[a], blocks, n.dims[a]))
    return ModuleMorphism(app_l.module, n, comps)


@st.composite
def instances(draw):
    """(rho, m, n, r) on a random DAG or forest with 1-6 elements, dimension
    <= 2 (zeros included), r a stratum representative; n is sometimes the zero
    module, so that the Hom space is zero."""
    field = draw(st.sampled_from((GF2, GF3, QQ)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 6))
    poset = random_poset(rng, size) if draw(st.booleans()) else random_forest_poset(rng, size)
    rho = from_phi(random_phi(rng, poset, max_step=2))
    r = draw(st.sampled_from([stratum.rep for stratum in strata(rho)]))
    m = random_module(rng, poset, field, 2)
    n = zero_module(poset, field) if draw(st.integers(0, 5)) == 0 else random_module(rng, poset, field, 2)
    return rho, m, n, r


def _same(stack, morphisms):
    assert len(stack) == len(morphisms)
    assert [f.components for f in stack] == [f.components for f in morphisms]


@given(instances())
@settings(max_examples=150, deadline=None)
def test_stacked_hom_basis_and_sharp_match_the_per_morphism_code(case):
    rho, m, n, r = case
    rn = apply_R(rho, r, n).module
    _same(hom_basis(m, n), reference_hom_basis(m, n))
    if not m.field.is_prime_field:  # the block-built system keeps every entry exact
        assert all(isinstance(x, Fraction) for s in hom_basis(m, rn).stacks for x in s.ravel())
    basis = hom_basis(m, rn)
    _same(basis, reference_hom_basis(m, rn))
    sharps = sharp(rho, r, n, basis)
    assert isinstance(sharps, MorphismStack)
    assert (sharps.source, sharps.target) == (apply_L(rho, r, m).module, n)
    _same(sharps, [reference_sharp(rho, r, n, g) for g in basis])
    for g in basis:  # one morphism goes through the same stacked path
        assert sharp(rho, r, n, g).components == reference_sharp(rho, r, n, g).components


@given(instances(), st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_factor_raises_exactly_when_a_family_is_not_a_cocone(case, data):
    rho, m, _, r = case
    F = m.field
    # r = 0 gives whole down-sets, whose colimits have the most relations
    app = apply_L(rho, data.draw(st.sampled_from((0, r))), m)
    related = [a for a in range(len(m.poset))
               if app.data[a].dim < sum(m.dims[x] for x in app.data[a].nodes)]
    col = app.data[data.draw(st.sampled_from(related or range(len(m.poset))))]
    sizes = [m.dims[x] for x in col.nodes]
    total, offsets = sum(sizes), dict(zip(col.nodes, accumulate([0, *sizes])))
    h = data.draw(st.integers(0, 3))
    rows = data.draw(st.integers(0, 2))
    values = st.integers(0, F.p - 1) if F.is_prime_field else st.integers(-2, 2).map(Fraction)
    # each family: a random map out of the colimit (a cocone), perhaps plus noise
    families = []
    for _ in range(h):
        f = np.array([[data.draw(values) for _ in range(col.dim)] for _ in range(rows)],
                     dtype=np.int64 if F.is_prime_field else object).reshape(rows, col.dim)
        fam = (Mat._canonical(F, f) @ col.proj) if col.dim else Mat.zeros(F, rows, total)
        if data.draw(st.booleans()):
            noise = [[data.draw(values) for _ in range(total)] for _ in range(rows)]
            fam = Mat(F, fam.a + Mat.from_rows(F, noise, cols=total).a)
        families.append(fam)
    blocks = [{x: fam.take_cols(range(offsets[x], offsets[x] + m.dims[x]))
               for x in col.nodes} for fam in families]
    try:
        want = [reference_factor(col, b, rows) for b in blocks]
    except ValueError:
        want = None
    stacked = np.stack([fam.a for fam in families]) if families else zeros(F, (0, rows, total))
    if want is None:
        with pytest.raises(ValueError, match="not a cocone"):
            factor_stack_from_colim(col, stacked)
    else:
        got = factor_stack_from_colim(col, stacked)
        assert got.shape == (h, rows, col.dim)
        assert [Mat._canonical(F, g) for g in got] == want


def test_non_cocone_raises():
    # x -> y with the identity: the colimit identifies the two copies of the field
    P = FinitePoset.chain(["x", "y"])
    for F in (GF2, GF3, QQ):
        m = PersistenceModule(P, F, [1, 1], {(0, 1): Mat.eye(F, 1)})
        col = colim_over(m, [0, 1])
        good = Mat.from_rows(F, [[1, 1]]).a
        bad = Mat.from_rows(F, [[1, 0]]).a
        assert factor_stack_from_colim(col, good[None]).tolist() == [[[1]]]
        with pytest.raises(ValueError, match="not a cocone"):
            factor_stack_from_colim(col, np.stack([good, bad]))
    # a morphism to R_r N that is not natural has no transpose
    rho = from_phi(random_phi(random.Random(3), P, max_step=1))
    m = PersistenceModule(P, GF2, [1, 1], {(0, 1): Mat.eye(GF2, 1)})
    rm = apply_R(rho, 0, m).module
    g = ModuleMorphism(m, rm, [Mat.eye(GF2, 1), Mat.zeros(GF2, 1, 1)])
    assert g.naturality_violations()
    with pytest.raises(ValueError, match="not a cocone"):
        sharp(rho, 0, m, g)


def test_morphism_stack_sequence():
    rng = random.Random(5)
    P = FinitePoset.chain(["a", "b", "c"])
    for F in (GF3, QQ):
        m = random_module(rng, P, F, 2)
        basis = hom_basis(m, m)
        h = len(basis)
        assert h >= 1 and len(list(basis)) == h
        assert basis[-1].components == basis[h - 1].components
        with pytest.raises(IndexError):
            basis[h]
        assert all(not s.flags.writeable for s in basis.stacks)
        basis[0].components[0].a[...] = 0  # items are copies, the stack is untouched
        assert basis[0].components == reference_hom_basis(m, m)[0].components
        coeffs = [F.coerce(rng.randint(-2, 2)) for _ in range(h)]
        want = ModuleMorphism.zero(m, m)
        for f, c in zip(basis, coeffs):
            want = ModuleMorphism(m, m, [Mat(F, w.a + x.a * F.coerce(c))
                                         for w, x in zip(want.components, f.components)])
        assert basis.combine(coeffs) == want
        zero = MorphismStack(m, m, 0, [np.zeros((0, d, d), dtype=s.dtype)
                                       for d, s in zip(m.dims, basis.stacks)])
        z = zero.combine([])
        assert z == ModuleMorphism.zero(m, m)
        if F is QQ:
            assert all(type(x) is Fraction for c in z.components for x in c.a.ravel())
        with pytest.raises(ValueError, match="shape"):
            MorphismStack(m, m, h + 1, basis.stacks)
