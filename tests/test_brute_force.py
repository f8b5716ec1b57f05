"""Every "no" of `find_interleaving` against a brute force that shares no code
with the search.

On tiny random DAGs and forests over GF(2) and GF(3), at every stratum
representative where both Hom spaces together hold at most 4096 coefficient
pairs, every pair (c, d) is tried as p = sum c_i P_i, q = sum d_j Q_j against
the two defining identities q o p# = e_{r,M} and p o q# = e_{r,N}.  The
morphisms come from `MorphismStack.combine`, the transposes from `sharp`, and
the identities are checked with `compose` and `e_r`; the bilinear tensor,
`compressed_family`, `batch_consistent` and `_bilinear_search` are never used.
A "no" must have no such pair, and every "yes" certificate must pass
`check_certificate`.  The search runs twice: as it is, and with one-candidate
batches, so that every block above a single candidate is tested by its
relaxation first.

`is_isomorphic` runs on the same search and is checked the same way, against
families of invertible matrices, one per element, that commute with the cover
maps: on tiny random pairs with dimensions at most 2, every "no" has no such
family and every "yes" witness is natural and invertible at every element.
"""

import itertools
import random
from unittest import mock

import numpy as np
import pytest

from hipm import exactlin
from hipm.exactlin import FieldSpec
from hipm.functors import apply_R, e_r, sharp
from hipm.height import from_phi, strata
from hipm.interleave import check_certificate, find_interleaving
from hipm.pmod import hom_basis, is_isomorphic
from hipm.randgen import (random_conjugate, random_forest_poset, random_module, random_phi,
                          random_poset)

MAX_PAIRS = 4096


def brute_force_pair(rho, r, m, n):
    """(hom dims, the first (c, d) making an r-interleaving or None), or None
    when p**(h1 + h2) exceeds MAX_PAIRS."""
    p = m.field.p
    rm, rn = apply_R(rho, r, m).module, apply_R(rho, r, n).module
    p_basis, q_basis = hom_basis(m, rn), hom_basis(n, rm)
    if p ** (len(p_basis) + len(q_basis)) > MAX_PAIRS:
        return None
    p_sharps, q_sharps = sharp(rho, r, n, p_basis), sharp(rho, r, m, q_basis)
    em, en = e_r(rho, r, m), e_r(rho, r, n)
    q_pairs = [(d, q_basis.combine(d), q_sharps.combine(d))
               for d in itertools.product(range(p), repeat=len(q_basis))]
    for c in itertools.product(range(p), repeat=len(p_basis)):
        pc, pc_sharp = p_basis.combine(c), p_sharps.combine(c)
        for d, qd, qd_sharp in q_pairs:
            if qd.compose(pc_sharp) == em and pc.compose(qd_sharp) == en:
                return (len(p_basis), len(q_basis)), (c, d)
    return (len(p_basis), len(q_basis)), None


def random_instances(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        field = FieldSpec("gfp", (2, 3)[i % 2])
        size = rng.randint(3, 5)
        poset = random_poset(rng, size) if i % 4 < 2 else random_forest_poset(rng, size)
        rho = from_phi(random_phi(rng, poset))
        yield rho, random_module(rng, poset, field, 2), random_module(rng, poset, field, 2)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_no_is_exhausted_by_brute_force(seed):
    verdicts = {"yes": 0, "no": 0}
    for rho, m, n in random_instances(seed, 24):
        for st in strata(rho):
            brute = brute_force_pair(rho, st.rep, m, n)
            if brute is None:
                continue
            res = find_interleaving(rho, st.rep, m, n)
            with mock.patch.object(exactlin, "_BATCH_BYTES", 8):
                pruned = find_interleaving(rho, st.rep, m, n)
            verdicts[res.verdict] += 1
            for got in (res, pruned):
                if got.verdict == "no":
                    assert brute[1] is None, (st.rep, brute)
                else:
                    assert got.verdict == "yes"
                    assert check_certificate(rho, st.rep, m, n, got.p, got.q)
                    assert brute[1] is not None
    assert verdicts["no"] >= 5 and verdicts["yes"] >= 5, verdicts


def is_invertible(a, p):
    """A d x d matrix over GF(p), d <= 2, by its determinant."""
    d = a.shape[0]
    det = 1 if d == 0 else a[0, 0] if d == 1 else a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return det % p != 0


def brute_force_iso(m, n):
    """The first family of invertible matrices f_a, one per element in index
    order, with N(a <= b) f_a = f_b M(a <= b) on every cover, or None.  Each
    cover is checked as soon as both of its ends have a matrix."""
    if m.dims != n.dims:
        return None
    p, P = m.field.p, m.poset
    choices = [[a for a in (np.array(e, dtype=np.int64).reshape(d, d)
                            for e in itertools.product(range(p), repeat=d * d))
                if is_invertible(a, p)] for d in m.dims]
    checks = [[(a, b) for (a, b) in P.covers if max(a, b) == k] for k in range(len(P))]
    family = []

    def extend(k):
        if k == len(P):
            return True
        for f in choices[k]:
            family.append(f)
            if all(not ((n.maps[c].a @ family[c[0]] - family[c[1]] @ m.maps[c].a) % p).any()
                   for c in checks[k]) and extend(k + 1):
                return True
            family.pop()
        return False

    return family if extend(0) else None


def iso_pairs(seed, count):
    """(m, n) on tiny random DAGs and forests over GF(2)/GF(3), dimensions at
    most 2: every third n is a `random_conjugate` of m, the others a random
    module with m's dimensions when one turns up in 20 draws."""
    rng = random.Random(seed)
    for i in range(count):
        field = FieldSpec("gfp", (2, 3)[i % 2])
        size = rng.randint(2, 4)
        poset = random_poset(rng, size) if i % 4 < 2 else random_forest_poset(rng, size)
        m = random_module(rng, poset, field, 2)
        if i % 3 == 0:
            yield m, random_conjugate(rng, m)
            continue
        for _ in range(20):
            n = random_module(rng, poset, field, 2)
            if n.dims == m.dims:
                break
        yield m, n


@pytest.mark.parametrize("seed", [1, 2])
def test_every_iso_verdict_against_invertible_families(seed):
    verdicts = {"yes": 0, "no": 0, "no, same dims": 0}
    for m, n in iso_pairs(seed, 40):
        brute = brute_force_iso(m, n)
        res = is_isomorphic(m, n)
        with mock.patch.object(exactlin, "_BATCH_BYTES", 8):
            pruned = is_isomorphic(m, n)
        verdicts[res.verdict] += 1
        verdicts["no, same dims"] += res.verdict == "no" and m.dims == n.dims
        for got in (res, pruned):
            if got.verdict == "no":
                assert brute is None
            else:
                assert got.verdict == "yes" and brute is not None
                assert got.p.naturality_violations() == []
                assert all(is_invertible(c.a, m.field.p) for c in got.p.components)
    assert verdicts["yes"] >= 5 and verdicts["no, same dims"] >= 5, verdicts
