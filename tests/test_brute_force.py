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
"""

import itertools
import random
from unittest import mock

import pytest

from hipm import interleave
from hipm.exactlin import FieldSpec
from hipm.functors import apply_R, e_r, sharp
from hipm.height import from_phi, strata
from hipm.interleave import check_certificate, find_interleaving
from hipm.pmod import hom_basis
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset

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
            with mock.patch.object(interleave, "_BATCH_BYTES", 8):
                pruned = find_interleaving(rho, st.rep, m, n)
            verdicts[res.verdict] += 1
            for got in (res, pruned):
                if got.verdict == "no":
                    assert brute[1] is None, (st.rep, brute)
                else:
                    assert got.verdict == "yes"
                    cert = got.certificate
                    assert check_certificate(rho, st.rep, m, n, cert.p, cert.q)
                    assert brute[1] is not None
    assert verdicts["no"] >= 5 and verdicts["yes"] >= 5, verdicts
