"""The dimension-vector buckets of `d_en`'s enumeration stage, against the
pairwise procedure they replace.

The oracle forms every erosion neighborhood's quotient, deduplicates each
against all members so far and cross-tests every pair of members, with an
undecided isomorphism test making the stratum undecided.  The bucketed stage
must agree with it exactly: same verdict, via and witness at every stratum,
and the same members in the same order.  That holds for any isomorphism test
that says "no" on different dimension vectors, so it is also checked with a
coarse stand-in whose "yes" and "unknown" are common enough to reach every
branch of the cross test.  The oracle's im_r, ker_r and witnesses are built
from L_r, R_r and both etas (`paper_statements.erosion_from_etas`), not from
the module's own maps as `d_en` builds them.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hipm import erosion
from hipm.erosion import (
    _closed_families,
    _en_stratum_test,
    _subspaces_between,
    en_enumerate,
)
from hipm.exactlin import GF2, FieldSpec, Mat, solve
from hipm.functors import e_r, e_r_rank_obstruction, im_r, ker_r, sharp
from hipm.height import from_phi, strata
from hipm.pmod import (
    PersistenceModule,
    SearchResult,
    submodule_from_bases,
    submodule_image,
    submodule_intersection,
)
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset
from hipm.serde import _subquotient_to_json

from paper_statements import (erosion_from_etas, im_r_from_eta, ker_r_from_eta,
                              quotient_of_submodules)

GF3 = FieldSpec("gfp", 3)


def oracle_enumerate(rho, r, m, budget):
    """(members, complete): every quotient formed, each deduplicated against
    all members before it."""
    P = m.poset
    imr, kerr = im_r_from_eta(rho, r, m), ker_r_from_eta(rho, r, m)
    m1_choices = [_subspaces_between(m.field, imr.m1[i], Mat.eye(m.field, m.dims[i]))
                  for i in range(len(P))]
    left = max(budget, 0)
    m1_iter = _closed_families(m, m1_choices)
    m1_families = list(itertools.islice(m1_iter, left))
    left -= len(m1_families)
    complete = next(m1_iter, None) is None  # no family past the budget
    members = []
    for fam1 in m1_families:
        m1 = submodule_from_bases(m, fam1)
        ceiling = submodule_intersection(m1, kerr)
        m2_choices = [_subspaces_between(m.field, Mat.zeros(m.field, m.dims[i], 0),
                                         ceiling.m1[i]) for i in range(len(P))]
        m2_iter = _closed_families(m, m2_choices)
        m2_families = list(itertools.islice(m2_iter, left))
        left -= len(m2_families)
        complete = complete and next(m2_iter, None) is None
        for fam2 in m2_families:
            sq = quotient_of_submodules(m1, submodule_from_bases(m, fam2))
            if not any(erosion.is_isomorphic(sq.quotient, seen.quotient).verdict == "yes"
                       for seen in members):
                members.append(sq)
    return members, complete


def oracle_stratum_test(rho, rep, m, n, budget, enumerations):
    """(verdict, via, witness) with a cross test over all pairs of members;
    `enumerations` holds `oracle_enumerate`'s value for m and for n."""
    if e_r_rank_obstruction(rho, rep, m, n) is not None:
        return "no", "obstruction", None
    em = submodule_image(e_r(rho, rep, m)).quotient
    en_ = submodule_image(e_r(rho, rep, n)).quotient
    if erosion.is_isomorphic(em, en_, budget=budget).verdict == "yes":
        return "yes", "erosion-iso", erosion_from_etas(rho, rep, m)
    res = erosion.find_interleaving(rho, rep, m, n, budget)
    if res.verdict == "yes":
        return "yes", "certificate", erosion_from_etas(rho, rep, m, sharp(rho, rep, m, res.q), res.p)
    (members_m, complete_m), (members_n, complete_n) = enumerations
    undecided = False
    for sm in members_m:
        for sn in members_n:
            verdict = erosion.is_isomorphic(sm.quotient, sn.quotient, budget=budget).verdict
            if verdict == "yes":
                return "yes", "enumeration", sm
            undecided = undecided or verdict == "unknown"
    if complete_m and complete_n and not undecided:
        return "no", "enumeration", None
    return "unknown", "enumeration", None


def coarse_iso(m, n, budget=None):
    """A stand-in isomorphism test: "no" on different dimension vectors, else
    a verdict read off the total dimension."""
    if m.dims != n.dims:
        return SearchResult("no")
    return SearchResult(("yes", "unknown", "yes", "no")[sum(m.dims) % 4])


def same_witness(got, want):
    """`got` from `_en_stratum_test`, which returns a witness builder, against
    the oracle's (verdict, via, witness)."""
    witness = got[2]() if got[2] is not None else None
    return got[:2] == want[:2] and (witness is None) == (want[2] is None) and (
        witness is None or _subquotient_to_json(witness) == _subquotient_to_json(want[2]))


def same_members(got, want):
    return len(got) == len(want) and all(
        a.m1 == b.m1 and a.m2 == b.m2
        and a.quotient.dims == b.quotient.dims and a.quotient.maps == b.quotient.maps
        for a, b in zip(got, want))


def twin(rng, m):
    """A module on m's forest with m's dimension vector and random maps (on a
    forest any maps are functorial), so that the two share buckets."""
    gen = np.random.default_rng(rng.randrange(2 ** 32))
    maps = {(a, b): Mat(m.field, gen.integers(m.field.p, size=(m.dims[b], m.dims[a])))
            for (a, b) in m.poset.covers}
    return PersistenceModule(m.poset, m.field, m.dims, maps)


def instance(seed, size, forest, field, twinned, budget):
    """(rho, m, n, budget) on a random forest or DAG; on a forest n may be a
    twin of m."""
    rng = random.Random(seed)
    P = random_forest_poset(rng, size) if forest else random_poset(rng, size)
    rho = from_phi(random_phi(rng, P, max_step=2))
    m = random_module(rng, P, field, max_dim=2)
    n = twin(rng, m) if forest and twinned else random_module(rng, P, field, max_dim=2)
    return rho, m, n, budget


instances = st.builds(instance, st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.booleans(),
                      st.sampled_from([GF2, GF3]), st.booleans(), st.sampled_from([3, 20, 65536]))


@given(instances)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_bucketed_stage_matches_the_pairwise_oracle(case):
    rho, m, n, budget = case
    for stratum in strata(rho):
        rep = stratum.rep
        oracle = [oracle_enumerate(rho, rep, mod, budget) for mod in (m, n)]
        got = _en_stratum_test(rho, rep, m, n, budget)
        assert same_witness(got, oracle_stratum_test(rho, rep, m, n, budget, oracle))
        for mod, (members, complete) in zip((m, n), oracle):
            enum = en_enumerate(rho, rep, mod, budget)
            assert enum.complete == complete
            assert same_members(list(enum.members_with(enum.vectors)), members)
            assert enum.module is mod
            for m1, bases2, vec in enum.pairs:  # each predicted vector is its quotient's
                sq = quotient_of_submodules(submodule_from_bases(mod, m1),
                                            submodule_from_bases(mod, bases2))
                assert sq.quotient.dims == vec


@given(instances)
@example(instance(1, 4, True, GF2, True, 20))  # first "yes" members in two buckets, out of vector order
@settings(max_examples=20, deadline=None, derandomize=True)
def test_bucketed_stage_matches_the_pairwise_oracle_on_a_coarse_iso_test(case):
    """With the coarse stand-in and an interleaving search that finds nothing,
    every stratum reaches the cross test."""
    rho, m, n, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(erosion, "is_isomorphic", coarse_iso)
        mp.setattr(erosion, "find_interleaving", lambda *args: SearchResult("no"))
        for stratum in strata(rho):
            rep = stratum.rep
            oracle = [oracle_enumerate(rho, rep, mod, budget) for mod in (m, n)]
            got = _en_stratum_test(rho, rep, m, n, budget)
            assert same_witness(got, oracle_stratum_test(rho, rep, m, n, budget, oracle))


def test_members_with_keeps_member_order_within_the_listed_vectors():
    rng = random.Random(5)
    P = random_poset(rng, 5)
    rho = from_phi(random_phi(rng, P, max_step=2))
    m = random_module(rng, P, GF2, max_dim=2)
    r = strata(rho)[-1].rep  # past every critical value: every subquotient
    enum = en_enumerate(rho, r, m)
    members = list(enum.members_with(enum.vectors))
    assert len(enum.vectors) > 1
    for vec in sorted(enum.vectors):
        want = [sq for sq in members if sq.quotient.dims == vec]
        assert same_members(list(enum.members_with({vec})), want)
    assert same_members(list(enum.members_with(enum.vectors)), members)
    assert list(enum.members_with(set())) == []
    assert enum.raw_count == len(enum.pairs) >= len(members)


def brute_closed_families(m, choices):
    """Every family of choices, in lexicographic order, whose spans every
    structure map keeps: no backtracking and no order of elements."""
    return [list(fam) for fam in itertools.product(*choices)
            if all(solve(fam[b], m.maps[(a, b)] @ fam[a]) is not None for a, b in m.poset.covers)]


small_instances = st.builds(instance, st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.booleans(),
                            st.sampled_from([GF2, GF3]), st.just(False), st.just(20))


@given(small_instances)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_closed_families_are_the_closed_choice_families_in_order(case):
    rho, m, _, _ = case
    for stratum in strata(rho):
        imr, kerr = im_r(rho, stratum.rep, m), ker_r(rho, stratum.rep, m)
        for lower, upper in ((imr.m1, [Mat.eye(m.field, d) for d in m.dims]),
                             ([Mat.zeros(m.field, d, 0) for d in m.dims], kerr.m1)):
            choices = [_subspaces_between(m.field, lo, up) for lo, up in zip(lower, upper)]
            got = list(_closed_families(m, choices))
            assert [[id(w) for w in fam] for fam in got] == [
                [id(w) for w in fam] for fam in brute_closed_families(m, choices)]
            assert all(not w.a.flags.writeable for ws in choices for w in ws)


def same_pairs(got, want):
    return [(m1, bases2, vec) for m1, bases2, vec in got] == [
        (m1, bases2, vec) for m1, bases2, vec in want]


@given(instances)
@example(instance(0, 4, True, GF2, False, 65536))  # a 4-element forest over GF(2)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_a_budget_that_ends_on_the_last_family_lists_it_complete(case):
    """The budget counts every M1 family and every (M1, M2) pair listed; a
    listing is incomplete only when a family lies past it."""
    rho, m, _, _ = case
    for stratum in strata(rho):
        full = en_enumerate(rho, stratum.rep, m, 65536)
        if not full.complete:
            continue
        # every M1 has at least the zero M2, so each M1 family is in some pair
        listed = len(full.pairs) + len({id(m1) for m1, _, _ in full.pairs})
        for budget, pairs, complete in ((listed + 1, full.pairs, True), (listed, full.pairs, True),
                                        (listed - 1, full.pairs[:-1], False), (0, [], False),
                                        (-1, [], False)):
            enum = en_enumerate(rho, stratum.rep, m, budget)
            assert enum.complete == complete and same_pairs(enum.pairs, pairs)
