"""stratified_search and stratified_report against a full scan of every stratum.

The search assumes verdicts are monotone in r and evaluates only a few strata.
The reference here evaluates all of them: first on synthetic verdict sequences,
then on real modules, where it also checks the monotonicity the search assumes.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hipm.erosion import _en_stratum_test, d_en
from hipm.exactlin import GF2, FieldSpec
from hipm.height import INF, HeightFunction, from_phi, strata
from hipm.interleave import distance, find_interleaving, stratified_report, stratified_search
from hipm.pmod import is_isomorphic
from hipm.poset import FinitePoset
from hipm.randgen import random_forest_poset, random_module, random_phi, random_poset


def full_scan(verdicts):
    """(first_yes, last_no) with every stratum evaluated."""
    K = len(verdicts)
    first_yes = next((i for i, v in enumerate(verdicts) if v == "yes"), K)
    last_no = max((i for i, v in enumerate(verdicts) if v == "no"), default=-1)
    return first_yes, last_no


def search(verdicts):
    calls = []

    def evaluate(i):
        calls.append(i)
        return verdicts[i]

    return stratified_search(len(verdicts), evaluate), calls


@st.composite
def monotone_verdicts(draw):
    """(boundary, verdicts): "no" below the boundary, "yes" from it on, some unknown."""
    K = draw(st.integers(0, 40))
    boundary = draw(st.integers(0, K))
    hidden = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    return boundary, ["unknown" if h else "no" if i < boundary else "yes"
                      for i, h in enumerate(hidden)]


@given(monotone_verdicts())
@settings(max_examples=400, deadline=None)
def test_search_agrees_with_a_full_scan(case):
    boundary, verdicts = case
    (first_yes, last_no), calls = search(verdicts)
    assert len(calls) == len(set(calls))  # each stratum evaluated at most once
    assert last_no < boundary <= first_yes  # the bracket holds the true boundary
    assert first_yes == len(verdicts) or verdicts[first_yes] == "yes"
    assert last_no == -1 or verdicts[last_no] == "no"
    scan_yes, scan_no = full_scan(verdicts)
    # decided exactly when evaluating everything decides, and then identically
    assert (first_yes == last_no + 1) == (scan_yes == scan_no + 1)
    if first_yes == last_no + 1:
        assert (first_yes, last_no) == (scan_yes, scan_no) == (boundary, boundary - 1)


@given(st.integers(0, 200), st.data())
def test_decided_verdicts_take_a_binary_search(K, data):
    boundary = data.draw(st.integers(0, K))
    (first_yes, last_no), calls = search(["no"] * boundary + ["yes"] * (K - boundary))
    assert (first_yes, last_no) == (boundary, boundary - 1)
    assert len(calls) <= K.bit_length()


@given(st.lists(st.sampled_from(["yes", "no", "unknown"]), max_size=30))
@settings(max_examples=400, deadline=None)
def test_evaluations_stay_inside_the_window(verdicts):
    """Every evaluation lies inside the window left by the decided ones, so the
    search never sees a yes below a no, even on a non-monotone sequence: the
    monotonicity check in stratified_search guards this bookkeeping, and only a
    full scan can show that an engine's verdicts are monotone."""
    (first_yes, last_no), calls = search(verdicts)
    seen = {i: verdicts[i] for i in calls}
    assert len(calls) == len(seen)
    assert all(i > j for i, v in seen.items() if v == "yes"
               for j, w in seen.items() if w == "no")
    assert first_yes == min([i for i, v in seen.items() if v == "yes"], default=len(verdicts))
    assert last_no == max([i for i, v in seen.items() if v == "no"], default=-1)


def chain_rho(K):
    """Heights 0, 1, ..., K on a chain: the strata are {0}, (0, 1], ..., (K-1, K], (K, oo)."""
    P = FinitePoset.chain([f"c{i}" for i in range(K + 1)])
    return from_phi(HeightFunction(P, {f"c{i}": Fraction(i) for i in range(K + 1)}))


@given(st.integers(0, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_report_agrees_with_a_full_scan(K, data):
    rho = chain_rho(K)
    sts = strata(rho)
    assert len(sts) == K + 2
    boundary = data.draw(st.integers(0, K + 2))
    hidden = data.draw(st.lists(st.booleans(), min_size=K + 2, max_size=K + 2))
    verdicts = ["unknown" if h else "no" if i < boundary else "yes"
                for i, h in enumerate(hidden)]
    vias = data.draw(st.lists(st.sampled_from([None, "iso", "search"]),
                              min_size=K + 2, max_size=K + 2))
    witnesses = [object() for _ in sts]
    calls, built = [], []

    def builder(i):
        def build():
            built.append(i)
            return witnesses[i]
        return build

    def evaluate(stratum):
        i = sts.index(stratum)
        calls.append(i)
        return verdicts[i], vias[i], builder(i)

    rep = stratified_report(rho, evaluate)

    # reference: what the evaluated strata and the full scan say
    assert len(calls) == len(set(calls))
    first_yes = min([i for i in calls if verdicts[i] == "yes"], default=K + 2)
    last_no = max([i for i in calls if verdicts[i] == "no"], default=-1)
    left = [st_.lo for st_ in sts] + [INF]
    want = [verdicts[i] if i in calls else "implied-yes" if i >= first_yes
            else "implied-no" if i <= last_no else "skipped" for i in range(K + 2)]
    assert [sv.verdict for sv in rep.strata] == want
    assert [sv.stratum for sv in rep.strata] == sts
    assert [sv.via for sv in rep.strata] == [vias[i] if i in calls else None
                                             for i in range(K + 2)]
    scan_yes, scan_no = full_scan(verdicts)
    assert rep.decided == (scan_yes == scan_no + 1)
    assert (rep.distance_lo, rep.distance) == (left[last_no + 1], left[first_yes])
    assert rep.distance_lo <= left[boundary] <= rep.distance  # the true distance
    if rep.decided:
        assert rep.distance_lo == rep.distance == left[boundary]
        assert "skipped" not in want
    assert rep.attained == (rep.decided and boundary == 0)
    assert rep.witness is (witnesses[first_yes] if first_yes < K + 2 else None)
    assert built == ([first_yes] if first_yes < K + 2 else [])  # no other witness is built


def _instances(count, field=GF2, size=(4, 6)):
    rng = random.Random(4242)
    for k in range(count):
        make = random_poset if k % 2 else random_forest_poset
        P = make(rng, rng.randint(*size))
        rho = from_phi(random_phi(rng, P, max_step=2, denominator=2))
        yield rho, random_module(rng, P, field, 2), random_module(rng, P, field, 2)


def test_interleaving_verdicts_are_monotone_and_distance_matches_them():
    for rho, m, n in _instances(12, FieldSpec("gfp", 3)):
        sts = strata(rho)
        verdicts = [is_isomorphic(m, n).verdict if st.kind == "zero"
                    else find_interleaving(rho, st.rep, m, n).verdict for st in sts]
        assert "unknown" not in verdicts
        first_yes, last_no = full_scan(verdicts)
        assert first_yes == last_no + 1, verdicts  # monotone in r
        rep = distance(rho, m, n)
        assert rep.decided
        assert [sv.verdict.replace("implied-", "") for sv in rep.strata] == verdicts
        assert rep.distance == (sts[first_yes].lo if first_yes < len(sts) else INF)


def test_erosion_verdicts_are_monotone_and_d_en_matches_them():
    for rho, m, n in _instances(8, size=(3, 5)):
        sts = strata(rho)
        verdicts = [_en_stratum_test(rho, st.rep, m, n, 4096)[0] for st in sts]
        if "unknown" in verdicts:
            continue
        first_yes, last_no = full_scan(verdicts)
        assert first_yes == last_no + 1, verdicts  # monotone in r
        rep = d_en(rho, m, n, budget=4096)
        assert [sv.verdict.replace("implied-", "") for sv in rep.strata] == verdicts
