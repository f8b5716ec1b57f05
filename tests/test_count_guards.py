"""Counts of the work that timing noise hides.

Each guard patches one primitive to count its calls and bounds the count of a
whole operation: the composites `validate_module` forms, the per-entry
`FieldSpec.coerce` calls `load_module` never makes, the closure products of
`FinitePoset.from_covers`, the content keys
`distance` builds, the critical-value bisections under `distance`, the
isomorphism tests and quotients of `d_en`'s enumeration stage, the search
that a stratum where e_r vanishes on both modules never starts, the R_r
value such a stratum never builds, not even to write its certificate, the Hom
bases a stratum ruled out by the rank obstruction never builds, the
isomorphism and its inverse that `is_isomorphic` builds only when read, and
the one erosion subquotient per module that `d_en`'s erosion test builds and
reports, the R_r, limit, `eta_id`, submodule, solve and quotient map that
`d_en`'s witness at such a stratum never builds, and the intervals and subposet
closures that `check_cip` and `c_rho` never build, with one connectivity
decision per distinct intersection.  Beside the guard on R_r, one test
checks that the certificate such a stratum writes is still the zero pair into
the built R_r values.
"""

import bisect
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hipm import cli, erosion, exactlin, functors, height, interleave, kan, pmod, poset, serde
from hipm.erosion import _en_stratum_test, d_en
from hipm.exactlin import FieldSpec, Mat
from hipm.functors import apply_R, e_r_rank_obstruction, e_r_vanishes
from hipm.height import (HeightDiff, HeightFunction, c_rho, check_cip, format_ext, from_phi, level, nbhds,
                         rho_diag, strata)
from hipm.interleave import check_certificate, distance, find_interleaving
from hipm.pmod import (ModuleMorphism, MorphismStack, PersistenceModule, direct_sum,
                       interval_module, is_isomorphic, validate_module)
from hipm.poset import FinitePoset
from hipm.randgen import (random_conjugate, random_forest_poset, random_module, random_phi,
                          random_poset)
from hipm.serde import (_subquotient_to_json, load_height, load_module, load_poset, module_to_json,
                        morphism_to_json, poset_to_json, strata_report_to_json)
import paper_statements
from paper_statements import check_cip_keyed

GF2, GF3, QQ = FieldSpec("gfp", 2), FieldSpec("gfp", 3), FieldSpec("rational")


def counting(monkeypatch, owner, name):
    """Patch owner.name to count its calls; returns the one-item count list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def pairs():
    """(rho, m, n): random DAGs over GF(2) and GF(3), each module against a
    random one and against a twisted copy of itself, and a 3x3 grid with the
    diagonal difference."""
    rng = random.Random(19)
    out = []
    for n_el, field in ((7, GF2), (6, GF3)):
        P = random_poset(rng, n_el, 0.4)
        m = random_module(rng, P, field, 2)
        out.append((from_phi(random_phi(rng, P)), m, random_module(rng, P, field, 2)))
        out.append((from_phi(random_phi(rng, P)), m, random_conjugate(rng, m)))
    G = FinitePoset.grid([3, 3])
    m = random_module(rng, G, GF2, 2)
    out.append((rho_diag(G), m, random_module(rng, G, GF2, 2)))
    return out


def test_validate_module_forms_two_composites_per_square(monkeypatch):
    G = FinitePoset.grid([5, 5])
    whole = interval_module(G, G.elements, GF3)
    m = random_conjugate(random.Random(3), direct_sum(whole, whole))
    assert all(m.dims)
    m = PersistenceModule(G, m.field, m.dims, m.maps)  # a fresh memo
    calls = counting(monkeypatch, Mat, "__matmul__")
    assert validate_module(m).valid
    assert calls[0] <= 2 * 4 * 4  # a 5x5 grid has 16 squares


def test_load_module_coerces_no_entry_one_at_a_time(monkeypatch):
    """`load_module` turns plain int dimensions and entries, and exact strings
    over Q, into matrices with no `FieldSpec.coerce` call."""
    rng = random.Random(5)
    calls = counting(monkeypatch, FieldSpec, "coerce")
    for field in (GF2, GF3, QQ):
        P = random_poset(rng, 8, 0.4)
        m = random_module(rng, P, field, 3)
        assert load_module(module_to_json(m), P).maps == m.maps
        assert any(not f.is_zero() for f in m.maps.values())  # entries were read
    assert calls[0] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 9, 64, 200])
def test_from_covers_squares_its_way_to_the_closure(monkeypatch, n):
    """At most ceil(log2 n) + 1 closure products on the n-chain, whose path
    of n - 1 steps is the longest there is, and on random DAGs."""
    products = [0]
    original = poset._transitive_closure

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products[0] += 1
            return super().__matmul__(other)

    monkeypatch.setattr(poset, "_transitive_closure",
                        lambda adj: np.asarray(original(adj.view(Counted))))
    bound = math.ceil(math.log2(n)) + 1
    FinitePoset.chain([str(i) for i in range(n)])
    assert 1 <= products[0] <= bound
    for seed in range(3):
        products[0] = 0
        random_poset(random.Random(seed), n, 0.3)
        assert 1 <= products[0] <= bound


@pytest.mark.parametrize("case", range(5))
def test_distance_builds_no_content_key(monkeypatch, case):
    rho, m, n = pairs()[case]
    calls = counting(monkeypatch, Mat, "entries")
    rep = distance(rho, m, n, budget=4096)
    assert calls[0] == 0
    assert any(sv.verdict in ("yes", "no") for sv in rep.strata[1:])  # the search ran


@pytest.mark.parametrize("case", range(5))
def test_no_functor_under_distance_bisects_the_critical_values(monkeypatch, case):
    rho, m, n = pairs()[case]
    calls = counting(monkeypatch, bisect, "bisect_left")
    distance(rho, m, n, budget=4096)
    assert calls[0] == 0


def shared_vector_pair(seed):
    """(rho, m, n) on a random 6-element forest over GF(3), n with m's
    dimension vector and random maps (on a forest any maps are functorial).
    Their neighborhoods share dimension vectors, so the cross test asks."""
    rng = random.Random(seed)
    P = random_forest_poset(rng, 6)
    rho = from_phi(random_phi(rng, P, max_step=2))
    m = random_module(rng, P, GF3, 2)
    maps = {(a, b): Mat.from_rows(GF3, [[rng.randrange(3) for _ in range(m.dims[a])]
                                        for _ in range(m.dims[b])], cols=m.dims[a])
            for (a, b) in P.covers}
    return rho, m, PersistenceModule(P, GF3, m.dims, maps)


@pytest.mark.parametrize("case", [0, 2, 4])  # seeds of pairs whose cross test asks
def test_d_en_never_asks_for_an_isomorphism_across_dimension_vectors(monkeypatch, case):
    rho, m, n = shared_vector_pair(case)
    original = erosion.is_isomorphic
    asked, across = [], []
    enumerated = counting(monkeypatch, erosion, "en_enumerate")

    def checked(a, b, *args, **kwargs):
        if a.dims != b.dims:
            across.append((a.dims, b.dims))
        elif enumerated[0]:  # past the erosion test, in the enumeration stage
            asked.append(a.dims)
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(erosion, "is_isomorphic", checked)
    rep = d_en(rho, m, n, budget=4096)
    assert across == [] and asked
    assert any(sv.via == "enumeration" for sv in rep.strata)  # the enumeration ran


def test_every_isomorphism_test_of_d_en_runs_under_its_budget(monkeypatch):
    """`--budget` caps the tests that deduplicate erosion neighborhoods too:
    `en_enumerate` keeps its budget, and `members_with` passes it on."""
    original = erosion.is_isomorphic
    budgets = []

    def recorded(a, b, budget=None):
        budgets.append(budget)
        return original(a, b, budget)

    monkeypatch.setattr(erosion, "is_isomorphic", recorded)
    enumerated = counting(monkeypatch, erosion, "en_enumerate")
    d_en(*shared_vector_pair(0), budget=20)
    assert enumerated[0] and budgets  # the cross test asked
    asked = len(budgets)
    chain = FinitePoset.chain(["a", "b", "c", "d"])
    rho = from_phi(HeightFunction(chain, dict(zip("abcd", map(Fraction, range(4))))))
    enum = erosion.en_enumerate(rho, 10, interval_module(chain, ["a", "b"], GF2), budget=20)
    members = list(enum.members_with(enum.vectors))
    assert len(members) < enum.raw_count and len(budgets) > asked  # duplicates were tested
    assert set(budgets) == {20}


def test_grid3_forms_no_quotient_where_no_vector_is_shared(monkeypatch):
    """The golden grid3 pair at (0, 1]: the neighborhoods of M and N share no
    dimension vector, which the rank obstruction proves, so the stratum is a
    "no" with no quotient formed."""
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    doc = {key: json.loads((inputs / f"grid3_{key}.json").read_text())
           for key in ("poset", "height", "M", "N")}
    P = load_poset(doc["poset"])
    rho = load_height(doc["height"], P)
    m, n = (load_module(doc[key], P, GF3) for key in ("M", "N"))
    stratum = next(st for st in strata(rho) if (st.lo, st.hi) == (0, Fraction(1)))
    calls = counting(monkeypatch, erosion, "quotient_by_submodule")
    assert _en_stratum_test(rho, stratum.rep, m, n, 65536) == (
        "no", "obstruction", None)
    assert calls[0] == 0


def stress_pair():
    """Four copies of [c1, c4] on the 8-chain against the same shifted up by 1,
    over GF(3), with the diagonal height: at r = 2 every pair x <= y of the
    neighborhoods is 4 apart, so e_r vanishes on both modules."""
    G = FinitePoset.grid([8])

    def copies(lo, hi):
        one = interval_module(G, list(G.elements[lo:hi + 1]), GF3)
        return direct_sum(direct_sum(one, one), direct_sum(one, one))

    return rho_diag(G), copies(1, 4), copies(2, 5)


def vanishing_strata():
    """(rho, m, n, stratum) for every nonzero stratum of the stress pair and of
    `pairs()` where e_r vanishes on both modules."""
    out = []
    for rho, m, n in [stress_pair()] + pairs():
        out += [(rho, m, n, st) for st in strata(rho)[1:]
                if e_r_vanishes(rho, st.rep, m) and e_r_vanishes(rho, st.rep, n)]
    return out


def test_a_vanishing_stratum_builds_no_hom_basis_and_starts_no_search(monkeypatch):
    cases = vanishing_strata()
    assert any(st.rep == 2 for _, _, _, st in cases[:8])  # the stress pair's r = 2
    assert len({id(rho) for rho, _, _, _ in cases}) >= 3
    names = ("hom_basis", "e_r_legs", "sharp_legs", "search_pair")
    calls = {name: counting(monkeypatch, interleave, name) for name in names}
    for rho, m, n, st in cases:
        res = find_interleaving(rho, st.rep, m, n, 1)
        assert (res.verdict, res.candidates_tried) == ("yes", 1)
        assert all(c.is_zero() for c in res.p.components + res.q.components)
    assert {name: c[0] for name, c in calls.items()} == dict.fromkeys(names, 0)


def test_a_vanishing_stratum_certificate_passes_the_transpose_check():
    for rho, m, n, st in vanishing_strata():
        res = find_interleaving(rho, st.rep, m, n, 1)
        assert check_certificate(rho, st.rep, m, n, res.p, res.q)


def test_budget_zero_is_unknown_on_a_vanishing_stratum():
    for rho, m, n, st in vanishing_strata():
        res = find_interleaving(rho, st.rep, m, n, 0)
        assert (res.verdict, res.p, res.q, res.candidates_tried) == ("unknown", None, None, 0)


def recording_functor_builds(monkeypatch):
    """Patch `functors._apply` to record the (kind, levels) of every functor
    value it is asked for; returns the record."""
    original = functors._apply
    built = []

    def recording(kind, levels, *args):
        built.append((kind, levels))
        return original(kind, levels, *args)

    monkeypatch.setattr(functors, "_apply", recording)
    return built


def test_distance_builds_no_matching_value_at_a_vanishing_stratum(monkeypatch):
    """No evaluated stratum where e_r vanishes on both modules builds R_r, not
    even the reported one, whose zero certificate is written from dim R_r."""
    built = recording_functor_builds(monkeypatch)
    reported = unreported = 0
    for rho, m, n in [stress_pair()] + pairs():
        del built[:]
        rep = distance(rho, m, n, budget=4096)
        json.dumps(strata_report_to_json(rep))
        evaluated = [i for i, sv in enumerate(rep.strata)
                     if sv.verdict in ("yes", "no") and sv.stratum.kind != "zero"]
        first_yes = next((i for i, sv in enumerate(rep.strata) if sv.verdict == "yes"), None)
        for i in evaluated:
            r = rep.strata[i].stratum.rep
            if e_r_vanishes(rho, r, m, n):
                made = ("R", (level(rho, r),)) in built
                assert not made, (i, first_yes)
                reported += i == first_yes
                unreported += i != first_yes
    assert reported and unreported  # the guard is not vacuous


def write_inputs(tmp_path, rho, m, n) -> list:
    """--poset, --height (rho as a table), --module and --module2 files for
    `cli.main`."""
    P = m.poset
    docs = {"poset": poset_to_json(P), "height": {"rho": [
                [P.elements[i], P.elements[j], format_ext(v)] for (i, j), v in rho.values.items()]},
            "module": module_to_json(m), "module2": module_to_json(n)}
    argv = []
    for key, doc in docs.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{key}", str(path)]
    return argv


def test_the_interleave_command_builds_no_matching_value_at_a_vanishing_scale(
        monkeypatch, tmp_path, capsys):
    """`hipm interleave` at a scale where e_r vanishes on both modules writes
    its zero certificate with no R_r value built."""
    built = recording_functor_builds(monkeypatch)
    cases = vanishing_strata()
    for rho, m, n, st in cases:
        files = write_inputs(tmp_path, rho, m, n)
        del built[:]
        assert cli.main(["interleave", *files, "--r", format_ext(st.rep)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "yes" and "certificate" in rep
        assert not any(kind == "R" for kind, _ in built), built
    assert len(cases) >= 8  # the guard is not vacuous


def rational_vanishing_strata():
    """`vanishing_strata` over Q: a random module on a DAG, a forest and a 3x3
    grid, each against a random module and against a twisted copy of itself."""
    rng = random.Random(23)
    out = []
    for kind in ("dag", "forest", "grid"):
        if kind == "grid":
            P = FinitePoset.grid([3, 3])
            rho = rho_diag(P)
        else:
            P = random_poset(rng, 7, 0.4) if kind == "dag" else random_forest_poset(rng, 7)
            rho = from_phi(random_phi(rng, P))
        m = random_module(rng, P, QQ, 2)
        for n in (random_module(rng, P, QQ, 2), random_conjugate(rng, m)):
            out += [(rho, m, n, st) for st in strata(rho)[1:] if e_r_vanishes(rho, st.rep, m, n)]
    return out


def test_a_vanishing_stratum_writes_the_zero_maps_into_the_matching_values(tmp_path, capsys):
    """The certificate `interleave` writes at every vanishing stratum, and the
    one `distance` writes when its first yes is such a stratum, is the zero
    pair into the built R_r values, over GF(p) and over Q."""
    def zero_pair(rho, r, m, n):
        maps = (("p", ModuleMorphism.zero(m, apply_R(rho, r, n).module)),
                ("q", ModuleMorphism.zero(n, apply_R(rho, r, m).module)))
        return json.loads(json.dumps({name: morphism_to_json(f.source, f.components)
                                      for name, f in maps}))

    nonzero, reported, reports = set(), set(), {}
    for rho, m, n, st in vanishing_strata() + rational_vanishing_strata():
        files = write_inputs(tmp_path, rho, m, n)
        assert cli.main(["interleave", *files, "--r", format_ext(st.rep)]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert == zero_pair(rho, st.rep, m, n)
        if cert["p"]["components"] and cert["q"]["components"]:
            nonzero.add(m.field.is_prime_field)
        if (rho, m, n) not in reports:
            assert cli.main(["--budget", "4096", "distance", *files]) in (0, 2)  # 2: undecided
            reports[rho, m, n] = json.loads(capsys.readouterr().out).get("certificate")
        cert = reports[rho, m, n]
        if cert is not None and cert["r"] == format_ext(st.rep):
            assert cert == {"r": cert["r"], **zero_pair(rho, st.rep, m, n)}
            reported.add(m.field.is_prime_field)
    assert nonzero == reported == {True, False}  # both fields, and maps that are not empty


def counting_everywhere(monkeypatch, name):
    """Patch `name` in every module that binds it, hipm's and the oracles',
    to count its calls, one count for all of them; returns the one-item
    count list."""
    calls = [0]
    for owner in (cli, erosion, exactlin, functors, interleave, kan, paper_statements, pmod, serde):
        original = getattr(owner, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_vanishing_d_en_witness_builds_no_matching_value_submodule_or_quotient(
        monkeypatch, tmp_path, capsys):
    """At every stratum where e_r vanishes on both modules, over GF(p) and
    over Q, building and writing the witness `d_en` returns, m's
    `erosion_subquotient`, calls no apply_R, lim_over, eta_id,
    submodule_from_bases, exactlin.solve or quotient_map, and the only cones
    it builds are colimits over the lower neighborhoods at its level; the
    same holds for every such witness `hipm en-distance` builds and writes.
    `functors.erosion_E` and the eta-built oracle `erosion_from_etas` on the
    same case call every one of them."""
    names = ("apply_R", "lim_over", "eta_id", "submodule_from_bases", "solve", "quotient_map")
    counts = {name: counting_everywhere(monkeypatch, name) for name in names}
    original_cone = kan._cone
    cones = []

    def recording(m, nodes, latching):
        cones.append((latching, nodes))
        return original_cone(m, nodes, latching)

    monkeypatch.setattr(kan, "_cone", recording)

    def built():
        return {name: c[0] for name, c in counts.items()}

    cases = vanishing_strata() + rational_vanishing_strata()
    for rho, m, n, st in cases:
        fresh = PersistenceModule(m.poset, m.field, m.dims, m.maps)  # no memoized cone
        verdict, via, build = _en_stratum_test(rho, st.rep, fresh, n, 4096)
        assert (verdict, via) == ("yes", "erosion-iso")
        before = built()
        del cones[:]
        json.dumps(_subquotient_to_json(build()))
        assert built() == before
        downs = set(nbhds(rho, "down", level(rho, st.rep)))
        assert cones and all(latching and nodes in downs for latching, nodes in cones)
        functors.erosion_E(rho, st.rep, PersistenceModule(m.poset, m.field, m.dims, m.maps))
        paper_statements.erosion_from_etas(rho, st.rep, m)
        assert all(after > before[name] for name, after in built().items())  # not vacuous
    assert len(cases) >= 8 and {m.field.is_prime_field for _, m, _, _ in cases} == {True, False}

    written, deltas = [], []

    def delta(before):
        return {k: v - before[k] for k, v in built().items()}

    def logged(build):
        def wrapped():
            before = built()
            out = build()
            written.append((delta(before), out.quotient.total_dim()))
            return out

        return wrapped

    original_test = erosion._en_stratum_test

    def stratum_test(*args):
        verdict, via, build = original_test(*args)
        return verdict, via, logged(build) if via == "erosion-iso" else build

    def report(rep):
        before = built()
        out = original_report(rep)
        deltas.append(delta(before))
        return out

    original_report = cli.en_report_to_json
    monkeypatch.setattr(erosion, "_en_stratum_test", stratum_test)
    monkeypatch.setattr(cli, "en_report_to_json", report)
    for rho, m, n in dict.fromkeys((rho, m, n) for rho, m, n, _ in cases):
        assert cli.main(["--budget", "4096", "en-distance",
                         *write_inputs(tmp_path, rho, m, n)]) in (0, 2)  # 2: undecided
        json.loads(capsys.readouterr().out)
    vanishing = [d for d, dim in written if dim == 0]  # erosion-iso with a zero quotient
    assert all(d == dict.fromkeys(names, 0) for d in vanishing + deltas), vanishing + deltas
    assert len(vanishing) >= 3  # the guard is not vacuous


def obstructed_pairs():
    """`pairs()`, two copies of [c1, c4] on the 8-chain against the same
    shifted up by 2 over GF(2), where e_r of the first has rank 2 at c2 at
    r = 1 and the second is 0 there, and [a, d] against [a, b] on a 4-chain
    over Q, where the search alone never says "no"."""
    G = FinitePoset.grid([8])

    def copies(lo, hi):
        one = interval_module(G, list(G.elements[lo:hi + 1]), GF2)
        return direct_sum(one, one)

    C = FinitePoset.chain(["a", "b", "c", "d"])
    chain = from_phi(HeightFunction(C, {"a": Fraction(0), "b": Fraction(1),
                                        "c": Fraction(3), "d": Fraction(5)}))
    return pairs() + [(rho_diag(G), copies(1, 4), copies(3, 6)),
                      (chain, interval_module(C, C.elements, QQ),
                       interval_module(C, ["a", "b"], QQ))]


def test_an_obstructed_stratum_builds_no_hom_basis_and_starts_no_search(monkeypatch):
    """`distance` builds the two Hom bases of a stratum only where it searches,
    and it never searches a stratum the rank obstruction rules out."""
    original = interleave.find_interleaving
    searched = []

    def recording(rho, r, *args):
        searched.append(r)
        return original(rho, r, *args)

    monkeypatch.setattr(interleave, "find_interleaving", recording)
    bases = counting(monkeypatch, interleave, "hom_basis")
    obstructed = 0
    for rho, m, n in obstructed_pairs():
        del searched[:]
        bases[0] = 0
        rep = distance(rho, m, n, budget=4096)
        for sv in rep.strata[1:]:
            if sv.verdict == "no" and e_r_rank_obstruction(rho, sv.stratum.rep, m, n):
                assert sv.stratum.rep not in searched
                obstructed += 1
        assert bases[0] == 2 * sum(not e_r_vanishes(rho, r, m, n) for r in searched)
    assert obstructed >= 3  # the guard is not vacuous


def test_is_isomorphic_builds_its_isomorphism_and_inverse_only_when_read(monkeypatch):
    """A "yes" combines f from the Hom basis only when p is read, and solves
    for its inverse only when q is read."""
    combined = counting(monkeypatch, MorphismStack, "combine")
    solved = counting(monkeypatch, pmod, "solve_candidate")
    isomorphic = 0
    for _, m, n in pairs():
        for other in (n, m):
            combined[0] = solved[0] = 0
            res = is_isomorphic(m, other)
            assert (combined[0], solved[0]) == (0, 0)
            if res.verdict != "yes":
                continue
            isomorphic += 1
            assert res.p.source is m and (combined[0], solved[0]) == (1, 0)
            assert res.q.source is other and (combined[0], solved[0]) == (2, 1)
            assert res.p is res.p and (combined[0], solved[0]) == (2, 1)
    assert isomorphic >= 4  # the guard is not vacuous


def test_an_erosion_iso_stratum_builds_each_erosion_once_and_reports_it(monkeypatch):
    """Where e_r does not vanish on both modules, the erosion test builds each
    module's erosion subquotient once, through no e_r and no image of it, and
    a "yes" reports the very subquotient of m that it compared."""
    original = erosion.erosion_subquotient
    built = []

    def recording(rho, r, mod, *maps):
        built.append((mod, original(rho, r, mod, *maps)))
        return built[-1][1]

    monkeypatch.setattr(erosion, "erosion_subquotient", recording)
    bypasses = [counting(monkeypatch, owner, name) for owner, name in (
        (functors, "e_r"), (interleave, "e_r"), (functors, "submodule_image"),
        (pmod, "submodule_image"))]
    tested = 0
    for rho, m, n in pairs():
        for st in strata(rho):
            if e_r_vanishes(rho, st.rep, m, n):
                continue
            del built[:]
            for calls in bypasses:
                calls[0] = 0
            verdict, via, build = _en_stratum_test(rho, st.rep, m, n, 4096)
            if (verdict, via) != ("yes", "erosion-iso"):
                continue
            tested += 1
            assert [id(mod) for mod, _ in built] == [id(m), id(n)]
            assert [calls[0] for calls in bypasses] == [0] * len(bypasses)
            assert build() is built[0][1] and len(built) == 2
    assert tested >= 4  # the guard is not vacuous
    rho, m, n = pairs()[1]  # m against a twisted copy: the zero stratum is an erosion-iso yes
    del built[:]
    rep = d_en(rho, m, n, budget=4096)
    assert (rep.strata[0].via, rep.distance) == ("erosion-iso", 0)
    assert [id(mod) for mod, _ in built] == [id(m), id(n)] * (len(built) // 2)
    assert any(rep.witness is sq for _, sq in built[::2])


def erosion_heights():
    """Heights the size of the erosion workload's `cip` and `c-rho` inputs:
    random DAGs of 12-14 elements drawn as `perfbench/make_data.py` draws
    them, and the 4x4 and 5x5 diagonal grids."""
    out = []
    for seed in range(1000, 1008):
        rng = random.Random(seed)
        P = random_poset(rng, 12 + seed % 3)
        out.append(from_phi(random_phi(rng, P)))
    return out + [rho_diag(FinitePoset.grid([s, s])) for s in (4, 5)]


@pytest.mark.parametrize("case", range(10))
def test_cip_and_c_rho_list_no_interval_and_decide_each_intersection_once(monkeypatch, case):
    """`check_cip` and `c_rho` list no interval (`FinitePoset.interval_idx`)
    and close no subposet's comparabilities (`poset._transitive_closure`, which
    the per-intersection connectivity test ran); `check_cip` makes one
    connectivity decision per distinct nonempty intersection it meets."""
    rho = erosion_heights()[case]
    visited = []
    want = check_cip_keyed(rho, visited=visited)
    rho = HeightDiff(rho.poset, rho.values)  # a fresh memo
    intervals = counting(monkeypatch, FinitePoset, "interval_idx")
    closures = counting(monkeypatch, poset, "_transitive_closure")
    decisions = counting(monkeypatch, height, "_connected")
    assert check_cip(rho) == want
    c_rho(rho)
    assert intervals[0] == closures[0] == 0
    assert decisions[0] == len(set(visited)) > 0
