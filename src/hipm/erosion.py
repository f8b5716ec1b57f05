"""Erosion neighborhoods and the erosion-neighborhood distance.

An r-erosion neighborhood of M is a subquotient M1/M2 where M1 contains the
image of L_r M -> M and M2 sits inside the kernel of M -> R_r M.  Two modules
are compared by asking for a common isomorphism class of such subquotients; the
resulting distance lower-bounds the interleaving distance and, under the
connected-intersections property, determines it up to a factor 2 plus the
intermediate-value defect.

Isomorphic modules have equal dimension vectors, and a neighborhood's vector
dim M1(a) - dim M2(a) is known before its quotient is formed.  So the
enumeration keys each (M1, M2) pair by that vector, and `d_en` forms,
deduplicates and compares quotients only in the vectors both modules reach.
Every neighborhood is held as the column bases of M1 and M2 in M plus the
quotient (`pmod.Subquotient`), built by `pmod.quotient_by_submodule`, which
solves nothing where the quotient is zero: the erosions and the canonical
neighborhood of an interleaving come from `functors.erosion_subquotient`, the
enumerated members from `EnEnumeration.members_with`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Dict, Iterator, List, Set, Tuple

from .exactlin import FieldSpec, Mat, hstack, image_basis, quotient_map, solve
from .height import HeightDiff
from .functors import (e_r_rank_obstruction, e_r_vanishes, erosion_bases, erosion_subquotient,
                       sharp)
from .interleave import (DEFAULT_BUDGET, Evaluation, StrataReport, find_interleaving,
                         stratified_report)
from .pmod import PersistenceModule, Subquotient, is_isomorphic, quotient_by_submodule, span_intersection

__all__ = [
    "en_enumerate",
    "EnEnumeration",
    "d_en",
]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _all_rref_subspaces(fieldspec: FieldSpec, n: int) -> List[Mat]:
    """Every subspace of k^n as a canonical column basis (transposed row-echelon
    representatives), ordered by dimension then lexicographic shape."""
    if not fieldspec.is_prime_field:
        raise ValueError("subspace enumeration needs a finite field")
    p = fieldspec.p
    out = [Mat.zeros(fieldspec, n, 0)]
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            free_pos = []
            for i, pv in enumerate(pivots):
                for j in range(pv + 1, n):
                    if j not in pivots:
                        free_pos.append((i, j))
            for assign in itertools.product(range(p), repeat=len(free_pos)):
                rr = Mat.zeros(fieldspec, d, n)
                for i, pv in enumerate(pivots):
                    rr.a[i, pv] = 1
                for (i, j), v in zip(free_pos, assign):
                    rr.a[i, j] = v
                out.append(rr.T)
    return out


def _subspaces_between(fieldspec: FieldSpec, lower: Mat, upper: Mat) -> List[Mat]:
    """All subspaces W with span(lower) <= W <= span(upper), as bases in the
    ambient coordinates (`upper` columns live in the ambient, `lower` inside it)."""
    inside = solve(upper, lower)
    if inside is None:
        raise ValueError("lower subspace must sit inside the upper one")
    q, free = quotient_map(fieldspec, upper.cols, inside)
    d = len(free)
    section = solve(q, Mat.eye(fieldspec, d))
    out = []
    for w in _all_rref_subspaces(fieldspec, d):
        lifted = hstack(fieldspec, [inside, section @ w], rows=upper.cols)
        basis = upper @ lifted  # independent columns: already a basis
        basis.a.flags.writeable = False  # shared by every family that lists it
        out.append(basis)
    return out


Vector = Tuple[int, ...]


@dataclass
class EnEnumeration:
    """The closed (M1, M2) families of one enumeration of `module`, in
    enumeration order.

    Each pair is (the bases of M1, the bases of M2, the dimension vector of
    M1/M2), all bases in `module`, the vector read off them as dim M1(a) -
    dim M2(a); the pairs of one M1 family share its bases.  Nothing is formed
    until asked for: `members_with(vectors)` forms the quotients whose vector
    is listed and deduplicates each against the members with the same vector.
    Each deduplicating isomorphism test runs under the enumeration's own
    `budget`.
    """

    module: PersistenceModule
    pairs: List[Tuple[Tuple[Mat, ...], List[Mat], Vector]]
    complete: bool
    budget: int

    @property
    def raw_count(self) -> int:
        return len(self.pairs)

    @property
    def vectors(self) -> Set[Vector]:
        return {vec for _, _, vec in self.pairs}

    def members_with(self, vectors: Set[Vector]) -> Iterator[Subquotient]:
        """The members whose dimension vector is in `vectors`, in member order.

        Modules with different dimension vectors are never isomorphic, so a
        quotient is compared only with the members of its own vector: the
        result is the full member list restricted to `vectors`."""
        seen: Dict[Vector, List[Subquotient]] = {}
        for m1, bases2, vec in self.pairs:
            if vec not in vectors:
                continue
            # no neighborhood checks: M1 >= im_r and M2 <= M1 & ker_r by construction
            sq = quotient_by_submodule(self.module, m1, bases2)
            bucket = seen.setdefault(vec, [])
            if not any(is_isomorphic(sq.quotient, s.quotient, budget=self.budget).verdict == "yes"
                       for s in bucket):
                bucket.append(sq)
                yield sq


def _closed_families(m: PersistenceModule, choices: List[List[Mat]]) -> Iterator[List[Mat]]:
    """Every family of per-element subspace choices closed under the structure
    maps, in lexicographic choice order.  Backtracking checks element i against
    the covers to and from the elements before it; the families share the
    choices' matrices."""
    P = m.poset

    def extend(family: Tuple[Mat, ...]) -> Iterator[List[Mat]]:
        i = len(family)
        if i == len(P):
            yield list(family)
            return
        for w in choices[i]:
            if (all(solve(w, m.maps[(a, i)] @ family[a]) is not None for a in P.downs[i] if a < i)
                    and all(solve(family[b], m.maps[(i, b)] @ w) is not None
                            for b in P.ups[i] if b < i)):
                yield from extend(family + (w,))

    return extend(())


def en_enumerate(rho: HeightDiff, r, m: PersistenceModule,
                 budget: int = 20000) -> EnEnumeration:
    """All r-erosion neighborhoods of m up to isomorphism (finite fields only).

    Enumerates pointwise subspace families for M1 (above the latching image)
    and M2 (inside the matching kernel and M1) and keeps the closed ones, each
    pair with the dimension vector of its quotient.  The quotients are formed
    and deduplicated by the isomorphism test, under the same budget, only when
    read (`EnEnumeration.members_with`).  `budget` caps the M1 and
    M2 families listed together; a listing is flagged incomplete only when a
    family lies past the cap, so one that lists exactly `budget` is complete.
    """
    if not m.field.is_prime_field:
        raise ValueError("erosion-neighborhood enumeration needs a finite field")
    gens, kerns = erosion_bases(rho, r, m)
    m1_choices = [_subspaces_between(m.field, image_basis(g), Mat.eye(m.field, d))
                  for g, d in zip(gens, m.dims)]
    left = max(budget, 0)  # islice takes no negative stop
    m1_families, complete = _take(_closed_families(m, m1_choices), left)
    left -= len(m1_families)
    pairs = []
    for fam1 in m1_families:
        if not complete:
            break
        m1 = tuple(fam1)
        ceiling = [image_basis(span_intersection(v1, v2)) for v1, v2 in zip(m1, kerns)]
        m2_choices = [_subspaces_between(m.field, Mat.zeros(m.field, d, 0), c)
                      for c, d in zip(ceiling, m.dims)]
        # choices live in ceiling coordinates already mapped to ambient
        m2_families, complete = _take(_closed_families(m, m2_choices), left)
        left -= len(m2_families)
        pairs.extend((m1, fam2, tuple(b1.cols - b2.cols for b1, b2 in zip(m1, fam2)))
                     for fam2 in m2_families)
    return EnEnumeration(m, pairs, complete, budget)


def _take(families, left: int) -> tuple:
    """The first `left` families, and whether none lies past them."""
    head = list(itertools.islice(families, left + 1))
    return head[:left], len(head) <= left


# ---------------------------------------------------------------------------
# the erosion-neighborhood distance
# ---------------------------------------------------------------------------


def _en_stratum_test(rho: HeightDiff, rep: Fraction, m: PersistenceModule, n: PersistenceModule,
                     budget: int) -> Evaluation:
    """(verdict, via, build) at one scale, `build` returning the witness or
    None; via is "erosion-iso", "obstruction", "certificate" or "enumeration".

    When e_r vanishes on both modules, both erosions are zero modules, which
    the isomorphism test calls isomorphic at any budget; so the stratum is an
    "erosion-iso" yes with no erosion, eta or search built, and its witness
    is m's erosion (`erosion_subquotient`), whose bases are read off m's own
    maps and whose quotient, zero everywhere, is formed with nothing solved.
    When the rank obstruction holds
    (`functors.e_r_rank_obstruction`), say
    rank e_{r,M}(a) > dim N(a), the stratum is an "obstruction" no over any
    field and at any budget, with nothing built or enumerated.  For an erosion
    neighborhood M1/M2 of M, the unit M -> R_r M kills M2, so M1/M2 maps to
    R_r M, and the image holds im e_{r,M} since M1 holds the image of L_r M.
    So its dimension at a is at least rank e_{r,M}(a), while that of an
    erosion neighborhood of N is at most dim N(a): no class is shared.  Else
    the erosions (`erosion_subquotient`) are built once each and compared, m's
    the witness of a "yes"; then the search's (p, q) gives the neighborhood
    with q# and p added; then the enumeration."""
    neighborhood = partial(erosion_subquotient, rho, rep, m)
    if e_r_vanishes(rho, rep, m, n):
        return "yes", "erosion-iso", neighborhood
    if e_r_rank_obstruction(rho, rep, m, n) is not None:
        return "no", "obstruction", None
    em, en_ = neighborhood(), erosion_subquotient(rho, rep, n)
    # like every isomorphism test under d_en, asked only where the dimensions agree
    if (em.quotient.dims == en_.quotient.dims
            and is_isomorphic(em.quotient, en_.quotient, budget=budget).verdict == "yes"):
        return "yes", "erosion-iso", lambda: em
    res = find_interleaving(rho, rep, m, n, budget)
    if res.verdict == "yes":  # the search's own certificate: no re-check
        return "yes", "certificate", lambda: neighborhood(sharp(rho, rep, m, res.q), res.p)
    if not m.field.is_prime_field:  # neighborhoods cannot be enumerated over Q
        return "unknown", "enumeration", None
    enum_m = en_enumerate(rho, rep, m, budget)
    enum_n = en_enumerate(rho, rep, n, budget)
    shared = enum_m.vectors & enum_n.vectors  # other members meet nothing on the far side
    by_vector: Dict[Vector, List[Subquotient]] = {}
    for sn in enum_n.members_with(shared):
        by_vector.setdefault(sn.quotient.dims, []).append(sn)
    undecided = False
    for sm in enum_m.members_with(shared):
        for sn in by_vector[sm.quotient.dims]:
            verdict = is_isomorphic(sm.quotient, sn.quotient, budget=budget).verdict
            if verdict == "yes":
                return "yes", "enumeration", lambda: sm
            undecided = undecided or verdict == "unknown"
    if enum_m.complete and enum_n.complete and not undecided:
        return "no", "enumeration", None
    return "unknown", "enumeration", None


def d_en(rho: HeightDiff, m: PersistenceModule, n: PersistenceModule,
         budget: int = DEFAULT_BUDGET) -> StrataReport:
    """The erosion-neighborhood distance by stratified search.

    Stratum verdict: do the r-erosion-neighborhood classes of m and n intersect?
    A stratum where e_r vanishes on both modules is an erosion-iso "yes" whose
    witness is m's erosion, with its zero quotient.  A stratum the rank
    obstruction rules out is a "no" with nothing enumerated; elsewhere
    canonical candidates (the erosions themselves, then the
    certificate-derived neighborhood) are tried before full cross-enumeration;
    an erosion-iso witness is the one compared.  Every witness is a
    `pmod.Subquotient`: the bases of M1 and M2 in m and the quotient.
    The cross test enumerates both modules' (M1, M2) pairs, then forms and
    deduplicates the quotients only in the dimension vectors both sides reach
    and compares each m-member, in member order, with the n-members of its
    vector; disjoint vectors decide "no" with no quotient formed.  Incomplete
    enumerations, an undecided isomorphism test in the cross test, and any
    enumeration over the rationals degrade the verdict to unknown and the
    distance to a bracket.
    """
    return stratified_report(rho, lambda st: _en_stratum_test(rho, st.rep, m, n, budget))
