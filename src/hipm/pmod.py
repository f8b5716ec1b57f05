"""Persistence modules over a finite poset and their morphisms.

A module stores one dimension per element and one exact matrix per Hasse cover;
the map for a general pair a <= b is composed along a canonical cover path
(validated path-independence makes any path equivalent, the canonical one keeps
outputs reproducible).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .exactlin import (
    DEFAULT_BUDGET,
    FieldSpec,
    Mat,
    factor_at,
    hstack,
    image_basis,
    kernel_basis,
    quotient_map,
    rref,
    solve,
    stacked_matmul,
    zeros,
    _bilinear_search,
    solve_candidate,
)
from .poset import FinitePoset, Memo, OrderMap, PosetError

__all__ = [
    "PersistenceModule",
    "ModuleMorphism",
    "ModuleReport",
    "validate_module",
    "interval_module",
    "zero_module",
    "direct_sum",
    "pullback_module",
    "MorphismStack",
    "hom_basis",
    "SearchResult",
    "search_pair",
    "is_isomorphic",
]


class PersistenceModule(Memo):
    """A functor from a finite poset to vector spaces, stored on Hasse covers."""

    __slots__ = ("poset", "field", "dims", "maps")

    def __init__(self, poset: FinitePoset, fieldspec: FieldSpec, dims: Sequence[int],
                 maps: Dict[Tuple[int, int], Mat]):
        super().__init__()
        self.poset = poset
        self.field = fieldspec
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(poset):
            raise ValueError("one dimension per poset element required")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be nonnegative")
        full = {}
        for (a, b) in poset.covers:
            m = maps.get((a, b))
            if m is None:
                m = Mat.zeros(fieldspec, self.dims[b], self.dims[a])
            full[(a, b)] = m
        self.maps = full

    def total_dim(self) -> int:
        return sum(self.dims)

    def map_for_idx(self, a: int, b: int) -> Mat:
        """M(a <= b), composed along the canonical (smallest-next-index) cover path."""
        # a hit is one lookup: every leg of every (co)limit diagram comes here
        out = self.memo.get(("map", a, b))
        if out is not None:
            return out
        if not self.poset.leq[a, b]:
            raise PosetError(f"{self.poset.elements[a]!r} is not below {self.poset.elements[b]!r}")
        if a == b:
            out = Mat.eye(self.field, self.dims[a])
        else:
            step = next(hi for hi in self.poset.ups[a] if self.poset.leq[hi, b])
            if step == b:  # a cover: its own map, no product with an identity
                out = self.maps[(a, b)]
            else:
                out = self.map_for_idx(step, b) @ self.maps[(a, step)]
        self.memo[("map", a, b)] = out
        return out

    def key(self) -> tuple:
        return self.cached(("key",), lambda: (self.poset.key(), self.field, self.dims, tuple(
            sorted((c, self.maps[c].entries()) for c in self.maps))))

    def same(self, other: "PersistenceModule") -> bool:
        """self is other, or has other's content; the content keys are built
        only for two distinct objects."""
        return self is other or self.key() == other.key()

    def __repr__(self):
        return f"PersistenceModule(dims={list(self.dims)})"


@dataclass
class ModuleReport:
    valid: bool
    shape_violations: List[tuple] = field(default_factory=list)
    commutativity_violations: List[tuple] = field(default_factory=list)


def validate_module(m: PersistenceModule) -> ModuleReport:
    """Check cover-map shapes, then that M is a functor: every two cover paths
    between the same elements compose to the same map.

    It suffices to check, for every element a with a nonzero space, every two
    covers h1, h2 of a and every minimal common upper bound c of h1 and h2
    with a nonzero space, that M(h1 <= c) M(a <= h1) = M(h2 <= c) M(a <= h2).
    By induction from the top, let every two paths that start above a agree.
    Two paths from a to b through covers h1 != h2 of a: b lies above some
    minimal common upper bound c of h1 and h2, so each path is M(c <= b) after
    its side of the square at c, and the two agree when the square does.  A
    zero space at a or c makes both sides zero.  A violation is reported as
    (a, c, h1, h2).
    """
    P = m.poset
    shape_bad = []
    for (a, b), mat in m.maps.items():
        want = (m.dims[b], m.dims[a])
        if (mat.rows, mat.cols) != want:
            shape_bad.append((P.elements[a], P.elements[b], want, (mat.rows, mat.cols)))
    if shape_bad:
        return ModuleReport(valid=False, shape_violations=shape_bad)
    comm_bad = []
    for a, ups in enumerate(P.ups):
        if not m.dims[a]:
            continue
        for h1, h2 in itertools.combinations(ups, 2):
            for c in P.minimal_upper_bounds(h1, h2):
                if m.dims[c] and _via(m, a, h1, c) != _via(m, a, h2, c):
                    comm_bad.append((P.elements[a], P.elements[c], P.elements[h1], P.elements[h2]))
    return ModuleReport(valid=not comm_bad, commutativity_violations=comm_bad)


def _via(m: PersistenceModule, a: int, h: int, c: int) -> Mat:
    """M(h <= c) M(a <= h) for a cover h of a; when h is map_for_idx's own
    first step from a toward c, that composite is M(a <= c), made and kept."""
    if h == next(x for x in m.poset.ups[a] if m.poset.leq[x, c]):
        return m.map_for_idx(a, c)
    return m.map_for_idx(h, c) @ m.maps[(a, h)]


def zero_module(poset: FinitePoset, fieldspec: FieldSpec) -> PersistenceModule:
    return PersistenceModule(poset, fieldspec, [0] * len(poset), {})


def interval_module(poset: FinitePoset, J: Iterable[str], fieldspec: FieldSpec) -> PersistenceModule:
    """The module k_J for a convex subset J: dimension one on J with identity maps."""
    jdx = {poset.idx(e) for e in J}
    for x, z in itertools.product(sorted(jdx), repeat=2):
        if poset.leq[x, z]:
            for y in poset.interval_idx(x, z):
                if y not in jdx:
                    raise PosetError(
                        f"subset not convex: {poset.elements[x]!r} <= {poset.elements[y]!r}"
                        f" <= {poset.elements[z]!r} but the middle element is missing"
                    )
    dims = [1 if i in jdx else 0 for i in range(len(poset))]
    maps = {}
    for (a, b) in poset.covers:
        if a in jdx and b in jdx:
            maps[(a, b)] = Mat.eye(fieldspec, 1)
    return PersistenceModule(poset, fieldspec, dims, maps)


def direct_sum(m: PersistenceModule, n: PersistenceModule) -> PersistenceModule:
    if m.poset.key() != n.poset.key() or m.field != n.field:
        raise ValueError("direct sum requires the same poset and field")
    dims = [dm + dn for dm, dn in zip(m.dims, n.dims)]
    maps = {}
    for (a, b) in m.poset.covers:
        out = Mat.zeros(m.field, dims[b], dims[a])
        ma, na = m.maps[(a, b)], n.maps[(a, b)]
        out.a[: ma.rows, : ma.cols] = ma.a
        out.a[ma.rows :, ma.cols :] = na.a
        maps[(a, b)] = out
    return PersistenceModule(m.poset, m.field, dims, maps)


def pullback_module(f: OrderMap, m: PersistenceModule) -> PersistenceModule:
    """(f*M)(x) = M(f(x)); source covers pick up the composed target maps."""
    if m.poset.key() != f.target.key():
        raise PosetError("module must live on the target of f")
    Q = f.source
    dims = [m.dims[f.apply_idx(i)] for i in range(len(Q))]
    maps = {}
    for (a, b) in Q.covers:
        maps[(a, b)] = m.map_for_idx(f.apply_idx(a), f.apply_idx(b))
    return PersistenceModule(Q, m.field, dims, maps)


class ModuleMorphism:
    """A natural transformation: one matrix per element, commuting with the structure maps.

    The constructor checks shapes only: the morphisms hipm builds are natural by construction,
    and `serde.load_morphism` and `interleave.check_certificate` check those from outside."""

    __slots__ = ("source", "target", "components", "__weakref__")

    def __init__(self, source: PersistenceModule, target: PersistenceModule,
                 components: Sequence[Mat]):
        self.source = source
        self.target = target
        self.components = tuple(components)
        if len(self.components) != len(source.poset):
            raise ValueError("one component per element required")
        for i, c in enumerate(self.components):
            if (c.rows, c.cols) != (target.dims[i], source.dims[i]):
                raise ValueError(
                    f"component at {source.poset.elements[i]!r} has shape "
                    f"{(c.rows, c.cols)}, expected {(target.dims[i], source.dims[i])}"
                )

    def naturality_violations(self) -> List[Tuple[str, str]]:
        """The covers (lower, upper) on which the components fail to commute."""
        bad = []
        P = self.source.poset
        for (a, b) in P.covers:
            lhs = self.target.maps[(a, b)] @ self.components[a]
            rhs = self.components[b] @ self.source.maps[(a, b)]
            if lhs != rhs:
                bad.append((P.elements[a], P.elements[b]))
        return bad

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self after other."""
        if not other.target.same(self.source):
            raise ValueError("composition source/target mismatch")
        comps = [self.components[i] @ other.components[i] for i in range(len(self.components))]
        return ModuleMorphism(other.source, self.target, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def is_iso(self) -> bool:
        return all(c.rows == c.cols and rref(c).rank == c.rows for c in self.components)

    @staticmethod
    def zero(m: PersistenceModule, n: PersistenceModule) -> "ModuleMorphism":
        return ModuleMorphism(m, n, [Mat.zeros(m.field, dn, dm) for dm, dn in zip(m.dims, n.dims)])

    def __repr__(self):
        return f"ModuleMorphism({list(self.source.dims)} -> {list(self.target.dims)})"


def _component_offsets(m: PersistenceModule, n: PersistenceModule) -> List[Tuple[int, int]]:
    offsets = []
    pos = 0
    for i in range(len(m.poset)):
        size = n.dims[i] * m.dims[i]
        offsets.append((pos, size))
        pos += size
    return offsets


class MorphismStack(Sequence):
    """h morphisms source -> target, held as one (h, target(a), source(a)) array per element a.

    A read-only sequence: item i is the i-th morphism, built on access.  The
    stacks are what the transposes and the bilinear search work on, so a whole
    Hom basis goes through them with one array operation per element.
    """

    __slots__ = ("source", "target", "stacks", "_h")

    def __init__(self, source: PersistenceModule, target: PersistenceModule,
                 h: int, stacks: Sequence[np.ndarray]):
        self.source = source
        self.target = target
        self.stacks = tuple(stacks)
        if len(self.stacks) != len(source.poset):
            raise ValueError("one stack per element required")
        for i, s in enumerate(self.stacks):
            if s.shape != (h, target.dims[i], source.dims[i]):
                raise ValueError(f"stack at {source.poset.elements[i]!r} has shape {s.shape}, "
                                 f"expected {(h, target.dims[i], source.dims[i])}")
            s.flags.writeable = False
        self._h = h

    @classmethod
    def of(cls, f: ModuleMorphism) -> "MorphismStack":
        """The one-element stack [f]."""
        return cls(f.source, f.target, 1, [c.a[None] for c in f.components])

    def __len__(self) -> int:
        return self._h

    def __getitem__(self, i: int) -> ModuleMorphism:
        if not -self._h <= i < self._h:
            raise IndexError("morphism index out of range")
        F = self.source.field
        return ModuleMorphism(self.source, self.target,
                              [Mat._canonical(F, s[i].copy()) for s in self.stacks])

    def combine(self, coeffs: Sequence) -> ModuleMorphism:
        """sum_i coeffs[i] * self[i], one matmul per element (the zero map when h = 0)."""
        F = self.source.field
        c = np.array([[F.coerce(x) for x in coeffs]], dtype=np.int64 if F.is_prime_field else object)
        comps = []
        for s in self.stacks:
            h, rows, cols = s.shape
            comps.append(Mat._canonical(F, stacked_matmul(F, c, s.reshape(h, rows * cols))
                                        .reshape(rows, cols)))
        return ModuleMorphism(self.source, self.target, comps)

    def __repr__(self):
        return f"MorphismStack({self._h} x {list(self.source.dims)} -> {list(self.target.dims)})"


class SearchResult:
    """A bilinear search's verdict ("yes" | "no" | "unknown"), the candidates it
    tried, and for a "yes" the witness pair p, q.  Each of p and q is built by
    its builder on its first read, so a witness nobody reads is never built;
    both are None unless the verdict is "yes".  When the witness is the zero
    pair, `zero_pair` returns each map's source and its target's dimension
    vector, which is all it takes to write the pair; it is None otherwise."""

    def __init__(self, verdict: str, candidates_tried: int = 0,
                 build_p: Optional[Callable[[], ModuleMorphism]] = None,
                 build_q: Optional[Callable[[], ModuleMorphism]] = None,
                 zero_pair: Optional[Callable[[], tuple]] = None):
        self.verdict, self.candidates_tried = verdict, candidates_tried
        self._build_p, self._build_q = build_p, build_q
        self.zero_pair = zero_pair

    @cached_property
    def p(self) -> Optional[ModuleMorphism]:
        return self._build_p() if self._build_p is not None else None

    @cached_property
    def q(self) -> Optional[ModuleMorphism]:
        return self._build_q() if self._build_q is not None else None


def search_pair(p_basis: MorphismStack, q_basis: MorphismStack,
                p_families: Sequence[np.ndarray], q_families: Sequence[np.ndarray],
                m_rhs: Sequence[np.ndarray], n_rhs: Sequence[np.ndarray],
                budget: int) -> SearchResult:
    """The search of the bilinear system, element by element,
    sum_{i,j} c_i d_j Q_j(a) p_families[a][i] = m_rhs[a] and
    sum_{i,j} c_i d_j P_i(a) q_families[a][j] = n_rhs[a]
    in p = sum_i c_i P_i over `p_basis` and q = sum_j d_j Q_j over `q_basis`.

    A family is an (h, N(a), w) stack per element, one matrix per basis
    morphism (a transpose, or its composites with colimit legs), and its
    right-hand block is the (R(a), w) array it must produce.  The (h2, h1, L)
    tensor lays the blocks out row-major, element after element, the m side
    first; per element, every composite of one side is one batched matmul of
    two stacks.  `exactlin._bilinear_search` finds the first c.  On a "yes" the
    result builds p when it is read, and q, by one exact `solve` of c's
    system, when q is read."""
    F = p_basis.source.field
    rhs = np.concatenate([b.ravel() for b in (*m_rhs, *n_rhs)] + [zeros(F, (0,))])
    h1, h2 = len(p_basis), len(q_basis)

    def products(left, families, swap):  # per element, every left o family in one matmul
        for stack, family in zip(left.stacks, families):
            prod = stacked_matmul(F, stack[:, None], family[None])
            yield (prod.swapaxes(0, 1) if swap else prod).reshape(h2, h1, -1)

    tensor = (np.concatenate([*products(q_basis, p_families, False),
                              *products(p_basis, q_families, True)], axis=2)
              if h1 and h2 else zeros(F, (h2, h1, len(rhs))))
    verdict, coeffs, tried = _bilinear_search(tensor, rhs, F, budget)
    if verdict != "yes":
        return SearchResult(verdict, tried)
    return SearchResult(verdict, tried, partial(p_basis.combine, coeffs),
                        lambda: q_basis.combine(solve_candidate(tensor, rhs, coeffs, F).a[:, 0]))


def hom_basis(m: PersistenceModule, n: PersistenceModule) -> MorphismStack:
    """Deterministic basis of the space of natural transformations m => n, as a stack.

    Solves the stacked linear system of cover naturality equations; for valid
    modules cover naturality implies naturality on all pairs.  Basis element j is
    column j of the canonical kernel basis, cut into row-major components; each
    element's stack is cut from the kernel matrix in one piece.
    """
    if m.poset.key() != n.poset.key() or m.field != n.field:
        raise ValueError("hom requires the same poset and field")
    P, F = m.poset, m.field
    offsets = _component_offsets(m, n)
    total = offsets[-1][0] + offsets[-1][1] if offsets else 0
    rows = []
    for (a, b) in P.covers:
        nm, mm = n.maps[(a, b)], m.maps[(a, b)]
        ka, kb = m.dims[a], m.dims[b]
        if nm.rows * ka == 0:
            continue
        # vec(N(a<=b) f(a)) - vec(f(b) M(a<=b)) = 0 with row-major vec: the blocks
        # N(a<=b) (x) I at f(a) and -(I (x) M(a<=b)^T) at f(b), by strided slices
        block = zeros(F, (nm.rows * ka, total))
        oa, sa = offsets[a]
        ob = offsets[b][0]
        for i in range(ka):
            block[i::ka, oa + i : oa + sa : ka] = nm.a
        neg = -mm.a.T
        for r in range(nm.rows):
            block[r * ka : (r + 1) * ka, ob + r * kb : ob + (r + 1) * kb] = neg
        if F.is_prime_field:
            block %= F.p
        rows.append(block)
    system = Mat._canonical(F, np.concatenate(rows) if rows else zeros(F, (0, total)))
    kern = kernel_basis(system)
    h = kern.cols
    stacks = [np.ascontiguousarray(kern.a[oa : oa + sa].T).reshape(h, n.dims[i], m.dims[i])
              for i, (oa, sa) in enumerate(offsets)]
    return MorphismStack(m, n, h, stacks)


class SubmoduleError(ValueError):
    pass


@dataclass
class Submodule:
    """A pointwise-spanned submodule: per-element column bases inside the parent,
    the abstract module they carry, and the inclusion morphism."""

    parent: PersistenceModule
    bases: Tuple[Mat, ...]
    module: PersistenceModule
    incl: ModuleMorphism


def submodule_from_bases(parent: PersistenceModule, bases: Sequence[Mat]) -> Submodule:
    """Build the submodule spanned pointwise by `bases`; raises if the spans are
    not closed under the structure maps.  Bases are canonicalized (pivot columns)."""
    P, F = parent.poset, parent.field
    canon = [image_basis(b) for b in bases]
    maps = {}
    for (a, b) in P.covers:
        w = solve(canon[b], parent.maps[(a, b)] @ canon[a])
        if w is None:
            raise SubmoduleError(
                f"span not closed under the structure map on cover "
                f"({P.elements[a]!r}, {P.elements[b]!r})"
            )
        maps[(a, b)] = w
    module = PersistenceModule(P, F, [c.cols for c in canon], maps)
    incl = ModuleMorphism(module, parent, list(canon))
    return Submodule(parent, tuple(canon), module, incl)


def submodule_image(f: ModuleMorphism) -> Submodule:
    """im(f) as a submodule of the target (always closed)."""
    return submodule_from_bases(f.target, f.components)


def submodule_kernel(f: ModuleMorphism) -> Submodule:
    """ker(f) as a submodule of the source (always closed)."""
    return submodule_from_bases(f.source, [kernel_basis(c) for c in f.components])


def submodule_full(m: PersistenceModule) -> Submodule:
    return submodule_from_bases(m, [Mat.eye(m.field, d) for d in m.dims])


def submodule_zero(m: PersistenceModule) -> Submodule:
    return submodule_from_bases(m, [Mat.zeros(m.field, d, 0) for d in m.dims])


def submodule_sum(s1: Submodule, s2: Submodule) -> Submodule:
    bases = [
        hstack(s1.parent.field, [s1.bases[i], s2.bases[i]], rows=s1.parent.dims[i])
        for i in range(len(s1.bases))
    ]
    return submodule_from_bases(s1.parent, bases)


def span_intersection(v1: Mat, v2: Mat) -> Mat:
    """Columns spanning span(v1) & span(v2) for independent columns v1 and
    v2: v1 times the v1 coordinates of the kernel basis of [v1 | -v2]."""
    paired = hstack(v1.field, [v1, -v2], rows=v1.rows)
    return v1 @ kernel_basis(paired).take_rows(range(v1.cols))


def submodule_intersection(s1: Submodule, s2: Submodule) -> Submodule:
    """Pointwise intersection of spans (closed whenever both inputs are)."""
    return submodule_from_bases(s1.parent, [span_intersection(v1, v2)
                                            for v1, v2 in zip(s1.bases, s2.bases)])


@dataclass
class Subquotient:
    """M1/M2 for submodules M2 <= M1 of `parent`, held as their column bases
    `m1` and `m2` in `parent`: the quotient module and, per element, the
    projection of M1's coordinates onto the quotient and the coordinates where
    it is the identity (`quotient_map`'s free coordinates).  Where M1 and M2
    agree the projection has no rows and no coordinate is free."""

    parent: PersistenceModule
    m1: Tuple[Mat, ...]
    m2: Tuple[Mat, ...]
    quotient: PersistenceModule
    proj: Tuple[Mat, ...]
    free: Tuple[Tuple[int, ...], ...]


def quotient_by_submodule(parent: PersistenceModule, m1: Sequence[Mat],
                          m2: Sequence[Mat]) -> Subquotient:
    """The subquotient M1/M2 from the canonical column bases of submodules
    M1 >= M2 of `parent`, which the caller vouches for.  Nothing is solved
    where the quotient is zero: at an element where the bases have equal
    column counts the projection is empty, and a cover with a zero end
    carries the zero map.  Elsewhere M1's structure map is solved and
    factored through the quotient; raises `SubmoduleError` where that fails."""
    P, F = parent.poset, parent.field
    projs = []
    frees = []
    for i, (b1, b2) in enumerate(zip(m1, m2)):
        if b1.cols == b2.cols:
            projs.append(Mat.zeros(F, 0, b1.cols))
            frees.append(())
            continue
        inside = solve(b1, b2)
        if inside is None:
            raise SubmoduleError(f"submodule containment fails at {P.elements[i]!r}")
        q, free = quotient_map(F, b1.cols, inside)
        projs.append(q)
        frees.append(free)
    maps = {}
    for (a, b) in P.covers:
        if not (frees[a] and frees[b]):
            maps[(a, b)] = Mat.zeros(F, len(frees[b]), len(frees[a]))
            continue
        w = solve(m1[b], parent.maps[(a, b)] @ m1[a])
        x = None if w is None else factor_at(projs[a].a, frees[a], (projs[b] @ w).a, F)
        if x is None:
            raise SubmoduleError("map does not factor through the quotient")
        maps[(a, b)] = Mat._canonical(F, x)
    quot = PersistenceModule(P, F, [len(free) for free in frees], maps)
    return Subquotient(parent, tuple(m1), tuple(m2), quot, tuple(projs), tuple(frees))


def is_isomorphic(m: PersistenceModule, n: PersistenceModule,
                  budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for an isomorphism m ~ n: on a "yes", p is an isomorphism f and
    q is its inverse.

    An isomorphism is a 0-interleaving: f: m -> n and g: n -> m with g o f = id
    and f o g = id.  So this is `search_pair` over f = sum c_i P_i in
    Hom(m, n) and g in Hom(n, m), each basis its own transpose, with identity
    right-hand sides.  A candidate f has such a g exactly when it is invertible
    at every element, since its inverse is then natural.  Over GF(p) the
    witness is the first invertible f in lexicographic coefficient order, and
    exhausting the Hom space within `budget` candidates proves "no".  Over the
    rationals the search probes the same budgeted integer lattice as
    `find_interleaving`, and a miss is "unknown".  Different dimension vectors
    are a "no" and two zero modules a "yes" (one candidate), with no search.
    """
    if m.poset.key() != n.poset.key() or m.field != n.field:
        raise ValueError("isomorphism test requires the same poset and field")
    if m.dims != n.dims:
        return SearchResult("no")
    if m.total_dim() == 0:
        return SearchResult("yes", 1, partial(ModuleMorphism.zero, m, n),
                            partial(ModuleMorphism.zero, n, m))
    p_basis, q_basis = hom_basis(m, n), hom_basis(n, m)
    if not p_basis:
        return SearchResult("no")
    eye = [Mat.eye(m.field, d).a for d in m.dims]
    return search_pair(p_basis, q_basis, p_basis.stacks, q_basis.stacks, eye, eye, budget)
