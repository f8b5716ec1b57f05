import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipm.height import _bitsets, _connected
from hipm.poset import (
    FinitePoset,
    OrderMap,
    PosetError,
    _transitive_closure,
    check_galois_insertion,
    check_order_map,
    is_diamond_free,
)
from paper_statements import Connectivity, is_connected_idx


def test_chain_closure(chain4):
    assert len(chain4.comparable_pairs()) == 10
    a, d = chain4.idx("a"), chain4.idx("d")
    assert chain4.leq[a, d] and not chain4.leq[d, a]


def test_cycle_rejected():
    with pytest.raises(PosetError, match="cycle"):
        FinitePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


@pytest.mark.parametrize("covers", [
    [("a", "b"), ("b", "a")],
    [("a", "b"), ("b", "c"), ("c", "a")],
    [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "y")],
    [("x", "y"), ("y", "c"), ("c", "b"), ("b", "c")],
])
def test_the_cycle_error_names_two_ids_on_one_cycle(covers):
    elements = sorted({e for pair in covers for e in pair})
    with pytest.raises(PosetError) as info:
        FinitePoset.from_covers(elements, covers)
    match = re.fullmatch(r"cycle detected through '(\w+)' and '(\w+)'", str(info.value))
    a, b = match.groups()

    above = {e: {e} for e in elements}  # above[x]: the ids a path of covers reaches from x
    for _ in elements:
        for lo, hi in covers:
            above[lo] |= above[hi]
    assert a != b and b in above[a] and a in above[b]


def test_unknown_and_duplicate_ids():
    with pytest.raises(PosetError, match="unknown"):
        FinitePoset.from_covers(["a"], [("a", "b")])
    with pytest.raises(PosetError, match="duplicate"):
        FinitePoset.from_covers(["a", "a"], [])


def test_empty_poset():
    p = FinitePoset.from_covers([], [])
    assert len(p.comparable_pairs()) == 0
    assert is_diamond_free(p)


def test_unreduced_covers_normalized():
    p = FinitePoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == ((0, 1), (1, 2))


def test_down_up_sets(chain4):
    def down_set(a):
        return frozenset(chain4.elements[j] for j in np.flatnonzero(chain4.leq[:, chain4.idx(a)]))

    up_a = frozenset(chain4.elements[j] for j in np.flatnonzero(chain4.leq[chain4.idx("a"), :]))
    assert down_set("c") == {"a", "b", "c"}
    assert down_set("a") == {"a"}
    assert up_a & down_set("a") == {"a"}


def test_connectivity_states(diamond, chain4):
    assert is_connected_idx(diamond, [diamond.idx("b"), diamond.idx("c")]) == Connectivity.DISCONNECTED
    assert is_connected_idx(diamond, [diamond.idx("b")]) == Connectivity.CONNECTED
    assert is_connected_idx(chain4, [chain4.idx("a"), chain4.idx("c")]) == Connectivity.CONNECTED
    assert is_connected_idx(chain4, []) == Connectivity.EMPTY


def test_diamond_free(diamond, chain4):
    assert not is_diamond_free(diamond)
    assert is_diamond_free(chain4)
    tree = FinitePoset.from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")])
    assert is_diamond_free(tree)


def test_order_map_reports():
    c2 = FinitePoset.chain(["a", "b"])
    ident = OrderMap(c2, c2, {e: e for e in c2.elements})
    assert check_order_map(ident).preserving
    const = OrderMap(c2, c2, {"a": "a", "b": "a"})
    assert check_order_map(const).preserving


def test_galois_insertion_lists_where_iota_is_no_embedding():
    c2 = FinitePoset.chain(["a", "b"])
    const = OrderMap(c2, c2, {"a": "a", "b": "a"})
    rep = check_galois_insertion(const, OrderMap(c2, c2, {e: e for e in c2.elements}))
    assert not rep.valid and rep.embedding_violations == [("b", "a")]


def test_order_map_bipath_fold():
    # two arcs folding onto a chain, monotone on each arc
    B = FinitePoset.from_covers(
        ["s", "c1", "d1", "t"], [("s", "c1"), ("c1", "t"), ("s", "d1"), ("d1", "t")]
    )
    C = FinitePoset.chain(["0", "1", "2"])
    fold = OrderMap(B, C, {"s": "0", "c1": "1", "d1": "1", "t": "2"})
    assert check_order_map(fold).preserving


def test_galois_insertion_examples():
    P = FinitePoset.chain(["0", "1"])
    Pp = FinitePoset.chain(["0", "h", "1"])
    iota = OrderMap(P, Pp, {"0": "0", "1": "1"})
    pi_good = OrderMap(Pp, P, {"0": "0", "h": "0", "1": "1"})
    assert check_galois_insertion(iota, pi_good).valid
    pi_bad = OrderMap(Pp, P, {"0": "0", "h": "1", "1": "1"})
    rep = check_galois_insertion(iota, pi_bad)
    assert not rep.valid and rep.adjunction_violations
    ident = OrderMap(P, P, {e: e for e in P.elements})
    assert check_galois_insertion(ident, ident).valid


@st.composite
def random_posets(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))),
                          max_size=2 * n))
    elements = [f"e{i}" for i in range(n)]
    covers = [(elements[i], elements[j]) for i, j in edges if i < j]
    return FinitePoset.from_covers(elements, covers)


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_reduction_then_closure_idempotent(p):
    rebuilt = FinitePoset.from_covers(
        p.elements, [(p.elements[a], p.elements[b]) for a, b in p.covers]
    )
    assert bool(np.all(rebuilt.leq == p.leq))
    assert rebuilt.covers == p.covers


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_down_set_monotone(p):
    for a, b in p.comparable_pairs():
        assert (frozenset(p.elements[j] for j in np.flatnonzero(p.leq[:, a]))
                <= frozenset(p.elements[j] for j in np.flatnonzero(p.leq[:, b])))


@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_diamond_free_intervals_connected(p):
    if not is_diamond_free(p):
        return
    for a, b in p.comparable_pairs():
        assert (is_connected_idx(p, p.interval_idx(a, b))
                in (Connectivity.CONNECTED, Connectivity.EMPTY))


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_cover_adjacency_lists_the_covers(p):
    for i in range(len(p)):
        assert list(p.ups[i]) == sorted(b for a, b in p.covers if a == i)
        assert list(p.downs[i]) == sorted(a for a, b in p.covers if b == i)


def connectivity_by_search(leq, ix):
    """Breadth-first search over the comparable pairs of ix, read from `leq`."""
    if not ix:
        return Connectivity.EMPTY
    seen, frontier = {ix[0]}, [ix[0]]
    while frontier:
        a = frontier.pop(0)
        for b in ix:
            if b not in seen and (leq[a][b] or leq[b][a]):
                seen.add(b)
                frontier.append(b)
    return Connectivity.CONNECTED if len(seen) == len(ix) else Connectivity.DISCONNECTED


@given(random_posets(max_n=9), st.data())
@settings(max_examples=120, deadline=None)
def test_connectivity_matches_a_search_over_comparable_pairs(p, data):
    leq = p.leq.tolist()
    mask = data.draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p)))
    subsets = [[i for i in range(len(p)) if mask[i]], []] + [[i] for i in range(len(p))]
    comparable = _bitsets(p.leq | p.leq.T)
    for ix in subsets:
        want = connectivity_by_search(leq, ix)
        assert is_connected_idx(p, ix) == want
        assert is_connected_idx(p, ix[::-1]) == want
        if ix:  # the bitset decider of `height.check_cip`
            assert _connected(sum(1 << x for x in ix), comparable) == (want == Connectivity.CONNECTED)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_diagonal_steps_follow_the_coordinates(shape, k):
    g = FinitePoset.grid(shape)
    for a, b in enumerate(g.diagonal(k)):
        pt = [x + k for x in g.coords[a]]
        if all(0 <= x < s for x, s in zip(pt, shape)):
            assert b is not None and list(g.coords[b]) == pt
        else:
            assert b is None


@pytest.mark.parametrize("shape", [[], [0], [3, 0]])
def test_grid_rejects_an_empty_shape_or_side(shape):
    """An empty shape would be one point with no coordinates to step along."""
    with pytest.raises(PosetError, match="grid shape must be a non-empty list"):
        FinitePoset.grid(shape)


def test_diagonal_needs_a_grid(chain4):
    with pytest.raises(PosetError, match="grid coordinates"):
        chain4.diagonal(1)


def test_subposet_covers_recomputed():
    # dropping the middle of a chain turns the long relation into a cover
    p = FinitePoset.chain(["a", "b", "c"])
    assert p.subposet_covers([0, 2]) == [(0, 2)]
    assert p.subposet_covers([0, 1, 2]) == [(0, 1), (1, 2)]


# Order facts come from boolean matrix products.  A path or bound count stored
# in a byte wraps to 0 at 256, so these posets are 256 elements wide.


def _through(width, extra=()):
    """x < m_i < y for `width` middle elements, plus the covers in `extra`."""
    mids = [f"m{i}" for i in range(width)]
    covers = [("x", m) for m in mids] + [(m, "y") for m in mids] + list(extra)
    return FinitePoset.from_covers(["x", "y"] + mids, covers)


@pytest.mark.parametrize("width", [255, 256, 300])
def test_closure_counts_no_paths(width):
    p = _through(width)
    assert p.leq[p.idx("x"), p.idx("y")] and not p.leq[p.idx("y"), p.idx("x")]
    assert len(p.comparable_pairs()) == 3 * width + 2 + 1


@pytest.mark.parametrize("width", [255, 256])
def test_covers_drop_a_cover_with_many_witnesses(width):
    p = _through(width, extra=[("x", "y")])
    assert len(p.covers) == 2 * width
    assert (p.idx("x"), p.idx("y")) not in p.covers
    assert p.subposet_covers(range(len(p))) == list(p.covers)


@pytest.mark.parametrize("width", [255, 256])
def test_diamond_with_many_common_lower_bounds(width):
    # u, v incomparable below the top t, above `width` minimal elements
    lows = [f"b{i}" for i in range(width)]
    covers = [(b, "u") for b in lows] + [(b, "v") for b in lows] + [("u", "t"), ("v", "t")]
    p = FinitePoset.from_covers(["u", "v", "t"] + lows, covers)
    assert not is_diamond_free(p)
    assert is_diamond_free(FinitePoset.from_covers(["u", "v"] + lows, covers[:-2]))


def grid_from_covers(shape):
    """The grid as `from_covers` builds it from its unit steps, with its
    coordinates attached through the constructor."""
    points = list(itertools.product(*[range(s) for s in shape]))
    name = {pt: "v_" + "_".join(str(c) for c in pt) for pt in points}
    covers = [(name[pt], name[pt[:d] + (pt[d] + 1,) + pt[d + 1:]])
              for pt in points for d in range(len(shape)) if pt[d] + 1 < shape[d]]
    p = FinitePoset.from_covers([name[pt] for pt in points], covers)
    return FinitePoset(p.elements, p.leq, p.covers, dict(enumerate(points)))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_grid_equals_from_covers_over_its_unit_steps(shape):
    g, want = FinitePoset.grid(shape), grid_from_covers(shape)
    assert (g.elements, g.covers, g.ups, g.downs, g.coords) == (
        want.elements, want.covers, want.ups, want.downs, want.coords)
    assert g.leq.dtype == want.leq.dtype and np.array_equal(g.leq, want.leq)
    assert [g.diagonal(k) for k in (-2, -1, 1, 2)] == [want.diagonal(k) for k in (-2, -1, 1, 2)]


def warshall(adj):
    """Reachability by one or more steps, one intermediate element at a time."""
    reach = adj.copy()
    for k in range(len(reach)):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


@given(st.integers(0, 12), st.floats(0, 0.6), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_the_closure_equals_warshall(n, density, acyclic, rnd):
    """On random digraphs, acyclic or not, and then through `from_covers` on
    the DAGs: its order is the closure and its covers the sorted reduction."""
    adj = np.array([[i != j and (i < j or not acyclic) and rnd.random() < density
                     for j in range(n)] for i in range(n)], dtype=bool).reshape(n, n)
    want = warshall(adj)
    assert np.array_equal(_transitive_closure(adj), want)
    if acyclic:
        P = FinitePoset.from_covers([str(i) for i in range(n)],
                                    [(str(i), str(j)) for i, j in np.argwhere(adj).tolist()])
        assert np.array_equal(P.leq, want | np.eye(n, dtype=bool))
        reduced = want & ~(want.astype(int) @ want.astype(int)).astype(bool)
        assert P.covers == tuple(sorted(map(tuple, np.argwhere(reduced).tolist())))


def test_the_closure_of_a_200_element_chain():
    adj = np.eye(200, k=1, dtype=bool)
    assert np.array_equal(_transitive_closure(adj), warshall(adj))
    assert np.array_equal(_transitive_closure(adj), np.triu(np.ones((200, 200), dtype=bool), 1))
