import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipm.poset import (
    Connectivity,
    FinitePoset,
    OrderMap,
    PosetError,
    check_galois_insertion,
    check_order_map,
    is_connected,
    is_diamond_free,
)


def test_chain_closure(chain4):
    assert len(chain4.comparable_pairs()) == 10
    assert chain4.le("a", "d") and not chain4.le("d", "a")


def test_cycle_rejected():
    with pytest.raises(PosetError, match="cycle"):
        FinitePoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


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
    assert chain4.down_set("c") == {"a", "b", "c"}
    assert chain4.down_set("a") == {"a"}
    assert chain4.up_set("a") & chain4.down_set("a") == {"a"}


def test_connectivity_states(diamond, chain4):
    assert is_connected(diamond, ["b", "c"]) == Connectivity.DISCONNECTED
    assert is_connected(diamond, ["b"]) == Connectivity.CONNECTED
    assert is_connected(chain4, ["a", "c"]) == Connectivity.CONNECTED
    assert is_connected(chain4, []) == Connectivity.EMPTY


def test_diamond_free(diamond, chain4):
    assert not is_diamond_free(diamond)
    assert is_diamond_free(chain4)
    tree = FinitePoset.from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")])
    assert is_diamond_free(tree)


def test_order_map_reports():
    c2 = FinitePoset.chain(["a", "b"])
    ident = OrderMap.identity(c2)
    rep = check_order_map(ident, require_embedding=True)
    assert rep.preserving and rep.embedding
    const = OrderMap(c2, c2, {"a": "a", "b": "a"})
    rep = check_order_map(const, require_embedding=True)
    assert rep.preserving and rep.embedding is False
    assert ("b", "a") in rep.embedding_violations


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
    ident = OrderMap.identity(P)
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
        assert p.down_set(p.elements[a]) <= p.down_set(p.elements[b])


@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_diamond_free_intervals_connected(p):
    if not is_diamond_free(p):
        return
    for a, b in p.comparable_pairs():
        interval = [p.elements[z] for z in p.interval_idx(a, b)]
        assert is_connected(p, interval) in (Connectivity.CONNECTED, Connectivity.EMPTY)


def test_subposet_covers_recomputed():
    # dropping the middle of a chain turns the long relation into a cover
    p = FinitePoset.chain(["a", "b", "c"])
    assert p.subposet_covers([0, 2]) == [(0, 2)]
    # made once per node set: a repeated request, in any order, is the same object
    assert p.subposet_covers([2, 0]) is p.subposet_covers((0, 2))
    assert p.subposet_covers([0, 1, 2]) == [(0, 1), (1, 2)]
