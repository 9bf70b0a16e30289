import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosoc.model import GeoPoint, UnknownVertex, build_network
from geosoc.social import (
    induced_subgraph,
    k_core_communities,
    k_core_vertices,
    k_truss_communities,
    k_truss_edges,
    k_truss_network,
)
from helpers import brute_core_family, core_numbers, example_network, families


def graph(n, edges):
    return build_network([GeoPoint(i, 0.0, float(i)) for i in range(n)], edges)


TRIANGLE = graph(3, [(0, 1), (1, 2), (2, 0)])
PATH3 = graph(3, [(0, 1), (1, 2)])
K4_PENDANT = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def test_induced_subgraph_triangle_to_edge():
    sub = induced_subgraph(TRIANGLE, {0, 1})
    assert sub.vertices == (0, 1)
    assert sub.adjacency == {0: (1,), 1: (0,)}


def test_induced_subgraph_empty():
    sub = induced_subgraph(TRIANGLE, set())
    assert sub.vertices == ()
    assert sub.adjacency == {}


def test_induced_subgraph_identity():
    sub = induced_subgraph(TRIANGLE, {0, 1, 2})
    assert sub.adjacency == {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(UnknownVertex):
        induced_subgraph(TRIANGLE, {0, 9})


def test_core_numbers_triangle():
    assert core_numbers(TRIANGLE) == {0: 2, 1: 2, 2: 2}


def test_core_numbers_path():
    assert core_numbers(PATH3) == {0: 1, 1: 1, 2: 1}


def test_core_numbers_k4_with_pendant():
    got = core_numbers(K4_PENDANT)
    assert got == {0: 3, 1: 3, 2: 3, 3: 3, 4: 1}


def test_k_core_two_triangles():
    g = graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    got = families(k_core_communities(g, 2))
    assert got == {(0, 1, 2), (3, 4, 5)}


def test_k_core_star_is_empty():
    star = graph(5, [(0, i) for i in range(1, 5)])
    assert k_core_communities(star, 2) == []


def test_k_core_example_network():
    got = families(k_core_communities(example_network(), 2))
    assert got == {(0, 1, 2, 3), (8, 9, 10, 11)}


def test_k_core_invalid_k():
    with pytest.raises(ValueError):
        k_core_communities(TRIANGLE, 0)


def test_truss_k4():
    k4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert families(k_truss_communities(k4, 4)) == {(0, 1, 2, 3)}


def test_truss_triangle():
    assert families(k_truss_communities(TRIANGLE, 3)) == {(0, 1, 2)}


def test_truss_c5_has_no_triangles():
    c5 = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert k_truss_communities(c5, 3) == []


def test_truss_invalid_k():
    with pytest.raises(ValueError):
        k_truss_communities(TRIANGLE, 1)


def test_truss_k2_keeps_all_edges():
    assert k_truss_edges(PATH3, 2) == {(0, 1), (1, 2)}


def _random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return graph(n, edges)


def test_core_union_matches_core_numbers():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = _random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.4)))
        cores = core_numbers(g)
        # the last k is above the maximum core, where the core is empty
        for k in (1, 2, 3, max(cores.values()) + 1):
            want = {v for v, cv in cores.items() if cv >= k}
            union = set()
            for c in k_core_communities(g, k):
                union |= set(c.members)
            assert union == want
            assert k_core_vertices(g, k) == want


def test_truss_nesting():
    rng = np.random.default_rng(32)
    for _ in range(30):
        g = _random_graph(rng, int(rng.integers(4, 40)), float(rng.uniform(0.1, 0.5)))
        prev = k_truss_edges(g, 2)
        for k in (3, 4, 5):
            cur = k_truss_edges(g, k)
            assert cur <= prev
            prev = cur


@settings(max_examples=150)
@given(
    n=st.integers(min_value=4, max_value=12),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_truss_of_a_subset_is_its_truss_within_the_global_truss(n, k, seed):
    # T_k(G[C]) = T_k(T_k(G)[C]), what the truss pre-filter of detection
    # rests on; G is a planted clique plus about one pair in four, and C
    # keeps about three vertices in four, so in about one case in ten G[C]
    # has a non-empty truss and also edges the global truss drops
    rnd = random.Random(seed)
    clique = {v for v in range(n) if rnd.random() < 0.5}
    g = graph(n, [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rnd.random() < 0.25 or {u, v} <= clique
    ])
    in_truss = graph(n, sorted(k_truss_edges(g, k)))
    c = [v for v in range(n) if rnd.random() < 0.75]
    want = k_truss_edges(induced_subgraph(g, c), k)
    assert k_truss_edges(induced_subgraph(in_truss, c), k) == want


def _assert_same_truss_network(g, k):
    # the reference: the network built from the dict peel's edges
    edges = k_truss_edges(g, k)
    kept = {v for e in edges for v in e}
    want = build_network([p for p in g.points if p.id in kept], edges)
    got = k_truss_network(g, k)
    assert got.points == want.points, k
    assert got.adjacency == want.adjacency, k


@settings(max_examples=300)
@given(
    ids=st.lists(st.integers(min_value=-60, max_value=60), unique=True, max_size=14),
    k=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_truss_network_matches_the_dict_peel(ids, k, seed):
    # shuffled, sparse and negative ids, points in no id order; a planted
    # clique over about half the vertices gives trusses up to k = 6, the
    # other pairs are edges with a random density, and a vertex may be
    # isolated
    rnd = random.Random(seed)
    rnd.shuffle(ids)
    clique = {v for v in ids if rnd.random() < 0.5}
    p = rnd.choice((0.0, 0.15, 0.4))
    g = build_network(
        [GeoPoint(v, rnd.random(), rnd.random()) for v in ids],
        [(u, v) for u, v in itertools.combinations(ids, 2) if {u, v} <= clique or rnd.random() < p],
    )
    _assert_same_truss_network(g, k)


def test_truss_network_examples():
    k6 = list(itertools.combinations(range(6), 2))
    dense = graph(9, k6 + [(5, 6), (6, 7), (7, 5), (7, 8)])  # K6, a triangle on it, a tail
    for g in (TRIANGLE, PATH3, K4_PENDANT, dense, graph(4, [])):
        for k in range(2, 8):
            _assert_same_truss_network(g, k)
    # k = 2 keeps every edge and drops only edge-less vertices
    lonely = graph(4, [(0, 1), (1, 2)])
    assert k_truss_network(lonely, 2).ids == (0, 1, 2)
    assert k_truss_network(lonely, 2).adjacency == {0: (1,), 1: (0, 2), 2: (1,)}
    # an empty truss: a 5-cycle has no triangle
    c5 = graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert k_truss_network(c5, 3).points == ()
    assert k_truss_network(dense, 6).ids == tuple(range(6))
    with pytest.raises(ValueError):
        k_truss_network(TRIANGLE, 1)


def test_result_invariant_under_relabeling():
    rng = np.random.default_rng(33)
    g = _random_graph(rng, 12, 0.3)
    perm = list(rng.permutation(12))
    relabeled = graph(12, [(perm[u], perm[v]) for u, v in g.edges()])
    for k in (1, 2, 3):
        direct = {tuple(sorted(perm[v] for v in c.members)) for c in k_core_communities(g, k)}
        assert direct == families(k_core_communities(relabeled, k))


def test_core_matches_exhaustive_small_graphs():
    for n in (3, 4):
        all_pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = [e for i, e in enumerate(all_pairs) if bits >> i & 1]
            g = graph(n, edges)
            for k in (1, 2, 3):
                got = families(k_core_communities(g, k))
                want = brute_core_family({v: list(g.adjacency[v]) for v in g.ids}, k)
                assert got == want, (n, bits, k)


@settings(max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=10),
    bits=st.integers(min_value=0),
    k=st.integers(min_value=1, max_value=4),
)
def test_core_matches_exhaustive_random_graphs(n, bits, k):
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = [e for i, e in enumerate(all_pairs) if bits >> i & 1]
    g = graph(n, edges)
    got = families(k_core_communities(g, k))
    assert got == brute_core_family({v: list(g.adjacency[v]) for v in g.ids}, k)
