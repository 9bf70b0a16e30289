import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geosoc.model import (
    ClusterKind,
    Community,
    DuplicateId,
    GeoPoint,
    Params,
    SocialKind,
    SpatialCluster,
    UnknownVertex,
    build_network,
    euclidean_distance,
)


def test_build_network_drops_self_loops_and_duplicates():
    pts = [GeoPoint(1, 0, 0), GeoPoint(2, 1, 0), GeoPoint(3, 2, 0)]
    net = build_network(pts, [(1, 2), (2, 1), (2, 2)])
    assert net.edges() == [(1, 2)]
    assert net.neighbors(1) == (2,)
    assert net.neighbors(2) == (1,)
    assert net.neighbors(3) == ()


def test_build_network_empty():
    net = build_network([], [])
    assert net.points == ()
    assert net.edges() == []


def test_build_network_unknown_vertex():
    with pytest.raises(UnknownVertex):
        build_network([GeoPoint(1, 0, 0)], [(1, 9)])


def test_build_network_duplicate_id():
    with pytest.raises(DuplicateId):
        build_network([GeoPoint(1, 0, 0), GeoPoint(1, 1, 1)], [])


def test_adjacency_is_symmetric():
    net = build_network([GeoPoint(i, i, 0) for i in range(4)], [(0, 1), (1, 2), (3, 1)])
    for u in net.ids:
        for v in net.neighbors(u):
            assert u in net.neighbors(v)


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        GeoPoint(0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0, 0.0, float("inf"))


def test_euclidean_distance_examples():
    assert euclidean_distance(GeoPoint(0, 0, 0), GeoPoint(1, 3, 4)) == 5
    p = GeoPoint(7, 2.5, -1.5)
    assert euclidean_distance(p, p) == 0
    assert euclidean_distance(GeoPoint(0, 0, 0), GeoPoint(1, 1, 1)) == pytest.approx(
        math.sqrt(2), abs=0
    )


def test_params_derived_radius():
    p = Params(d=7.0, k=3)
    assert p.r == 3.5
    with pytest.raises(ValueError):
        Params(d=0.0)
    with pytest.raises(ValueError):
        Params(d=1.0, k=0)
    for eps in (-1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Params(d=1.0, eps=eps)


def test_cluster_canonical_order_is_insertion_independent():
    a = SpatialCluster.from_members([3, 1, 2], 1, ClusterKind.EXACT_CIRCLE)
    b = SpatialCluster.from_members([2, 3, 1], 1, ClusterKind.EXACT_CIRCLE)
    assert a == b
    assert a.members == (1, 2, 3)


def test_cluster_reference_must_be_member():
    with pytest.raises(ValueError):
        SpatialCluster((1, 2), 9, ClusterKind.EXACT_CIRCLE)
    with pytest.raises(ValueError):
        SpatialCluster((), 0, ClusterKind.EXACT_CIRCLE)
    with pytest.raises(ValueError):
        SpatialCluster((2, 1), 1, ClusterKind.EXACT_CIRCLE)


def test_community_size_bounds():
    Community.from_members([1, 2, 3], 2, SocialKind.CORE)
    with pytest.raises(ValueError):
        Community.from_members([1, 2], 2, SocialKind.CORE)
    Community.from_members([1, 2], 2, SocialKind.TRUSS)
    with pytest.raises(ValueError):
        Community.from_members([1], 2, SocialKind.TRUSS)


def _scrambled_network():
    # ids deliberately out of order in ``points``
    pts = [GeoPoint(i, float(i % 3), float(i // 3)) for i in (7, 2, 9, 0, 5, 3)]
    return build_network(pts, [(7, 2), (2, 9), (9, 0), (0, 7), (5, 3), (3, 7), (2, 0)])


def test_subnetwork_keeps_parent_order_and_restricts_edges():
    net = _scrambled_network()
    for ids in (
        [0, 5, 7, 2],  # shuffled
        [2, 0, 2, 7, 5, 0, 5],  # repeated
        (i for i in (5, 0, 7, 2)),  # a generator
    ):
        sub = net.subnetwork(ids)
        assert sub.ids == (7, 2, 0, 5)
        assert sub.points == tuple(net.point(i) for i in (7, 2, 0, 5))
        assert sub.adjacency == {7: (0, 2), 2: (0, 7), 0: (2, 7), 5: ()}
    assert net.subnetwork([]).points == ()
    assert net.subnetwork(iter(net.ids)) == net


def test_point_lookup_by_id():
    net = _scrambled_network()
    assert net.point_map == {p.id: p for p in net.points}
    assert list(net.point_map) == [7, 2, 9, 0, 5, 3]
    assert net.point(0) == GeoPoint(0, 0.0, 0.0) and net.point_map[9] == net.point(9)
    with pytest.raises(UnknownVertex):
        net.point(4)
    with pytest.raises(KeyError):
        net.point_map[4]


def test_subnetwork_unknown_vertex():
    net = _scrambled_network()
    with pytest.raises(UnknownVertex):
        net.subnetwork([2, 4, 7])
    with pytest.raises(UnknownVertex):
        net.subnetwork(i for i in (0, 99))


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def networks(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pts = [GeoPoint(i, draw(coords), draw(coords)) for i in range(n)]
    edges = []
    if n >= 2:
        m = draw(st.integers(min_value=0, max_value=20))
        for _ in range(m):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            edges.append((u, v))
    return pts, edges


@given(networks())
def test_build_network_idempotent(data):
    pts, edges = data
    net = build_network(pts, edges)
    again = build_network(net.points, net.edges())
    assert again == net
