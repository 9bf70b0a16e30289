import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosoc.baseline import min_enclosing_circle
from geosoc.framework import (
    DetectionConfig,
    SpatialAlgo,
    detect_mccs,
    find_global_mcc,
    search_mccs,
)
from geosoc.model import (
    DEFAULT_EPS,
    Community,
    GeoPoint,
    Params,
    SocialKind,
    UnknownVertex,
    build_network,
)
from geosoc.social import k_core_vertices, k_truss_edges
from helpers import (
    EXAMPLE_D,
    brute_mcc_family,
    example_network,
    families,
    maximal_sets,
    random_network,
    unfiltered_mcc_family,
)

SQRT2 = math.sqrt(2)


def cfg(d=EXAMPLE_D, k=2, algo=SpatialAlgo.EXACT_RULE12, social=SocialKind.CORE, **kw):
    return DetectionConfig(params=Params(d=d, k=k, social_kind=social), spatial_algo=algo, **kw)


@pytest.mark.parametrize("algo", list(SpatialAlgo))
def test_example_network_two_communities(algo):
    got = families(detect_mccs(example_network(), cfg(algo=algo)))
    assert got == {(0, 1, 2, 3), (8, 9, 10, 11)}


def test_example_network_truss():
    got = families(detect_mccs(example_network(), cfg(k=3, social=SocialKind.TRUSS)))
    assert got == {(8, 9, 10, 11)}


def test_truss_k1_is_rejected():
    with pytest.raises(ValueError):
        detect_mccs(example_network(), cfg(k=1, social=SocialKind.TRUSS))


def test_spatially_impossible_instance_is_empty():
    # socially a triangle, but all vertices far apart
    pts = [GeoPoint(i, 100.0 * i, 0.0) for i in range(3)]
    net = build_network(pts, [(0, 1), (1, 2), (2, 0)])
    assert detect_mccs(net, cfg(d=4.0, k=2)) == []


def com(members, k=2):
    return Community.from_members(members, k, SocialKind.CORE)


def test_find_global_mcc_removes_strict_subset():
    got = find_global_mcc([com((0, 1, 2, 3)), com((8, 9, 10, 11)), com((9, 10, 11))])
    assert families(got) == {(0, 1, 2, 3), (8, 9, 10, 11)}


def test_find_global_mcc_single_and_duplicates():
    one = com((1, 2, 3))
    assert find_global_mcc([one]) == [one]
    assert find_global_mcc([one, com((1, 2, 3))]) == [one]
    assert find_global_mcc([]) == []


@settings(max_examples=200)
@given(
    sets=st.lists(st.frozensets(st.integers(0, 7), min_size=2, max_size=6), max_size=12),
    rnd=st.randoms(use_true_random=False),
)
def test_find_global_mcc_matches_maximal_sets(sets, rnd):
    # the sets, a nested copy of each (one member fewer) and repeats of some
    family = sets + [s - {max(s)} for s in sets if len(s) > 2] + sets[: len(sets) // 2]
    rnd.shuffle(family)
    local = [Community.from_members(s, 1, SocialKind.CORE) for s in family]
    got = find_global_mcc(local)
    assert [c.members for c in got] == sorted(maximal_sets({c.members for c in local}))
    for c in got:
        assert c is next(x for x in local if x.members == c.members)


def test_search_from_corner_vertex():
    got = search_mccs(example_network(), 0, cfg())
    assert families(got) == {(0, 1, 2, 3)}


def test_search_socially_isolated_query():
    got = search_mccs(example_network(), 4, cfg())
    assert got == []


def test_search_unknown_vertex():
    with pytest.raises(UnknownVertex):
        search_mccs(example_network(), 99, cfg())


def _with_boundary_triangles(net, q, d):
    """net plus two triangles through q: one whose far corner is exactly d
    from q, one whose far corner is d + 2e-9 away (outside the eps slack)."""
    qp = net.point(q)
    assert math.hypot((qp.x + d) - qp.x, 0.0) == d
    top = max(p.id for p in net.points)
    extra = [
        GeoPoint(top + 1, qp.x + d / 2, qp.y + 1.0),
        GeoPoint(top + 2, qp.x + d, qp.y),
        GeoPoint(top + 3, qp.x - d / 2, qp.y + 1.0),
        GeoPoint(top + 4, qp.x - (d + 2e-9), qp.y),
    ]
    tri = [(q, top + 1), (top + 1, top + 2), (top + 2, q)]
    tri += [(q, top + 3), (top + 3, top + 4), (top + 4, q)]
    return build_network(list(net.points) + extra, list(net.edges()) + tri), top + 2, top + 4


def test_search_consistency_with_restricted_detection():
    for seed in range(6):
        d, k = 25.0, 2
        net = random_network(seed, 60)
        # a query user whose x + d is a float, so a point can sit exactly d away
        q = next(p.id for p in net.points[seed:] if (p.x + d) - p.x == d)
        net, at_d, beyond_d = _with_boundary_triangles(net, q, d)
        got = families(search_mccs(net, q, cfg(d=d, k=k)))
        members = set().union(*got)
        assert at_d in members and beyond_d not in members
        # independent route: restrict the network by brute-force distance
        # filtering, detect, keep communities containing q
        qp = net.point(q)
        ball = [
            p.id
            for p in net.points
            if math.hypot(p.x - qp.x, p.y - qp.y) <= d + 1e-9
        ]
        restricted = net.subnetwork(ball)
        want = {
            c.members
            for c in detect_mccs(restricted, cfg(d=d, k=k))
            if q in c.members
        }
        assert got == want


def _detect_on_ball(net, q, c):
    """Communities holding q, by brute-force distance filtering, then
    detection on the restricted network."""
    qp, p = net.point(q), c.params
    ball = [v.id for v in net.points if math.hypot(v.x - qp.x, v.y - qp.y) <= p.d + DEFAULT_EPS]
    return [m for m in detect_mccs(net.subnetwork(ball), c) if q in m.members]


def test_search_grid_cache_across_d():
    # one network serves searches at two distances and back; each result
    # equals a search on a network that has never been searched
    net = random_network(7, 80, n_random=40)
    queries = [p.id for p in net.points[::8]]
    found = 0
    for d in (25.0, 12.0, 25.0):
        for q in queries:
            c = cfg(d=d, k=2)
            got = search_mccs(net, q, c)
            assert got == search_mccs(build_network(net.points, net.edges()), q, c), (d, q)
            found += bool(got)
    assert found > 0
    assert [grid.cell_size for grid in net.grids.values()] == [25.0]


def test_search_far_from_origin():
    # at (+1e6, -1e6) eps = 1e-9 still resolves distances; the grid cells
    # there must give the same ball as a scan of every point
    d, shift = 25.0, 1e6
    for seed in range(4):
        base = random_network(seed, 60)
        pts = [GeoPoint(p.id, p.x + shift, p.y - shift) for p in base.points]
        net = build_network(pts, base.edges())
        q = next(p.id for p in net.points[seed:] if (p.x + d) - p.x == d)
        net, at_d, beyond_d = _with_boundary_triangles(net, q, d)
        # one more triangle through q whose far corner sits inside the eps
        # slack: d + 5e-10 away, give or take the 1.2e-10 spacing at 1e6
        qp, top = net.point(q), max(p.id for p in net.points)
        extra = [GeoPoint(top + 1, qp.x + 1.0, qp.y - d / 2), GeoPoint(top + 2, qp.x, qp.y - (d + 5e-10))]
        tri = [(q, top + 1), (top + 1, top + 2), (top + 2, q)]
        net = build_network(list(net.points) + extra, list(net.edges()) + tri)
        in_slack = top + 2
        assert d < math.hypot(0.0, net.point(in_slack).y - qp.y) <= d + 1e-9
        c = cfg(d=d, k=2)
        members = set().union(*families(search_mccs(net, q, c)))
        assert at_d in members and in_slack in members and beyond_d not in members
        for v in [q] + [p.id for p in net.points[::6]]:
            assert search_mccs(net, v, c) == _detect_on_ball(net, v, c), (seed, v)


def test_matches_brute_force_on_random_instances():
    for seed in range(8):
        net = random_network(seed, 50, density=0.01)
        for k in (2, 3):
            got = families(detect_mccs(net, cfg(d=20.0, k=k)))
            want = brute_mcc_family(net, 20.0, k)
            assert got == want, (seed, k)


def test_social_soundness_core():
    for seed in range(4):
        net = random_network(seed + 10, 70)
        for c in detect_mccs(net, cfg(d=25.0, k=2)):
            inside = set(c.members)
            for v in c.members:
                deg = sum(1 for u in net.adjacency[v] if u in inside)
                assert deg >= 2


def test_spatial_soundness_exact_and_approx():
    for seed in range(4):
        net = random_network(seed + 20, 70)
        d = 25.0
        for c in detect_mccs(net, cfg(d=d, k=2)):
            _, radius = min_enclosing_circle([net.point(i) for i in c.members])
            assert radius <= d / 2 + 1e-9
        for c in detect_mccs(net, cfg(d=d, k=2, algo=SpatialAlgo.APPROX)):
            _, radius = min_enclosing_circle([net.point(i) for i in c.members])
            assert radius <= SQRT2 * d / 2 + 1e-9


def test_output_mutual_non_containment():
    for seed in range(4):
        net = random_network(seed + 30, 80)
        out = [set(c.members) for c in detect_mccs(net, cfg(d=25.0, k=2))]
        for i, a in enumerate(out):
            for j, b in enumerate(out):
                assert i == j or not a <= b


def test_core_prefilter_neutrality():
    # detect_mccs drops every vertex outside the k-core, and for a truss
    # every edge outside the global k-truss, before the spatial stage; the
    # reference runs on the whole network
    pruned_nonempty = 0  # instances where the filter drops some vertices, not all
    edge_dropped = 0  # truss instances that drop an edge between two kept vertices
    for seed, m_nearest, n_random in (
        (40, 1, 35), (42, 1, 35), (41, 1, 70), (42, 2, 35), (43, 2, 70), (44, 3, 17),
        (45, 4, 17),  # a non-empty 5-truss
    ):
        net = random_network(seed, 70, m_nearest=m_nearest, n_random=n_random)
        for social, k in (
            (SocialKind.CORE, 2),
            (SocialKind.CORE, 3),
            (SocialKind.TRUSS, 3),
            (SocialKind.TRUSS, 4),
            (SocialKind.TRUSS, 5),
        ):
            if social is SocialKind.CORE:
                kept = k_core_vertices(net, k)
            else:
                truss = k_truss_edges(net, k)
                kept = {v for e in truss for v in e}
                edge_dropped += any(
                    u in kept and v in kept and (u, v) not in truss for u, v in net.edges()
                )
            for algo in (SpatialAlgo.EXACT_RULE12, SpatialAlgo.APPROX):
                c = cfg(d=25.0, k=k, social=social, algo=algo)
                got = families(detect_mccs(net, c))
                assert got == unfiltered_mcc_family(net, c), (seed, social, k, algo)
                pruned_nonempty += 0 < len(kept) < len(net.points) and bool(got)
    assert pruned_nonempty > 0
    assert edge_dropped > 0


def test_every_exact_community_inside_some_approx_community():
    # empirical containment: the square relaxation only grows clusters
    for seed in range(6):
        net = random_network(seed + 50, 70)
        exact = detect_mccs(net, cfg(d=25.0, k=2))
        approx = [set(c.members) for c in detect_mccs(net, cfg(d=25.0, k=2, algo=SpatialAlgo.APPROX))]
        for c in exact:
            assert any(set(c.members) <= a for a in approx), seed
