import math

import numpy as np
import pytest

from geosoc.baseline import oracle_lsc
from geosoc.model import GeoPoint, euclidean_distance
from geosoc.sweep_exact import TAU, TooFar, local_spatial_clusters
from helpers import circle_center, families, window_contains, witness_angle
from reference import angular_interval

V = GeoPoint(0, 0.0, 0.0)


def pts(*coords):
    return [GeoPoint(i + 1, x, y) for i, (x, y) in enumerate(coords)]


def test_interval_at_unit_distance():
    w = angular_interval(V, GeoPoint(1, 1.0, 0.0), 1.0)
    assert w.start == pytest.approx(-math.pi / 3, abs=1e-12)
    assert w.end == pytest.approx(math.pi / 3, abs=1e-12)
    assert not w.full_circle


def test_interval_zero_width_at_boundary():
    w = angular_interval(V, GeoPoint(1, 0.0, 2.0), 1.0)
    assert w.start == pytest.approx(math.pi / 2, abs=1e-12)
    assert w.end == pytest.approx(math.pi / 2, abs=1e-12)


def test_interval_coincident_is_full_circle():
    w = angular_interval(V, GeoPoint(1, 0.0, 0.0), 1.0)
    assert w.full_circle


def test_interval_too_far():
    with pytest.raises(TooFar):
        angular_interval(V, GeoPoint(1, 2.1, 0.0), 1.0)


def test_interval_width_bounded_by_pi():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = float(rng.uniform(0.1, 10))
        ang = float(rng.uniform(-math.pi, math.pi))
        rad = float(rng.uniform(1e-6, 2 * r))
        u = GeoPoint(1, rad * math.cos(ang), rad * math.sin(ang))
        w = angular_interval(V, u, r)
        assert w.start <= w.end
        assert w.end - w.start <= math.pi + 1e-12


def test_interval_membership_iff_enclosed():
    # sample angles inside and outside the window and verify the covering
    # circle's enclosure matches exactly
    rng = np.random.default_rng(9)
    for _ in range(100):
        r = float(rng.uniform(0.5, 5))
        u = GeoPoint(1, float(rng.uniform(-r, r)), float(rng.uniform(-r, r)))
        if euclidean_distance(V, u) > 2 * r or euclidean_distance(V, u) < 1e-6:
            continue
        w = angular_interval(V, u, r)
        for theta in rng.uniform(-math.pi, math.pi, size=8):
            cx, cy = circle_center(V, r, float(theta))
            enclosed = math.hypot(u.x - cx, u.y - cy) <= r + 1e-9
            # skip angles within float noise of the window boundary
            boundary_gap = min(
                abs(math.remainder(theta - w.start, TAU)),
                abs(math.remainder(theta - w.end, TAU)),
            )
            if boundary_gap < 1e-7:
                continue
            assert window_contains(w, float(theta)) == enclosed


def test_three_boundary_points_give_three_pair_clusters():
    cands = pts((2, 0), (0, 2), (-2, 0))
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert got == {(0, 1), (0, 2), (0, 3)}
    assert got == families(oracle_lsc(V, cands, 1.0))


def test_overlapping_windows_merge():
    cands = pts((1, 0), (0, 1))
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert got == {(0, 1, 2)}
    assert got == families(oracle_lsc(V, cands, 1.0))


def test_no_candidates_yields_singleton():
    assert families(local_spatial_clusters(V, [], 1.0)) == {(0,)}


def test_single_candidate_at_diameter():
    got = families(local_spatial_clusters(V, pts((0, 2)), 1.0))
    assert got == {(0, 1)}


def test_coincident_candidates_join_every_cluster():
    cands = pts((0, 0), (2, 0), (-2, 0))
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert got == {(0, 1, 2), (0, 1, 3)}
    assert got == families(oracle_lsc(V, cands, 1.0))


def test_all_candidates_coincident():
    cands = pts((0, 0), (0, 0))
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert got == {(0, 1, 2)}
    assert got == families(oracle_lsc(V, cands, 1.0))


def test_wraparound_cluster_straddling_pi():
    # two points whose windows overlap only across the +-pi seam
    a = 3.0
    cands = pts(
        (1.0 * math.cos(a), 1.0 * math.sin(a)),
        (1.0 * math.cos(-a), 1.0 * math.sin(-a)),
    )
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert (0, 1, 2) in got
    assert got == families(oracle_lsc(V, cands, 1.0))


def test_wraparound_zero_width_at_pi():
    got = families(local_spatial_clusters(V, pts((-2, 0)), 1.0))
    assert got == {(0, 1)}


def test_wraparound_dense_cluster_behind_reference():
    # a tight blob at bearing pi, plus distractors elsewhere
    blob = [(2 * math.cos(math.pi + t), 2 * math.sin(math.pi + t)) for t in (-0.02, 0.0, 0.02)]
    cands = pts(*blob, (2, 0), (0, 2))
    r = 1.2
    got = families(local_spatial_clusters(V, cands, r))
    assert got == families(oracle_lsc(V, cands, r))
    assert any({1, 2, 3} <= set(m) for m in got)


def test_mutual_non_containment_and_witnesses_random():
    rng = np.random.default_rng(77)
    pmap = {V.id: V}
    for trial in range(150):
        r = float(rng.uniform(0.5, 10))
        m = int(rng.integers(0, 25))
        cands = []
        for i in range(m):
            ang = float(rng.uniform(-math.pi, math.pi))
            rad = float(rng.uniform(0, 2 * r))
            cands.append(GeoPoint(i + 1, rad * math.cos(ang), rad * math.sin(ang)))
        lookup = dict(pmap)
        lookup.update({c.id: c for c in cands})
        out = local_spatial_clusters(V, cands, r)
        mem = [set(c.members) for c in out]
        for i, a in enumerate(mem):
            for j, b in enumerate(mem):
                assert i == j or not a <= b
        for c in out:
            theta = witness_angle(V, [lookup[i] for i in c.members], r)
            assert theta is not None
            cx, cy = circle_center(V, r, theta)
            for i in c.members:
                p = lookup[i]
                assert math.hypot(p.x - cx, p.y - cy) <= r + 1e-9


def test_exact_tie_configurations_match_oracle():
    cases = [
        # identical bearings, nested widths
        pts((1, 0), (2, 0), (0.5, 0)),
        # two coincident candidates away from the reference
        pts((1, 1), (1, 1), (-1, 1)),
        # symmetric pair sharing window endpoints exactly
        pts((1, 1), (1, -1)),
        # opposite boundary points plus a point on the reference
        pts((-2, 0), (2, 0), (0, 0)),
        # eight boundary points, all zero-width windows
        pts(*[(2 * math.cos(i * math.pi / 4), 2 * math.sin(i * math.pi / 4)) for i in range(8)]),
        # blob exactly on the seam plus near-duplicates
        pts((-1, 0), (-1, 1e-12), (-1, -1e-12)),
    ]
    for i, cands in enumerate(cases):
        got = families(local_spatial_clusters(V, cands, 1.0))
        assert got == families(oracle_lsc(V, cands, 1.0)), f"case {i}"


def test_oracle_equivalence_over_64_candidates():
    # more than 64 candidates: the group masks span two words
    rng = np.random.default_rng(8)
    r = 10.0
    coords = [(x, y) for x, y in rng.uniform(-13, 13, (140, 2)) if math.hypot(x, y) <= 2 * r]
    cands = [GeoPoint(i + 1, float(x), float(y)) for i, (x, y) in enumerate(coords)]
    assert len(cands) > 64
    assert families(local_spatial_clusters(V, cands, r)) == families(oracle_lsc(V, cands, r))


def test_oracle_equivalence_coincident_and_diameter_candidates():
    # two candidates on the reference, four exactly 2r away, two between
    cands = pts((0, 0), (0, 0), (2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1))
    got = families(local_spatial_clusters(V, cands, 1.0))
    assert got == families(oracle_lsc(V, cands, 1.0))
    assert all({0, 1, 2} <= set(m) for m in got)


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(150):
        r = float(rng.uniform(0.5, 20))
        m = int(rng.integers(0, 30))
        cands = []
        for i in range(m):
            ang = float(rng.uniform(-math.pi, math.pi))
            rad = float(rng.uniform(0, 2 * r))
            cands.append(GeoPoint(i + 1, V.x + rad * math.cos(ang), V.y + rad * math.sin(ang)))
        assert families(local_spatial_clusters(V, cands, r)) == families(
            oracle_lsc(V, cands, r)
        ), f"trial {trial}"
