import math
import sys

import numpy as np
import pytest

from geosoc.baseline import (
    CliqueBudgetExceeded,
    EmptyInput,
    clique_clusters,
    maximal_masks,
    min_enclosing_circle,
    oracle_gasc,
    oracle_gsc,
    oracle_lsc,
)
from geosoc.model import GeoPoint
from geosoc.sweep_exact import TooFar
from helpers import families, random_points


def pt(i, x, y):
    return GeoPoint(i, x, y)


def test_maximal_masks():
    sets = [{1, 2, 3}, {2, 3}, {4, 5}, {2, 3}]
    masks = [sum(1 << i for i in s) for s in sets]
    assert maximal_masks(masks) == [masks[0], masks[2]]


def test_oracle_lsc_merged_pair():
    v = pt(0, 0, 0)
    got = oracle_lsc(v, [pt(1, 1, 0), pt(2, 0, 1)], 1.0)
    assert families(got) == {(0, 1, 2)}
    # hand-checkable witness: the circle at bearing pi/4 covers both
    cx, cy = math.cos(math.pi / 4), math.sin(math.pi / 4)
    for q in ((1, 0), (0, 1), (0, 0)):
        assert math.hypot(q[0] - cx, q[1] - cy) <= 1 + 1e-9


def test_oracle_lsc_no_candidates():
    assert families(oracle_lsc(pt(0, 0, 0), [], 1.0)) == {(0,)}


def test_oracle_lsc_all_coincident():
    v = pt(0, 0, 0)
    got = oracle_lsc(v, [pt(1, 0, 0), pt(2, 0, 0)], 1.0)
    assert families(got) == {(0, 1, 2)}


def test_oracle_lsc_too_far():
    with pytest.raises(TooFar):
        oracle_lsc(pt(0, 0, 0), [pt(1, 5, 0)], 1.0)


def test_oracle_gsc_pair():
    assert families(oracle_gsc([pt(0, 0, 0), pt(1, 1, 0)], 2.0)) == {(0, 1)}


def test_oracle_gsc_separated_singletons():
    assert families(oracle_gsc([pt(0, 0, 0), pt(1, 3, 0)], 2.0)) == {(0,), (1,)}


def test_oracle_gsc_equilateral_triangle():
    side = 1.0
    pts = [pt(0, 0, 0), pt(1, side, 0), pt(2, side / 2, side * math.sqrt(3) / 2)]
    # circumradius 1/sqrt(3) ~ 0.577 <= 0.6
    assert families(oracle_gsc(pts, 1.2)) == {(0, 1, 2)}


def test_oracle_gsc_rigid_motion_invariance():
    pts = random_points(8, 60)
    base = families(oracle_gsc(pts, 15.0))
    angle = 0.7
    c, s = math.cos(angle), math.sin(angle)
    moved = [pt(p.id, c * p.x - s * p.y + 100.0, s * p.x + c * p.y - 40.0) for p in pts]
    assert families(oracle_gsc(moved, 15.0)) == base


def test_oracle_gasc_corner_pair():
    assert families(oracle_gasc([pt(0, 0, 0), pt(1, 1, 1)], 1.0)) == {(0, 1)}


def test_oracle_gasc_just_apart():
    assert families(oracle_gasc([pt(0, 0, 0), pt(1, 1.01, 1.01)], 1.0)) == {(0,), (1,)}


def test_clique_triangle():
    pts = [pt(0, 0, 0), pt(1, 1, 0), pt(2, 0.5, 0.8)]
    assert families(clique_clusters(pts, 1.5)) == {(0, 1, 2)}


def test_clique_path_proximity_graph():
    pts = [pt(0, 0, 0), pt(1, 1, 0), pt(2, 2, 0)]
    assert families(clique_clusters(pts, 1.0)) == {(0, 1), (1, 2)}


def test_clique_isolated_vertex():
    pts = [pt(0, 0, 0), pt(1, 10, 0)]
    assert families(clique_clusters(pts, 1.0)) == {(0,), (1,)}


def test_every_circle_cluster_is_inside_a_clique():
    for seed in range(5):
        pts = random_points(seed, 100)
        cliques = [frozenset(c.members) for c in clique_clusters(pts, 20.0)]
        for c in oracle_gsc(pts, 20.0):
            assert any(frozenset(c.members) <= q for q in cliques)


def test_clique_budget():
    pts = random_points(2, 60, density=0.05)
    with pytest.raises(CliqueBudgetExceeded):
        clique_clusters(pts, 100.0, max_cliques=0)


def test_clique_deterministic():
    pts = random_points(13, 80)
    assert clique_clusters(pts, 20.0) == clique_clusters(pts, 20.0)


def test_clique_on_a_blob_deeper_than_the_recursion_limit():
    # a complete proximity graph nests one branch per point, so a recursive
    # enumeration needs more frames than the lowered limit allows
    limit = 250
    pts = [pt(i, (i % 20) * 0.05, (i // 20) * 0.05) for i in range(2 * limit)]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        got = clique_clusters(pts, 5.0)
    finally:
        sys.setrecursionlimit(old)
    assert families(got) == {tuple(range(2 * limit))}


def test_mec_single_point():
    center, radius = min_enclosing_circle([pt(0, 3, 4)])
    assert center == (3, 4)
    assert radius == 0


def test_mec_two_points():
    center, radius = min_enclosing_circle([pt(0, 0, 0), pt(1, 2, 0)])
    assert center == pytest.approx((1.0, 0.0), abs=1e-12)
    assert radius == pytest.approx(1.0, abs=1e-12)


def test_mec_equilateral_triangle():
    pts = [pt(0, 0, 0), pt(1, 1, 0), pt(2, 0.5, math.sqrt(3) / 2)]
    _, radius = min_enclosing_circle(pts)
    assert radius == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_mec_empty():
    with pytest.raises(EmptyInput):
        min_enclosing_circle([])


def _brute_mec_radius(points):
    # smallest over all circles through one, two, or three of the points
    # that contain every point
    best = math.inf
    n = len(points)
    candidates = [((p.x, p.y), 0.0) for p in points]
    for i in range(n):
        for j in range(i + 1, n):
            cx = (points[i].x + points[j].x) / 2
            cy = (points[i].y + points[j].y) / 2
            r = math.hypot(points[i].x - cx, points[i].y - cy)
            candidates.append(((cx, cy), r))
            for k in range(j + 1, n):
                a, b, c = points[i], points[j], points[k]
                den = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
                if abs(den) < 1e-12:
                    continue
                ux = (
                    (a.x**2 + a.y**2) * (b.y - c.y)
                    + (b.x**2 + b.y**2) * (c.y - a.y)
                    + (c.x**2 + c.y**2) * (a.y - b.y)
                ) / den
                uy = (
                    (a.x**2 + a.y**2) * (c.x - b.x)
                    + (b.x**2 + b.y**2) * (a.x - c.x)
                    + (c.x**2 + c.y**2) * (b.x - a.x)
                ) / den
                r = math.hypot(a.x - ux, a.y - uy)
                candidates.append(((ux, uy), r))
    for (cx, cy), r in candidates:
        if all(math.hypot(p.x - cx, p.y - cy) <= r + 1e-9 for p in points):
            best = min(best, r)
    return best


def test_mec_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(1, 9))
        pts = [pt(i, float(rng.uniform(0, 10)), float(rng.uniform(0, 10))) for i in range(n)]
        _, radius = min_enclosing_circle(pts)
        assert radius == pytest.approx(_brute_mec_radius(pts), abs=1e-7)
        center, r2 = min_enclosing_circle(pts)
        for p in pts:
            assert math.hypot(p.x - center[0], p.y - center[1]) <= r2 + 1e-9


def test_mec_deterministic():
    pts = random_points(17, 40)
    assert min_enclosing_circle(pts) == min_enclosing_circle(pts)


def test_oracles_relabeling_invariance():
    pts = random_points(19, 50)
    shift = [pt(p.id + 1000, p.x, p.y) for p in pts]
    base = families(oracle_gsc(pts, 15.0))
    relabeled = families(oracle_gsc(shift, 15.0))
    assert {tuple(m + 1000 for m in f) for f in base} == relabeled
