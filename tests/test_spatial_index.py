import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosoc.model import GeoPoint
from geosoc.spatial_index import (
    EmptyRange,
    NonPositiveCellSize,
    build_grid,
    range_query_disk,
    range_query_rect,
)
from helpers import naive_disk, naive_rect, random_points


def test_bucket_assignment():
    idx = build_grid([GeoPoint(0, 0, 0), GeoPoint(1, 0.5, 0.5)], 1.0)
    assert idx.buckets == {(0, 0): (0, 1)}
    idx = build_grid([GeoPoint(0, 0, 0), GeoPoint(1, 1.5, 0)], 1.0)
    assert set(idx.buckets) == {(0, 0), (1, 0)}


def test_every_point_in_exactly_one_bucket():
    pts = random_points(3, 60)
    idx = build_grid(pts, 7.5)
    ids = [pid for bucket in idx.buckets.values() for pid in bucket]
    assert sorted(ids) == [p.id for p in pts]


def test_empty_grid():
    idx = build_grid([], 1.0)
    assert idx.buckets == {}
    assert idx.bounds is None
    assert range_query_disk(idx, GeoPoint(0, 0, 0), 10) == []
    assert range_query_rect(idx, 0, 1, 0, 1) == []


def test_non_positive_cell_size():
    with pytest.raises(NonPositiveCellSize):
        build_grid([], 0.0)
    with pytest.raises(NonPositiveCellSize):
        build_grid([], -2.0)


def test_disk_closed_boundary():
    pts = [GeoPoint(0, 0, 0), GeoPoint(1, 3, 4), GeoPoint(2, 10, 10)]
    idx = build_grid(pts, 5.0)
    assert range_query_disk(idx, pts[0], 5.0) == [0, 1]


def test_disk_radius_zero():
    pts = [GeoPoint(0, 1, 1), GeoPoint(1, 1, 1), GeoPoint(2, 1.5, 1)]
    idx = build_grid(pts, 1.0)
    assert range_query_disk(idx, pts[0], 0.0) == [0, 1]


def test_rect_closed_boundaries():
    pts = [GeoPoint(0, 0, 0), GeoPoint(1, 1, 1), GeoPoint(2, 2, 2)]
    idx = build_grid(pts, 1.0)
    assert range_query_rect(idx, 0, 1, 0, 1) == [0, 1]


def test_rect_degenerate_segment():
    pts = [GeoPoint(0, 1, 0), GeoPoint(1, 1, 2), GeoPoint(2, 1.2, 1)]
    idx = build_grid(pts, 1.0)
    assert range_query_rect(idx, 1, 1, 0, 2) == [0, 1]


def test_rect_empty_range():
    idx = build_grid([GeoPoint(0, 0, 0)], 1.0)
    with pytest.raises(EmptyRange):
        range_query_rect(idx, 2, 1, 0, 1)
    with pytest.raises(EmptyRange):
        range_query_rect(idx, 0, 1, 3, 1)


def test_disk_negative_radius():
    idx = build_grid([GeoPoint(0, 0, 0)], 1.0)
    with pytest.raises(ValueError):
        range_query_disk(idx, GeoPoint(0, 0, 0), -1.0)


def test_disk_matches_naive_scan_100_points():
    pts = random_points(11, 100)
    idx = build_grid(pts, 12.0)
    center = pts[17]
    assert range_query_disk(idx, center, 25.0) == naive_disk(pts, center, 25.0)


def test_rect_matches_naive_scan_100_points():
    pts = random_points(12, 100)
    idx = build_grid(pts, 12.0)
    assert range_query_rect(idx, 10, 60, 20, 90) == naive_rect(pts, 10, 60, 20, 90)


def test_thousand_random_query_pairs_match_naive_scans():
    import numpy as np

    rng = np.random.default_rng(99)
    for batch in range(20):
        n = int(rng.integers(1, 120))
        pts = random_points(batch, n)
        idx = build_grid(pts, float(rng.uniform(1, 30)))
        for _ in range(25):
            center = pts[int(rng.integers(0, n))]
            radius = float(rng.uniform(0, 60))
            assert range_query_disk(idx, center, radius) == naive_disk(pts, center, radius)
            x0, y0 = float(rng.uniform(-20, 100)), float(rng.uniform(-20, 100))
            w, h = float(rng.uniform(0, 80)), float(rng.uniform(0, 80))
            assert range_query_rect(idx, x0, x0 + w, y0, y0 + h) == naive_rect(
                pts, x0, x0 + w, y0, y0 + h
            )


@settings(max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=80),
    cell=st.floats(min_value=0.5, max_value=40, allow_nan=False),
    radius=st.floats(min_value=0, max_value=80, allow_nan=False),
)
def test_disk_oracle_equivalence(seed, n, cell, radius):
    pts = random_points(seed, n)
    idx = build_grid(pts, cell)
    center = pts[seed % n]
    assert range_query_disk(idx, center, radius) == naive_disk(pts, center, radius)


@settings(max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=80),
    cell=st.floats(min_value=0.5, max_value=40, allow_nan=False),
    x0=st.floats(min_value=-10, max_value=100, allow_nan=False),
    w=st.floats(min_value=0, max_value=80, allow_nan=False),
    y0=st.floats(min_value=-10, max_value=100, allow_nan=False),
    h=st.floats(min_value=0, max_value=80, allow_nan=False),
)
def test_rect_oracle_equivalence(seed, n, cell, x0, w, y0, h):
    pts = random_points(seed, n)
    idx = build_grid(pts, cell)
    got = range_query_rect(idx, x0, x0 + w, y0, y0 + h)
    assert got == naive_rect(pts, x0, x0 + w, y0, y0 + h)


def test_rect_batch_matches_single_queries():
    import numpy as np

    rng = np.random.default_rng(7)
    for batch in range(12):
        n = int(rng.integers(1, 150))
        pts = random_points(batch + 40, n)
        if batch % 3 == 0:
            # integer coordinates put points exactly on rectangle edges
            pts = [GeoPoint(p.id, float(round(p.x)), float(round(p.y))) for p in pts]
        idx = build_grid(pts, float(rng.uniform(1, 30)))
        x_lo = rng.uniform(-20, 100, 60).round(batch % 2 * 3)
        y_lo = rng.uniform(-20, 100, 60).round(batch % 2 * 3)
        x_hi = x_lo + rng.uniform(0, 40, 60).round(batch % 2 * 3)
        y_hi = y_lo + rng.uniform(0, 40, 60).round(batch % 2 * 3)
        offsets, hits = range_query_rect(idx, x_lo, x_hi, y_lo, y_hi)
        ids = [p.id for p in idx.point_map.values()]
        for i in range(60):
            got = sorted(ids[h] for h in hits[offsets[i] : offsets[i + 1]])
            assert got == range_query_rect(idx, x_lo[i], x_hi[i], y_lo[i], y_hi[i])


def test_rect_batch_edge_cases():
    import numpy as np

    empty = build_grid([], 1.0)
    offsets, hits = range_query_rect(empty, np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    assert offsets.tolist() == [0, 0, 0] and len(hits) == 0
    idx = build_grid([GeoPoint(5, 1.0, 1.0)], 1.0)
    with pytest.raises(EmptyRange):
        range_query_rect(idx, np.array([2.0]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
