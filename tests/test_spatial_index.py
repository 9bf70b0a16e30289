import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosoc.model import DEFAULT_EPS, DuplicateId, GeoPoint
from geosoc.spatial_index import (
    EmptyRange,
    NonPositiveCellSize,
    build_grid,
    range_query_disk,
    range_query_rect,
)
from helpers import naive_disk, naive_rect, random_points


def _cell_members(idx):
    """Ids per cell (cx, cy), in cell order, read from the cell runs."""
    out = {}
    for key, first, count in zip(idx.cells.tolist(), idx.first.tolist(), idx.count.tolist()):
        cell = (int(idx.columns[key // idx.width]), idx.rows[0] + key % idx.width)
        out[cell] = idx.ids[idx.order[first : first + count]].tolist()
    return out


def rect_ids(idx, x_lo, x_hi, y_lo, y_hi):
    """Ids inside one closed rectangle, ascending, from a one-row batch."""
    bounds = (np.array([v], np.float64) for v in (x_lo, x_hi, y_lo, y_hi))
    offsets, hits = range_query_rect(idx, *bounds)
    assert offsets.tolist() == [0, len(hits)]
    return sorted(idx.ids[hits].tolist())


def test_bucket_assignment():
    idx = build_grid([GeoPoint(0, 0, 0), GeoPoint(1, 0.5, 0.5)], 1.0)
    assert _cell_members(idx) == {(0, 0): [0, 1]}
    idx = build_grid([GeoPoint(0, 0, 0), GeoPoint(1, 1.5, 0)], 1.0)
    assert set(_cell_members(idx)) == {(0, 0), (1, 0)}
    idx = build_grid([GeoPoint(0, -0.5, 2.0), GeoPoint(1, 3.0, -1.0), GeoPoint(2, -2.0, -0.1)], 1.0)
    assert _cell_members(idx) == {(-1, 2): [0], (3, -1): [1], (-2, -1): [2]}


def test_every_point_in_exactly_one_bucket():
    pts = random_points(3, 60)
    idx = build_grid(pts, 7.5)
    ids = [pid for members in _cell_members(idx).values() for pid in members]
    assert sorted(ids) == [p.id for p in pts]
    assert idx.n_points == len(pts) == int(idx.count.sum())


def test_empty_grid():
    idx = build_grid([], 1.0)
    assert idx.n_points == 0 and _cell_members(idx) == {}
    assert range_query_disk(idx, GeoPoint(0, 0, 0), 10) == []
    assert rect_ids(idx, 0, 1, 0, 1) == []
    assert len(range_query_disk(idx, None, 10)) == 0


def test_duplicate_id():
    with pytest.raises(DuplicateId):
        build_grid([GeoPoint(4, 0, 0), GeoPoint(5, 1, 1), GeoPoint(4, 2, 2)], 1.0)


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
    assert rect_ids(idx, 0, 1, 0, 1) == [0, 1] == naive_rect(pts, 0, 1, 0, 1)


def test_rect_degenerate_segment():
    pts = [GeoPoint(0, 1, 0), GeoPoint(1, 1, 2), GeoPoint(2, 1.2, 1)]
    idx = build_grid(pts, 1.0)
    assert rect_ids(idx, 1, 1, 0, 2) == [0, 1] == naive_rect(pts, 1, 1, 0, 2)


def test_rect_empty_range():
    idx = build_grid([GeoPoint(0, 0, 0)], 1.0)
    with pytest.raises(EmptyRange):
        rect_ids(idx, 2, 1, 0, 1)
    with pytest.raises(EmptyRange):
        rect_ids(idx, 0, 1, 3, 1)


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
    assert rect_ids(idx, 10, 60, 20, 90) == naive_rect(pts, 10, 60, 20, 90)


def test_thousand_random_query_pairs_match_naive_scans():
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
            assert rect_ids(idx, x0, x0 + w, y0, y0 + h) == naive_rect(
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
    got = rect_ids(idx, x0, x0 + w, y0, y0 + h)
    assert got == naive_rect(pts, x0, x0 + w, y0, y0 + h)


def test_rect_batch_matches_single_queries():
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
        ids = idx.ids.tolist()
        for i in range(60):
            got = sorted(ids[h] for h in hits[offsets[i] : offsets[i + 1]])
            assert got == naive_rect(pts, x_lo[i], x_hi[i], y_lo[i], y_hi[i])


def _disk_cases():
    """(points, radius) instances for the bulk and scalar disk queries."""
    rng = np.random.default_rng(3)
    for seed in range(6):
        yield random_points(seed + 60, 20 + 25 * seed, gaussian=bool(seed % 2)), float(rng.uniform(2, 30))
    # integer lattices put points on cell edges; a radius eps short of an
    # integer puts the reach radius + eps on that integer (exactly, in
    # floats), so pairs at the lattice distance lie on the closed boundary
    lattice = [GeoPoint(9 * a + b, float(a), float(b)) for a in range(9) for b in range(9)]
    for radius in (1.0, 2.0, 5.0):
        yield lattice, radius - DEFAULT_EPS
    yield [GeoPoint(p.id, 3.0 * p.x, 3.0 * p.y) for p in lattice], 6.0
    # coincident points
    yield [GeoPoint(i, float(i % 3), 0.0) for i in range(12)], 1.0 - DEFAULT_EPS
    yield [GeoPoint(i, 5.0, 5.0) for i in range(7)], 0.0
    # negative coordinates, then a large shift
    pts = random_points(71, 90)
    yield [GeoPoint(p.id, p.x - 50.0, p.y - 50.0) for p in pts], 12.0
    yield [GeoPoint(p.id, p.x + 1e6, p.y - 1e6) for p in pts], 12.0
    # points so far apart, in cells so small, that cell numbers need 64 bits
    yield [GeoPoint(0, 0.0, 0.0), GeoPoint(1, 5e-4, 0.0), GeoPoint(2, 1e7, 1e7), GeoPoint(3, 1e7, -1e7)], 1e-3
    yield [], 5.0
    yield [GeoPoint(8, -1.5, 2.5)], 5.0


def test_disk_batch_matches_single_queries():
    for pts, radius in _disk_cases():
        for cell in (radius or 1.0, 0.7 * (radius or 1.0)):
            idx = build_grid(pts, cell)
            nbhd = range_query_disk(idx, None, radius)
            assert len(nbhd.ids) == len(pts) and sorted(nbhd.order.tolist()) == list(range(len(pts)))
            total = 0
            for i in range(len(pts)):
                row = nbhd.ids[nbhd.nbrs[nbhd.offsets[i] : nbhd.offsets[i + 1]]].tolist()
                center = pts[nbhd.order[i]]
                want = range_query_disk(idx, center, radius)
                assert row == want == naive_disk(pts, center, radius)
                total += len(want)
            assert len(nbhd) == total


def _assert_disks_match_naive(pts, radius):
    idx = build_grid(pts, radius)
    nbhd = range_query_disk(idx, None, radius)
    for i in range(len(pts)):
        center = pts[nbhd.order[i]]
        want = naive_disk(pts, center, radius)
        assert nbhd.ids[nbhd.nbrs[nbhd.offsets[i] : nbhd.offsets[i + 1]]].tolist() == want
        assert range_query_disk(idx, center, radius) == want


@given(
    cells=st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=50),
    radius=st.sampled_from([1, 2, 3, 5]),
    shift=st.tuples(st.integers(-10**7, 10**7), st.integers(-10**7, 10**7)),
)
def test_disks_on_shifted_integer_lattices(cells, radius, shift):
    # an integer shift keeps integer coordinates exact, so with the radius
    # eps short of an integer the axis pairs and 3-4-5 pairs lie exactly at
    # the reach
    pts = [GeoPoint(i, float(x + shift[0]), float(y + shift[1])) for i, (x, y) in enumerate(sorted(cells))]
    _assert_disks_match_naive(pts, radius - DEFAULT_EPS)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    radius=st.floats(1e-3, 30),
    shift=st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7)),
)
def test_disks_far_from_origin(seed, n, radius, shift):
    # near 1e7 the float spacing (about 1.9e-9) is a sizeable share of a
    # 1e-3 radius, so the tree's candidate slack must hold in relative terms;
    # every other point sits at the reach from the one before it, where
    # rounding decides the closed test
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 4 * radius, (n, 2))
    angle = rng.uniform(0, 2 * np.pi, n // 2)
    xy[1::2] = xy[::2][: n // 2] + (radius + DEFAULT_EPS) * np.column_stack((np.cos(angle), np.sin(angle)))
    xy += shift
    _assert_disks_match_naive([GeoPoint(i, float(x), float(y)) for i, (x, y) in enumerate(xy)], radius)


def test_rect_batch_edge_cases():
    empty = build_grid([], 1.0)
    offsets, hits = range_query_rect(empty, np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    assert offsets.tolist() == [0, 0, 0] and len(hits) == 0
    idx = build_grid([GeoPoint(5, 1.0, 1.0)], 1.0)
    with pytest.raises(EmptyRange):
        range_query_rect(idx, np.array([2.0]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
