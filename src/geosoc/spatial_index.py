"""Uniform-grid index over points with disk and rectangle range queries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import DEFAULT_EPS, DuplicateId, GeoPoint, GeoSocError


class NonPositiveCellSize(GeoSocError):
    """Grid cells must have a positive side length."""


class EmptyRange(GeoSocError):
    """Rectangle query with inverted bounds."""


@dataclass(frozen=True)
class GridIndex:
    """Points bucketed by cell (floor(x/cell), floor(y/cell)); immutable."""

    cell_size: float
    buckets: dict[tuple[int, int], tuple[int, ...]]
    point_map: dict[int, GeoPoint]
    bounds: tuple[float, float, float, float] | None  # min_x, min_y, max_x, max_y

    @property
    def n_points(self) -> int:
        return len(self.point_map)


def build_grid(points: Iterable[GeoPoint], cell_size: float) -> GridIndex:
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise NonPositiveCellSize(f"cell size must be positive, got {cell_size}")
    buckets: dict[tuple[int, int], list[int]] = {}
    pmap: dict[int, GeoPoint] = {}
    for p in points:
        if p.id in pmap:
            raise DuplicateId(f"point id {p.id} appears twice")
        pmap[p.id] = p
        key = (math.floor(p.x / cell_size), math.floor(p.y / cell_size))
        buckets.setdefault(key, []).append(p.id)
    bounds = None
    if pmap:
        xs = [p.x for p in pmap.values()]
        ys = [p.y for p in pmap.values()]
        bounds = (min(xs), min(ys), max(xs), max(ys))
    frozen = {key: tuple(ids) for key, ids in buckets.items()}
    return GridIndex(cell_size, frozen, pmap, bounds)


def _cells(idx: GridIndex, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    min_x, min_y, max_x, max_y = idx.bounds
    x_lo, x_hi = max(x_lo, min_x), min(x_hi, max_x)
    y_lo, y_hi = max(y_lo, min_y), min(y_hi, max_y)
    if x_lo > x_hi or y_lo > y_hi:
        return
    cs = idx.cell_size
    for cx in range(math.floor(x_lo / cs), math.floor(x_hi / cs) + 1):
        for cy in range(math.floor(y_lo / cs), math.floor(y_hi / cs) + 1):
            bucket = idx.buckets.get((cx, cy))
            if bucket:
                yield bucket


@dataclass(frozen=True)
class Neighbours:
    """The closed disk neighbourhood of every indexed point, as CSR.

    Points are numbered in grid-cell order, so that near points sit near
    in memory; point i is the index's ``order[i]``-th point (insertion
    order).  Row i, ``nbrs[offsets[i]:offsets[i + 1]]``, holds the numbers
    of the points within reach of point i, itself included, in ascending
    id order; ``dist`` holds the matching distances.  Its length is the
    number of (center, point) pairs, as the sum of the per-point query
    lengths.
    """

    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    nbrs: np.ndarray
    dist: np.ndarray

    def __len__(self) -> int:
        return len(self.nbrs)

    def row_of(self) -> np.ndarray:
        """Center position of every CSR entry."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))


_JOIN_BLOCK = 4096


@dataclass(frozen=True)
class _CellRuns:
    """Points bucketed by grid cell for bulk lookups: ``by_cell`` orders
    them by cell key (``key``, stable), and occupied cell ``cells[i]``
    holds the points at ``first[i]:first[i] + count[i]`` of that order."""

    cs: float
    low: tuple[float, float]
    high: tuple[float, float]
    width: int
    key: np.ndarray
    by_cell: np.ndarray
    cells: np.ndarray
    first: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, xs: np.ndarray, ys: np.ndarray, cs: float) -> "_CellRuns":
        cx, cy = np.floor(xs / cs), np.floor(ys / cs)
        low, high = (cx.min(), cy.min()), (cx.max(), cy.max())
        width = int(high[1] - low[1]) + 1
        key = (cx - low[0]).astype(np.int64) * width + (cy - low[1]).astype(np.int64)
        by_cell = np.argsort(key, kind="stable")
        key = key[by_cell]
        return cls(cs, low, high, width, key, by_cell, *np.unique(key, return_index=True, return_counts=True))

    def lookup(self, x_lo, x_hi, y_lo, y_hi):
        """For each box, every cell key between its corner cells (a point
        inside the box lies in one of those cells), that key's slot in
        ``cells``, and whether the cell is occupied."""
        ranges = []
        for lo, hi, c0, c1 in ((x_lo, x_hi, self.low[0], self.high[0]), (y_lo, y_hi, self.low[1], self.high[1])):
            first = (np.clip(np.floor(lo / self.cs), c0, c1) - c0).astype(np.int64)
            ranges += [first[:, None, None], (np.clip(np.floor(hi / self.cs), c0, c1) - c0).astype(np.int64) - first + 1]
        lo_x, span_x, lo_y, span_y = ranges
        a = np.arange(int(span_x.max()))[None, :, None]
        b = np.arange(int(span_y.max()))[None, None, :]
        qkey = ((lo_x + a) * self.width + lo_y + b).reshape(len(lo_x), -1)
        slot = np.minimum(np.searchsorted(self.cells, qkey), len(self.cells) - 1)
        inside = (a < span_x[:, None, None]) & (b < span_y[:, None, None])
        return qkey, slot, (self.cells[slot] == qkey) & inside.reshape(len(lo_x), -1)


def _all_disks(idx: GridIndex, radius: float, eps: float) -> Neighbours:
    """One bulk join: every grid cell a per-point query would scan (see
    _cells) is looked up for all points at once, and the candidates are
    kept by the same closed distance test.  Each pair is measured once,
    from the point whose cell comes first (or which comes first in a
    shared cell), then recorded both ways.  Distances are
    sqrt(dx^2 + dy^2), within a few ulps of math.hypot, and equal to it
    wherever they lie within rounding distance of the reach, so the test
    decides as there."""
    pts = idx.point_map.values()
    n = len(idx.point_map)
    ids = np.fromiter((p.id for p in pts), np.int64, n)
    xs = np.fromiter((p.x for p in pts), np.float64, n)
    ys = np.fromiter((p.y for p in pts), np.float64, n)
    if n == 0:
        empty = np.zeros(0, np.int64)
        return Neighbours(ids, xs, ys, empty, np.zeros(1, np.int64), empty, np.zeros(0))
    reach = radius + eps
    # work in cell order, where every cell's points are one run
    runs = _CellRuns.of(xs, ys, idx.cell_size)
    key, by_cell, first, count = runs.key, runs.by_cell, runs.first, runs.count
    sx, sy = xs[by_cell], ys[by_cell]
    ones, twos, dists = [], [], []
    for lo in range(0, n, _JOIN_BLOCK):
        # a block of points at a time keeps the candidate arrays small
        hi = min(lo + _JOIN_BLOCK, n)
        bx, by = sx[lo:hi], sy[lo:hi]
        qkey, slot, hit = runs.lookup(bx - reach, bx + reach, by - reach, by + reach)
        # later cells whole; in the point's own cell, the points after it
        after = np.arange(lo + 1, hi + 1)[:, None]
        later = hit & (qkey > key[lo:hi, None])
        own = hit & (qkey == key[lo:hi, None])
        starts = np.where(later, first[slot], np.where(own, after, 0)).ravel()
        size = np.where(later, count[slot], np.where(own, first[slot] + count[slot] - after, 0))
        per_center = size.sum(axis=1)
        size = size.ravel()
        other = np.repeat(starts - (np.cumsum(size) - size), size)
        other += np.arange(len(other))
        center = np.repeat(np.arange(lo, hi), per_center)
        dx = sx[other]
        dx -= sx[center]
        dy = sy[other]
        dy -= sy[center]
        dist = dx * dx
        dist += dy * dy
        np.sqrt(dist, out=dist)
        keep = np.flatnonzero(dist <= reach * (1 + 1e-12))
        for t in keep[dist[keep] >= reach * (1 - 1e-12)]:
            dist[t] = math.hypot(dx[t], dy[t])
        keep = keep[dist[keep] <= reach]
        ones.append(center[keep])
        twos.append(other[keep])
        dists.append(dist[keep])
    one, two, dist = np.concatenate(ones), np.concatenate(twos), np.concatenate(dists)
    every = np.arange(n)
    center = np.concatenate((one, two, every))
    other = np.concatenate((two, one, every))
    dist = np.concatenate((dist, dist, np.zeros(n)))
    ids = ids[by_cell]
    id_rank = np.empty(n, np.int64)
    id_rank[np.argsort(ids, kind="stable")] = every
    order = np.argsort(center * n + id_rank[other])
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(center, minlength=n), out=offsets[1:])
    return Neighbours(ids, sx, sy, by_cell, offsets, other[order], dist[order])


def _all_rects(idx: GridIndex, x_lo, x_hi, y_lo, y_hi, eps: float):
    """Many closed rectangle queries in one pass: every grid cell that
    meets a rectangle is looked up for all rectangles at once, and the
    candidates are kept by the same closed test as a single query."""
    if np.any(x_lo > x_hi) or np.any(y_lo > y_hi):
        raise EmptyRange("inverted bounds in a rectangle batch")
    pts = idx.point_map.values()
    n, m = len(idx.point_map), len(x_lo)
    xs = np.fromiter((p.x for p in pts), np.float64, n)
    ys = np.fromiter((p.y for p in pts), np.float64, n)
    offsets = np.zeros(m + 1, np.int64)
    if n == 0 or m == 0:
        return offsets, np.zeros(0, np.int64)
    x_lo, x_hi, y_lo, y_hi = x_lo - eps, x_hi + eps, y_lo - eps, y_hi + eps
    runs = _CellRuns.of(xs, ys, idx.cell_size)
    rows, hits = [], []
    for lo in range(0, m, _JOIN_BLOCK):
        hi = min(lo + _JOIN_BLOCK, m)
        _, slot, hit = runs.lookup(x_lo[lo:hi], x_hi[lo:hi], y_lo[lo:hi], y_hi[lo:hi])
        size = np.where(hit, runs.count[slot], 0)
        row = np.repeat(np.arange(lo, hi), size.sum(axis=1))
        size = size.ravel()
        starts = runs.first[slot].ravel() - (np.cumsum(size) - size)
        other = runs.by_cell[np.repeat(starts, size) + np.arange(len(row))]
        px, py = xs[other], ys[other]
        inside = (x_lo[row] <= px) & (px <= x_hi[row]) & (y_lo[row] <= py) & (py <= y_hi[row])
        rows.append(row[inside])
        hits.append(other[inside])
    np.cumsum(np.bincount(np.concatenate(rows), minlength=m), out=offsets[1:])
    return offsets, np.concatenate(hits)


def range_query_disk(
    idx: GridIndex, center: GeoPoint | None, radius: float, eps: float = DEFAULT_EPS
):
    """Ids of indexed points within radius (closed, eps slack), ascending.

    With center None every indexed point is a center at once, and the
    result is the Neighbours table of all those queries.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if center is None:
        return _all_disks(idx, radius, eps)
    if not idx.point_map:
        return []
    reach = radius + eps
    out: list[int] = []
    pmap = idx.point_map
    for bucket in _cells(idx, center.x - reach, center.x + reach, center.y - reach, center.y + reach):
        for pid in bucket:
            p = pmap[pid]
            if math.hypot(p.x - center.x, p.y - center.y) <= reach:
                out.append(pid)
    out.sort()
    return out


def range_query_rect(
    idx: GridIndex,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
    eps: float = DEFAULT_EPS,
) -> list[int]:
    """Ids inside the closed rectangle (eps slack), ascending.

    With array bounds there is one rectangle per entry, all queried at
    once, and the result is the CSR pair (offsets, hits): row i,
    ``hits[offsets[i]:offsets[i + 1]]``, holds the positions (in the
    index's insertion order) of the points inside rectangle i, unordered.
    """
    if isinstance(x_lo, np.ndarray):
        return _all_rects(idx, x_lo, x_hi, y_lo, y_hi, eps)
    if x_lo > x_hi or y_lo > y_hi:
        raise EmptyRange(f"inverted bounds: [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]")
    if not idx.point_map:
        return []
    out: list[int] = []
    pmap = idx.point_map
    for bucket in _cells(idx, x_lo - eps, x_hi + eps, y_lo - eps, y_hi + eps):
        for pid in bucket:
            p = pmap[pid]
            if x_lo - eps <= p.x <= x_hi + eps and y_lo - eps <= p.y <= y_hi + eps:
                out.append(pid)
    out.sort()
    return out
