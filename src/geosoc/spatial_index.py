"""Grid index over points: a k-d tree for disks, cell runs for rectangles.

Disk queries are fixed-radius searches in a scipy ``cKDTree`` that the
index builds on its first disk query.  Rectangle batches look up every
cell of many boxes at once in the grid's table of cell runs: the points in
cell order, and each occupied cell's key, first point and count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .model import DEFAULT_EPS, DuplicateId, GeoPoint, GeoSocError


class NonPositiveCellSize(GeoSocError):
    """Grid cells must have a positive side length."""


class EmptyRange(GeoSocError):
    """Rectangle query with inverted bounds."""


@dataclass(frozen=True, eq=False)
class GridIndex:
    """Points in runs by grid cell, for rectangles, plus a k-d tree over
    them, for disks; immutable (the tree is built on the first disk query).

    Point i (insertion order) has id ``ids[i]`` at ``(xs[i], ys[i])`` and
    lies in cell (floor(x / cell_size), floor(y / cell_size)).  A cell in
    row cy of the j-th occupied column, ``columns[j]``, is keyed
    ``j * width + cy - rows[0]``, where ``rows`` are the lowest and highest
    occupied rows; numbering only occupied columns keeps the keys small
    however far apart the columns lie.  ``order`` lists the points by key
    (stable), so occupied cell ``cells[i]`` holds the points
    ``order[first[i]:first[i] + count[i]]``.
    """

    cell_size: float
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    columns: np.ndarray
    rows: tuple[int, int]
    order: np.ndarray
    cells: np.ndarray
    first: np.ndarray
    count: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.ids)

    @property
    def width(self) -> int:
        return self.rows[1] - self.rows[0] + 1

    @cached_property
    def tree(self):
        """A cKDTree over the points in cell order (its point i is point
        ``order[i]``), so that the bulk join reads near points near in
        memory; the unbalanced sliding-midpoint build is the cheaper one."""
        from scipy.spatial import cKDTree

        xy = np.column_stack((self.xs, self.ys))[self.order]
        return cKDTree(xy, balanced_tree=False, compact_nodes=False)

    @cached_property
    def _by_cell(self) -> tuple[list, list, list]:
        """Ids, xs and ys in cell order as lists, for the scalar disk query: each
        query returns the same id objects, so the clique's sets match by identity."""
        by_cell = self.order
        return self.ids[by_cell].tolist(), self.xs[by_cell].tolist(), self.ys[by_cell].tolist()


def build_grid(points: Iterable[GeoPoint], cell_size: float) -> GridIndex:
    if not (math.isfinite(cell_size) and cell_size > 0):
        raise NonPositiveCellSize(f"cell size must be positive, got {cell_size}")
    pts = points if isinstance(points, (list, tuple)) else list(points)
    n = len(pts)
    ids = np.fromiter((p.id for p in pts), np.int64, n)
    xs = np.fromiter((p.x for p in pts), np.float64, n)
    ys = np.fromiter((p.y for p in pts), np.float64, n)
    by_id = np.sort(ids)
    twice = by_id[1:][by_id[1:] == by_id[:-1]]
    if len(twice):
        raise DuplicateId(f"point id {twice[0]} appears twice")
    cy = np.floor(ys / cell_size)
    columns, column = np.unique(np.floor(xs / cell_size), return_inverse=True)
    rows = (int(cy.min()), int(cy.max())) if n else (0, 0)
    key = column * (rows[1] - rows[0] + 1) + (cy - rows[0]).astype(np.int64)
    order = np.argsort(key, kind="stable")
    return GridIndex(cell_size, ids, xs, ys, columns, rows, order,
                     *np.unique(key[order], return_index=True, return_counts=True))


@dataclass(frozen=True)
class Neighbours:
    """The closed disk neighbourhood of every indexed point, as CSR.

    Points are numbered in grid-cell order, so that near points sit near
    in memory; point i is the index's ``order[i]``-th point (insertion
    order).  Row i, ``nbrs[offsets[i]:offsets[i + 1]]``, holds the numbers
    of the points within reach of point i, itself included, in ascending
    id order.  Its length is the number of (center, point) pairs, as the
    sum of the per-point query lengths.
    """

    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    nbrs: np.ndarray

    def __len__(self) -> int:
        return len(self.nbrs)

    def row_of(self) -> np.ndarray:
        """Center position of every CSR entry."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.offsets))


_JOIN_BLOCK = 4096


def _lookup(idx: GridIndex, x_lo, x_hi, y_lo, y_hi):
    """For each box, the slot in ``cells`` of every cell key between its
    corner cells in the occupied columns it meets (a point inside the box
    lies in one of those cells), and whether that cell is occupied."""
    cs, (low, high) = idx.cell_size, idx.rows
    lo_x = np.searchsorted(idx.columns, np.floor(x_lo / cs))
    span_x = np.searchsorted(idx.columns, np.floor(x_hi / cs), side="right") - lo_x
    lo_y = (np.clip(np.floor(y_lo / cs), low, high) - low).astype(np.int64)
    span_y = (np.clip(np.floor(y_hi / cs), low, high) - low).astype(np.int64) - lo_y + 1
    a = np.arange(int(span_x.max()))[None, :, None]
    b = np.arange(int(span_y.max()))[None, None, :]
    qkey = ((lo_x[:, None, None] + a) * idx.width + lo_y[:, None, None] + b).reshape(len(lo_x), -1)
    slot = np.minimum(np.searchsorted(idx.cells, qkey), len(idx.cells) - 1)
    inside = (a < span_x[:, None, None]) & (b < span_y[:, None, None])
    return slot, (idx.cells[slot] == qkey) & inside.reshape(len(lo_x), -1)


def _all_disks(idx: GridIndex, radius: float) -> Neighbours:
    """One bulk join: the tree lists every pair within the reach and its
    slack once, as cell numbers (i, j) with i < j; the pairs are kept by
    the same closed distance test, then recorded both ways.  Distances are
    sqrt(dx^2 + dy^2), within a few ulps of math.hypot, and equal to it
    wherever they lie within rounding distance of the reach, so the test
    decides as there."""
    n, by_cell = idx.n_points, idx.order
    ids, sx, sy = idx.ids[by_cell], idx.xs[by_cell], idx.ys[by_cell]
    if n == 0:
        return Neighbours(ids, sx, sy, by_cell, np.zeros(1, np.int64), by_cell)
    reach = radius + DEFAULT_EPS
    one, two = idx.tree.query_pairs(reach * (1 + 1e-12), output_type="ndarray").T
    dx = sx[two] - sx[one]
    dy = sy[two] - sy[one]
    dist = np.sqrt(dx * dx + dy * dy)
    for t in np.flatnonzero(dist >= reach * (1 - 1e-12)):
        dist[t] = math.hypot(dx[t], dy[t])
    keep = dist <= reach
    one, two = one[keep], two[keep]
    every = np.arange(n)
    center = np.concatenate((one, two, every))
    other = np.concatenate((two, one, every))
    id_rank = np.empty(n, np.int64)
    id_rank[np.argsort(ids, kind="stable")] = every
    order = np.argsort(center * n + id_rank[other])
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(center, minlength=n), out=offsets[1:])
    return Neighbours(ids, sx, sy, by_cell, offsets, other[order])


def range_query_disk(idx: GridIndex, center: GeoPoint | None, radius: float):
    """Ids of indexed points within radius (closed, DEFAULT_EPS slack),
    ascending.

    The index's tree offers the points within (radius + eps) * (1 + 1e-12),
    a relative slack over the tree's own rounding, and each is kept by the
    closed test math.hypot(dx, dy) <= radius + eps, with eps DEFAULT_EPS.
    With center None every indexed point is a center at once, and the
    result is the Neighbours table of all those queries.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if center is None:
        return _all_disks(idx, radius)
    if idx.n_points == 0:
        return []
    reach = radius + DEFAULT_EPS
    x, y = center.x, center.y
    ids, xs, ys = idx._by_cell
    near = idx.tree.query_ball_point((x, y), reach * (1 + 1e-12), return_sorted=False)
    return sorted([ids[i] for i in near if math.hypot(xs[i] - x, ys[i] - y) <= reach])


def range_query_rect(
    idx: GridIndex,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Many closed rectangle queries (DEFAULT_EPS slack) in one pass, one
    rectangle per entry of the bound arrays.

    Every grid cell that meets a rectangle is looked up for all rectangles
    at once.  The result is the CSR pair (offsets, hits): row i,
    ``hits[offsets[i]:offsets[i + 1]]``, holds the positions (in the
    index's insertion order) of the points inside rectangle i, unordered.
    """
    if np.any(x_lo > x_hi) or np.any(y_lo > y_hi):
        raise EmptyRange("inverted bounds in a rectangle batch")
    n, m, xs, ys = idx.n_points, len(x_lo), idx.xs, idx.ys
    offsets = np.zeros(m + 1, np.int64)
    if n == 0 or m == 0:
        return offsets, np.zeros(0, np.int64)
    eps = DEFAULT_EPS
    x_lo, x_hi, y_lo, y_hi = x_lo - eps, x_hi + eps, y_lo - eps, y_hi + eps
    rows, hits = [], []
    for lo in range(0, m, _JOIN_BLOCK):
        # a block of rectangles at a time keeps the candidate arrays small
        hi = min(lo + _JOIN_BLOCK, m)
        slot, hit = _lookup(idx, x_lo[lo:hi], x_hi[lo:hi], y_lo[lo:hi], y_hi[lo:hi])
        size = np.where(hit, idx.count[slot], 0)
        row = np.repeat(np.arange(lo, hi), size.sum(axis=1))
        size = size.ravel()
        starts = idx.first[slot].ravel() - (np.cumsum(size) - size)
        other = idx.order[np.repeat(starts, size) + np.arange(len(row))]
        px, py = xs[other], ys[other]
        inside = (x_lo[row] <= px) & (px <= x_hi[row]) & (y_lo[row] <= py) & (py <= y_hi[row])
        rows.append(row[inside])
        hits.append(other[inside])
    np.cumsum(np.bincount(np.concatenate(rows), minlength=m), out=offsets[1:])
    return offsets, np.concatenate(hits)
