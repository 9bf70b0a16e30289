"""Square-sweep approximation: maximal point sets coverable by an
axis-aligned square of side d.

Every covering square can be slid so its left edge touches the leftmost
covered point, so processing points by ascending x and sweeping a height-d
window over each point's right-hand slab finds every candidate.  The
slabs come from one bulk range query and their windows are stabbed as
whole arrays; labels on the members of the clusters already found then
answer containment by looking at just three extreme members, which keeps
the global filter near-linear.
Output clusters have diameter at most sqrt(2) * d.
"""

from __future__ import annotations

import gc
from typing import Sequence

import numpy as np

from .model import DEFAULT_EPS, ClusterKind, GeoPoint, SpatialCluster
from .spatial_index import build_grid, range_query_rect
from .sweep_exact import spans as _spans

_NO_LABELS: frozenset[int] = frozenset()


def _windows(py, qy, d: float):
    """Top-edge windows [t_lo, t_hi] of slab points at heights qy.

    Point q is covered by the square with top edge t while t is in
    [q.y, q.y + d], clipped to [p.y, p.y + d] so p stays on the left edge,
    each bound widened by DEFAULT_EPS.
    """
    eps = DEFAULT_EPS
    return np.where(qy > py, qy, py) - eps, np.where(qy < py, qy, py) + d + eps


def _stab(row: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, k: int = 1):
    """The maximal stabbing groups of size >= k of each row's windows.

    Ordering a row's window bounds by value, starts before ends at a tie,
    a maximal group sits wherever a start is directly followed by an end,
    and holds the windows that contain that end; so a row's groups come
    by ascending end.  rows must ascend.  Returns the row of each group,
    and per member of a group (group by group) the group and the window.
    """
    m = len(row)
    bound = np.concatenate((t_lo, t_hi))
    is_end = np.arange(2 * m) >= m
    events = np.lexsort((is_end, bound, np.concatenate((row, row))))
    is_end = is_end[events]
    close = np.flatnonzero(~is_end[:-1] & is_end[1:])
    close = close[np.cumsum(np.where(is_end, -1, 1))[close] >= k]
    group_row = row[events[close]]
    first = np.searchsorted(row, group_row)
    width = np.searchsorted(row, group_row, side="right") - first
    window = _spans(first, width)
    at = np.repeat(bound[events[close + 1]], width)
    inside = (t_lo[window] <= at) & (at <= t_hi[window])
    return group_row, np.repeat(np.arange(len(group_row)), width)[inside], window[inside]


def _check_extremes(labels: dict[int, set[int]], extremes: tuple[int, int, int]) -> bool:
    """False when a labelled cluster contains the group with these lowest,
    highest and rightmost member ids.

    With points processed by ascending x, any square covering the group
    has its left edge at or before the group's leftmost member, so every
    potential container is already labelled (no label is evicted within
    one x), and one contains the group exactly when those three extremes
    all carry its label.
    """
    min_y, max_y, max_x = extremes
    first = labels.get(min_y)
    if not first:
        return True
    common = first & labels.get(max_y, _NO_LABELS)
    if not common:
        return True
    return not (common & labels.get(max_x, _NO_LABELS))


_SWEEP_BLOCK = 4096


def _global_members(points: Sequence[GeoPoint], d: float, k: int):
    """The member tuples and reference ids of every global cluster of size
    >= k, in processing order: by x, then y, then id of the reference point.

    Every slab comes from one bulk range query, and the local clusters
    are found a block of references at a time, which keeps the arrays
    small; only the labelling walks cluster by cluster.  labels maps a
    point id to the labels of the kept clusters holding it.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    grid = build_grid(points, d)
    n, xs, ys, ids = grid.n_points, grid.xs, grid.ys, grid.ids
    order = np.lexsort((ids, ys, xs))
    xs, ys, ids = xs[order], ys[order], ids[order]
    offsets, slab = range_query_rect(grid, xs, xs + d, ys - d, ys + d)
    position = np.empty(n, np.int64)
    position[order] = np.arange(n)
    # places by (y, id), (-y, id), (-x, id) and id, for the extremes and
    # the member order
    ranked = [np.lexsort(key) for key in ((ids, ys), (ids, -ys), (ids, -xs), (ids,))]
    ranks = [np.empty(n, np.int64) for _ in ranked]
    for rank, by in zip(ranks, ranked):
        rank[by] = np.arange(n)
    x_of, id_of = xs.tolist(), ids.tolist()
    labels: dict[int, set[int]] = {}
    found: list[tuple[int, ...]] = []
    found_refs: list[int] = []
    stale = 0
    for first in range(0, n, _SWEEP_BLOCK):
        last = min(first + _SWEEP_BLOCK, n)
        row = np.repeat(np.arange(first, last), np.diff(offsets[first : last + 1]))
        near = position[slab[offsets[first] : offsets[last]]]
        t_lo, t_hi = _windows(ys[row], ys[near], d)
        ok = t_lo <= t_hi
        refs, group, window = _stab(row[ok], t_lo[ok], t_hi[ok], k)
        member = near[ok][window]
        member = member[np.argsort(group * n + ranks[3][member])]
        starts = np.searchsorted(group, np.arange(len(refs) + 1))
        lowest, highest, rightmost = (
            ids[by[np.minimum.reduceat(rank[member], starts[:-1])]].tolist() if len(refs) else []
            for rank, by in zip(ranks[:3], ranked)
        )
        flat, starts = ids[member].tolist(), starts.tolist()
        for g, r in enumerate(refs.tolist()):
            # a point left of this slab is in no later group, so its labels
            # are never asked for again
            left = x_of[r] - DEFAULT_EPS
            while stale < r and x_of[stale] < left:
                labels.pop(id_of[stale], None)
                stale += 1
            if not _check_extremes(labels, (lowest[g], highest[g], rightmost[g])):
                continue
            members = tuple(flat[starts[g] : starts[g + 1]])
            # a kept cluster's label is its place in found
            label = len(found)
            for m in members:
                bucket = labels.get(m)
                if bucket is None:
                    labels[m] = {label}
                else:
                    bucket.add(label)
            found.append(members)
            found_refs.append(id_of[r])
    return found, found_refs


def find_gasc(points: Sequence[GeoPoint], d: float, k: int = 1) -> list[SpatialCluster]:
    """All maximal square-coverable sets of size >= k, in processing order
    (ascending x of the reference point)."""
    # no reference cycles are made; a collection while the output grows
    # would only walk every live object
    collecting = gc.isenabled()
    gc.disable()
    try:
        members, refs = _global_members(points, d, k)
    finally:
        if collecting:
            gc.enable()
    return SpatialCluster._canonical_many(members, refs, ClusterKind.APPROX_SQUARE)
