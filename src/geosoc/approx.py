"""Square-sweep approximation: maximal point sets coverable by an
axis-aligned square of side d.

Every covering square can be slid so its left edge touches the leftmost
covered point, so processing points by ascending x and sweeping a height-d
window over each point's right-hand slab finds every candidate.  The
slabs come from one bulk range query and their windows are stabbed as
whole arrays; a label registry over already-emitted clusters then answers
containment by looking at just three extreme members, which keeps the
global filter near-linear.
Output clusters have diameter at most sqrt(2) * d.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import DEFAULT_EPS, ClusterKind, GeoPoint, SpatialCluster
from .spatial_index import build_grid, range_query_rect
from .sweep_exact import spans as _spans

_NO_LABELS: frozenset[int] = frozenset()


@dataclass
class GascRegistry:
    """Labels of emitted clusters, indexed by member point id."""

    points: Mapping[int, GeoPoint] = field(default_factory=dict)  # read by check_global only
    node_gasc: dict[int, set[int]] = field(default_factory=dict)
    next_label: int = 0

    def register(self, cs: SpatialCluster) -> int:
        return self.register_members(cs.members)

    def register_members(self, members: Iterable[int]) -> int:
        label = self.next_label
        self.next_label += 1
        node_gasc = self.node_gasc
        for m in members:
            bucket = node_gasc.get(m)
            if bucket is None:
                node_gasc[m] = {label}
            else:
                bucket.add(label)
        return label

    def labels(self, pid: int):
        return self.node_gasc.get(pid, _NO_LABELS)


def _windows(py, qy, d: float, eps: float):
    """Top-edge windows [t_lo, t_hi] of slab points at heights qy.

    Point q is covered by the square with top edge t while t is in
    [q.y, q.y + d], clipped to [p.y, p.y + d] so p stays on the left edge.
    """
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


def local_approx_clusters(
    p: GeoPoint,
    slab: Iterable[GeoPoint],
    d: float,
    eps: float = DEFAULT_EPS,
) -> list[SpatialCluster]:
    """Maximal subsets of the slab coverable by a side-d square whose left
    edge passes through p.

    The square's horizontal extent is fixed at [p.x, p.x + d], so only the
    top edge remains free; the maximal stabbing groups of the per-point
    top-edge windows are exactly the answer, and every group contains p.
    """
    pts = list(slab)
    if all(q.id != p.id for q in pts):
        pts.append(p)
    t_lo, t_hi = _windows(p.y, np.array([q.y for q in pts], np.float64), d, eps)
    keep = np.flatnonzero(t_lo <= t_hi)
    _, group, window = _stab(np.zeros(len(keep), np.int64), t_lo[keep], t_hi[keep])
    groups: list[list[int]] = [[] for _ in range(int(group.max(initial=-1)) + 1)]
    for g, i in zip(group.tolist(), keep[window].tolist()):
        groups[g].append(pts[i].id)
    clusters = [SpatialCluster.from_members(m, p.id, ClusterKind.APPROX_SQUARE) for m in groups]
    clusters.sort(key=lambda c: c.members)
    return clusters


def _extreme_ids(points: Sequence[GeoPoint]) -> tuple[int, int, int]:
    """Ids of the lowest, highest, and rightmost points (ties: smallest id)."""
    min_y = max_y = max_x = points[0]
    for q in points[1:]:
        if q.y < min_y.y or (q.y == min_y.y and q.id < min_y.id):
            min_y = q
        if q.y > max_y.y or (q.y == max_y.y and q.id < max_y.id):
            max_y = q
        if q.x > max_x.x or (q.x == max_x.x and q.id < max_x.id):
            max_x = q
    return min_y.id, max_y.id, max_x.id


def check_global(reg: GascRegistry, cs: SpatialCluster) -> bool:
    """False when cs is contained in an already-registered cluster.

    With points processed by ascending x, any square covering cs has its
    left edge at or before min-x(cs), so every potential container is
    already registered, and cs is contained in one exactly when its
    lowest, highest, and rightmost members all carry a common label.
    """
    return _check_extremes(reg, _extreme_ids([reg.points[m] for m in cs.members]))


def _check_extremes(reg: GascRegistry, extremes: tuple[int, int, int]) -> bool:
    min_y, max_y, max_x = extremes
    first = reg.labels(min_y)
    if not first:
        return True
    common = first & reg.labels(max_y)
    if not common:
        return True
    return not (common & reg.labels(max_x))


_SWEEP_BLOCK = 4096


def _global_members(points: Sequence[GeoPoint], d: float, k: int, eps: float):
    """(members, reference id) of every global cluster of size >= k, in
    processing order: by x, then y, then id of the reference point.

    Every slab comes from one bulk range query, and the local clusters
    are found a block of references at a time, which keeps the arrays
    small; only the label registry walks cluster by cluster.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    grid = build_grid(points, d)
    n, xs, ys, ids = grid.n_points, grid.xs, grid.ys, grid.ids
    order = np.lexsort((ids, ys, xs))
    xs, ys, ids = xs[order], ys[order], ids[order]
    offsets, slab = range_query_rect(grid, xs, xs + d, ys - d, ys + d, eps)
    position = np.empty(n, np.int64)
    position[order] = np.arange(n)
    # places by (y, id), (-y, id), (-x, id) and id, for the extremes and
    # the member order
    ranked = [np.lexsort(key) for key in ((ids, ys), (ids, -ys), (ids, -xs), (ids,))]
    ranks = [np.empty(n, np.int64) for _ in ranked]
    for rank, by in zip(ranks, ranked):
        rank[by] = np.arange(n)
    x_of, id_of = xs.tolist(), ids.tolist()
    reg = GascRegistry()
    stale = 0
    epoch_x: float | None = None
    same_x: list[tuple[int, ...]] = []
    for first in range(0, n, _SWEEP_BLOCK):
        last = min(first + _SWEEP_BLOCK, n)
        row = np.repeat(np.arange(first, last), np.diff(offsets[first : last + 1]))
        near = position[slab[offsets[first] : offsets[last]]]
        t_lo, t_hi = _windows(ys[row], ys[near], d, eps)
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
            x = x_of[r]
            if epoch_x != x:
                epoch_x, same_x = x, []
                # a point left of this slab is in no later group, so its
                # labels are never asked for again
                while stale < r and x_of[stale] < x - eps:
                    reg.node_gasc.pop(id_of[stale], None)
                    stale += 1
            if not _check_extremes(reg, (lowest[g], highest[g], rightmost[g])):
                continue
            members = tuple(flat[starts[g] : starts[g + 1]])
            # references sharing one x lack the strict left-to-right order;
            # fall back to direct comparison within the current x epoch
            if same_x:
                mset = frozenset(members)
                if any(mset.issubset(other) for other in same_x):
                    continue
            same_x.append(members)
            reg.register_members(members)
            yield members, id_of[r]


def iter_gasc(
    points: Sequence[GeoPoint],
    d: float,
    k: int = 1,
    eps: float = DEFAULT_EPS,
) -> Iterator[SpatialCluster]:
    """Stream all maximal square-coverable sets of size >= k.

    Clusters are yielded as soon as they are known to be global, in
    processing order (ascending x of the reference point).
    """
    for members, ref in _global_members(points, d, k, eps):
        yield SpatialCluster(members, ref, ClusterKind.APPROX_SQUARE)


def find_gasc(
    points: Sequence[GeoPoint],
    d: float,
    k: int = 1,
    eps: float = DEFAULT_EPS,
) -> list[SpatialCluster]:
    """All maximal square-coverable sets of size >= k (materialised)."""
    # no reference cycles are made; a collection while the output grows
    # would only walk every live object
    collecting = gc.isenabled()
    gc.disable()
    try:
        found = list(_global_members(points, d, k, eps))
    finally:
        if collecting:
            gc.enable()
    return SpatialCluster._canonical_many(
        [members for members, _ in found], [ref for _, ref in found], ClusterKind.APPROX_SQUARE
    )
