"""Sequential references for the whole-array spatial stage.

The package runs each spatial stage as whole arrays.  The routines here
are the same steps taken one point or one cluster at a time, as the paper
states them, and the tests compare the two:

* ``angular_interval``: the closed window of rotation angles during which
  the circle through a reference point encloses one candidate (the exact
  sweep's windows, ``sweep_exact``);
* ``center_rect`` and ``find_gsc``: the element-wise maximality filter over
  a list of local clusters, at one ``PruneLevel`` of the reference-distance
  and center-rectangle prunes, counting its subset comparisons (the counts
  ``gsc.find_gsc`` reports for every level at once);
* ``local_approx_clusters``, ``check_global`` and ``sequential_gasc``: the
  square sweep one reference point at a time, with the label check on
  three extreme members (``approx.find_gasc``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from geosoc.approx import _check_extremes, _stab
from geosoc.gsc import EmptyCluster
from geosoc.model import DEFAULT_EPS, ClusterKind, GeoPoint, SpatialCluster, euclidean_distance
from geosoc.spatial_index import build_grid, range_query_disk
from geosoc.sweep_exact import TAU, TooFar


class PruneLevel(enum.Enum):
    """Which prunes the sequential filter applies: none, the
    reference-distance prune, or that and the center-rectangle prune."""

    NONE = "none"
    RULE1 = "rule1"
    RULE1_2 = "rule1_2"


@dataclass(frozen=True)
class AngularInterval:
    """Closed rotation-angle window during which one point stays enclosed."""

    node: int
    start: float
    end: float
    full_circle: bool = False


def angular_interval(
    v: GeoPoint, u: GeoPoint, r: float, eps: float = DEFAULT_EPS
) -> AngularInterval:
    """Window of center angles for which the circle through v encloses u."""
    dist = euclidean_distance(v, u)
    if dist > 2 * r + eps:
        raise TooFar(f"point {u.id} is {dist:.6g} away from {v.id}, beyond 2r = {2 * r:.6g}")
    if dist <= eps:
        return AngularInterval(u.id, 0.0, TAU, full_circle=True)
    alpha = math.atan2(u.y - v.y, u.x - v.x)
    width = math.acos(min(1.0, max(0.0, dist / (2 * r))))
    return AngularInterval(u.id, alpha - width, alpha + width)


@dataclass(frozen=True)
class CenterRect:
    """Axis-aligned rectangle of feasible covering-circle centers.

    For members with coordinate extremes (x_min, x_max, y_min, y_max) and
    radius r the rectangle is [x_max-r, x_min+r] x [y_max-r, y_min+r]; it
    is non-empty (up to tolerance) exactly when a radius-r circle can
    cover all members.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float


def center_rect(members: Sequence[GeoPoint], r: float) -> CenterRect:
    """Feasible covering-circle centers for the given member points."""
    if not members:
        raise EmptyCluster("cannot build a center rectangle from zero points")
    xs = [p.x for p in members]
    ys = [p.y for p in members]
    return CenterRect(max(xs) - r, min(xs) + r, max(ys) - r, min(ys) + r)


def find_gsc(
    lscs: Iterable[SpatialCluster],
    k: int = 1,
    prune_level: PruneLevel = PruneLevel.NONE,
    d: float | None = None,
    points: Iterable[GeoPoint] | Mapping[int, GeoPoint] | None = None,
) -> tuple[list[SpatialCluster], int]:
    """Keep clusters of size >= k that are not contained in any other, and
    count the subset comparisons made.

    The clusters are filtered one by one, larger sets first, each compared
    element-wise with the kept ones.  The output is identical for every
    prune level; only the comparison count changes.  Reference-distance
    pruning needs d and the point coordinates, from which rectangle
    pruning computes each cluster's center rectangle.
    """
    distinct: dict[tuple[int, ...], SpatialCluster] = {}
    for c in lscs:
        if len(c.members) < k:
            continue
        distinct.setdefault(c.members, c)
    clusters = sorted(distinct.values(), key=lambda c: (-len(c.members), c.members))

    use_ref = prune_level in (PruneLevel.RULE1, PruneLevel.RULE1_2)
    use_rect = prune_level is PruneLevel.RULE1_2
    near_refs: dict[int, Sequence[int]] = {}
    ref_grid = None
    pmap: dict[int, GeoPoint] = {}
    if use_ref:
        if d is None or points is None:
            raise ValueError("reference pruning needs d and reference point coordinates")
        pmap = dict(points) if isinstance(points, Mapping) else {p.id: p for p in points}
        refs = sorted({c.reference for c in clusters})
        if refs:
            # queries must see every reference, so index them all
            ref_grid = build_grid([pmap[rid] for rid in refs], d)

    accepted_sets: list[frozenset[int]] = []
    accepted_clusters: list[SpatialCluster] = []
    accepted_rects: list[CenterRect] = []
    by_ref: dict[int, list[int]] = {}
    comparisons = 0
    for c in clusters:
        mset = frozenset(c.members)
        if use_ref:
            near = near_refs.get(c.reference)
            if near is None:
                near = range_query_disk(ref_grid, pmap[c.reference], d)
                near_refs[c.reference] = near
            candidate_idx: list[int] = []
            for rid in near:
                hit = by_ref.get(rid)
                if hit:
                    candidate_idx.extend(hit)
            candidate_idx.sort()
        else:
            candidate_idx = range(len(accepted_sets))
        contained = False
        if use_rect:
            rect = center_rect([pmap[i] for i in c.members], d / 2)
            x_lo, x_hi, y_lo, y_hi = rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
            for i in candidate_idx:
                other = accepted_rects[i]
                if (
                    x_lo > other.x_hi + DEFAULT_EPS
                    or other.x_lo > x_hi + DEFAULT_EPS
                    or y_lo > other.y_hi + DEFAULT_EPS
                    or other.y_lo > y_hi + DEFAULT_EPS
                ):
                    continue
                comparisons += 1
                if mset <= accepted_sets[i]:
                    contained = True
                    break
        else:
            for i in candidate_idx:
                comparisons += 1
                if mset <= accepted_sets[i]:
                    contained = True
                    break
        if not contained:
            by_ref.setdefault(c.reference, []).append(len(accepted_sets))
            accepted_sets.append(mset)
            accepted_clusters.append(c)
            if use_rect:
                accepted_rects.append(rect)

    out = sorted(accepted_clusters, key=lambda c: c.members)
    return out, comparisons


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
    Each window [max(p.y, q.y), min(p.y, q.y) + d] is widened by eps.
    """
    pts = list(slab)
    if all(q.id != p.id for q in pts):
        pts.append(p)
    qy = np.array([q.y for q in pts], np.float64)
    t_lo, t_hi = np.maximum(qy, p.y) - eps, np.minimum(qy, p.y) + d + eps
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


def check_global(
    labels: dict[int, set[int]], points: Mapping[int, GeoPoint], cs: SpatialCluster
) -> bool:
    """False when cs is contained in a cluster already labelled on its
    members: its lowest, highest and rightmost members share a label."""
    return _check_extremes(labels, _extreme_ids([points[m] for m in cs.members]))


def sequential_gasc(points: Sequence[GeoPoint], d: float, k: int = 1) -> list[SpatialCluster]:
    """The square sweep one reference point at a time, by x, then y, then id.

    Each local cluster of size >= k at the reference is kept unless
    check_global finds a container among the kept clusters, or, for
    references of equal x, a kept cluster of that x holds it; a kept
    cluster labels its members.  The equal-x clause never decides: a kept
    cluster of that x labels all of its members, so check_global has
    already refused any cluster it holds.
    """
    pmap = {p.id: p for p in points}
    labels: dict[int, set[int]] = {}
    out: list[SpatialCluster] = []
    epoch_x: float | None = None
    same_x: list[frozenset[int]] = []
    eps = DEFAULT_EPS
    for p in sorted(points, key=lambda q: (q.x, q.y, q.id)):
        if p.x != epoch_x:
            epoch_x, same_x = p.x, []
        slab = [
            q for q in points
            if p.x - eps <= q.x <= p.x + d + eps and p.y - d - eps <= q.y <= p.y + d + eps
        ]
        for c in local_approx_clusters(p, slab, d):
            mset = frozenset(c.members)
            if len(mset) < k or not check_global(labels, pmap, c) or any(mset <= s for s in same_x):
                continue
            same_x.append(mset)
            for m in c.members:
                labels.setdefault(m, set()).add(len(out))
            out.append(c)
    return out
