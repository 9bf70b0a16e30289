"""Brute-force reference implementations and the clique baseline.

The oracle functions enumerate candidate covering shapes outright instead
of sweeping, so they certify the fast paths.  They share the eps-closed
membership convention of the main algorithms and are intended for a few
hundred points at most.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    DEFAULT_EPS,
    ClusterKind,
    GeoPoint,
    GeoSocError,
    SpatialCluster,
    euclidean_distance,
)
from .spatial_index import build_grid, range_query_disk
from .sweep_exact import TAU, TooFar


class EmptyInput(GeoSocError):
    """An operation that needs at least one point received none."""


class CliqueBudgetExceeded(GeoSocError):
    """The clique enumeration produced more maximal cliques than allowed."""


#: maximal cliques the clique baseline may list before it gives up
MAX_CLIQUES = 5_000_000


def oracle_lsc(
    v: GeoPoint,
    candidates: Iterable[GeoPoint],
    r: float,
    eps: float = DEFAULT_EPS,
) -> list[SpatialCluster]:
    """Reference local clusters by direct evaluation over critical angles.

    The enclosed set only changes at an angle where some candidate enters
    or leaves the rotating circle, so evaluating the closed-disk member
    set at every such angle (plus midpoints between consecutive ones, for
    robustness) and keeping maximal sets recovers the whole family.
    """
    cands = [u for u in candidates if u.id != v.id]
    angles: list[float] = []
    for u in cands:
        dist = euclidean_distance(v, u)
        if dist > 2 * r + eps:
            raise TooFar(f"point {u.id} is {dist:.6g} away from {v.id}, beyond 2r = {2 * r:.6g}")
        if dist <= eps:
            continue
        alpha = math.atan2(u.y - v.y, u.x - v.x)
        width = math.acos(min(1.0, max(0.0, dist / (2 * r))))
        angles.append(math.remainder(alpha - width, TAU))
        angles.append(math.remainder(alpha + width, TAU))
    if angles:
        angles.sort()
        thetas = list(angles)
        thetas.extend((a + b) / 2 for a, b in zip(angles, angles[1:]))
        thetas.append((angles[-1] + angles[0] + TAU) / 2)
    else:
        thetas = [0.0]
    # bit i of a mask stands for cands[i]
    masks: set[int] = set()
    for theta in thetas:
        cx = v.x + r * math.cos(theta)
        cy = v.y + r * math.sin(theta)
        masks.add(sum(1 << i for i, u in enumerate(cands) if math.hypot(u.x - cx, u.y - cy) <= r + eps))
    clusters = [
        SpatialCluster.from_members([v.id] + [u.id for i, u in enumerate(cands) if m >> i & 1],
                                    v.id, ClusterKind.EXACT_CIRCLE)
        for m in maximal_masks(masks)
    ]
    clusters.sort(key=lambda c: c.members)
    return clusters


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct bitmasks that no other one contains, most bits first
    (then by value): each mask is kept unless a kept one holds all its bits."""
    ordered = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(m & other == m for other in kept):
            kept.append(m)
    return kept


def _pack_rows(inside: np.ndarray) -> list[int]:
    packed = np.packbits(inside, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def oracle_gsc(
    points: Sequence[GeoPoint], d: float, eps: float = DEFAULT_EPS
) -> list[SpatialCluster]:
    """Reference family of maximal circle-coverable sets.

    Any covering circle can be translated until two covered points pin its
    boundary, or until it is centered on a lone point; so the circles
    centered at each point plus the two radius-r circles through every
    pair closer than 2r form a complete candidate set.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    pts = list(points)
    if not pts:
        return []
    r = d / 2
    ids = np.array([p.id for p in pts], dtype=np.int64)
    # centred on the first point: far from the origin, absolute circle
    # centres would be spaced more coarsely than eps
    xs = np.array([p.x for p in pts], dtype=np.float64) - pts[0].x
    ys = np.array([p.y for p in pts], dtype=np.float64) - pts[0].y
    n = len(pts)
    center_xs = [xs]
    center_ys = [ys]
    if n > 1:
        ai, bi = np.triu_indices(n, 1)
        dx = xs[bi] - xs[ai]
        dy = ys[bi] - ys[ai]
        dist = np.hypot(dx, dy)
        ok = (dist <= 2 * r + eps) & (dist > 0)
        dx, dy, dist = dx[ok], dy[ok], dist[ok]
        mx = (xs[ai[ok]] + xs[bi[ok]]) / 2
        my = (ys[ai[ok]] + ys[bi[ok]]) / 2
        h = np.sqrt(np.maximum(r * r - (dist / 2) ** 2, 0.0))
        ux = -dy / dist
        uy = dx / dist
        center_xs += [mx + h * ux, mx - h * ux]
        center_ys += [my + h * uy, my - h * uy]
    cxs = np.concatenate(center_xs)
    cys = np.concatenate(center_ys)
    reach = r + eps

    first_seen: dict[int, int] = {}
    chunk = max(1, 4_000_000 // n)
    for lo in range(0, len(cxs), chunk):
        inside = np.hypot(xs[None, :] - cxs[lo : lo + chunk, None],
                          ys[None, :] - cys[lo : lo + chunk, None]) <= reach
        for i, mask in enumerate(_pack_rows(inside)):
            if mask and mask not in first_seen:
                first_seen[mask] = lo + i

    out = []
    for mask in maximal_masks(first_seen):
        row = first_seen[mask]
        sel = np.hypot(xs - cxs[row], ys - cys[row]) <= reach
        members = sorted(int(i) for i in ids[sel])
        out.append(SpatialCluster.from_members(members, members[0], ClusterKind.EXACT_CIRCLE))
    out.sort(key=lambda c: c.members)
    return out


def oracle_gasc(
    points: Sequence[GeoPoint], d: float, eps: float = DEFAULT_EPS
) -> list[SpatialCluster]:
    """Reference family of maximal square-coverable sets.

    Any covering square can be shifted right until its left edge touches
    the leftmost covered point and down until its top edge touches the
    topmost one, so squares anchored at every ordered (left point, top
    point) pair containing both anchors form a complete candidate set.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    pts = list(points)
    if not pts:
        return []
    ids = np.array([p.id for p in pts], dtype=np.int64)
    xs = np.array([p.x for p in pts], dtype=np.float64)
    ys = np.array([p.y for p in pts], dtype=np.float64)
    dxp = xs[None, :] - xs[:, None]  # [a, b] -> x_b - x_a
    dyp = ys[None, :] - ys[:, None]
    valid = (dxp >= -eps) & (dxp <= d + eps) & (dyp >= -eps) & (dyp <= d + eps)
    aa, bb = np.nonzero(valid)
    lefts = xs[aa]
    tops = ys[bb]

    first_seen: dict[int, int] = {}
    n = len(pts)
    chunk = max(1, 4_000_000 // n)
    for lo in range(0, len(lefts), chunk):
        lf = lefts[lo : lo + chunk, None]
        tp = tops[lo : lo + chunk, None]
        inside = (
            (xs[None, :] >= lf - eps)
            & (xs[None, :] <= lf + d + eps)
            & (ys[None, :] >= tp - d - eps)
            & (ys[None, :] <= tp + eps)
        )
        for i, mask in enumerate(_pack_rows(inside)):
            if mask and mask not in first_seen:
                first_seen[mask] = lo + i

    out = []
    for mask in maximal_masks(first_seen):
        row = first_seen[mask]
        sel = (
            (xs >= lefts[row] - eps)
            & (xs <= lefts[row] + d + eps)
            & (ys >= tops[row] - d - eps)
            & (ys <= tops[row] + eps)
        )
        members = sorted(int(i) for i in ids[sel])
        out.append(SpatialCluster.from_members(members, members[0], ClusterKind.APPROX_SQUARE))
    out.sort(key=lambda c: c.members)
    return out


def clique_clusters(
    points: Sequence[GeoPoint],
    d: float,
    eps: float = DEFAULT_EPS,
    max_cliques: int = MAX_CLIQUES,
) -> list[SpatialCluster]:
    """Maximal cliques of the <= d proximity graph (all-pair semantics).

    Enumeration is exponential in the worst case; max_cliques aborts the
    run once the output grows past the budget.
    """
    if d <= 0:
        raise ValueError("distance threshold d must be positive")
    pts = list(points)
    if not pts:
        return []
    grid = build_grid(pts, d)
    adj: dict[int, frozenset[int]] = {}
    for p in pts:
        near = range_query_disk(grid, p, d, eps)
        adj[p.id] = frozenset(i for i in near if i != p.id)

    found: list[tuple[int, ...]] = []

    def branches(cand: set[int], done: set[int]) -> Iterator[int]:
        pivot = max(cand | done, key=lambda u: (len(cand & adj[u]), -u))
        return iter(sorted(cand - adj[pivot]))

    # Bron-Kerbosch with pivoting, depth first on an explicit stack so that
    # a dense blob cannot exhaust the interpreter's recursion limit; a frame
    # is a clique, its candidate and excluded sets, and its branches left.
    # A branch with no candidates is a leaf: maximal when nothing is excluded
    cand = set(adj)
    stack = [([], cand, set(), branches(cand, set()))]
    while stack:
        clique, cand, done, todo = stack[-1]
        for v in todo:
            sub_cand, sub_done = cand & adj[v], done & adj[v]
            cand.remove(v)
            done.add(v)
            if sub_cand:
                stack.append((clique + [v], sub_cand, sub_done, branches(sub_cand, sub_done)))
                break
            if not sub_done:
                found.append(tuple(sorted(clique + [v])))
                if len(found) > max_cliques:
                    raise CliqueBudgetExceeded(f"more than {max_cliques} maximal cliques")
        else:
            stack.pop()
    clusters = [SpatialCluster.from_members(c, c[0], ClusterKind.ALL_PAIR) for c in found]
    clusters.sort(key=lambda c: c.members)
    return clusters


def _circle_from_two(p: tuple[float, float], q: tuple[float, float]):
    cx = (p[0] + q[0]) / 2
    cy = (p[1] + q[1]) / 2
    return (cx, cy, math.hypot(p[0] - cx, p[1] - cy))


def _circumcircle(a, b, c):
    ox, oy = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2, (
        min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])
    ) / 2
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    den = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if den == 0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / den
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / den
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def _in_circle(c, p) -> bool:
    return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + 1e-12) + 1e-12


def _cross(p, q, s) -> float:
    return (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])


def min_enclosing_circle(points: Sequence[GeoPoint]) -> tuple[tuple[float, float], float]:
    """Exact smallest enclosing circle (incremental, deterministic order)."""
    if not points:
        raise EmptyInput("need at least one point")
    pts = [(p.x, p.y) for p in points]
    rnd = random.Random(0x5EED)
    rnd.shuffle(pts)
    circle = None
    for i, p in enumerate(pts):
        if not _in_circle(circle, p):
            circle = _mec_one_boundary(pts[: i + 1], p)
    return (circle[0], circle[1]), circle[2]


def _mec_one_boundary(pts, p):
    circle = (p[0], p[1], 0.0)
    for j, q in enumerate(pts):
        if not _in_circle(circle, q):
            if circle[2] == 0.0:
                circle = _circle_from_two(p, q)
            else:
                circle = _mec_two_boundary(pts[: j + 1], p, q)
    return circle


def _mec_two_boundary(pts, p, q):
    circle = _circle_from_two(p, q)
    left = None
    right = None
    for s in pts:
        if _in_circle(circle, s):
            continue
        cross = _cross(p, q, s)
        candidate = _circumcircle(p, q, s)
        if candidate is None:
            continue
        cc_cross = _cross(p, q, (candidate[0], candidate[1]))
        if cross > 0 and (left is None or cc_cross > _cross(p, q, (left[0], left[1]))):
            left = candidate
        elif cross < 0 and (right is None or cc_cross < _cross(p, q, (right[0], right[1]))):
            right = candidate
    if left is None and right is None:
        return circle
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right
