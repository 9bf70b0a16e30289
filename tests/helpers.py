"""Shared test utilities: independent brute-force references and fixtures.

The brute-force routines here deliberately avoid the package's sweep and
peeling code paths so they can certify them.
"""

from __future__ import annotations

import heapq
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

from geosoc.baseline import maximal_masks, oracle_gsc
from geosoc.datagen import Distribution, GenSpec, attach_social_edges, generate
from geosoc.framework import DetectionConfig, spatial_clusters
from geosoc.model import (
    DEFAULT_EPS,
    GeoPoint,
    GeoSocialNetwork,
    SocialKind,
    build_network,
)
from geosoc.social import induced_subgraph, k_core_communities, k_truss_communities
from geosoc.sweep_exact import TAU
from reference import AngularInterval, CenterRect, angular_interval


SRC = Path(__file__).resolve().parent.parent / "src"


def run_geosoc(*args) -> subprocess.CompletedProcess:
    """``python -m geosoc`` on this checkout's sources, whatever is installed."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "geosoc", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def families(items) -> set[tuple[int, ...]]:
    return {c.members for c in items}


def naive_disk(points, center, radius, eps=1e-9) -> list[int]:
    out = [p.id for p in points if math.hypot(p.x - center.x, p.y - center.y) <= radius + eps]
    return sorted(out)


def naive_rect(points, x_lo, x_hi, y_lo, y_hi, eps=1e-9) -> list[int]:
    out = [
        p.id
        for p in points
        if x_lo - eps <= p.x <= x_hi + eps and y_lo - eps <= p.y <= y_hi + eps
    ]
    return sorted(out)


def rects_intersect(a: CenterRect, b: CenterRect, eps: float = DEFAULT_EPS) -> bool:
    """Closed rectangle overlap with eps slack."""
    return (
        a.x_lo <= b.x_hi + eps
        and b.x_lo <= a.x_hi + eps
        and a.y_lo <= b.y_hi + eps
        and b.y_lo <= a.y_hi + eps
    )


def circle_center(v: GeoPoint, r: float, theta: float) -> tuple[float, float]:
    """Center of the covering circle through v at rotation angle theta."""
    return (v.x + r * math.cos(theta), v.y + r * math.sin(theta))


def window_contains(w: AngularInterval, theta: float, tol: float = 1e-12) -> bool:
    """Closed membership of an angle in a window, modulo full turns."""
    if w.full_circle:
        return True
    for t in (theta - TAU, theta, theta + TAU):
        if w.start - tol <= t <= w.end + tol:
            return True
    return False


def witness_angle(v: GeoPoint, members, r: float, eps: float = DEFAULT_EPS) -> float | None:
    """Some rotation angle whose circle covers all members, if one exists.

    If a common angle exists, the boundary of the common arc is a window
    endpoint, so checking endpoints only is sufficient.
    """
    windows = [angular_interval(v, u, r, eps) for u in members if u.id != v.id]
    windows = [w for w in windows if not w.full_circle]
    if not windows:
        return 0.0
    for w in windows:
        for theta in (w.start, w.end):
            if all(window_contains(x, theta) for x in windows):
                return theta
    return None


def random_points(seed, n, density=0.008, gaussian=False) -> list[GeoPoint]:
    dist = Distribution.GAUSSIAN if gaussian else Distribution.UNIFORM
    return generate(GenSpec(n=n, density=density, distribution=dist, seed=seed))


def random_network(seed, n, density=0.008, m_nearest=3, n_random=None) -> GeoSocialNetwork:
    points = random_points(seed, n, density, gaussian=bool(seed % 2))
    if n_random is None:
        n_random = n // 4
    edges = attach_social_edges(points, m_nearest=m_nearest, n_random=n_random, seed=seed)
    return build_network(points, edges)


def core_numbers(g) -> dict[int, int]:
    """Largest k such that each vertex survives min-degree-k peeling."""
    adjacency = g.adjacency
    degree = {v: len(ns) for v, ns in adjacency.items()}
    heap = [(dv, v) for v, dv in degree.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    level = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if v in core or degree[v] != dv:
            continue
        level = max(level, dv)
        core[v] = level
        for u in adjacency[v]:
            if u not in core:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return core


def brute_core_family(adjacency: dict[int, list[int]], k: int) -> set[tuple[int, ...]]:
    """Maximal connected vertex sets with induced min degree >= k.

    Exhaustive over all vertex subsets; usable up to ~16 vertices.
    """
    ids = sorted(adjacency)
    n = len(ids)
    pos = {v: i for i, v in enumerate(ids)}
    nbr = [0] * n
    for v, ns in adjacency.items():
        for u in ns:
            if u in pos:
                nbr[pos[v]] |= 1 << pos[u]
    good: list[int] = []
    for mask in range(1, 1 << n):
        ok = True
        probe = mask
        while probe:
            low = probe & -probe
            i = low.bit_length() - 1
            if (nbr[i] & mask).bit_count() < k:
                ok = False
                break
            probe ^= low
        if not ok:
            continue
        seed_bit = mask & -mask
        reached = seed_bit
        frontier = seed_bit
        while frontier:
            nxt = 0
            probe = frontier
            while probe:
                low = probe & -probe
                nxt |= nbr[low.bit_length() - 1] & mask
                probe ^= low
            frontier = nxt & ~reached
            reached |= frontier
        if reached == mask:
            good.append(mask)
    maximal = [m for m in good if not any(m != o and m & o == m for o in good)]
    out = set()
    for m in maximal:
        out.add(tuple(ids[i] for i in range(n) if m >> i & 1))
    return out


def brute_mcc_family(g: GeoSocialNetwork, d: float, k: int, eps=1e-9) -> set[tuple[int, ...]]:
    """End-to-end reference: candidate-circle clusters, exhaustive social
    subsets per cluster, then a subset filter."""
    locals_: set[tuple[int, ...]] = set()
    for cluster in oracle_gsc(g.points, d, eps):
        inside = set(cluster.members)
        adj = {v: [u for u in g.adjacency[v] if u in inside] for v in cluster.members}
        locals_ |= brute_core_family(adj, k)
    return maximal_sets(locals_)


def maximal_sets(sets: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The member tuples not strictly contained in another one."""
    bit = {pid: 1 << i for i, pid in enumerate(sorted({pid for m in sets for pid in m}))}
    by_mask = {sum(map(bit.__getitem__, m)): m for m in sets}
    return {by_mask[mask] for mask in maximal_masks(by_mask)}


def unfiltered_mcc_family(g: GeoSocialNetwork, cfg: DetectionConfig) -> set[tuple[int, ...]]:
    """Detection without the social pre-filter: the engine on every spatial
    cluster of the whole network, then the subset filter."""
    p = cfg.params
    engine = k_core_communities if p.social_kind is SocialKind.CORE else k_truss_communities
    locals_: set[tuple[int, ...]] = set()
    for cluster in spatial_clusters(g.points, cfg):
        locals_ |= families(engine(induced_subgraph(g, cluster.members), p.k))
    return maximal_sets(locals_)


def connected_components(adjacency: dict[int, list[int]], vertices) -> list[list[int]]:
    todo = set(vertices)
    comps = []
    for s in sorted(todo):
        if s not in todo:
            continue
        todo.discard(s)
        comp, queue = [s], deque([s])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if u in todo:
                    todo.discard(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


# A 12-vertex network with two socially tight groups (one 4-cycle, one K4),
# a path and a pendant that never survive min-degree-2 peeling, and a
# geometry that yields overlapping spatial groups around the K4 so a
# strict-subset community appears before the global filter.
EXAMPLE_COORDS = {
    0: (0.0, 0.0),   # a
    1: (2.0, 0.0),   # b
    2: (0.0, 2.0),   # c
    3: (2.0, 2.0),   # d
    4: (8.0, 0.0),   # e
    5: (10.0, 0.0),  # f
    6: (8.0, 2.0),   # g
    7: (23.8, 1.0),  # h
    8: (20.0, 0.0),  # i
    9: (22.0, 0.0),  # j
    10: (20.0, 2.0),  # k
    11: (22.0, 2.0),  # l
}

EXAMPLE_EDGES = [
    (0, 1), (1, 3), (3, 2), (2, 0),                      # 4-cycle a-b-d-c
    (8, 9), (8, 10), (8, 11), (9, 10), (9, 11), (10, 11),  # K4 on i,j,k,l
    (4, 5), (5, 6),                                       # path e-f-g
    (7, 10),                                              # pendant h-k
]

EXAMPLE_D = 4.0


def example_network() -> GeoSocialNetwork:
    points = [GeoPoint(i, *EXAMPLE_COORDS[i]) for i in sorted(EXAMPLE_COORDS)]
    return build_network(points, EXAMPLE_EDGES)
