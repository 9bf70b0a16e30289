"""Social-constraint engines: k-core and k-truss decomposition on induced
subgraphs, with communities as connected components of the surviving part.

Truss convention: a k-truss keeps every edge participating in at least
k - 2 triangles, so k = 2 is the trivial truss.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .model import Community, GeoSocialNetwork, SocialKind, UnknownVertex


class _HasAdjacency(Protocol):
    adjacency: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class InducedSubgraph:
    """Vertex-induced subgraph; vertices keep their parent network ids."""

    vertices: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]


def induced_subgraph(g: _HasAdjacency, vertices: Iterable[int]) -> InducedSubgraph:
    """Subgraph on the given vertices with exactly the edges among them."""
    keep = set(vertices)
    for v in keep:
        if v not in g.adjacency:
            raise UnknownVertex(f"vertex {v} is not in the graph")
    adj = {v: tuple(u for u in g.adjacency[v] if u in keep) for v in sorted(keep)}
    return InducedSubgraph(tuple(adj), adj)


def k_core_vertices(g: _HasAdjacency, k: int) -> set[int]:
    """Vertices of the maximal subgraph with min degree >= k, by one O(n + m)
    peel: a vertex is queued once, when its degree first drops below k."""
    adjacency = g.adjacency
    degree = {v: len(ns) for v, ns in adjacency.items()}
    queue = [v for v, dv in degree.items() if dv < k]
    while queue:
        for u in adjacency[queue.pop()]:
            degree[u] -= 1
            if degree[u] == k - 1:
                queue.append(u)
    return {v for v, dv in degree.items() if dv >= k}


def components(vertices: Iterable[int], adjacency: dict[int, Iterable[int]]) -> list[list[int]]:
    """Connected components of the subgraph the vertices induce, each sorted
    and duplicate-free."""
    todo = set(vertices)
    comps: list[list[int]] = []
    for start in sorted(todo):
        if start not in todo:
            continue
        todo.discard(start)
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adjacency[v]:
                if u in todo:
                    todo.discard(u)
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def k_core_communities(g: _HasAdjacency, k: int) -> list[Community]:
    """Connected components of the maximal subgraph with min degree >= k."""
    if k < 1:
        raise ValueError("core parameter k must be >= 1")
    # components never leaves the vertex set it is given
    comps = components(k_core_vertices(g, k), g.adjacency)
    return [Community(tuple(c), k, SocialKind.CORE) for c in comps]


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def k_truss_edges(g: _HasAdjacency, k: int) -> set[tuple[int, int]]:
    """Edges of the maximal subgraph where every edge closes >= k-2 triangles.

    The peel starts from the (k-1)-core, which holds every such edge: each
    endpoint has k-1 neighbours over them.  This dict-of-sets queue peel is
    the per-cluster engine, cheap on the few vertices of a spatial cluster,
    and the reference that ``k_truss_network``'s array peel is tested
    against.
    """
    if k < 2:
        raise ValueError("truss parameter k must be >= 2")
    keep = k_core_vertices(g, k - 1)
    adj = {v: keep.intersection(g.adjacency[v]) for v in keep}
    support: dict[tuple[int, int], int] = {}
    for u, nu in adj.items():
        for v in nu:
            if u < v:
                support[(u, v)] = len(nu & adj[v])
    need = k - 2
    alive = set(support)
    queue = deque(e for e, s in support.items() if s < need)
    while queue:
        e = queue.popleft()
        if e not in alive:
            continue
        alive.discard(e)
        u, v = e
        for w in adj[u] & adj[v]:
            for f in (_edge(u, w), _edge(v, w)):
                if f in alive:
                    support[f] -= 1
                    if support[f] < need:
                        queue.append(f)
        adj[u].discard(v)
        adj[v].discard(u)
    return alive


def k_truss_network(g: GeoSocialNetwork, k: int) -> GeoSocialNetwork:
    """The network on the global k-truss: its edges, and the points with at
    least one of them, in g's point order with sorted neighbour tuples.

    The same truss as ``k_truss_edges``, peeled as whole arrays over point
    positions: the (k-1)-core's edges are (u, v) pairs with u < v in a
    degree ranking, sorted by the key u * n + v; every triangle is listed
    once, at its lowest vertex, as three edge indices, the closing edge of
    each wedge found by ``searchsorted``; then each round drops every edge
    whose support, a ``bincount`` over the live triangles, is below k - 2,
    until none drops.
    """
    if k < 2:
        raise ValueError("truss parameter k must be >= 2")
    points, adjacency, positions = g.points, g.adjacency, g.positions
    n = len(points)
    keep = list(k_core_vertices(g, k - 1))
    at = np.fromiter(map(positions.__getitem__, keep), np.int64, len(keep))
    rows = list(map(adjacency.__getitem__, keep))
    deg = np.fromiter(map(len, rows), np.int64, len(rows))
    nbr = np.fromiter(
        map(positions.__getitem__, itertools.chain.from_iterable(rows)), np.int64, int(deg.sum())
    )
    src = np.repeat(at, deg)
    kept = np.zeros(n, dtype=bool)
    kept[at] = True
    inside = kept[nbr]
    src, nbr = src[inside], nbr[inside]
    # ranking by degree bounds the wedges of a vertex by its higher-ranked
    # neighbours, so a hub does not pair all of its neighbours
    by_rank = np.argsort(np.bincount(src, minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ru, rv = rank[src], rank[nbr]
    up = ru < rv
    key = np.sort(ru[up] * n + rv[up])
    eu, ev = np.divmod(key, n)
    m = len(key)

    # the wedges at u: each out-edge of u with each later one in its row
    later = np.cumsum(np.bincount(eu, minlength=n))[eu] - np.arange(m) - 1
    first = np.repeat(np.arange(m), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    closing = ev[first] * n + ev[second]
    third = np.minimum(np.searchsorted(key, closing), m - 1)
    closed = key[third] == closing
    tri = np.stack((first[closed], second[closed], third[closed]), axis=1)

    alive = np.ones(m, dtype=bool)
    while True:
        drop = alive & (np.bincount(tri.ravel(), minlength=m) < k - 2)
        if not drop.any():
            break
        alive &= ~drop
        tri = tri[alive[tri].all(axis=1)]

    pu, pv = by_rank[eu[alive]], by_rank[ev[alive]]
    src = np.concatenate((pu, pv))
    order = np.argsort(src)
    verts, starts = np.unique(src[order], return_index=True)
    pts = tuple(map(points.__getitem__, verts.tolist()))
    ids = [p.id for p in pts]
    slot = np.empty(n, dtype=np.int64)
    slot[verts] = np.arange(len(verts))
    nbr_ids = list(map(ids.__getitem__, slot[np.concatenate((pv, pu))[order]].tolist()))
    bounds = [*starts.tolist(), len(nbr_ids)]
    adj = {v: tuple(sorted(nbr_ids[a:b])) for v, a, b in zip(ids, bounds, bounds[1:])}
    return GeoSocialNetwork(pts, adj)


def k_truss_communities(g: _HasAdjacency, k: int) -> list[Community]:
    """Components over surviving truss edges; edge-less vertices drop out."""
    adj: dict[int, list[int]] = {}
    for u, v in k_truss_edges(g, k):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comps = components(adj.keys(), adj)
    return [Community(tuple(c), k, SocialKind.TRUSS) for c in comps]
