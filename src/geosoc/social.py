"""Social-constraint engines: k-core and k-truss decomposition on induced
subgraphs, with communities as connected components of the surviving part.

Truss convention: a k-truss keeps every edge participating in at least
k - 2 triangles, so k = 2 is the trivial truss.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Protocol

from .model import Community, SocialKind, UnknownVertex


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
    return InducedSubgraph(tuple(sorted(keep)), adj)


def core_numbers(g: _HasAdjacency) -> dict[int, int]:
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


def _components(vertices: Iterable[int], adjacency: dict[int, Iterable[int]]) -> list[list[int]]:
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
    # _components never leaves the vertex set it is given
    comps = _components(k_core_vertices(g, k), g.adjacency)
    return [Community.from_members(c, k, SocialKind.CORE) for c in comps]


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def k_truss_edges(g: _HasAdjacency, k: int) -> set[tuple[int, int]]:
    """Edges of the maximal subgraph where every edge closes >= k-2 triangles.

    The peel starts from the (k-1)-core, which holds every such edge: each
    endpoint has k-1 neighbours over them.
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


def k_truss_adjacency(g: _HasAdjacency, k: int) -> dict[int, list[int]]:
    """Each endpoint of a k-truss edge, with its neighbours over those edges."""
    adj: dict[int, list[int]] = {}
    for u, v in k_truss_edges(g, k):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def k_truss_communities(g: _HasAdjacency, k: int) -> list[Community]:
    """Components over surviving truss edges; edge-less vertices drop out."""
    adj = k_truss_adjacency(g, k)
    comps = _components(adj.keys(), adj)
    return [Community.from_members(c, k, SocialKind.TRUSS) for c in comps]
