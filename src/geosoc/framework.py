"""Decoupled detection pipeline: a social pre-filter, spatial clustering,
per-cluster social communities, then a global maximality filter.  A search
variant restricts to a query user's neighborhood first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .approx import find_gasc
from .baseline import clique_clusters
from .gsc import ComparisonStats, PruneLevel, global_spatial_clusters
from .model import Community, GeoPoint, GeoSocialNetwork, Params, SocialKind, SpatialCluster
from .social import (
    induced_subgraph,
    k_core_communities,
    k_core_vertices,
    k_truss_communities,
    k_truss_network,
)
from .spatial_index import build_grid, range_query_disk


class SpatialAlgo(enum.Enum):
    EXACT = "exact"
    EXACT_RULE1 = "exact-r1"
    EXACT_RULE12 = "exact-r12"
    APPROX = "approx"
    CLIQUE_BASELINE = "clique"


#: prune level of each exact spatial mode
PRUNE_OF = {
    SpatialAlgo.EXACT: PruneLevel.NONE,
    SpatialAlgo.EXACT_RULE1: PruneLevel.RULE1,
    SpatialAlgo.EXACT_RULE12: PruneLevel.RULE1_2,
}

#: distance guarantee carried by each spatial mode's output
BOUND_OF = {
    SpatialAlgo.EXACT: "exact",
    SpatialAlgo.EXACT_RULE1: "exact",
    SpatialAlgo.EXACT_RULE12: "exact",
    SpatialAlgo.APPROX: "sqrt2",
    SpatialAlgo.CLIQUE_BASELINE: "all_pair",
}


@dataclass(frozen=True)
class DetectionConfig:
    params: Params
    spatial_algo: SpatialAlgo = SpatialAlgo.EXACT_RULE12


def spatial_clusters(
    points: Sequence[GeoPoint],
    cfg: DetectionConfig,
    stats_out: ComparisonStats | None = None,
) -> list[SpatialCluster]:
    """Stage-1 dispatch: spatial clusters per the configured algorithm.

    stats_out receives the subset-comparison count of the exact modes.
    """
    p = cfg.params
    if cfg.spatial_algo in PRUNE_OF:
        return global_spatial_clusters(
            points, p.d, k=p.k, prune_level=PRUNE_OF[cfg.spatial_algo], stats_out=stats_out,
        )
    if cfg.spatial_algo is SpatialAlgo.APPROX:
        return find_gasc(points, p.d, k=p.k)
    return clique_clusters(points, p.d)


def detect_mccs(g: GeoSocialNetwork, cfg: DetectionConfig) -> list[Community]:
    """All maximal communities satisfying both constraints.

    The spatial stage runs on a social pre-filter of g: the k-core's
    points for a core query; for a truss query, the endpoints of the
    global k-truss edges with those edges only, peeled as whole arrays
    over one list of g's triangles (``k_truss_network``).  Every community
    lies in the k-core, and every truss community is spanned by global
    truss edges; the per-cluster engines are the dict peels of ``social``,
    on subgraphs induced in g or in that truss network.  The truss of a
    vertex set C is the same in g[C] as in the global truss restricted to
    C, and every spatial mode is hereditary, so the result is the same as
    on all of g.
    """
    params = cfg.params
    if params.social_kind is SocialKind.CORE:
        engine = k_core_communities
        keep = k_core_vertices(g, params.k)
        points = [p for p in g.points if p.id in keep]
    else:
        engine = k_truss_communities
        g = k_truss_network(g, params.k)
        points = g.points
    local: list[Community] = []
    for cluster in spatial_clusters(points, cfg):
        local.extend(engine(induced_subgraph(g, cluster.members), params.k))
    return find_global_mcc(local)


_NONE: frozenset[int] = frozenset()


def find_global_mcc(local: Iterable[Community]) -> list[Community]:
    """Drop every community contained in (or equal to) another.

    Communities are taken largest first, so any container of c is kept
    before c; c is dropped exactly when the kept communities holding each
    of its members have one in common.  Of equal member sets the first
    seen is the one kept.
    """
    distinct: dict[tuple[int, ...], Community] = {}
    for c in local:
        distinct.setdefault(c.members, c)
    ordered = sorted(distinct.values(), key=lambda c: (-len(c.members), c.members))
    kept: list[Community] = []
    holders: dict[int, set[int]] = {}  # member id -> positions in kept
    for c in ordered:
        first, *rest = c.members
        common = holders.get(first, _NONE)
        for v in rest:
            if not common:
                break
            common = common & holders.get(v, _NONE)
        if common:
            continue
        for v in c.members:
            holders.setdefault(v, set()).add(len(kept))
        kept.append(c)
    return sorted(kept, key=lambda c: c.members)


def search_mccs(g: GeoSocialNetwork, q: int, cfg: DetectionConfig) -> list[Community]:
    """Communities containing the query user, within distance d of them.

    Detection runs on the closed ball of radius d around q, read from a
    grid of cell size d that the network keeps from the last search; its
    result is an antichain sorted by members, and so is the part of it
    that contains q.
    """
    params = cfg.params
    qp = g.point(q)
    grid = g.grids.get(params.d)
    if grid is None:
        g.grids.clear()
        grid = g.grids[params.d] = build_grid(g.points, params.d)
    ball = range_query_disk(grid, qp, params.d)
    mccs = detect_mccs(g.subnetwork(ball), cfg)
    return [c for c in mccs if q in c.members]
