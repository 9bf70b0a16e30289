"""Decoupled detection pipeline: a social pre-filter, spatial clustering,
per-cluster social communities, then a global maximality filter.  A search
variant restricts to a query user's neighborhood first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .approx import find_gasc
from .baseline import clique_clusters
from .gsc import ComparisonStats, PruneLevel, global_spatial_clusters
from .model import Community, GeoPoint, GeoSocialNetwork, Params, SocialKind, SpatialCluster
from .social import induced_subgraph, k_core_communities, k_core_vertices, k_truss_communities
# not called here; the benchmark tracer wraps these names on this module
from .spatial_index import build_grid, range_query_disk  # noqa: F401


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
    clique_budget: int | None = None


def spatial_clusters(
    points: Sequence[GeoPoint],
    cfg: DetectionConfig,
    threads: int = 1,
    stats_out: ComparisonStats | None = None,
) -> list[SpatialCluster]:
    """Stage-1 dispatch: spatial clusters per the configured algorithm.

    stats_out receives the subset-comparison count of the exact modes.
    """
    p = cfg.params
    if cfg.spatial_algo in PRUNE_OF:
        return global_spatial_clusters(
            points, p.d, k=p.k, prune_level=PRUNE_OF[cfg.spatial_algo], eps=p.eps,
            threads=threads, stats_out=stats_out,
        )
    if cfg.spatial_algo is SpatialAlgo.APPROX:
        return find_gasc(points, p.d, k=p.k, eps=p.eps)
    return clique_clusters(points, p.d, eps=p.eps, max_cliques=cfg.clique_budget)


def detect_mccs(
    g: GeoSocialNetwork, cfg: DetectionConfig, threads: int = 1
) -> list[Community]:
    """All maximal communities satisfying both constraints.

    Every community lies in the k-core, and a k-truss community in the
    (k-1)-core (each member has k-1 neighbours in it), so the spatial
    stage runs on that core alone; the result is the same as on all of g.
    """
    params = cfg.params
    if params.social_kind is SocialKind.CORE:
        engine, pre_k = k_core_communities, params.k
    else:
        engine, pre_k = k_truss_communities, max(params.k - 1, 1)
    keep = k_core_vertices(g, pre_k)
    if len(keep) < len(g.points):
        g = g.subnetwork(keep)
    local: list[Community] = []
    for cluster in spatial_clusters(g.points, cfg, threads=threads):
        local.extend(engine(induced_subgraph(g, cluster.members), params.k))
    return find_global_mcc(local)


def find_global_mcc(local: Iterable[Community]) -> list[Community]:
    """Drop every community contained in (or equal to) another."""
    distinct: dict[tuple[int, ...], Community] = {}
    for c in local:
        distinct.setdefault(c.members, c)
    ordered = sorted(distinct.values(), key=lambda c: (-len(c.members), c.members))
    kept: list[Community] = []
    kept_sets: list[frozenset[int]] = []
    for c in ordered:
        mset = frozenset(c.members)
        if any(mset <= other for other in kept_sets):
            continue
        kept.append(c)
        kept_sets.append(mset)
    return sorted(kept, key=lambda c: c.members)


def search_mccs(
    g: GeoSocialNetwork, q: int, cfg: DetectionConfig, threads: int = 1
) -> list[Community]:
    """Communities containing the query user, within distance d of them.

    Detection runs on the closed ball of radius d around q (the test
    range_query_disk applies); its result is an antichain sorted by
    members, and so is the part of it that contains q.
    """
    params = cfg.params
    qp = g.point(q)
    reach = params.d + params.eps
    ball = [p.id for p in g.points if math.hypot(p.x - qp.x, p.y - qp.y) <= reach]
    mccs = detect_mccs(g.subnetwork(ball), cfg, threads=threads)
    return [c for c in mccs if q in c.members]
