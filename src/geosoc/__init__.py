"""Co-located community detection over geo-social networks.

Detects every maximal group of users that is both socially cohesive
(k-core or k-truss) and spatially tight (coverable by a circle of
diameter d, or by a side-d square in the sqrt(2)-approximate mode).
"""

from .approx import GascRegistry, check_global, find_gasc, iter_gasc, local_approx_clusters
from .baseline import (
    CliqueBudgetExceeded,
    EmptyInput,
    clique_clusters,
    min_enclosing_circle,
    oracle_gasc,
    oracle_gsc,
    oracle_lsc,
)
from .bench import BenchConfig, RunReport, run_bench
from .datagen import Distribution, GenSpec, InvalidSpec, attach_social_edges, generate
from .framework import (
    DetectionConfig,
    SpatialAlgo,
    detect_mccs,
    find_global_mcc,
    search_mccs,
    spatial_clusters,
)
from .gsc import (
    ComparisonStats,
    EmptyCluster,
    MissingCenterRect,
    PruneLevel,
    center_rect,
    find_gsc,
    global_spatial_clusters,
)
from .io import (
    CheckinPolicy,
    ParseError,
    load_checkins,
    load_edges,
    load_locations,
    write_communities,
    write_locations,
)
from .model import (
    DEFAULT_EPS,
    CenterRect,
    ClusterKind,
    Community,
    DuplicateId,
    GeoPoint,
    GeoSocError,
    GeoSocialNetwork,
    Params,
    SocialKind,
    SpatialCluster,
    UnknownVertex,
    build_network,
    euclidean_distance,
)
from .social import (
    InducedSubgraph,
    induced_subgraph,
    k_core_communities,
    k_truss_communities,
    k_truss_edges,
)
from .spatial_index import (
    EmptyRange,
    GridIndex,
    NonPositiveCellSize,
    build_grid,
    range_query_disk,
    range_query_rect,
)
from .sweep_exact import AngularInterval, TooFar, angular_interval, local_spatial_clusters

__version__ = "0.1.0"
