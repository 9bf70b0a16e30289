"""Benchmark harness: one subprocess per grid cell with a wall-clock cap.

Timings cover the spatial algorithm only; data generation or loading runs
before the clock starts.  A timed-out or failed cell is reported in its
CSV row and never aborts the sweep.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from itertools import product
import numpy as np

from .baseline import CliqueBudgetExceeded
from .datagen import Distribution, GenSpec, generate
from .framework import PRUNE_OF, DetectionConfig, SpatialAlgo, spatial_clusters
from .gsc import ComparisonStats
from .io import load_locations
from .model import GeoPoint, Params

CSV_HEADER = "algo,dataset,n,density,d,k,seconds,comparisons,clusters,status"


@dataclass(frozen=True)
class BenchCell:
    algo: str
    dataset: str
    n: int
    density: float | None
    d: float
    k: int
    seed: int
    distribution: Distribution | None
    ratio: float | None
    locations: str | None


@dataclass
class RunReport:
    algo: str
    dataset: str
    n: int
    density: float | None
    d: float
    k: int
    seconds: float
    comparisons: int | None
    clusters: int | None
    status: str

    def csv_row(self) -> str:
        density = "" if self.density is None else f"{self.density:g}"
        comparisons = "" if self.comparisons is None else str(self.comparisons)
        clusters = "" if self.clusters is None else str(self.clusters)
        return (
            f"{self.algo},{self.dataset},{self.n},{density},{self.d:g},{self.k},"
            f"{self.seconds:.6f},{comparisons},{clusters},{self.status}"
        )


@dataclass(frozen=True)
class BenchConfig:
    algos: tuple[str, ...]
    ds: tuple[float, ...]
    ns: tuple[int, ...] = ()
    densities: tuple[float, ...] = (0.008,)
    ratios: tuple[float, ...] = ()
    k: int = 1
    seed: int = 0
    distribution: Distribution = Distribution.UNIFORM
    locations: str | None = None
    timeout_s: float = 8000.0
    clique_budget: int | None = 5_000_000

    def __post_init__(self) -> None:
        labels = {a.value for a in SpatialAlgo}
        for algo in self.algos:
            if algo not in labels:
                raise ValueError(f"unknown algorithm label {algo!r}")
        if self.locations is None and not self.ns:
            raise ValueError("synthetic sweeps need at least one n")


def _sample_ratio(points: list[GeoPoint], ratio: float, seed: int) -> list[GeoPoint]:
    if ratio >= 1.0:
        return points
    rng = np.random.Generator(np.random.Philox(seed))
    m = max(1, int(round(ratio * len(points))))
    idx = rng.choice(len(points), size=m, replace=False)
    return [points[i] for i in sorted(int(i) for i in idx)]


def _cell_points(cell: BenchCell) -> list[GeoPoint]:
    if cell.locations is not None:
        points = load_locations(cell.locations)
        return _sample_ratio(points, cell.ratio if cell.ratio is not None else 1.0, cell.seed)
    spec = GenSpec(cell.n, cell.density, cell.distribution, seed=cell.seed)
    return generate(spec)


def _execute(cell: BenchCell, clique_budget: int | None):
    points = _cell_points(cell)
    cfg = DetectionConfig(Params(cell.d, cell.k), SpatialAlgo(cell.algo), clique_budget)
    stats = ComparisonStats()
    start = time.perf_counter()
    clusters = spatial_clusters(points, cfg, stats_out=stats)
    seconds = time.perf_counter() - start
    comparisons = stats.comparisons if cfg.spatial_algo in PRUNE_OF else None
    return seconds, len(points), len(clusters), comparisons


def _child(cell: BenchCell, clique_budget: int | None, conn) -> None:
    try:
        seconds, n, n_clusters, comparisons = _execute(cell, clique_budget)
        conn.send(("ok", seconds, n, n_clusters, comparisons))
    except CliqueBudgetExceeded as exc:
        conn.send(("budget", str(exc)))
    except Exception as exc:  # noqa: BLE001 - a cell failure must not kill the sweep
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _grid(cfg: BenchConfig) -> list[BenchCell]:
    cells = []
    if cfg.locations is not None:
        dataset = str(cfg.locations).rsplit("/", 1)[-1]
        ratios = cfg.ratios or (1.0,)
        for algo, ratio, d in product(cfg.algos, ratios, cfg.ds):
            cells.append(
                BenchCell(algo, dataset, 0, None, d, cfg.k, cfg.seed, None, ratio, str(cfg.locations))
            )
    else:
        dataset = cfg.distribution.value
        for algo, n, density, d in product(cfg.algos, cfg.ns, cfg.densities, cfg.ds):
            cells.append(
                BenchCell(algo, dataset, n, density, d, cfg.k, cfg.seed, cfg.distribution, None, None)
            )
    return cells


def run_bench(cfg: BenchConfig, out_path) -> list[RunReport]:
    """Run every cell of the grid, writing one CSV row per cell."""
    reports: list[RunReport] = []
    ctx = mp.get_context("fork")
    for cell in _grid(cfg):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child, args=(cell, cfg.clique_budget, child_conn))
        proc.start()
        child_conn.close()
        n = cell.n
        seconds = cfg.timeout_s
        comparisons: int | None = None
        clusters: int | None = None
        if parent_conn.poll(cfg.timeout_s):
            msg = parent_conn.recv()
            proc.join()
            if msg[0] == "ok":
                status = "ok"
                _, seconds, n, clusters, comparisons = msg
            else:
                status = msg[0]  # "budget" or "error"
                seconds = 0.0
        else:
            proc.terminate()
            proc.join()
            status = "timeout"
        parent_conn.close()
        reports.append(
            RunReport(
                cell.algo,
                cell.dataset,
                n,
                cell.density,
                cell.d,
                cell.k,
                seconds,
                comparisons,
                clusters,
                status,
            )
        )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
    return reports
