"""Benchmark harness: one subprocess per grid cell with a wall-clock cap.

Timings cover the spatial algorithm only; data generation or loading runs
before the clock starts.  A timed-out or failed cell is reported in its
CSV row and never aborts the sweep.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
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


@dataclass(frozen=True)
class RunReport:
    """A cell and what its child measured: the point count, wall seconds,
    subset comparisons (exact modes), cluster count and cell status."""

    cell: BenchCell
    n: int
    seconds: float
    comparisons: int | None
    clusters: int | None
    status: str

    def csv_row(self) -> str:
        c = self.cell
        density = "" if c.density is None else f"{c.density:g}"
        comparisons = "" if self.comparisons is None else str(self.comparisons)
        clusters = "" if self.clusters is None else str(self.clusters)
        return (
            f"{c.algo},{c.dataset},{self.n},{density},{c.d:g},{c.k},"
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
        for ratio in self.ratios:
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"sample ratio {ratio:g} is outside (0, 1]")


def _sample_ratio(points: list[GeoPoint], ratio: float, seed: int) -> list[GeoPoint]:
    if ratio == 1.0:
        return points
    rng = np.random.Generator(np.random.Philox(seed))
    m = max(1, int(round(ratio * len(points))))
    idx = rng.choice(len(points), size=m, replace=False)
    return [points[i] for i in sorted(int(i) for i in idx)]


def _cell_points(cell: BenchCell) -> list[GeoPoint]:
    if cell.locations is not None:
        return _sample_ratio(load_locations(cell.locations), cell.ratio, cell.seed)
    return generate(GenSpec(cell.n, cell.density, cell.distribution, seed=cell.seed))


def _execute(cell: BenchCell, clique_budget: int | None):
    """Measure one cell: (n, seconds, comparisons, clusters, status)."""
    points = _cell_points(cell)
    cfg = DetectionConfig(Params(cell.d, cell.k), SpatialAlgo(cell.algo), clique_budget)
    stats = ComparisonStats()
    start = time.perf_counter()
    clusters = spatial_clusters(points, cfg, stats_out=stats)
    seconds = time.perf_counter() - start
    comparisons = stats.comparisons if cfg.spatial_algo in PRUNE_OF else None
    return len(points), seconds, comparisons, len(clusters), "ok"


def _child(cell: BenchCell, clique_budget: int | None, conn) -> None:
    try:
        conn.send(_execute(cell, clique_budget))
    except CliqueBudgetExceeded:
        conn.send((cell.n, 0.0, None, None, "budget"))
    except Exception:  # noqa: BLE001 - a cell failure must not kill the sweep
        traceback.print_exc()
        conn.send((cell.n, 0.0, None, None, "error"))
    finally:
        conn.close()


def _grid(cfg: BenchConfig) -> list[BenchCell]:
    """Cells in algos x ns x densities x ratios x ds order; a location file
    has no n or density, a synthetic sweep no ratio."""
    if cfg.locations is not None:
        locations = str(cfg.locations)
        dataset = locations.rsplit("/", 1)[-1]
        ns, densities, ratios = (0,), (None,), cfg.ratios or (1.0,)
        distribution = None
    else:
        dataset = cfg.distribution.value
        ns, densities, ratios = cfg.ns, cfg.densities, (None,)
        distribution, locations = cfg.distribution, None
    return [
        BenchCell(algo, dataset, n, density, d, cfg.k, cfg.seed, distribution, ratio, locations)
        for algo, n, density, ratio, d in product(cfg.algos, ns, densities, ratios, cfg.ds)
    ]


def run_bench(cfg: BenchConfig, out_path) -> list[RunReport]:
    """Run every cell of the grid, writing one CSV row per cell."""
    reports: list[RunReport] = []
    ctx = mp.get_context("fork")
    for cell in _grid(cfg):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child, args=(cell, cfg.clique_budget, child_conn))
        proc.start()
        child_conn.close()
        if parent_conn.poll(cfg.timeout_s):
            measured = parent_conn.recv()
        else:
            proc.terminate()
            measured = (cell.n, cfg.timeout_s, None, None, "timeout")
        proc.join()
        parent_conn.close()
        reports.append(RunReport(cell, *measured))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report.csv_row() + "\n")
    return reports
