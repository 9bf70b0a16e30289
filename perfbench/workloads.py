"""The three benchmark workloads: input generation, the timed loop, the
output checks and the traced run.

Every call into the package uses its defaults (no threads, no
precluster) and goes through a module attribute, so the tracer's
call-site wrappers see it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geosoc import baseline, framework, gsc, model
from geosoc import approx as approx_mod
from geosoc import io as gio
from geosoc.datagen import Distribution
from geosoc.framework import DetectionConfig, SpatialAlgo
from geosoc.model import Params, SocialKind

from checks import check_communities, member_digest
from inputs import core_histogram, make_inputs
from trace import Tracer

D = 30.0
DENSITY = 0.008
SETUP_REPEATS = 9
QUERY_BATCH = 100  # search-exact: run_s is the median time of this many queries
HERE = Path(__file__).resolve().parent

# counts that must repeat exactly for one seed and one program version
FINGERPRINT = (
    "sweep_exact.local_clusters",
    "gsc.comparisons",
    "gsc.global_clusters",
    "social.calls",
    "framework.communities",
    "approx.clusters",
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    distribution: Distribution
    wiring: str  # "nearest3": attach_social_edges(m_nearest=3); "zipf": heavy-tailed
    algo: SpatialAlgo
    social: SocialKind
    k: int
    queries: int = 0  # > 0: closed-loop search_mccs over this many query users

    @property
    def search(self) -> bool:
        return self.queries > 0

    def config(self) -> DetectionConfig:
        return DetectionConfig(Params(D, self.k, self.social), self.algo)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-exact", 20_000, Distribution.UNIFORM, "nearest3",
                 SpatialAlgo.EXACT_RULE12, SocialKind.TRUSS, 4),
        Workload("detect-social", 10_000, Distribution.GAUSSIAN, "zipf",
                 SpatialAlgo.APPROX, SocialKind.CORE, 4),
        Workload("search-exact", 20_000, Distribution.UNIFORM, "nearest3",
                 SpatialAlgo.EXACT_RULE12, SocialKind.CORE, 3, queries=1_000),
    )
}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _tail_latency(values: list[float]) -> float:
    """The 99th percentile (nearest rank), or with fewer than 1 000 samples the
    highest percentile that still has ten samples beyond it, never below the
    median: one slow sample out of three is noise, not a tail."""
    q = 1.0 - 10 / len(values)
    if q <= 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[math.ceil(min(q, 0.99) * len(ordered)) - 1]


def _ingest(inp) -> model.GeoSocialNetwork:
    return model.build_network(gio.load_locations(inp.locations), gio.load_edges(inp.edges))


def _detect_once(g, cfg: DetectionConfig, out_path: Path):
    communities = framework.detect_mccs(g, cfg)
    gio.write_communities(communities, g.point_map, {"algo": cfg.spatial_algo.value, "d": D}, out_path)
    return communities


def _source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "geosoc").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _pinned_digest(name: str, seed: int) -> str | None:
    pins = json.loads((HERE / "pinned.json").read_text())
    return pins["member_digest"][name] if seed == pins["seed"] else None


class Run:
    """One workload run: the inputs, the operation log and its checks."""

    def __init__(self, wl: Workload, seed: int, root: Path):
        self.wl = wl
        self.seed = seed
        self.root = root
        self.work = root / ".perfbench_out" / f"{wl.name}-seed{seed}"
        self.inp = make_inputs(self.work, wl.n, DENSITY, wl.distribution, wl.wiring, seed)
        self.coords = dict(zip(self.inp.ids.tolist(), zip(self.inp.xs.tolist(), self.inp.ys.tolist())))
        self.cfg = wl.config()
        # a side-d square has diameter sqrt(2) * d
        self.max_diameter = math.sqrt(2) * D if wl.algo is SpatialAlgo.APPROX else D
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, str] = {}  # operation slot -> digest of its first run
        self.queries: list[int] = []
        if wl.search:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0x5EA2C4])))
            self.queries = [int(self.inp.ids[i]) for i in rng.choice(wl.n, wl.queries, replace=False)]

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def record(self, slot: int, member_lists, query: int | None = None, written: Path | None = None) -> None:
        """Check one operation's output and count it as attempted / failed."""
        self.attempted += 1
        problems = check_communities(
            member_lists, self.coords, self.inp.adjacency, self.max_diameter,
            self.wl.social.value, self.wl.k, query,
        )
        if written is not None:
            with open(written, encoding="utf-8") as fh:
                if sum(1 for _ in fh) != len(member_lists):
                    problems.append(f"{written.name} does not hold one line per community")
        digest = member_digest(member_lists)
        expected = self.first_digest.setdefault(slot, digest)
        if digest != expected:
            problems.append(f"operation {slot}: member digest {digest[:12]} != first run {expected[:12]}")
        if problems:
            self.failed += 1
            for p in problems:
                self.note(p)

    def fail_op(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.note(f"{type(exc).__name__}: {exc}")
        traceback.print_exception(exc)

    def run_digest(self) -> str:
        """Digest of the whole first pass: one op, or every query in order."""
        if not self.wl.search:
            return self.first_digest.get(0, "")
        joined = "\n".join(self.first_digest.get(i, "") for i in range(len(self.queries)))
        return hashlib.sha256(joined.encode()).hexdigest()

    # -- timed loops -------------------------------------------------------

    def setup(self) -> tuple[model.GeoSocialNetwork, list[float]]:
        times = []
        g = None
        for _ in range(SETUP_REPEATS):
            g = None
            gc.collect()  # free the previous network outside the timed region
            t0 = time.perf_counter()
            g = _ingest(self.inp)
            times.append(time.perf_counter() - t0)
        return g, times

    def detect_loop(self, g, seconds: float) -> tuple[list[float], list[float]]:
        """Repeat detect + write while the next repeat fits in the budget."""
        out = self.work / "communities.jsonl"
        times: list[float] = []
        cpus: list[float] = []
        start = time.perf_counter()
        while True:
            communities = None
            gc.collect()
            c0 = _cpu()
            t0 = time.perf_counter()
            try:
                communities = _detect_once(g, self.cfg, out)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                self.fail_op(exc)
                break
            times.append(time.perf_counter() - t0)
            cpus.append(_cpu() - c0)
            self.record(0, [c.members for c in communities], written=out)
            if time.perf_counter() - start + statistics.median(times) > seconds:
                break
        return times, cpus

    def search_loop(self, g, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """Closed loop: one client, the next query after the previous returns.

        Always completes one full pass over the query users, then goes on
        batch by batch while the next batch fits in the budget.
        """
        latencies: list[float] = []
        batch_times: list[float] = []
        batch_cpus: list[float] = []
        nq = len(self.queries)
        i = 0
        start = time.perf_counter()
        while True:
            gc.collect()
            results = []
            c0 = _cpu()
            b0 = time.perf_counter()
            for _ in range(QUERY_BATCH):
                q = self.queries[i % nq]
                t0 = time.perf_counter()
                try:
                    res = framework.search_mccs(g, q, self.cfg)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                    res = exc
                latencies.append(time.perf_counter() - t0)
                results.append((i % nq, q, res))
                i += 1
            batch_times.append(time.perf_counter() - b0)
            batch_cpus.append(_cpu() - c0)
            for slot, q, res in results:
                if isinstance(res, Exception):
                    self.fail_op(res)
                else:
                    self.record(slot, [c.members for c in res], query=q)
            elapsed = time.perf_counter() - start
            if i >= nq and elapsed + statistics.median(batch_times) > seconds:
                return latencies, batch_times, batch_cpus

    def verify_pinned(self) -> None:
        """Every operation fails when the output differs from the pinned one:
        each later run was only compared with the first."""
        pinned = _pinned_digest(self.wl.name, self.seed)
        if pinned is not None and self.run_digest() != pinned:
            self.failed = self.attempted
            self.note(f"member digest {self.run_digest()[:12]} != pinned {pinned[:12]} for seed {self.seed}")


# -- tracing -----------------------------------------------------------------


def _count_len(key: str):
    def hook(counts, args, kwargs, result):
        counts[key] += len(result)
    return hook


def _count_grid(counts, args, kwargs, result):
    counts["spatial_index.points_indexed"] += result.n_points


def _count_comparisons(counts, args, kwargs, result):
    counts["gsc.comparisons"] += result[1].comparisons


def _count_engine(min_size_of):
    def hook(counts, args, kwargs, result):
        sub, k = args[0], args[1]
        counts["social.calls"] += 1
        counts["social.calls_below_min_size"] += len(sub.vertices) < min_size_of(k)
        counts["social.useful_calls"] += bool(result)
        counts["social.local_communities"] += len(result)
    return hook


def _materialize_mcc_input(original, counts):
    def filter_maximal(local):
        local = list(local)
        counts["framework.mcc_in"] += len(local)
        return original(local)
    return filter_maximal


def _tracer() -> Tracer:
    """Wrap the package's functions at the call sites the package uses."""
    t = Tracer()
    in_reach = _count_len("spatial_index.in_reach_pairs")
    t.add(gio, "load_locations", "io.load_locations")
    t.add(gio, "load_edges", "io.load_edges")
    t.add(model, "build_network", "model.build_network")
    t.add(model.GeoSocialNetwork, "subnetwork", "model.subnetwork")
    t.add(framework, "detect_mccs", "framework.detect_mccs")
    t.add(framework, "search_mccs", "framework.search_mccs")
    t.add(framework, "spatial_clusters", "framework.spatial_clusters")
    t.add(framework, "build_grid", "spatial_index.build_grid", _count_grid)
    t.add(framework, "range_query_disk", "spatial_index.range_query_disk", in_reach)
    t.add(framework, "global_spatial_clusters", "gsc.global_spatial_clusters",
          _count_len("gsc.global_clusters"))
    t.add(gsc, "build_grid", "spatial_index.build_grid", _count_grid)
    t.add(gsc, "range_query_disk", "spatial_index.range_query_disk", in_reach)
    t.add(gsc, "local_member_families", "sweep_exact.local_member_families",
          _count_len("sweep_exact.local_clusters"))
    t.add(gsc, "center_rect", "gsc.center_rect")
    t.add(gsc, "find_gsc", "gsc.find_gsc", _count_comparisons)
    t.add(framework, "find_gasc", "approx.find_gasc", _count_len("approx.clusters"))
    t.add(approx_mod, "build_grid", "spatial_index.build_grid", _count_grid)
    t.add(approx_mod, "range_query_rect", "spatial_index.range_query_rect")
    t.add(framework, "induced_subgraph", "social.induced_subgraph")
    t.add(framework, "k_core_communities", "social.k_core_communities",
          _count_engine(lambda k: k + 1))
    t.add(framework, "k_truss_communities", "social.k_truss_communities",
          _count_engine(lambda k: k))
    t.add(framework, "find_global_mcc", "framework.find_global_mcc", adapt=_materialize_mcc_input)
    t.add(gio, "write_communities", "io.write_communities")
    t.add(gio, "min_enclosing_circle", "baseline.min_enclosing_circle")
    t.add(baseline, "clique_clusters", "baseline.clique_clusters")
    return t


def _expected_spans(wl: Workload) -> set[str]:
    spans = {
        "io.load_locations", "io.load_edges", "model.build_network",
        "framework.detect_mccs", "framework.spatial_clusters", "spatial_index.build_grid",
        "social.induced_subgraph", "framework.find_global_mcc",
        "social.k_core_communities" if wl.social is SocialKind.CORE else "social.k_truss_communities",
    }
    if wl.algo is SpatialAlgo.APPROX:
        spans |= {"approx.find_gasc", "spatial_index.range_query_rect"}
    else:
        spans |= {
            "gsc.global_spatial_clusters", "spatial_index.range_query_disk",
            "sweep_exact.local_member_families", "gsc.center_rect", "gsc.find_gsc",
        }
    if wl.search:
        spans |= {"framework.search_mccs", "model.subnetwork"}
    else:
        spans |= {"io.write_communities", "baseline.min_enclosing_circle"}
    if wl.name == "detect-exact":
        spans.add("baseline.clique_clusters")
    return spans


def _layer_metrics(busy, own, calls, counts) -> dict[str, float]:
    def b(name):
        return busy.get(name, 0.0)

    def s(name):
        return own.get(name, 0.0)

    local = counts["sweep_exact.local_clusters"]
    engine_calls = counts["social.calls"]
    return {
        "spatial_index.build_grid_s": b("spatial_index.build_grid"),
        "spatial_index.build_grid_calls": calls["spatial_index.build_grid"],
        "spatial_index.points_indexed": counts["spatial_index.points_indexed"],
        "spatial_index.range_disk_s": b("spatial_index.range_query_disk"),
        "spatial_index.range_disk_calls": calls["spatial_index.range_query_disk"],
        "spatial_index.in_reach_pairs": counts["spatial_index.in_reach_pairs"],
        "spatial_index.range_rect_s": b("spatial_index.range_query_rect"),
        "sweep_exact.sweep_s": b("sweep_exact.local_member_families"),
        "sweep_exact.sweep_calls": calls["sweep_exact.local_member_families"],
        "sweep_exact.local_clusters": local,
        "gsc.center_rect_s": b("gsc.center_rect"),
        "gsc.center_rect_calls": calls["gsc.center_rect"],
        "gsc.find_gsc_s": b("gsc.find_gsc"),
        "gsc.comparisons": counts["gsc.comparisons"],
        "gsc.global_clusters": counts["gsc.global_clusters"],
        "gsc.keep_ratio": counts["gsc.global_clusters"] / local if local else 0.0,
        "gsc.self_s": s("gsc.global_spatial_clusters"),
        "approx.find_gasc_s": b("approx.find_gasc"),
        "approx.self_s": s("approx.find_gasc"),
        "approx.clusters": counts["approx.clusters"],
        "social.induce_s": b("social.induced_subgraph"),
        "social.engine_s": b("social.k_core_communities") + b("social.k_truss_communities"),
        "social.calls": engine_calls,
        "social.calls_below_min_size": counts["social.calls_below_min_size"],
        "social.useful_calls": counts["social.useful_calls"],
        "social.useful_ratio": counts["social.useful_calls"] / engine_calls if engine_calls else 0.0,
        "social.local_communities": counts["social.local_communities"],
        "framework.spatial_s": b("framework.spatial_clusters"),
        "framework.mcc_s": b("framework.find_global_mcc"),
        "framework.mcc_in": counts["framework.mcc_in"],
        "framework.communities": counts["framework.communities"],
        "framework.self_s": s("framework.detect_mccs") + s("framework.search_mccs")
        + s("framework.spatial_clusters"),
        "model.subnetwork_s": b("model.subnetwork"),
        "io.write_s": b("io.write_communities"),
        "io.write_self_s": s("io.write_communities"),
        "baseline.mec_s": b("baseline.min_enclosing_circle"),
        "baseline.mec_calls": calls["baseline.min_enclosing_circle"],
    }


def traced_run(run: Run, untraced_run_s: float, untraced_cpu_s: float) -> tuple[dict[str, float], dict]:
    """One traced setup and one traced run; returns per-layer metrics.

    On search-exact the traced run is one pass over every query user, and
    the untraced figures it is compared with are those of the first pass.
    """
    wl = run.wl
    tracer = _tracer()
    communities_out = 0
    with tracer.installed():
        g = tracer.call("bench.setup", _ingest, run.inp)
        setup_end = len(tracer.names)
        if wl.search:
            for slot, q in enumerate(run.queries):
                res = tracer.call("bench.query", framework.search_mccs, g, q, run.cfg)
                communities_out += len(res)
                run.record(slot, [c.members for c in res], query=q)
        else:
            out = run.work / "communities.traced.jsonl"
            res = tracer.call("bench.run", _detect_once, g, run.cfg, out)
            communities_out = len(res)
            run.record(0, [c.members for c in res], written=out)
        run_end = len(tracer.names)
        if wl.name == "detect-exact":
            baseline.clique_clusters(g.points, D)

    setup_busy, _ = tracer.layer_times(0, setup_end)
    busy, own = tracer.layer_times(setup_end, run_end)
    clique_busy, _ = tracer.layer_times(run_end, len(tracer.names))
    calls = Counter(tracer.names[setup_end:run_end])
    counts = tracer.counts
    counts["framework.communities"] = communities_out

    missing = sorted(_expected_spans(wl) - set(tracer.names))
    if missing:
        raise RuntimeError(
            f"expected spans never fired: {', '.join(missing)}; a call site the "
            "tracer wraps is no longer used, so the layer metrics would be wrong"
        )

    root = "bench.query" if wl.search else "bench.run"
    traced_run_s = busy[root]
    metrics = {
        "io.load_s": setup_busy["io.load_locations"] + setup_busy["io.load_edges"],
        "model.build_network_s": setup_busy["model.build_network"],
        **_layer_metrics(busy, own, calls, counts),
        "process.run_cpu_s": untraced_cpu_s,
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.unattributed_s": own[root],
    }
    clique_s = clique_busy.get("baseline.clique_clusters", 0.0)
    metrics["baseline.clique_s"] = clique_s
    metrics["baseline.exact_to_clique_ratio"] = metrics["framework.spatial_s"] / clique_s if clique_s else 0.0

    fingerprint = {key: counts[key] for key in FINGERPRINT}
    cache = run.root / ".perfbench_out" / "counts" / f"{wl.name}-seed{run.seed}-{_source_hash(run.root)}.json"
    if cache.exists():
        earlier = json.loads(cache.read_text())
        if earlier != fingerprint:
            run.failed += 1
            run.note(f"counts differ from an earlier traced run of this seed: {earlier} vs {fingerprint}")
    else:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(fingerprint, sort_keys=True))
    tracer.write(run.work / "spans.tsv")
    return metrics, fingerprint


# -- entry ---------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; metrics are end-to-end ones, or per-layer with trace."""
    wl = WORKLOADS[name]
    run = Run(wl, seed, root)
    g, setup_times = run.setup()
    if wl.search:
        latencies, unit_times, unit_cpus = run.search_loop(g, seconds)
        first_pass_s = sum(latencies[: len(run.queries)])
        first_pass_cpu = sum(unit_cpus[: len(run.queries) // QUERY_BATCH])
    else:
        unit_times, unit_cpus = run.detect_loop(g, seconds)
        latencies = unit_times
    if not unit_times:
        raise RuntimeError(f"{name}: the first operation raised; see the traceback above")
    run_s = statistics.median(unit_times)

    hist = core_histogram(run.inp.adjacency)
    # a core community lies in the k-core, a truss community in the (k-1)-core
    min_core = wl.k if wl.social is SocialKind.CORE else wl.k - 1
    detail: dict = {
        "workload": name,
        "seed": seed,
        "member_digest": run.run_digest(),
        "samples": {"setup_s": len(setup_times), "run_s": len(unit_times), "query_ms": len(latencies)},
        "setup_times_s": [round(t, 4) for t in setup_times],
        "run_times_s": [round(t, 4) for t in unit_times],
        "core_histogram": hist,
        "core_share": {"min_core": min_core, "share": sum(c for core, c in hist.items() if core >= min_core) / wl.n},
    }

    if trace:
        if wl.search:
            metrics, fingerprint = traced_run(run, first_pass_s, first_pass_cpu)
        else:
            metrics, fingerprint = traced_run(run, run_s, statistics.median(unit_cpus))
        detail["fingerprint"] = fingerprint
    else:
        ms = [t * 1e3 for t in latencies]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "query_p50_ms": statistics.median(ms),
            "query_p99_ms": _tail_latency(ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    run.verify_pinned()
    detail["fail_ratio"] = run.failed / run.attempted if run.attempted else 1.0
    detail["problems"] = run.problems
    return {
        "detail": detail,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
