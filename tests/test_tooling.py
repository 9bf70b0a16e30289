"""The benchmark's tracer wraps package functions by module attribute;
a call site it names must exist, and stay on the path a run takes, or
traced runs break."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the benchmark's modules import each other as top-level names, as
# perfbench/run.py arranges; a fresh interpreter keeps them apart from
# the tests' own modules
PRELUDE = "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\nimport workloads\n"


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_call_sites_exist():
    assert int(_run("print(len(workloads._tracer()._patches))\n")) > 0


def test_tracer_hooks_fire_on_detect_and_search():
    # a signature change that breaks a wrapped call or a count hook fails
    # here, not only in a traced benchmark run
    code = (
        "import json\n"
        "from geosoc import framework\n"
        "from geosoc.datagen import GenSpec, attach_social_edges, generate\n"
        "from geosoc.framework import DetectionConfig, SpatialAlgo\n"
        "from geosoc.model import Params, SocialKind, build_network\n"
        "pts = generate(GenSpec(n=300, density=0.008, seed=3))\n"
        "g = build_network(pts, attach_social_edges(pts, m_nearest=3, n_random=75, seed=3))\n"
        "exact = DetectionConfig(Params(30.0, 3, SocialKind.TRUSS), SpatialAlgo.EXACT_RULE12)\n"
        "approx = DetectionConfig(Params(30.0, 2, SocialKind.CORE), SpatialAlgo.APPROX)\n"
        "tracer = workloads._tracer()\n"
        "with tracer.installed():\n"
        "    framework.detect_mccs(g, exact)\n"
        "    framework.detect_mccs(g, approx)\n"
        "    framework.search_mccs(g, pts[0].id, exact)\n"
        "print(json.dumps({'spans': sorted(set(tracer.names)), 'counts': dict(tracer.counts)}))\n"
    )
    out = json.loads(_run(code))
    assert {
        "gsc.find_gsc",
        "gsc.center_rect",
        "sweep_exact.local_member_families",
        "approx.find_gasc",
        "spatial_index.range_query_rect",
        "social.k_truss_communities",
        "social.k_core_communities",
        "framework.find_global_mcc",
        "framework.search_mccs",
    } <= set(out["spans"])
    assert out["counts"]["gsc.comparisons"] > 0


def test_bench_pairs_prints_its_usage():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--help"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bench_pairs.py")
    for option in ("--parent", "--change", "--workload", "--pairs", "--label"):
        assert option in proc.stdout
