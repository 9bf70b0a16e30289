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


def _run(code: str, *args) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, str(ROOT / "perfbench"), str(ROOT / "src"),
         *map(str, args)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_call_sites_exist():
    assert int(_run("print(len(workloads._tracer()._patches))\n")) > 0


def test_tracer_hooks_fire_on_detect_and_search(tmp_path):
    # each workload's own calls, on a small instance, fire every span its
    # traced benchmark run expects; a signature change that breaks a wrapped
    # call or a count hook fails here, not only in a traced benchmark run
    code = (
        "import json, math\n"
        "from pathlib import Path\n"
        "from types import SimpleNamespace\n"
        "from geosoc import baseline, framework, io\n"
        "from geosoc.datagen import GenSpec, attach_social_edges, generate\n"
        "from geosoc.model import GeoPoint\n"
        "tmp = Path(sys.argv[3])\n"
        "pts = generate(GenSpec(n=300, density=0.008, seed=3))\n"
        "# five nearest friends plus 75 random ones: the global 4-truss has 687\n"
        "# edges and every workload finds communities, so each engine has\n"
        "# clusters to peel\n"
        "edges = attach_social_edges(pts, m_nearest=5, n_random=75, seed=3)\n"
        "# the search asks about a far-off clique of five, whose ball is its\n"
        "# own 3-core, and about a friend of one member, who is outside the\n"
        "# 3-core of a ball holding the clique\n"
        "pts += [GeoPoint(300 + i, -500 + 5 * math.cos(i), 5 * math.sin(i)) for i in range(5)]\n"
        "pts.append(GeoPoint(305, -490, 0))\n"
        "edges += [(300 + i, 300 + j) for i in range(5) for j in range(i + 1, 5)] + [(300, 305)]\n"
        "inp = SimpleNamespace(locations=tmp / 'locations.tsv', edges=tmp / 'edges.tsv')\n"
        "io.write_locations(pts, inp.locations)\n"
        "io.write_edges(edges, inp.edges)\n"
        "out = {}\n"
        "for name, wl in workloads.WORKLOADS.items():\n"
        "    tracer = workloads._tracer()\n"
        "    with tracer.installed():\n"
        "        g = workloads._ingest(inp)\n"
        "        if wl.search:\n"
        "            # 305's search returns before detection, so every expected\n"
        "            # span over the two searches comes from 300's\n"
        "            assert framework.search_mccs(g, 305, wl.config()) == []\n"
        "            assert len(framework.search_mccs(g, 300, wl.config())) == 1\n"
        "        else:\n"
        "            workloads._detect_once(g, wl.config(), tmp / 'communities.jsonl')\n"
        "        if name == 'detect-exact':\n"
        "            baseline.clique_clusters(g.points, workloads.D)\n"
        "    out[name] = {'missing': sorted(workloads._expected_spans(wl) - set(tracer.names)),\n"
        "                 'counts': dict(tracer.counts),\n"
        "                 'detects': tracer.names.count('framework.detect_mccs')}\n"
        "print(json.dumps(out))\n"
    )
    out = json.loads(_run(code, tmp_path))
    assert sorted(out) == ["detect-exact", "detect-social", "search-exact"]
    for name, got in out.items():
        assert got["missing"] == [], name
    assert out["detect-exact"]["counts"]["gsc.comparisons"] > 0
    assert out["search-exact"]["detects"] == 1


def test_bench_pairs_prints_its_usage():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--help"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bench_pairs.py")
    for option in ("--parent", "--change", "--workload", "--pairs", "--label", "--algo", "--n"):
        assert option in proc.stdout
    # the geosoc bench cell mode: its command and its section
    assert "python3 -m geosoc bench --algos A --n N" in proc.stdout
    assert "geosoc_bench_seed<S>" in proc.stdout
    # either mode stops when the two sides' outputs differ
    assert "whose member digest differs" in proc.stdout
    assert "``comparisons_unpruned``" in proc.stdout
    assert "``comparisons_rule1``, ``comparisons`` or ``clusters``" in proc.stdout
