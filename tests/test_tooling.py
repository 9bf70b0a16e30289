"""The benchmark's tracer wraps package functions by module attribute;
a call site it names must exist, or traced runs break."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_call_sites_exist():
    # the benchmark's modules import each other as top-level names, as
    # perfbench/run.py arranges; a fresh interpreter keeps them apart from
    # the tests' own modules
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads\n"
        "print(len(workloads._tracer()._patches))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
