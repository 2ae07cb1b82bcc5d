"""The benchmark harness in ``perfbench/`` still runs on this checkout.

One timed pass of each workload runs in a fresh interpreter, as the
benchmark runs it, and checks every op against the committed reference:
``tower`` and ``obstruction`` compute in the worker, and ``cli`` runs
its eight golden commands as child processes and checks their output.
The harness reads names of the package beyond its public API,
``moments._triangulate.cache_info()`` among them, so a change that
renames one fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspcheck.polytope import DelzantPolytope

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["tower", "obstruction", "cli"])
def test_benchmark_pass_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload, "1", "run", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["ops"] > 0
    if workload != "cli":
        # The cli workload integrates in its children, not in the worker.
        assert result["triangulate"]["misses"] > 0


def test_traced_names_still_exist():
    # The traced pass wraps each (module, attribute) of TARGETS and the
    # constructor; they are resolved here without a traced pass.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for home, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(home), attr)), (home, attr)
    assert "__post_init__" in vars(DelzantPolytope)
