"""cuspcheck benchmark: one workload, one seed, a fixed measuring window.

Usage (from the repository root):
  python3 perfbench/run.py --workload {tower,obstruction,cli} --seed N \
      --seconds S --trace {0,1}

Each timed pass runs in a fresh interpreter (perfbench/worker.py), one at
a time, so caches start empty as they do for a user's run.  Times are
reported at nominal machine speed: each op is scaled by calibrations
taken just before and after it (perfbench/calibrate.py explains why).  Passes repeat
until the window is used, and at least until the tail percentile has ten
samples beyond it.  With --trace 0 the end-to-end metrics are reported;
with --trace 1, untraced and traced passes alternate and the per-layer
metrics are reported.  Every op's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units come from BENCHMARK.json, and
perfbench/layers.json maps each layer metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_TIMEOUT_S = 150
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Extra set-up-only interpreters before each pass, so that setup_s is a
# median over many set-ups spread across the whole window.
SETUP_ONLY_PER_PASS = {"tower": 3, "obstruction": 3, "cli": 1}
TAIL_SAMPLES_BEYOND = 10
# Tail percentile of op latency per workload, fixed so that the least
# number of passes a run makes leaves at least ten samples beyond it.
TAIL_PERCENTILE = {"tower": 80, "obstruction": 90, "cli": 90}

CALLS = (
    "polytope.build", "polytope.facet_polytope", "blowup.tower_step",
    "blowup.blow_up_vertex", "moments.polytope_moments", "moments.boundary_moments",
    "extremal.extremal_affine", "linalg.solve_linear", "obstruction.check_facet_condition",
)
CLI_PROBES = ("cli.interp_s", "cli.import_s", "cli.jsonschema_import_s", "cli.run_s")
SELF_TIME = (
    "polytope.build", "polytope.facet_polytope", "polytope.is_delzant",
    "blowup.tower_step", "moments.polytope_moments", "moments.boundary_moments",
    "extremal.extremal_affine", "linalg.solve_linear", "obstruction.check_facet_condition",
)


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    """Environment of the workers and their CLI children.

    They run as a user's would: the checkout's package, the default
    bytecode cache, and no cache prefix.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], env: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def probe_seconds(code: str, env: dict, repeats: int = 5) -> float:
    """Median time of ``python -c code``, at nominal machine speed."""
    times = []
    for _ in range(repeats):
        calibration = calibrate.calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        times.append(calibrate.scaled(time.perf_counter() - t0, calibration))
    return statistics.median(times)


def op_time(by_op: dict, op: str, span: str) -> float:
    return sum(by_op.get(op, {}).get(span, []), 0.0)


def mean_check_time(by_op: dict, prefix: str) -> float:
    times = [
        t for op, spans in by_op.items() if op.startswith(prefix)
        for t in spans.get("obstruction.check_facet_condition", [])
    ]
    return sum(times) / len(times) if times else 0.0


def layer_values(result: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    t = result["trace"]
    by_op = t["by_op"]
    values: dict = {f"{name}.calls": t["calls"].get(name, 0) for name in CALLS}
    values.update({f"{name}.self_s": t["self_s"].get(name, 0.0) for name in SELF_TIME})
    values["polytope.build.candidates"] = t["candidates"]
    values["polytope.build.yield"] = (
        t["vertices_found"] / t["candidates"] if t["candidates"] else 0.0
    )
    for dim, rounds in corpus.TOWER_ROUNDS.items():
        for r in range(1, rounds + 1):
            values[f"blowup.tower_step.{dim}d.r{r}_s"] = op_time(
                by_op, f"tower{dim}d.r{r}", "blowup.tower_step"
            )
    r5, r6 = values["blowup.tower_step.2d.r5_s"], values["blowup.tower_step.2d.r6_s"]
    values["blowup.tower_step.2d.growth"] = r6 / r5 if r5 else 0.0
    tri = result["triangulate"]
    lookups = tri["hits"] + tri["misses"]
    values["moments.triangulate.hit_ratio"] = tri["hits"] / lookups if lookups else 0.0
    values["moments.triangulate.entries"] = tri["entries"]
    for n in corpus.SIMPLEX_DIMS:
        values[f"obstruction.check.simplex{n}_s"] = mean_check_time(by_op, f"simplex{n}/")
    for n in corpus.CUBE_DIMS + (5,):
        values[f"obstruction.check.cube{n}_s"] = mean_check_time(by_op, f"cube{n}/")
    values["exact.max_den_bits"] = result["max_den_bits"]
    return values


def aggregate_layers(traced: list[dict]) -> dict:
    """Medians of timings; counts must repeat exactly between passes."""
    per_pass = [layer_values(r) for r in traced]
    out = {}
    for key, first in per_pass[0].items():
        column = [values[key] for values in per_pass]
        if isinstance(first, int):
            if any(v != first for v in column):
                print(f"warning: {key} differs between traced passes: {column}", file=sys.stderr)
            out[key] = first
        else:
            out[key] = statistics.median(column)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, list[str]]:
    env = worker_env()
    start = time.perf_counter()
    setups, base, traced = [], [], []
    base_mode = "inproc" if (trace and workload == "cli") else "run"
    tail_p = TAIL_PERCENTILE[workload]
    k = 0
    while True:
        if not trace:
            for _ in range(SETUP_ONLY_PER_PASS[workload]):
                setups.append(spawn([workload, str(seed), "setup", str(k)], env))
        mode = "trace" if trace and len(traced) < len(base) else base_mode
        result = spawn([workload, str(seed), mode, str(k)], env)
        k += 1
        setups.append(result)
        (traced if mode == "trace" else base).append(result)
        passes = base + traced
        elapsed = time.perf_counter() - start
        cycle = elapsed / len(passes)
        samples = sum(len(r["latencies"]) for r in base)
        enough = (
            len(base) >= MIN_PASSES if not trace
            else len(traced) >= MIN_TRACED_PASSES and len(base) >= MIN_TRACED_PASSES
        )
        if not trace:
            enough = enough and samples * (100 - tail_p) / 100 >= TAIL_SAMPLES_BEYOND
        if enough and elapsed + cycle / 2 > seconds:
            break

    passes = base + traced
    attempted = sum(r["ops"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    if not trace:
        # Index 2 is at nominal speed, index 1 as measured.
        def end_to_end(i: int, wall: str, setup: str) -> dict:
            latencies = [op[i] for r in base for op in r["latencies"]]
            return {
                "wall_s": statistics.median(r[wall] for r in base),
                "setup_s": statistics.median(r[setup] for r in setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in base),
                "op_p50_s": statistics.median(latencies),
                "op_tail_s": percentile(latencies, tail_p),
            }

        metrics = end_to_end(2, "wall_s", "setup_s")
        unscaled = end_to_end(1, "wall_raw_s", "setup_raw_s")
        note = (
            f"{workload} seed {seed}: {len(base)} passes, {samples} op samples, "
            f"op_tail_s is p{tail_p}"
        )
    else:
        metrics = aggregate_layers(traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in base) - 1
        )
        cli_metrics = dict.fromkeys(CLI_PROBES, 0.0)
        if workload == "cli":
            bare = probe_seconds("pass", env)
            cli_metrics = {
                "cli.interp_s": bare,
                "cli.import_s": probe_seconds("import cuspcheck.cli", env) - bare,
                "cli.jsonschema_import_s": probe_seconds("import jsonschema", env) - bare,
                "cli.run_s": statistics.median(op[2] for r in base for op in r["latencies"]),
            }
        metrics.update(cli_metrics)
        unscaled = {"wall_s": [r["wall_raw_s"] for r in passes]}
        note = f"{workload} seed {seed}: {len(base)} untraced and {len(traced)} traced passes"
    print(f"{note}, failed_frac {len(failures)}/{attempted}")
    print("as measured, before scaling to nominal speed:", json.dumps(unscaled))
    return metrics, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    missing = [
        p for p in (spec_path, ROOT / "src" / "cuspcheck" / "__init__.py", ROOT / "tests" / "data" / "golden")
        if not p.exists()
    ]
    if missing:
        print(f"error: not a cuspcheck checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        values, attempted, failures = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
