"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE PASS_INDEX

MODE is one of
  setup   import, generate inputs and build the input polytopes, then stop;
  run     set up, run one timed pass with tracing off, check the outputs;
  inproc  (cli only) like run, but call ``cli.run`` in this process;
  trace   like run (in-process for cli), with spans around the layers.

Prints one JSON object on its last line of stdout.  Set-up is timed
from the top of this file, so it covers importing the package.  A pass
is its ops; every time is reported both as measured and scaled to
nominal machine speed (see calibrate.py).
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import check  # noqa: E402
import corpus  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TRACE_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 60


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_package():
    import cuspcheck

    if not Path(cuspcheck.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"cuspcheck imported from {cuspcheck.__file__}, not this checkout")
    return cuspcheck


# --- set-up ---------------------------------------------------------------


def setup_tower(cp, seed: int) -> dict:
    docs = {f"tower{n}d": corpus.to_doc(n, corpus.simplex_facets(n)) for n in corpus.TOWER_ROUNDS}
    docs.update(corpus.seeded_tower_bases(seed))
    return {name: cp.DelzantPolytope.from_data(doc) for name, doc in docs.items()}


def setup_obstruction(cp, seed: int) -> dict:
    polys = {
        name: cp.DelzantPolytope.from_data(doc)
        for name, doc in corpus.standard_polytopes().items()
    }
    ops = [(f"{name}/{label}", polys[name], label) for name, label in corpus.obstruction_checks()]
    seeded = {}
    for item in corpus.seeded_checks(seed):
        op = f"{item['name']}/{item['facet']}"
        seeded[op] = item
        ops.append((op, cp.DelzantPolytope.from_data(item["doc"]), item["facet"]))
    return {"ops": ops, "seeded": seeded}


def setup_cli(seed: int, pass_index: int) -> dict:
    import cuspcheck.cli  # noqa: F401  (warms the bytecode cache)

    golden = {
        name: json.loads((DATA / "golden" / f"{name}.json").read_text())
        for name in corpus.CLI_COMMANDS
    }
    return {"golden": golden, "order": corpus.cli_order(seed, pass_index)}


# --- timed passes -----------------------------------------------------------


class OpTimer:
    """Times each op between two calibrations, one just before and one just after.

    Consecutive ops share the calibration between them.  ``latencies``
    holds (op, measured seconds, seconds at nominal speed); ``scales``
    the factor that brings each op to nominal speed.  A traced op is
    opened here too, so span and op indices line up.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.latencies: list[tuple[str, float, float]] = []
        self.scales: list[float] = []
        self._last_calibration: float | None = None

    @contextlib.contextmanager
    def op(self, name: str):
        before = self._last_calibration or calibrate.calibrate()
        if self.tracer is not None:
            self.tracer.begin_op(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            after = self._last_calibration = calibrate.calibrate()
            calibration = (before + after) / 2
            self.scales.append(calibrate.NOMINAL_S / calibration)
            self.latencies.append((name, elapsed, calibrate.scaled(elapsed, calibration)))


def pass_tower(cp, polys: dict, timer: OpTimer) -> dict:
    towers = {}
    for name, base in polys.items():
        rounds = (corpus.SEEDED_TOWER_ROUNDS if ".seeded" in name else corpus.TOWER_ROUNDS)[base.dim]
        results = towers[name] = []
        state, error = None, None
        for r in range(1, rounds + 1):
            op = f"{name}.r{r}"
            if error is not None:
                results.append((op, error))
                continue
            try:
                with timer.op(op):
                    if state is None:
                        state = cp.start_tower(base, "hyp")
                    state = cp.tower_step(state, corpus.tower_eps(r))
                    delzant = cp.is_delzant(state.polytope)
                    report = cp.check_facet_condition(state.polytope, state.divisor_facet)
            except Exception as exc:  # recorded as a failed op, the run goes on
                error = repr(exc)
                results.append((op, error))
                continue
            results.append((op, (state, delzant, report)))
    return towers


def pass_obstruction(cp, ops: list, timer: OpTimer) -> list:
    outputs = []
    for op, poly, facet in ops:
        try:
            with timer.op(op):
                report = cp.check_facet_condition(poly, facet)
        except Exception as exc:
            outputs.append((op, repr(exc)))
            continue
        outputs.append((op, report))
    return outputs


def pass_cli_subprocess(order: list, timer: OpTimer) -> list:
    outputs = []
    for name in order:
        op = f"cli.{name}"
        try:
            with timer.op(op):
                proc = subprocess.run(
                    [sys.executable, "-m", "cuspcheck.cli", *corpus.CLI_COMMANDS[name]],
                    cwd=DATA, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
        except subprocess.TimeoutExpired:
            outputs.append((op, f"timed out after {CHILD_TIMEOUT_S} s"))
            continue
        outputs.append((op, (proc.returncode, proc.stdout)))
    return outputs


def pass_cli_inprocess(order: list, timer: OpTimer) -> list:
    from cuspcheck import cli

    outputs = []
    os.chdir(DATA)
    for name in order:
        op = f"cli.{name}"
        buffer = io.StringIO()
        try:
            with timer.op(op), contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(corpus.CLI_COMMANDS[name])
        except Exception as exc:
            outputs.append((op, repr(exc)))
            continue
        outputs.append((op, (code, buffer.getvalue())))
    return outputs


# --- driver -----------------------------------------------------------------


def main(workload: str, seed: int, mode: str, pass_index: int) -> dict:
    cp = import_package()
    if workload == "tower":
        inputs = setup_tower(cp, seed)
    elif workload == "obstruction":
        inputs = setup_obstruction(cp, seed)
    elif workload == "cli":
        inputs = setup_cli(seed, pass_index)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    setup_s = time.perf_counter() - T_START
    setup_cal = calibrate.calibrate()
    result = {"setup_raw_s": setup_s, "setup_s": calibrate.scaled(setup_s, setup_cal)}
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timer = OpTimer(tracer)
    if workload == "tower":
        outputs = pass_tower(cp, inputs, timer)
    elif workload == "obstruction":
        outputs = pass_obstruction(cp, inputs["ops"], timer)
    elif mode == "run":
        outputs = pass_cli_subprocess(inputs["order"], timer)
    else:
        outputs = pass_cli_inprocess(inputs["order"], timer)
    in_children = workload == "cli" and mode == "run"
    result["peak_rss_mb"] = peak_rss_mb(
        resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    )
    cache = cp.moments._triangulate.cache_info()
    if tracer is not None:
        result["trace"] = tracer.summary(timer.scales)
        tracer.dump(TRACE_DIR / f"{workload}.spans.jsonl")
    result["triangulate"] = {"hits": cache.hits, "misses": cache.misses, "entries": cache.currsize}
    result["latencies"] = timer.latencies
    result["wall_raw_s"] = sum(raw for _, raw, _ in timer.latencies)
    result["wall_s"] = sum(at_nominal for _, _, at_nominal in timer.latencies)

    # Everything below is outside the timed region.
    if workload == "tower":
        checks = check.check_tower(cp, outputs, check.load_reference())
        docs = [
            (check.tower_round_doc(*out), out[0].polytope.to_data())
            for rounds in outputs.values() for _, out in rounds if not isinstance(out, str)
        ]
    elif workload == "obstruction":
        checks = check.check_obstruction(cp, outputs, inputs["seeded"], check.load_reference())
        docs = [check.report_doc(out) for _, out in outputs if not isinstance(out, str)]
    else:
        checks, docs = check.check_cli(outputs, inputs["golden"])
    result["max_den_bits"] = check.max_den_bits(docs)
    result["ops"] = len(checks)
    result["failures"] = [f"{op}: {problem}" for op, problem in checks if problem]
    return result


if __name__ == "__main__":
    workload, seed, mode, pass_index = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
    print(json.dumps(main(workload, seed, mode, pass_index)))
