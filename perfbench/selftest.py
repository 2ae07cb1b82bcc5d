"""Show that the benchmark's output checks catch wrong answers.

Usage (from the repository root): python3 perfbench/selftest.py

Runs a small slice of each workload, then checks the real outputs
against a deliberately wrong reference, a wrong seeded invariant and a
wrong golden file, and confirms that exactly the tampered op fails while
the untouched ones pass.  Also confirms that BENCHMARK.json names
exactly the metrics that run.py produces.  Exits non-zero on any miss.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
os.environ["PYTHONPATH"] = str(HERE.parent / "src")
sys.path.insert(0, os.environ["PYTHONPATH"])

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def expect(label: str, results: list, bad: set[str]) -> bool:
    failed = {op for op, problem in results if problem}
    ok = failed == bad
    print(f"{'ok  ' if ok else 'MISS'} {label}: failed {sorted(failed)}, expected {sorted(bad)}")
    return ok


def main() -> int:
    cp = worker.import_package()
    reference = check.load_reference()
    ok = True

    # Standard-frame 2D tower against a tampered reference.
    base = {"tower2d": worker.setup_tower(cp, seed=0)["tower2d"]}
    towers = worker.pass_tower(cp, base, worker.OpTimer(None))
    ok &= expect("tower, true reference", check.check_tower(cp, towers, reference), set())
    wrong = copy.deepcopy(reference)
    wrong["tower"]["tower2d"][1]["obstruction"]["offset"] = "-1/2"
    ok &= expect("tower, wrong offset", check.check_tower(cp, towers, wrong), {"tower2d.r2"})

    # Seeded tower: a wrong expected satisfied flag breaks the invariant check.
    seeded = {"tower2d.seeded0": worker.setup_tower(cp, seed=7)["tower2d.seeded0"]}
    towers = worker.pass_tower(cp, seeded, worker.OpTimer(None))
    ok &= expect("seeded tower, true invariants", check.check_tower(cp, towers, reference), set())
    wrong = copy.deepcopy(reference)
    wrong["tower"]["tower2d"][2]["obstruction"]["satisfied"] = False
    ok &= expect("seeded tower, wrong satisfied", check.check_tower(cp, towers, wrong), {"tower2d.seeded0.r3"})

    # Obstruction: two standard checks and the seeded inputs of one seed.
    setup = worker.setup_obstruction(cp, seed=7)
    ops = [op for op in setup["ops"] if op[0] in ("simplex2/hyp", "cube2/top0") or op[0] in setup["seeded"]]
    outputs = worker.pass_obstruction(cp, ops, worker.OpTimer(None))
    ok &= expect(
        "obstruction, true reference",
        check.check_obstruction(cp, outputs, setup["seeded"], reference), set(),
    )
    wrong = copy.deepcopy(reference)
    wrong["obstruction"]["simplex2/hyp"]["a_pair"]["constant"] = "13"
    tampered = dict(setup["seeded"])
    victim = next(iter(tampered))
    tampered[victim] = dict(tampered[victim], eps=tampered[victim]["eps"] + [Fraction(1, 5)])
    ok &= expect(
        "obstruction, wrong a_pair and wrong chop volume",
        check.check_obstruction(cp, outputs, tampered, wrong), {"simplex2/hyp", victim},
    )

    # CLI: one real child process per command, against a tampered golden file.
    cli = worker.setup_cli(seed=0, pass_index=0)
    outputs = worker.pass_cli_subprocess(["check-obstruction", "vertices"], worker.OpTimer(None))
    ok &= expect("cli, golden files", check.check_cli(outputs, cli["golden"])[0], set())
    golden = copy.deepcopy(cli["golden"])
    golden["vertices"]["result"]["is_delzant"] = False
    ok &= expect("cli, wrong golden", check.check_cli(outputs, golden)[0], {"cli.vertices"})
    ok &= expect("cli, bad exit code", check.check_cli([("cli.vertices", (3, "{}"))], golden)[0], {"cli.vertices"})

    # BENCHMARK.json names exactly what run.py reports.
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {
        "trace": {"calls": {}, "self_s": {}, "by_op": {}, "candidates": 0, "vertices_found": 0},
        "triangulate": {"hits": 0, "misses": 0, "entries": 0},
        "max_den_bits": 0,
    }
    produced = set(run.layer_values(fake)) | set(run.CLI_PROBES) | {"trace.overhead_frac"}
    named = {m["name"] for m in spec["per_layer"]}
    same = produced == named
    print(f"{'ok  ' if same else 'MISS'} per-layer names: {sorted(produced ^ named)}")
    ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
