"""Regenerate reference.json: exact answers for the standard-frame corpus.

Usage: PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the program's answers are meant to change.  Before
writing, the 2D tower and the simplex check are compared with the CLI
golden files under tests/data/golden, which were fixed independently.
"""

import json
import sys
from pathlib import Path

import check
import corpus
import worker


def main() -> None:
    cp = worker.import_package()
    polys = {
        name: poly
        for name, poly in worker.setup_tower(cp, seed=0).items()
        if not ".seeded" in name
    }
    towers = worker.pass_tower(cp, polys, worker.OpTimer(None))
    reference = {"tower": {}, "obstruction": {}}
    for name, rounds in towers.items():
        reference["tower"][name] = [check.tower_round_doc(*out) for _, out in rounds]
    setup = worker.setup_obstruction(cp, seed=0)
    standard = [op for op in setup["ops"] if op[0] not in setup["seeded"]]
    outputs = worker.pass_obstruction(cp, standard, worker.OpTimer(None))
    for op, report in outputs:
        reference["obstruction"][op] = check.report_doc(report)

    golden = worker.DATA / "golden"
    tower_golden = json.loads((golden / "tower.json").read_text())["result"]["per_round"]
    for ours, theirs in zip(reference["tower"]["tower2d"], tower_golden):
        got = ours["obstruction"]
        want = theirs["obstruction"]
        if (got["offset"], got["difference_gradient"]) != (want["offset"], want["difference_gradient"]):
            sys.exit(f"tower round {ours['round']} disagrees with the golden CLI output")
    check_golden = json.loads((golden / "check-obstruction.json").read_text())["result"]
    if reference["obstruction"]["simplex2/hyp"] != check_golden:
        sys.exit("simplex2/hyp disagrees with the golden CLI output")

    check.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {check.REFERENCE}")


if __name__ == "__main__":
    main()
