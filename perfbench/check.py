"""Correctness checks on the outputs of a timed pass.

Standard-frame ops are compared with the exact answers in
``reference.json``.  Seed-drawn inputs have no stored answer; they are
checked against exact invariants instead: each chop removes exactly
eps^n/n! of volume, the extremal solve has zero residuals, and the
divisor condition agrees with the standard frame.  Each check returns
``(op name, problem or None)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import corpus

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def fmt_vec(values) -> list[str]:
    return [corpus.fmt(v) for v in values]


def affine_doc(affine) -> dict:
    return {"constant": corpus.fmt(affine.constant), "gradient": fmt_vec(affine.gradient)}


def report_doc(report) -> dict:
    return {
        "satisfied": report.satisfied,
        "offset": corpus.fmt(report.offset),
        "difference_gradient": fmt_vec(report.difference_gradient),
        "a_pair": affine_doc(report.a_pair),
        "a_restricted": affine_doc(report.a_restricted),
        "a_facet": affine_doc(report.a_facet),
    }


def polytope_digest(poly) -> str:
    text = json.dumps(poly.to_data(), sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def tower_round_doc(state, delzant, report) -> dict:
    return {
        "round": state.round,
        "facets": len(state.polytope.facets),
        "vertices": len(state.polytope.vertices),
        "polytope": polytope_digest(state.polytope),
        "is_delzant": delzant.ok,
        "obstruction": report_doc(report),
    }


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def _diff(expected, got) -> str | None:
    return None if expected == got else f"expected {expected!r}, got {got!r}"


def check_tower(cp, towers: dict, reference: dict) -> list[tuple[str, str | None]]:
    """``towers`` maps a tower name to its list of (op, outputs or error)."""
    results = []
    for name, rounds in towers.items():
        dim = int(name[len("tower")])
        ref_rounds = reference["tower"][f"tower{dim}d"]
        previous_volume = Fraction(1, math.factorial(dim))
        for r, (op, out) in enumerate(rounds, start=1):
            if isinstance(out, str):
                results.append((op, out))
                continue
            state, delzant, report = out
            ref = ref_rounds[r - 1]
            if ".seeded" not in name:
                results.append((op, _diff(ref, tower_round_doc(state, delzant, report))))
                continue
            eps = corpus.tower_eps(r)
            chopped = sum(1 for rec in state.history if rec.round == r)
            volume = cp.polytope_moments(state.polytope).volume
            expected_volume = previous_volume - chopped * eps**dim / math.factorial(dim)
            residuals = cp.extremal_affine(state.polytope, [state.divisor_facet]).residuals
            problem = (
                _diff(ref["facets"], len(state.polytope.facets))
                or _diff(True, delzant.ok)
                or _diff(expected_volume, volume)
                or _diff(True, all(x == 0 for x in residuals))
                or _diff(ref["obstruction"]["satisfied"], report.satisfied)
            )
            previous_volume = volume
            results.append((op, problem))
    return results


def check_obstruction(cp, outputs: list, seeded: dict, reference: dict) -> list[tuple[str, str | None]]:
    """``outputs`` holds (op, report or error); ``seeded`` maps op to its input record."""
    results = []
    for op, out in outputs:
        if isinstance(out, str):
            results.append((op, out))
            continue
        if op not in seeded:
            results.append((op, _diff(reference["obstruction"][op], report_doc(out))))
            continue
        item = seeded[op]
        poly = cp.DelzantPolytope.from_data(item["doc"])
        standard = cp.DelzantPolytope.from_data(item["standard_doc"])
        expected_volume = item["base_volume"] - sum(e**3 for e in item["eps"]) / 6
        residuals = cp.extremal_affine(poly, [item["facet"]]).residuals
        problem = (
            _diff(expected_volume, cp.polytope_moments(poly).volume)
            or _diff(True, all(x == 0 for x in residuals))
            or _diff(cp.check_facet_condition(standard, item["facet"]).satisfied, out.satisfied)
        )
        results.append((op, problem))
    return results


def check_cli(outputs: list, golden: dict) -> tuple[list[tuple[str, str | None]], list]:
    """``outputs`` holds (op, (exit code, stdout text)) or (op, error).

    Also returns the parsed reports.
    """
    results, docs = [], []
    for op, out in outputs:
        if isinstance(out, str):
            results.append((op, out))
            continue
        code, text = out
        if code != 0:
            results.append((op, f"exit code {code}"))
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            results.append((op, f"stdout is not JSON: {exc}"))
            continue
        docs.append(doc)
        name = op.split(".", 1)[1]
        results.append((op, None if doc == golden[name] else "output differs from golden file"))
    return results, docs


def max_den_bits(values) -> int:
    """Largest denominator bit length among Fractions and "p/q" strings, walked recursively."""
    best = 0
    stack = [values]
    while stack:
        item = stack.pop()
        if isinstance(item, Fraction):
            best = max(best, item.denominator.bit_length())
        elif isinstance(item, str):
            if "/" in item:
                _, _, den = item.partition("/")
                if den.isdigit():
                    best = max(best, int(den).bit_length())
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return best
