"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (with its runtime) straight to
the terminal, independent of pytest capture, and enforces its time budget.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, sqrt
from pathlib import Path

import pytest

from conftest import is_positive_definite, unit_cube, unit_simplex
from cuspcheck import (
    MomentConfiguration,
    SpectralPair,
    apply_unimodular,
    blow_up_vertex,
    check_balance,
    check_facet_condition,
    check_genericity,
    check_hypotheses,
    check_kernel_condition,
    enumerate_vertices,
    extremal_affine,
    facet_polytope,
    free_fixed_points,
    indicial_roots,
    is_delzant,
    max_chop_parameter,
    polytope_moments,
    restrict_affine,
    start_tower,
    toric_configuration,
    tower_step,
)
from cuspcheck import DelzantPolytope, Facet, cli

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, budget, detail):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(
            f"FAIL criterion {number} ({elapsed:.2f}s): {detail}",
            file=sys.__stdout__,
            flush=True,
        )
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(
        f"{verdict} criterion {number} ({elapsed:.2f}s): {detail}",
        file=sys.__stdout__,
        flush=True,
    )
    assert elapsed < budget, f"criterion {number} over {budget}s budget"


def test_criterion_1_triangle_pair():
    with criterion(1, 1.0, "triangle pair gives 12 - 12(x+y), zero residuals, "
                   "constant restriction"):
        triangle = unit_simplex(2)
        report = extremal_affine(triangle, ("hyp",))
        assert report.affine.constant == 12
        assert report.affine.gradient == (-12, -12)
        assert report.residuals == (0, 0, 0)
        _, chart = facet_polytope(triangle, "hyp")
        restricted = restrict_affine(report.affine, chart)
        assert all(g == 0 for g in restricted.gradient)


def test_criterion_2_simplex_gradient_diagonal():
    with criterion(2, 1.0, "simplex gradient proportional to (1,...,1) "
                   "exactly in dimensions 2..4"):
        for n in (2, 3, 4):
            affine = extremal_affine(unit_simplex(n), ("hyp",)).affine
            first = affine.gradient[0]
            assert first != 0
            assert all(g == first for g in affine.gradient)


def test_criterion_3_symmetric_chop_satisfied():
    with criterion(3, 1.0, "symmetric corner chop keeps the divisor "
                   "condition satisfied (n=2 and n=3)"):
        for n, eps_values in ((2, (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))),
                              (3, (Fraction(1, 8), Fraction(1, 4)))):
            simplex = unit_simplex(n)
            origin = (Fraction(0),) * n
            for eps in eps_values:
                chopped = blow_up_vertex(simplex, origin, eps)
                assert check_facet_condition(chopped, "hyp").satisfied


def test_criterion_4_single_chop_breaks_condition():
    with criterion(4, 1.0, "chopping only one free fixed point breaks the "
                   "divisor condition"):
        quarter = blow_up_vertex(unit_simplex(2), (0, 0), Fraction(1, 4))
        free = free_fixed_points(quarter, "hyp")
        assert len(free) == 2
        lone = free[0].point
        for eps in (Fraction(1, 32), Fraction(1, 16), Fraction(1, 8)):
            lopsided = blow_up_vertex(quarter, lone, eps)
            assert not check_facet_condition(lopsided, "hyp").satisfied


def test_criterion_5_two_round_tower():
    with criterion(5, 1.0, "two-round tower (1/4 then 1/16) stays Delzant "
                   "with the condition satisfied each round"):
        state = start_tower(unit_simplex(2), "hyp")
        for eps in (Fraction(1, 4), Fraction(1, 16)):
            state = tower_step(state, eps)
            assert is_delzant(state.polytope).ok
            assert check_facet_condition(state.polytope, "hyp").satisfied
        assert state.round == 2


def _matvec(matrix, vec):
    return tuple(sum(r * x for r, x in zip(row, vec)) for row in matrix)


def _transpose(matrix):
    return tuple(zip(*matrix))


def _matmul(a, b):
    bt = _transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def _random_unimodular(rng, n):
    matrix = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for _ in range(rng.randrange(2, 5)):
        i = rng.randrange(n)
        j = rng.choice([k for k in range(n) if k != i])
        k = rng.choice((-2, -1, 1, 2))
        shear = tuple(
            tuple((1 if r == c else 0) + (k if (r, c) == (i, j) else 0)
                  for c in range(n))
            for r in range(n)
        )
        matrix = _matmul(shear, matrix)
    return matrix


def _random_polytope(rng):
    n = rng.choice((2, 2, 2, 3))
    base = unit_simplex(n) if rng.random() < 0.7 else unit_cube(n)
    for _ in range(rng.randrange(3)):
        vertex = rng.choice(enumerate_vertices(base)).point
        bound = max_chop_parameter(base, vertex)
        ratio = rng.choice((Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)))
        base = blow_up_vertex(base, vertex, bound * ratio)
    return base


def _dilate(poly, c):
    return DelzantPolytope(
        poly.dim,
        tuple(Facet(f.normal, f.offset * c, label=f.label) for f in poly.facets),
    )


def test_criterion_6_randomized_property_suite():
    with criterion(6, 30.0, "randomized suite (>= 1000 cases, n <= 3): zero "
                   "residuals, PD Gram, exact equivariance laws, exact chop "
                   "volume loss"):
        rng = random.Random(20260818)
        cases = 0
        for index in range(1050):
            poly = _random_polytope(rng)
            n = poly.dim
            family = index % 5
            if family == 0:
                # defining residuals vanish and the moment Gram matrix is PD
                excluded = ((rng.randrange(len(poly.facets)),)
                            if rng.random() < 0.8 else ())
                report = extremal_affine(poly, excluded)
                assert all(r == 0 for r in report.residuals)
                assert is_positive_definite(report.gram)
            elif family == 1:
                # unimodular equivariance as exact coefficient identities
                excluded = (rng.randrange(len(poly.facets)),)
                t = _random_unimodular(rng, n)
                base = extremal_affine(poly, excluded).affine
                moved = extremal_affine(
                    apply_unimodular(poly, t), excluded).affine
                assert _matvec(_transpose(t), moved.gradient) == base.gradient
                assert moved.constant == base.constant
            elif family == 2:
                # translation equivariance, exact
                excluded = (rng.randrange(len(poly.facets)),)
                shift = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(n))
                base = extremal_affine(poly, excluded).affine
                moved = extremal_affine(
                    apply_unimodular(poly, _identity(n), shift),
                    excluded).affine
                assert moved.gradient == base.gradient
                inner = sum(g * s for g, s in zip(base.gradient, shift))
                assert moved.constant == base.constant - inner
            elif family == 3:
                # dilation law: constant scales by 1/c, gradient by 1/c^2
                excluded = (rng.randrange(len(poly.facets)),)
                c = rng.choice((2, 3, Fraction(1, 2)))
                base = extremal_affine(poly, excluded).affine
                scaled = extremal_affine(_dilate(poly, c), excluded).affine
                assert scaled.constant == Fraction(base.constant, 1) / c
                assert scaled.gradient == tuple(g / c**2 for g in base.gradient)
            else:
                # corner chop removes exactly eps^n / n! of volume
                vertex = rng.choice(enumerate_vertices(poly)).point
                bound = max_chop_parameter(poly, vertex)
                eps = bound * rng.choice((Fraction(1, 5), Fraction(1, 2),
                                          Fraction(3, 4)))
                before = polytope_moments(poly).volume
                after = polytope_moments(
                    blow_up_vertex(poly, vertex, eps)).volume
                assert before - after == eps**n / factorial(n)
            cases += 1
        assert cases >= 1000


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_criterion_7_indicial_root_structure():
    with criterion(7, 5.0, "indicial roots: frozen (0,0) set, no roots in "
                   "(0,1) over 10^4 admissible pairs, delta <-> 1-delta "
                   "symmetry"):
        golden = sorted((0.0, 1.0, (1 - sqrt(5)) / 2, (1 + sqrt(5)) / 2))
        roots = indicial_roots(SpectralPair(lam=0, mu=0))
        got = sorted(r.delta.real for r in roots)
        assert all(r.delta.imag == 0 for r in roots)
        assert len(got) == 4
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, golden))
        assert any(abs(r - 0.0) <= 1e-12 for r in got)
        assert any(abs(r - 1.0) <= 1e-12 for r in got)

        rng = random.Random(4821)
        for _ in range(10_000):
            pair = SpectralPair(lam=rng.uniform(0, 100), mu=rng.uniform(0, 100))
            roots = indicial_roots(pair)
            deltas = [r.delta for r in roots]
            assert not any(0 < d.real < 1 for d in deltas)
            for d in deltas:
                mirror = 1 - d
                assert min(abs(mirror - other) for other in deltas) <= 1e-12


def test_criterion_8_hypothesis_checker_table():
    with criterion(8, 1.0, "toric auto-fill satisfies balance+genericity on "
                   "Delzant polytopes; hand-built 3-dimensional instances "
                   "reproduce the true/false table"):
        quarter = blow_up_vertex(unit_simplex(2), (0, 0), Fraction(1, 4))
        for poly, facet in ((unit_simplex(2), "hyp"), (unit_cube(2), "top1"),
                            (unit_simplex(3), "hyp"), (unit_cube(3), "top2"),
                            (quarter, "hyp")):
            report = check_hypotheses(toric_configuration(poly, facet))
            assert report.balance.satisfied
            assert report.genericity

        f = Fraction
        e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        full = (e1, e2, e3)

        def config(points, weights, t_basis, eval_matrix=None, n=2):
            return MomentConfiguration(
                n=n,
                points=tuple(tuple(f(x) for x in p) for p in points),
                weights=tuple(f(w) for w in weights),
                t_basis=tuple(tuple(f(x) for x in b) for b in t_basis),
                eval_matrix=None if eval_matrix is None else tuple(
                    tuple(f(x) for x in row) for row in eval_matrix),
            )

        # balance: zero point; maximal t; diagonal span vs axis span
        assert check_balance(config([(0, 0, 0)], [1], [e1])).satisfied
        assert check_balance(
            config([(1, 2, 3), (4, 5, 6)], [1, 2], full)).satisfied
        assert check_balance(
            config([e1, e2], [1, 1], [(1, 1, 0)])).satisfied
        assert not check_balance(
            config([e1, e2], [1, 1], [e1])).satisfied

        # genericity: maximal t; spanning points alone; rank-deficient pair
        assert check_genericity(config([(7, 0, 2)], [1], full))
        assert check_genericity(config([e1, e2, e3], [1, 1, 1], []))
        assert not check_genericity(config([e1], [1], [e1]))

        # kernel: injective; zero matrix with maximal t; leaky null space
        assert check_kernel_condition(
            config([e1], [1], [e1], eval_matrix=full))
        assert check_kernel_condition(
            config([e1], [1], full, eval_matrix=[(0, 0, 0)] * 3))
        assert not check_kernel_condition(
            config([e1], [1], [e1], eval_matrix=[e1, e2]))


GOLDEN_COMMANDS = {
    "vertices": ["vertices", "simplex2.json"],
    "moments": ["moments", "simplex2.json"],
    "extremal-affine": ["extremal-affine", "simplex2.json", "--exclude", "hyp"],
    "blowup": [
        "blowup", "simplex2.json", "--vertex", "0,0", "--eps", "1/4",
        "--label", "E1",
    ],
    "tower": [
        "tower", "simplex2.json", "--facet", "hyp", "--rounds", "2",
        "--eps", "1/4,1/16",
    ],
    "check-obstruction": ["check-obstruction", "simplex2.json", "--facet", "hyp"],
    "check-hypotheses": ["check-hypotheses", "config3d.json"],
    "indicial-roots": [
        "indicial-roots", "--pairs", "trivial.json", "--window", "0,1",
        "--eta", "-0.3",
    ],
}


def test_criterion_9_cli_golden_and_round_trip(capsys, monkeypatch, tmp_path):
    with criterion(9, 5.0, "golden output for every subcommand and a "
                   "parse -> serialize -> parse fixed point"):
        monkeypatch.chdir(DATA)
        for name, argv in GOLDEN_COMMANDS.items():
            code = cli.run(argv)
            out = capsys.readouterr().out
            assert code == 0, name
            expected = json.loads((DATA / "golden" / f"{name}.json").read_text())
            assert json.loads(out) == expected, name

        # serializing a parsed polytope and parsing it again is the identity
        assert cli.run(GOLDEN_COMMANDS["blowup"]) == 0
        first = json.loads(capsys.readouterr().out)["result"]["polytope"]
        path = tmp_path / "round.json"
        path.write_text(json.dumps(first))
        assert cli.run(["blowup", str(path), "--vertex", "0,1/4",
                        "--eps", "1/16"]) == 0
        second = json.loads(capsys.readouterr().out)["result"]["polytope"]
        assert second["facets"][: len(first["facets"])] == first["facets"]
        path.write_text(json.dumps(second))
        assert cli.run(["vertices", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["is_delzant"]
