"""Shared builders and exact matrix helpers for the test suite."""

import functools
import math
from fractions import Fraction

import pytest

from cuspcheck import DelzantPolytope, Facet, start_tower, tower_step
from cuspcheck.linalg import det_int, dot, rank


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def leading_principal_minors(m):
    """Determinants of the k x k upper-left blocks, k = 1..n, exact."""
    out = []
    for k in range(1, len(m) + 1):
        # Scale each row of the block to integers and divide the scale out.
        scale = 1
        block = []
        for row in m[:k]:
            fracs = [Fraction(x) for x in row[:k]]
            lcm = math.lcm(*(x.denominator for x in fracs))
            scale *= lcm
            block.append([int(x * lcm) for x in fracs])
        out.append(Fraction(det_int(block), scale))
    return tuple(out)


def is_positive_definite(m):
    """Exact Sylvester criterion for a symmetric rational matrix."""
    return all(minor > 0 for minor in leading_principal_minors(m))


def affine_rank(points):
    """Dimension of the affine span of the given points (-1 if none): the
    rank of the rows (1, p) less one, so no differences are formed."""
    return rank([(1, *p) for p in points]) - 1


def unit_simplex(n: int) -> DelzantPolytope:
    """x_i >= 0, x_1 + ... + x_n <= 1, hypotenuse labelled 'hyp'."""
    facets = [
        Facet(tuple(1 if j == i else 0 for j in range(n)), 0, label=f"x{i}")
        for i in range(n)
    ]
    facets.append(Facet((-1,) * n, -1, label="hyp"))
    return DelzantPolytope(n, tuple(facets))


def unit_cube(n: int) -> DelzantPolytope:
    """0 <= x_i <= 1, top facets labelled 'top{i}'."""
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        facets.append(Facet(e, 0, label=f"bot{i}"))
        facets.append(Facet(tuple(-x for x in e), -1, label=f"top{i}"))
    return DelzantPolytope(n, tuple(facets))


@functools.cache
def tower_rounds() -> tuple[DelzantPolytope, ...]:
    """Rounds 1-8 of the 2D tower over the simplex's hyp facet, eps = 4^-r."""
    state = start_tower(unit_simplex(2), "hyp")
    rounds = []
    for r in range(1, 9):
        state = tower_step(state, Fraction(1, 4**r))
        rounds.append(state.polytope)
    return tuple(rounds)


def interval(a, b) -> DelzantPolytope:
    return DelzantPolytope(
        1, (Facet((1,), Fraction(a), label="lo"), Facet((-1,), -Fraction(b), label="hi"))
    )


@pytest.fixture
def triangle() -> DelzantPolytope:
    return unit_simplex(2)


@pytest.fixture
def square() -> DelzantPolytope:
    return unit_cube(2)


@pytest.fixture
def simplex3() -> DelzantPolytope:
    return unit_simplex(3)
