"""Extremal affine functions against an independent symbolic solver.

The oracle rebuilds both sides of the defining functional from scratch
in sympy (area integrals by Green's theorem, boundary integrals as
parametrized line integrals with lattice normalization) and solves the
linear system symbolically.
"""

import random
import warnings
from fractions import Fraction

import pytest
import sympy

from conftest import (
    count_fractions,
    hexagon,
    interval,
    is_positive_definite,
    product_document,
    unit_cube,
    unit_simplex,
)
from cuspcheck import (
    AffineFunction,
    FacetChart,
    DelzantPolytope,
    FormalExtensionWarning,
    Poly2,
    apply_unimodular,
    blow_up_vertex,
    extremal_affine,
    facet_polytope,
    max_chop_parameter,
    relative_futaki,
    restrict_affine,
)

from cuspcheck.linalg import complete_primitive, dot, gcd_vector, identity_int
from test_linalg import _random_unimodular

_RNG = random.Random(97531)


def _sympy_extremal(poly, excluded_indices):
    """Independent solve of the defining equations in dimension 2."""
    from sympy.abc import t, x, y
    from sympy.geometry import Point, Polygon
    from sympy.integrals.intpoly import polytope_integrate

    import math

    pts = [tuple(v.point) for v in poly.vertices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
    pg = Polygon(*[Point(sympy.Rational(p[0]), sympy.Rational(p[1])) for p in pts])
    sign = 1 if polytope_integrate(pg, sympy.Integer(1)) > 0 else -1

    def vol_int(expr):
        return sign * polytope_integrate(pg, expr)

    def boundary_int(expr):
        total = sympy.Integer(0)
        for i, f in enumerate(poly.facets):
            if i in excluded_indices:
                continue
            ends = [v.point for v in poly.vertices if i in v.active]
            assert len(ends) == 2
            (x0, y0), (x1, y1) = ends
            px = sympy.Rational(x0) + t * sympy.Rational(x1 - x0)
            py = sympy.Rational(y0) + t * sympy.Rational(y1 - y0)
            euclid = sympy.sqrt(
                sympy.Rational(x1 - x0) ** 2 + sympy.Rational(y1 - y0) ** 2
            )
            unorm = sympy.sqrt(f.normal[0] ** 2 + f.normal[1] ** 2)
            density = euclid / unorm
            total += sympy.integrate(
                expr.subs({x: px, y: py}) * density, (t, 0, 1)
            )
        return sympy.nsimplify(total)

    # assemble numerically per monomial: polytope_integrate cannot take
    # symbolic coefficients in the integrand
    a0, a1, a2 = sympy.symbols("a0 a1 a2")
    basis = (sympy.Integer(1), x, y)
    eqs = [
        sympy.Eq(
            boundary_int(f),
            a0 * vol_int(f) + a1 * vol_int(f * x) + a2 * vol_int(f * y),
        )
        for f in basis
    ]
    sol = sympy.solve(eqs, (a0, a1, a2))
    return (
        Fraction(str(sol[a0])),
        (Fraction(str(sol[a1])), Fraction(str(sol[a2]))),
    )


def test_triangle_excluding_hypotenuse_frozen(triangle):
    report = extremal_affine(triangle, ("hyp",))
    assert report.affine.constant == 12
    assert report.affine.gradient == (Fraction(-12), Fraction(-12))
    assert report.residuals == (0, 0, 0)
    assert report.excluded == (2,)


def test_triangle_matches_sympy(triangle):
    for excluded in ((), (2,)):
        report = extremal_affine(triangle, excluded)
        constant, gradient = _sympy_extremal(triangle, set(excluded))
        assert report.affine.constant == constant
        assert report.affine.gradient == gradient


def test_triangle_full_boundary_constant(triangle):
    report = extremal_affine(triangle)
    assert report.affine.constant == 6
    assert report.affine.gradient == (0, 0)


def test_square_full_boundary_frozen(square):
    report = extremal_affine(square)
    assert report.affine.constant == 4
    assert report.affine.gradient == (0, 0)


def test_square_excluding_top_matches_sympy(square):
    report = extremal_affine(square, ("top1",))
    constant, gradient = _sympy_extremal(square, set(report.excluded))
    assert report.affine.constant == constant
    assert report.affine.gradient == gradient
    # frozen: solved by hand from the 3x3 system
    assert report.affine.constant == 6
    assert report.affine.gradient == (0, -6)


def test_interval_excluding_endpoint_frozen():
    poly = interval(0, 1)
    report = extremal_affine(poly, ("hi",))
    assert report.affine.constant == 4
    assert report.affine.gradient == (Fraction(-6),)


def test_random_chopped_polygons_match_sympy():
    for _ in range(5):
        poly = unit_simplex(2)
        v = _RNG.choice(poly.vertices)
        bound = max_chop_parameter(poly, v.point)
        poly = blow_up_vertex(poly, v.point, bound / _RNG.choice((3, 4)))
        excluded = (_RNG.randrange(len(poly.facets)),)
        report = extremal_affine(poly, excluded)
        constant, gradient = _sympy_extremal(poly, set(excluded))
        assert report.affine.constant == constant
        assert report.affine.gradient == gradient


def test_gram_is_positive_definite_and_residuals_zero(simplex3):
    report = extremal_affine(simplex3, ("hyp",))
    assert is_positive_definite(report.gram)
    assert all(r == 0 for r in report.residuals)
    assert len(report.rhs) == 4


def test_extremal_affine_is_equivariant_on_a_6d_product():
    # triangle x hexagon x triangle, one corner chopped, with the chop's
    # facet excluded: moved by a seeded unimodular T, the affine function
    # of T P is f(T^-1 x), so T^t g' = g; shifted by s, its gradient is
    # the same and its constant loses <g, s>.
    product = DelzantPolytope.from_data(
        product_document(unit_simplex(2), hexagon(), unit_simplex(2))
    )
    poly = blow_up_vertex(product, product.vertices[0].point, Fraction(1, 2))
    excluded = (len(poly.facets) - 1,)
    base = extremal_affine(poly, excluded).affine
    t = _random_unimodular(random.Random(6), 6)
    moved = extremal_affine(apply_unimodular(poly, t), excluded).affine
    assert tuple(dot(column, moved.gradient) for column in zip(*t)) == base.gradient
    assert moved.constant == base.constant
    shift = (Fraction(1, 2), -1, 0, 2, Fraction(-1, 3), 1)
    shifted = extremal_affine(apply_unimodular(poly, identity_int(6), shift), excluded).affine
    assert shifted.gradient == base.gradient
    assert shifted.constant == base.constant - dot(base.gradient, shift)


def test_defining_identity_for_affine_functions(triangle):
    # int_{boundary minus F} f dsigma == int f*A dlambda for affine f
    from cuspcheck.moments import integrate_polynomial_boundary

    report = extremal_affine(triangle, ("hyp",))
    for coeffs in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)]:
        f = Poly2.from_monomials(
            2, {(0, 0): coeffs[0], (1, 0): coeffs[1], (0, 1): coeffs[2]}
        )
        lhs = integrate_polynomial_boundary(triangle, f, excluded=("hyp",))
        product = Poly2.from_monomials(2, {(0, 0): 0})
        # f * A stays degree <= 2 because both factors are affine
        fa = {
            (0, 0): coeffs[0] * report.affine.constant,
            (1, 0): coeffs[0] * report.affine.gradient[0]
            + coeffs[1] * report.affine.constant,
            (0, 1): coeffs[0] * report.affine.gradient[1]
            + coeffs[2] * report.affine.constant,
            (2, 0): coeffs[1] * report.affine.gradient[0],
            (1, 1): coeffs[1] * report.affine.gradient[1]
            + coeffs[2] * report.affine.gradient[0],
            (0, 2): coeffs[2] * report.affine.gradient[1],
        }
        product = Poly2.from_monomials(2, fa)
        from cuspcheck import integrate_polynomial

        assert lhs == integrate_polynomial(triangle, product)


def test_multi_facet_exclusion_warns(square):
    with pytest.warns(FormalExtensionWarning):
        extremal_affine(square, ("top0", "top1"))


def test_single_exclusion_does_not_warn(triangle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        extremal_affine(triangle, ("hyp",))


def test_restrict_affine_frozen(triangle):
    report = extremal_affine(triangle, ("hyp",))
    _, chart = facet_polytope(triangle, "hyp")
    restricted = restrict_affine(report.affine, chart)
    assert restricted.constant == 0
    assert restricted.gradient == (0,)


def test_restrict_coordinate_function():
    poly = unit_cube(2)
    _, chart = facet_polytope(poly, "bot0")  # the facet {x = 0}
    a = AffineFunction(constant=Fraction(0), gradient=(Fraction(1), Fraction(0)))
    restricted = restrict_affine(a, chart)
    assert restricted.constant == 0
    assert restricted.gradient == (0,)
    _, chart_top = facet_polytope(poly, "top0")  # the facet {x = 1}
    restricted_top = restrict_affine(a, chart_top)
    assert restricted_top.constant == 1
    assert restricted_top.gradient == (0,)


def test_restrict_zero_function(triangle):
    _, chart = facet_polytope(triangle, "hyp")
    zero = AffineFunction(constant=Fraction(0), gradient=(Fraction(0), Fraction(0)))
    restricted = restrict_affine(zero, chart)
    assert restricted.constant == 0 and restricted.gradient == (0,)


def test_restrict_affine_matches_the_fraction_formula():
    # The int route against A(origin) and <g, b_k> in Fraction, on random
    # affine functions and charts: lattice charts of random primitive
    # normals (origin c_F w), and charts with any rational origin.  Its own
    # generator leaves the draws of the other tests as they were.
    rng = random.Random(2018)

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    for k in range(300):
        n = rng.randint(2, 5)
        normal = (0,) * n
        while gcd_vector(normal) != 1:
            normal = tuple(rng.randint(-4, 4) for _ in range(n))
        w, basis = complete_primitive(normal)
        offset = rational(30) if k % 5 else Fraction(0)
        origin = tuple(offset * x for x in w) if k % 2 else tuple(rational(9) for _ in range(n))
        chart = FacetChart(
            facet_index=0, normal=normal, offset=offset, origin=origin, basis=basis
        )
        gradient = tuple(rational(60) if k % 7 else Fraction(0) for _ in range(n))
        affine = AffineFunction(constant=rational(60), gradient=gradient)
        expected = AffineFunction(
            constant=affine(chart.origin),
            gradient=tuple(dot(affine.gradient, b) for b in chart.basis),
        )
        assert restrict_affine(affine, chart) == expected


def test_relative_futaki_vanishes_on_affine(triangle):
    for mono in [{(0, 0): 7}, {(1, 0): 1}, {(0, 1): 1}, {(0, 0): 1, (1, 0): -2}]:
        q = Poly2.from_monomials(2, mono)
        assert relative_futaki(triangle, ("hyp",), q) == 0


def test_relative_futaki_frozen_quadratic(triangle):
    # int_{legs} x^2 dsigma - int x^2 (12 - 12x - 12y) dlambda = 1/3 - 1/5
    q = Poly2.from_monomials(2, {(2, 0): 1})
    assert relative_futaki(triangle, ("hyp",), q) == Fraction(2, 15)


def test_relative_futaki_matches_sympy(triangle):
    from sympy.abc import x, y

    q = Poly2.from_monomials(2, {(2, 0): 1, (1, 1): -1, (0, 1): 2})
    got = relative_futaki(triangle, ("hyp",), q)
    constant, gradient = _sympy_extremal(triangle, {2})
    # recompute both sides symbolically
    expr = x * x - x * y + 2 * y
    a_expr = (
        sympy.Rational(constant)
        + sympy.Rational(gradient[0]) * x
        + sympy.Rational(gradient[1]) * y
    )
    vol = sympy.integrate(
        sympy.expand(expr * a_expr), (y, 0, 1 - x), (x, 0, 1)
    )
    bottom = sympy.integrate(expr.subs({y: 0}), (x, 0, 1))
    left = sympy.integrate(expr.subs({x: 0}), (y, 0, 1))
    assert got == Fraction(str(bottom + left - vol))


def test_affine_function_keeps_the_fractions_it_is_given(monkeypatch):
    constant, gradient = Fraction(7, 3), (Fraction(-1, 2), Fraction(5))
    built = count_fractions(monkeypatch)
    a = AffineFunction(constant=constant, gradient=list(gradient))
    assert built == []
    b = AffineFunction(constant=2, gradient=(gradient[0], 3))
    assert len(built) == 2
    monkeypatch.undo()
    assert a.constant is constant and a.gradient == gradient
    assert all(x is y for x, y in zip(a.gradient, gradient))
    assert type(b.constant) is Fraction and [type(x) for x in b.gradient] == [Fraction] * 2
    assert b == AffineFunction(Fraction(2), (Fraction(-1, 2), Fraction(3)))


def test_affine_function_evaluation():
    a = AffineFunction(constant=Fraction(3), gradient=(Fraction(1), Fraction(-2)))
    assert a((Fraction(1), Fraction(1))) == 2
    p2 = a.as_poly2()
    assert p2((Fraction(1), Fraction(1))) == 2
    assert p2.quad == ((0, 0), (0, 0))
