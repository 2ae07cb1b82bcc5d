"""The affine function attached to a polytope with distinguished facets.

For a compact polytope P with a chosen facet set F, there is a unique
affine function A with

    integral over boundary(P) minus F of f dsigma
        = integral over P of f * A dlambda   for every affine f.

Testing against f = 1 and the coordinates turns this into a linear
system whose matrix is the moment Gram matrix of {1, x_1, ..., x_n};
that matrix is positive definite for a full-dimensional polytope, so
the solve is exact and cannot fail on validated input.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, FormalExtensionWarning, SingularGram
from .linalg import Matrix, Vector, dot, mat_vec, solve_int
from .moments import (
    Poly2,
    Sums,
    _coefficients,
    _contract,
    _idot,
    _sums,
    boundary_moments,
    integrate_polynomial_boundary,
    polytope_moments,
)
from .polytope import DelzantPolytope, FacetChart
from .record import Record


class AffineFunction(Record):
    """constant + <gradient, x>, exact rational coefficients."""

    constant: Fraction
    gradient: Vector

    def __post_init__(self) -> None:
        # Solved values arrive as Fractions already; only others are wrapped.
        if type(self.constant) is not Fraction:
            object.__setattr__(self, "constant", Fraction(self.constant))
        object.__setattr__(
            self,
            "gradient",
            tuple(x if type(x) is Fraction else Fraction(x) for x in self.gradient),
        )

    @property
    def dimension(self) -> int:
        return len(self.gradient)

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        p = tuple(Fraction(x) for x in point)
        if len(p) != self.dimension:
            raise DimensionMismatch(
                f"affine function on {self.dimension} variables evaluated at length {len(p)}"
            )
        return self.constant + dot(self.gradient, p)

    def as_poly2(self) -> Poly2:
        n = self.dimension
        return Poly2(
            constant=self.constant,
            linear=self.gradient,
            quad=tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)),
        )


class ExtremalSolveReport(Record):
    """Solved affine function plus the exact linear system behind it."""

    affine: AffineFunction
    gram: Matrix
    rhs: Vector
    excluded: tuple[int, ...]

    @property
    def residuals(self) -> Vector:
        coeffs = (self.affine.constant,) + self.affine.gradient
        return tuple(
            lhs - r for lhs, r in zip(mat_vec(self.gram, coeffs), self.rhs)
        )


def _solve(body: Sums, boundary: Sequence[Sums]) -> AffineFunction:
    """The affine function whose Gram system these raw sums state.

    The body's sums of degree <= 2 give the matrix, the boundary domains'
    of degree <= 1 the right-hand side: the pair's boundary is one domain
    (see ``_affine``), a facet's own boundary its ridges.  Each row is
    scaled to integers by the body's degree-2 scale and the boundary's
    common denominator, and ``solve_int`` solves them, so the answer's
    Fractions are the only ones built.  A singular matrix raises
    SingularGram.
    """
    raw, scale = body
    monomials = [m for m in raw if len(m) < 2]
    top = scale[2]
    den = math.lcm(*[s[1] for _, s in boundary])
    lift = [top // s * den for s in scale[:3]]
    rows = [
        [raw[a + b if a <= b else b + a] * lift[len(a + b)] for b in monomials]
        + [top * sum(r[a] * (den // s[len(a)]) for r, s in boundary)]
        for a in monomials
    ]
    solved = solve_int(rows)
    if solved is None:
        raise SingularGram("moment Gram matrix is singular")
    y, d = solved
    return AffineFunction(constant=Fraction(y[0], d), gradient=tuple(Fraction(v, d) for v in y[1:]))


def _affine(poly: DelzantPolytope, skip: Sequence[int]) -> AffineFunction:
    """The solved affine function of ``poly`` with the facets ``skip`` removed.

    Its boundary is one domain: the whole boundary, integrated in the
    sweep that integrates the body, minus the sums of each skipped facet,
    lifted by L / |u_c| into the boundary's scale.  The skipped facets are
    asked for with the body, so a sweep from a cold store takes their sums
    from the minors it takes anyway.
    """
    body, *skipped = _sums(poly, 2, [(), *((i,) for i in skip)])
    ((raw, scale),) = _sums(poly, 1, [None])
    boundary = {m: x - sum(r[m] * (scale[0] // s[0]) for r, s in skipped) for m, x in raw.items()}
    return _solve(body, [(boundary, scale)])


def extremal_affine(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> ExtremalSolveReport:
    """Solve for the affine function determined by the defining identity.

    ``excluded`` names the facets removed from the boundary integral.
    The established setting removes one facet; excluding several still
    yields a well-posed linear problem, so it is computed, but flagged
    with a FormalExtensionWarning.  The solve runs on the stored int
    sums; the reported ``gram`` and ``rhs`` are read off the moments.
    """
    skip = sorted({poly.resolve_facet(key) for key in excluded})
    if len(skip) > 1:
        warnings.warn(
            "excluding more than one facet goes beyond the established "
            "setting; the defining identity is still solved verbatim",
            FormalExtensionWarning,
            stacklevel=2,
        )
    moments = polytope_moments(poly)
    bd = boundary_moments(poly, skip)
    return ExtremalSolveReport(
        affine=_affine(poly, skip),
        gram=moments.gram,
        rhs=(bd.measure,) + bd.first_moments,
        excluded=tuple(skip),
    )


def restrict_affine(affine: AffineFunction, chart: FacetChart) -> AffineFunction:
    """Restriction of an ambient affine function to a facet chart.

    The gradient g is written over its common denominator q, so each
    chart coordinate's coefficient <g, b_k> is one int dot over q, and the
    constant A(origin) one int dot over q and the origin's denominator.
    """
    if affine.dimension != len(chart.origin):
        raise DimensionMismatch(
            "affine function dimension does not match the chart's ambient space"
        )
    q = math.lcm(*[g.denominator for g in affine.gradient])
    gradient = [g.numerator * (q // g.denominator) for g in affine.gradient]
    r = math.lcm(*[x.denominator for x in chart.origin])
    origin = [x.numerator * (r // x.denominator) for x in chart.origin]
    c = affine.constant
    return AffineFunction(
        constant=Fraction(
            c.numerator * q * r + c.denominator * _idot(gradient, origin), c.denominator * q * r
        ),
        gradient=tuple(Fraction(_idot(gradient, b), q) for b in chart.basis),
    )


def relative_futaki(
    poly: DelzantPolytope, excluded: Sequence[int | str], q: Poly2
) -> Fraction:
    """Boundary-minus-volume pairing of q against the solved affine function.

    Vanishes identically on affine q by construction; its value on
    quadratics is the obstruction-style invariant of the pair.
    """
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables on a {poly.dim}-dimensional polytope"
        )
    report = extremal_affine(poly, excluded)
    affine = report.affine
    boundary = integrate_polynomial_boundary(poly, q, excluded)
    # The monomials of q * A have degree <= 3, the simplex moments' bound.
    product: dict[tuple[int, ...], Fraction] = {}
    for m, c in _coefficients(q).items():
        for p, a in [((), affine.constant), *(((i,), g) for i, g in enumerate(affine.gradient))]:
            key = tuple(sorted(m + p))
            product[key] = product.get(key, 0) + c * a
    (volume,) = _sums(poly, 3, [()])
    volume_side = _contract(product, volume)
    return boundary - volume_side
