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

import warnings
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, FormalExtensionWarning, SingularGram
from .linalg import Matrix, Vector, dot, mat_vec, solve_linear
from .moments import (
    Poly2,
    _coefficients,
    _contract,
    _integrate,
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
        object.__setattr__(self, "constant", Fraction(self.constant))
        object.__setattr__(
            self, "gradient", tuple(Fraction(x) for x in self.gradient)
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


def extremal_affine(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> ExtremalSolveReport:
    """Solve for the affine function determined by the defining identity.

    ``excluded`` names the facets removed from the boundary integral.
    The established setting removes one facet; excluding several still
    yields a well-posed linear problem, so it is computed, but flagged
    with a FormalExtensionWarning.
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
    gram = moments.gram
    rhs = (bd.measure,) + bd.first_moments
    solution = solve_linear(gram, rhs)
    if solution is None:
        raise SingularGram("moment Gram matrix is singular")
    affine = AffineFunction(constant=solution[0], gradient=solution[1:])
    return ExtremalSolveReport(
        affine=affine, gram=gram, rhs=rhs, excluded=tuple(skip)
    )


def restrict_affine(affine: AffineFunction, chart: FacetChart) -> AffineFunction:
    """Restriction of an ambient affine function to a facet chart."""
    if affine.dimension != len(chart.origin):
        raise DimensionMismatch(
            "affine function dimension does not match the chart's ambient space"
        )
    return AffineFunction(
        constant=affine(chart.origin),
        gradient=tuple(dot(affine.gradient, b) for b in chart.basis),
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
    (volume,) = _integrate(poly, 3)
    volume_side = _contract(product, volume)
    return boundary - volume_side
