"""The affine function attached to a polytope with distinguished facets.

For a compact polytope P with a chosen facet set F, there is a unique
affine function A with

    integral over boundary(P) minus F of f dsigma
        = integral over P of f * A dlambda   for every affine f.

Testing against f = 1 and the coordinates turns this into a linear
system whose matrix is the moment Gram matrix of {1, x_1, ..., x_n};
that matrix is positive definite for a full-dimensional polytope, so
the solve is exact and cannot fail on validated input.

The solve runs on the stored int sums and answers in int, as (y, d):
the coefficients are y / d.  Its Gram entries are read off the sums by
keys worked out once per monomial list.  The divisor check keeps (y, d)
to its report and reads it in a facet chart by ``_chart_image``, in int;
``restrict_affine`` does the same for a caller that holds a
``FacetChart`` and an ``AffineFunction``.
"""

from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, FormalExtensionWarning, SingularGram
from .linalg import IntVector, Matrix, Vector, dot, mat_vec, solve_int
from .moments import (
    Poly2,
    Sums,
    _coefficients,
    _contract,
    _idot,
    _sums,
    _value,
    integrate_polynomial_boundary,
    polytope_moments,
)
from .polytope import _MAX_DIM, DelzantPolytope, FacetChart
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


def _solve(body: Sums, boundary: Sequence[Sums]) -> tuple[IntVector, int]:
    """The affine function whose Gram system these raw sums state, as
    (y, d) with d > 0: its coefficients of 1 and of the variables of the
    body's first moments, in their order, are y / d.

    The body's sums of degree <= 2 give the matrix, the boundary domains'
    of degree <= 1 the right-hand side: the pair's boundary is one domain
    (see ``_pair_sums``), a facet's own boundary its ridges.  Each row is
    scaled to integers by the body's degree-2 scale and the boundary's
    common denominator, and ``solve_int`` solves them, so no Fraction is
    built.  A singular matrix raises SingularGram.
    """
    raw, scale = body
    monomials = tuple(m for m in raw if len(m) < 2)
    top = scale[2]
    den = math.lcm(*[s[1] for _, s in boundary])
    lift = [top // s * den for s in scale[:3]]
    rows = [
        [raw[m] * lift[e] for m, e in keys]
        + [top * sum(r[a] * (den // s[len(a)]) for r, s in boundary)]
        for a, keys in zip(monomials, _gram_keys(monomials))
    ]
    solved = solve_int(rows)
    if solved is None:
        raise SingularGram("moment Gram matrix is singular")
    return solved


@functools.lru_cache(maxsize=4 * _MAX_DIM)
def _gram_keys(monomials: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, ...], ...]:
    """Each Gram entry's monomial and degree, row by row: the entry of
    monomials a and b is the sum of a b.  The monomials are 1 and some of
    the variables, one list per body dimension and per facet's kept
    columns, so the lists that occur are bounded by ``_MAX_DIM``."""
    return tuple(
        tuple((a + b if a <= b else b + a, len(a) + len(b)) for b in monomials) for a in monomials
    )


def _over(y: Sequence[int], d: int) -> AffineFunction:
    """The affine function with constant y[0] / d and gradient y[1:] / d."""
    return AffineFunction(constant=Fraction(y[0], d), gradient=tuple(Fraction(v, d) for v in y[1:]))


def _pair_sums(poly: DelzantPolytope, skip: Sequence[int]) -> tuple[Sums, Sums]:
    """The body's sums to degree 2 and the pair's boundary with the facets
    ``skip`` removed, as one domain.

    The boundary is the whole boundary, integrated in the sweep that
    integrates the body, minus the sums of each skipped facet, lifted by
    L / |u_c| into the boundary's scale.  The skipped facets are asked for
    with the body, so a sweep from a cold store takes their sums from the
    minors it takes anyway, and no kept facet is integrated on its own.
    """
    body, *skipped = _sums(poly, 2, [(), *((i,) for i in skip)])
    ((raw, scale),) = _sums(poly, 1, [None])
    boundary = {m: x - sum(r[m] * (scale[0] // s[0]) for r, s in skipped) for m, x in raw.items()}
    return body, (boundary, scale)


def _affine(poly: DelzantPolytope, skip: Sequence[int]) -> tuple[IntVector, int]:
    """The solved affine function of ``poly`` with the facets ``skip``
    removed, as ``_solve``'s (y, d)."""
    body, boundary = _pair_sums(poly, skip)
    return _solve(body, [boundary])


def extremal_affine(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> ExtremalSolveReport:
    """Solve for the affine function determined by the defining identity.

    ``excluded`` names the facets removed from the boundary integral.
    The established setting removes one facet; excluding several still
    yields a well-posed linear problem, so it is computed, but flagged
    with a FormalExtensionWarning.  The solve runs on the stored int
    sums; the reported ``gram`` is read off the body's moments and ``rhs``
    off the pair's boundary domain, the one the solve reads.
    """
    skip = sorted({poly.resolve_facet(key) for key in excluded})
    if len(skip) > 1:
        warnings.warn(
            "excluding more than one facet goes beyond the established "
            "setting; the defining identity is still solved verbatim",
            FormalExtensionWarning,
            stacklevel=2,
        )
    if len(skip) == len(poly.facets):
        raise ValueError("cannot exclude every facet of the polytope")
    body, boundary = _pair_sums(poly, skip)
    return ExtremalSolveReport(
        affine=_over(*_solve(body, [boundary])),
        gram=polytope_moments(poly).gram,
        rhs=tuple(_value(boundary, m) for m in boundary[0]),
        excluded=tuple(skip),
    )


def restrict_affine(affine: AffineFunction, chart: FacetChart) -> AffineFunction:
    """Restriction of an ambient affine function to a facet chart.

    Its coefficients are written over their common denominator d, the
    chart's origin over its own, r, and both are read in the chart by
    ``_chart_image``, in int.
    """
    if affine.dimension != len(chart.origin):
        raise DimensionMismatch(
            "affine function dimension does not match the chart's ambient space"
        )
    coefficients = (affine.constant, *affine.gradient)
    d = math.lcm(*[x.denominator for x in coefficients])
    r = math.lcm(*[x.denominator for x in chart.origin])
    y = [x.numerator * (d // x.denominator) for x in coefficients]
    origin = [x.numerator * (r // x.denominator) for x in chart.origin]
    return _chart_image(y, d, chart.basis, origin, r)


def _chart_image(
    y: Sequence[int], d: int, basis: Sequence[IntVector], origin: Sequence[int], r: int
) -> AffineFunction:
    """The ambient affine function (y[0] + <g, x>) / d, g = y[1:], read in
    the chart with this basis and the origin p / r, p = ``origin``.  Chart
    coordinate k's coefficient is <g, b_k> over d, one int dot, and the
    constant, the value at the origin, is (y[0] r + <g, p>) over d r: one
    Fraction per coefficient."""
    g = y[1:]
    return AffineFunction(
        constant=Fraction(y[0] * r + _idot(g, origin), d * r),
        gradient=tuple(Fraction(_idot(g, b), d) for b in basis),
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
