"""Exact volume and boundary moments of Delzant polytopes.

Every integral is one weighted sum over one fan triangulation of the
polytope, which also triangulates each facet: on each simplex the
integrand is evaluated at the k + 2 nodes of the degree-3 rule of
Grundmann and Moeller (SIAM J. Numer. Anal. 15, 1978; Stroud's T_n:3-1).
Degree 3 suffices because every integrand in the package has degree at
most 3: the moments and ``Poly2`` have degree at most 2, and the volume
side of ``relative_futaki`` integrates q * A, a quadratic times an
affine function.  The body carries Lebesgue measure.  A facet with
primitive normal u carries the lattice boundary measure (the one with
d(lattice volume) equal to d(boundary measure) wedged with the pairing
against u); on a facet simplex its mass is a determinant,
|det[u; edges]| / ((n-1)! <u, u>), so no facet chart or facet polytope
is built.  The sums run on ints: the triangulation's simplices index the
polytope's integer vertex table (``DelzantPolytope.scaled_vertices``, the
points D * v), so nodes and weights are integers, and each homogeneous
form of the integrand is divided once at the end.  Nothing is
approximated.

One store entry per polytope, keyed on its value and bounded at 256
polytopes, holds its fan triangulation and the moments integrated so
far, which ``polytope_moments`` and ``boundary_moments`` read first: each
body and facet is integrated at most once, an excluded facet not at all.
So checking every facet of a polytope, one divisor at a time, integrates
its body and boundary once, and a tower's divisor facet costs nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .errors import DimensionMismatch, InvariantViolation, UnsupportedDegree
from .linalg import IntVector, Matrix, Vector, det_int, dot
from .polytope import DelzantPolytope
from .record import Record


class Poly2(Record):
    """Polynomial of degree at most two: constant + linear.x + x.quad.x.

    ``quad`` is kept symmetric, so the quadratic part evaluates as the
    full double sum without factor juggling.
    """

    constant: Fraction
    linear: Vector
    quad: Matrix

    def __post_init__(self) -> None:
        n = len(self.linear)
        constant = Fraction(self.constant)
        linear = tuple(Fraction(x) for x in self.linear)
        quad = tuple(tuple(Fraction(x) for x in row) for row in self.quad)
        if len(quad) != n or any(len(row) != n for row in quad):
            raise DimensionMismatch("quadratic part must be an n x n matrix")
        if any(quad[i][j] != quad[j][i] for i in range(n) for j in range(i)):
            raise ValueError("quadratic part must be symmetric")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quad", quad)

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        p = tuple(Fraction(x) for x in point)
        if len(p) != self.dimension:
            raise DimensionMismatch(
                f"polynomial in {self.dimension} variables evaluated at length {len(p)}"
            )
        value = self.constant + dot(self.linear, p)
        for row, x in zip(self.quad, p):
            value += x * dot(row, p)
        return value

    @classmethod
    def from_monomials(
        cls, dimension: int, monomials: Mapping[tuple[int, ...], Fraction]
    ) -> "Poly2":
        """Build from {exponent tuple: coefficient}; degree > 2 is refused."""
        constant = Fraction(0)
        linear = [Fraction(0)] * dimension
        quad = [[Fraction(0)] * dimension for _ in range(dimension)]
        for alpha, raw in monomials.items():
            if len(alpha) != dimension:
                raise DimensionMismatch(
                    f"exponent tuple {alpha} does not have length {dimension}"
                )
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = Fraction(raw)
            degree = sum(alpha)
            if degree > 2:
                raise UnsupportedDegree(
                    f"monomial {alpha} has degree {degree}, supported degree is <= 2"
                )
            if degree == 0:
                constant += coeff
            elif degree == 1:
                linear[alpha.index(1)] += coeff
            else:
                support = [i for i, a in enumerate(alpha) if a > 0]
                if len(support) == 1:
                    quad[support[0]][support[0]] += coeff
                else:
                    i, j = support
                    quad[i][j] += coeff / 2
                    quad[j][i] += coeff / 2
        return cls(
            constant=constant,
            linear=tuple(linear),
            quad=tuple(tuple(row) for row in quad),
        )


def _graded(q: Poly2) -> tuple[int, Callable[[IntVector], tuple[int, ...]]]:
    """L and X -> L (q_0, q_1(X), q_2(X)) in ints, L the lcm of q's denominators."""
    n = q.dimension
    terms = [((), q.constant), *(((i,), c) for i, c in enumerate(q.linear))]
    terms += [((i, j), q.quad[i][j] * (1 + (i < j))) for i in range(n) for j in range(i, n)]
    lcm = math.lcm(*[c.denominator for _, c in terms])
    parts = [
        [(idx, c.numerator * (lcm // c.denominator)) for idx, c in terms if c and len(idx) == d]
        for d in range(3)
    ]
    return lcm, lambda x: tuple(
        sum(c * math.prod(x[i] for i in idx) for idx, c in part) for part in parts
    )


class MomentData(Record):
    """Volume, first, and second moments of a polytope."""

    volume: Fraction
    first_moments: Vector
    second_moments: Matrix

    @property
    def barycenter(self) -> Vector:
        return tuple(x / self.volume for x in self.first_moments)

    @property
    def gram(self) -> Matrix:
        """Moment matrix of {1, x_1, ..., x_n}: block [[vol, m1], [m1, m2]]."""
        n = len(self.first_moments)
        top = (self.volume,) + self.first_moments
        rows = [top]
        for i in range(n):
            rows.append((self.first_moments[i],) + self.second_moments[i])
        return tuple(rows)


class FacetMoments(Record):
    """Lattice measure and ambient first moments of a single facet."""

    measure: Fraction
    first_moments: Vector


class BoundaryMomentData(Record):
    """Per-facet boundary moments; excluded facets carry None entries.

    At least one entry must be a ``FacetMoments``: the boundary of a
    polytope minus all of its facets has no first moments to report.
    """

    facets: tuple[FacetMoments | None, ...]
    excluded: tuple[int, ...]

    def __post_init__(self) -> None:
        if all(fm is None for fm in self.facets):
            raise ValueError("cannot exclude every facet of the polytope")

    @property
    def measure(self) -> Fraction:
        return sum(
            (fm.measure for fm in self.facets if fm is not None), Fraction(0)
        )

    @property
    def first_moments(self) -> Vector:
        included = [fm for fm in self.facets if fm is not None]
        n = len(included[0].first_moments)
        return tuple(
            sum((fm.first_moments[i] for fm in included), Fraction(0))
            for i in range(n)
        )


def _simplex_rule(
    points: Sequence[IntVector], k: int, normal: IntVector | None = None
) -> tuple[tuple[int, IntVector], ...]:
    """Integer (weight, node) pairs of the degree-3 rule on a k-simplex.

    ``points`` are the vertices Q times a common denominator D, and a node
    X stands for X / S, S = D (k+1)(k+3): the centroid (k+3) sum Q, of
    weight -(k+1)^3 |det|, and per vertex (k+1)(sum Q + 2 Q_p), of weight
    (k+3)^2 |det|, det = det[u; Q_1 - Q_0; ...] with u the facet normal if
    given.  ``_integrate`` divides by 4(k+1)(k+2) k! D^k (times <u, u>).
    """
    if len(points) != k + 1:
        raise InvariantViolation(f"a {k}-simplex needs {k + 1} points, got {len(points)}")
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    if normal is not None:
        rows.insert(0, list(normal))
    det = abs(det_int(rows))
    total = [sum(column) for column in zip(*points)]
    rule = [(-((k + 1) ** 3) * det, tuple((k + 3) * t for t in total))]
    weight = (k + 3) ** 2 * det
    for p in points:
        rule.append((weight, tuple((k + 1) * (t + 2 * x) for t, x in zip(total, p))))
    return tuple(rule)


Simplices = tuple[tuple[int, ...], ...]


def _fan(
    poly: DelzantPolytope, face: frozenset[int], d: int, memo: dict[frozenset[int], Simplices]
) -> Simplices:
    """Fan triangulation of the d-dimensional face with these vertex indices.

    Simplices are tuples of vertex indices into ``poly.vertices``.  The
    face is coned from its lexicographically smallest vertex, its least
    index since vertices are sorted, over its subfaces missing the apex:
    its intersections with the facets tight at some vertex of the face
    but not at the apex, kept when ``poly.face_dim`` is one less.  Faces
    are vertex index sets, which makes ``memo`` exact across branches,
    and across the body and its facets.
    """
    if face not in memo:
        if len(face) == d + 1:
            memo[face] = (tuple(sorted(face)),)
        else:
            apex = min(face)
            active = poly.vertices[apex].active
            near = {j for i in face for j in poly.vertices[i].active}.difference(active)
            subfaces = sorted({face & poly.facet_vertices[j] for j in near}, key=sorted)
            memo[face] = tuple(
                s + (apex,)
                for sub in subfaces
                if poly.face_dim(sub) == d - 1
                for s in _fan(poly, sub, d - 1, memo)
            )
    return memo[face]


# Bounded so that a long run (a chop tower) does not keep every polytope
# alive; one moment check needs far fewer entries than this.
@lru_cache(maxsize=256)
def _triangulate(
    poly: DelzantPolytope,
) -> tuple[Simplices, tuple[Simplices, ...], dict[int | None, MomentData | FacetMoments]]:
    """The store entry of ``poly``: the fan triangulations of its body and
    of each facet's face, and the moments integrated so far, by domain as
    ``_integrate`` names it (None for the body, else a facet index), each
    written once its integral has completed."""
    memo: dict[frozenset[int], Simplices] = {}
    n = poly.dim
    body = _fan(poly, frozenset(range(len(poly.vertices))), n, memo)
    return body, tuple(_fan(poly, face, n - 1, memo) for face in poly.facet_vertices), {}


def _integrate(
    poly: DelzantPolytope,
    forms: Callable[[IntVector], Sequence[int]],
    degrees: Sequence[int],
    domains: Sequence[int | None] = (None,),
) -> tuple[tuple[Fraction, ...], ...]:
    """Exact integrals of homogeneous forms over the body or facets in dsigma.

    ``forms`` maps an integer node X to one int per component, component c
    of degree ``degrees[c]`` <= 3.  Each domain is the body (None) or a
    facet index, and gets one tuple of integrals.  The simplices index
    the polytope's integer vertex table, points D * v, so every node is
    an int; each sum is divided once at the end.
    """
    if any(d > 3 for d in degrees):
        raise InvariantViolation(f"the degree-3 rule cannot integrate degrees {tuple(degrees)}")
    body, faces, _ = _triangulate(poly)
    lcm, table = poly.scaled_vertices
    out = []
    for facet in domains:
        normal = None if facet is None else poly.facets[facet].normal
        k = poly.dim if normal is None else poly.dim - 1
        total = [0] * len(degrees)
        for s in body if facet is None else faces[facet]:
            for weight, node in _simplex_rule([table[i] for i in s], k, normal):
                total = [t + weight * v for t, v in zip(total, forms(node))]
        scale = 4 * (k + 1) * (k + 2) * math.factorial(k) * lcm**k
        if normal is not None:
            scale *= sum(x * x for x in normal)
        s_node = lcm * (k + 1) * (k + 3)
        out.append(
            tuple(Fraction(t, scale * s_node**d) for t, d in zip(total, degrees, strict=True))
        )
    return tuple(out)


def polytope_moments(poly: DelzantPolytope) -> MomentData:
    """Exact volume, first, and second moments of the polytope.

    The body is integrated once per polytope, for up to 256 polytopes;
    later calls, also with an equal polytope, read the stored result.
    """
    stored = _triangulate(poly)[2]
    if None in stored:
        return stored[None]
    n = poly.dim
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    (values,) = _integrate(
        poly,
        lambda x: (1, *x, *(x[i] * x[j] for i, j in pairs)),
        (0, *[1] * n, *[2] * len(pairs)),
    )
    second = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), value in zip(pairs, values[n + 1 :]):
        second[i][j] = second[j][i] = value
    stored[None] = moments = MomentData(
        volume=values[0],
        first_moments=values[1 : n + 1],
        second_moments=tuple(tuple(row) for row in second),
    )
    return moments


def boundary_moments(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> BoundaryMomentData:
    """Lattice boundary moments, facet by facet, skipping excluded facets.

    Excluded facets are not integrated.  Each kept facet is integrated
    once per polytope, for up to 256 polytopes: one ``_integrate`` call
    covers the kept facets that no earlier call integrated.
    """
    skip = sorted({poly.resolve_facet(key) for key in excluded})
    stored = _triangulate(poly)[2]
    missing = [i for i in range(len(poly.facets)) if i not in skip and i not in stored]
    if missing:
        values = _integrate(poly, lambda x: (1, *x), (0, *[1] * poly.dim), missing)
        stored.update((i, FacetMoments(v[0], v[1:])) for i, v in zip(missing, values))
    entries = tuple(
        None if i in skip else stored[i] for i in range(len(poly.facets))
    )
    return BoundaryMomentData(facets=entries, excluded=tuple(skip))


def _integrate_poly2(
    poly: DelzantPolytope, q: Poly2, domains: Sequence[int | None]
) -> Fraction:
    """Sum of the integrals of q over the body (None) or facets (indices)."""
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables over a {poly.dim}-dimensional polytope"
        )
    scale, parts = _graded(q)
    integrals = _integrate(poly, parts, (0, 1, 2), domains)
    return sum((sum(values) for values in integrals), Fraction(0)) / scale


def integrate_polynomial(poly: DelzantPolytope, q: Poly2) -> Fraction:
    """Integral of a degree <= 2 polynomial over the polytope."""
    return _integrate_poly2(poly, q, [None])


def integrate_polynomial_boundary(
    poly: DelzantPolytope, q: Poly2, excluded: Sequence[int | str] = ()
) -> Fraction:
    """Integral of q over the boundary minus excluded facets, in dsigma.

    With every facet excluded the integral is 0.
    """
    skip = {poly.resolve_facet(key) for key in excluded}
    return _integrate_poly2(poly, q, [i for i in range(len(poly.facets)) if i not in skip])
