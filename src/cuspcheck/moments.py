"""Exact volume and boundary moments of Delzant polytopes.

Volume integrals go through a fan triangulation and the closed-form
monomial integral over a simplex; boundary integrals pull facets back
to their lattice charts, where the chart Lebesgue measure agrees with
the lattice boundary measure (the one with d(lattice volume) equal to
d(boundary measure) wedged with the pairing against the facet normal).
Everything is Fraction arithmetic; nothing is approximated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import DimensionMismatch, UnsupportedDegree
from .linalg import Matrix, Vector, affine_rank, det_int, dot
from .polytope import DelzantPolytope, facet_polytope


@dataclass(frozen=True)
class Poly2:
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

    @property
    def degree(self) -> int:
        if any(x != 0 for row in self.quad for x in row):
            return 2
        if any(x != 0 for x in self.linear):
            return 1
        return 0

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
    def zero(cls, dimension: int) -> "Poly2":
        return cls(
            constant=Fraction(0),
            linear=tuple(Fraction(0) for _ in range(dimension)),
            quad=tuple(
                tuple(Fraction(0) for _ in range(dimension)) for _ in range(dimension)
            ),
        )

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

    def to_monomials(self) -> dict[tuple[int, ...], Fraction]:
        n = self.dimension
        out: dict[tuple[int, ...], Fraction] = {}

        def unit(i: int) -> tuple[int, ...]:
            return tuple(1 if k == i else 0 for k in range(n))

        if self.constant != 0:
            out[tuple(0 for _ in range(n))] = self.constant
        for i, c in enumerate(self.linear):
            if c != 0:
                out[unit(i)] = c
        for i in range(n):
            if self.quad[i][i] != 0:
                out[tuple(2 if k == i else 0 for k in range(n))] = self.quad[i][i]
            for j in range(i + 1, n):
                if self.quad[i][j] != 0:
                    key = tuple(
                        (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
                    )
                    out[key] = 2 * self.quad[i][j]
        return out

    def compose_affine(
        self, origin: Sequence[Fraction], columns: Sequence[Sequence[Fraction]]
    ) -> "Poly2":
        """Pull back along y -> origin + sum_j y_j columns[j]."""
        o = tuple(Fraction(x) for x in origin)
        cols = [tuple(Fraction(x) for x in col) for col in columns]
        if len(o) != self.dimension or any(len(c) != self.dimension for c in cols):
            raise DimensionMismatch("affine substitution does not match dimension")
        qo = tuple(dot(row, o) for row in self.quad)
        constant = self.constant + dot(self.linear, o) + dot(o, qo)
        linear = tuple(dot(self.linear, c) + 2 * dot(qo, c) for c in cols)
        quad = tuple(
            tuple(dot(ci, tuple(dot(row, cj) for row in self.quad)) for cj in cols)
            for ci in cols
        )
        return Poly2(constant=constant, linear=linear, quad=quad)


@dataclass(frozen=True)
class MomentData:
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


@dataclass(frozen=True)
class FacetMoments:
    """Lattice measure and ambient first moments of a single facet."""

    measure: Fraction
    first_moments: Vector


@dataclass(frozen=True)
class BoundaryMomentData:
    """Per-facet boundary moments; excluded facets carry None entries."""

    facets: tuple[FacetMoments | None, ...]
    excluded: tuple[int, ...]

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


def _simplex_monomial_integral(
    vertices: Sequence[Vector], alpha: Sequence[int]
) -> Fraction:
    """Integral of x^alpha over the simplex spanned by the vertices.

    Expands the monomial in barycentric coordinates; the integral of a
    barycentric monomial lambda^beta is vol * n! * prod(beta!)/(n+|beta|)!.
    """
    n = len(alpha)
    assert len(vertices) == n + 1
    edges = [
        [vertices[i][k] - vertices[0][k] for k in range(n)] for i in range(1, n + 1)
    ]
    lcm = 1
    for row in edges:
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    int_edges = [[int(x * lcm) for x in row] for row in edges]
    volume = Fraction(abs(det_int(int_edges)), math.factorial(n)) / Fraction(lcm) ** n
    degree = sum(alpha)
    if degree == 0:
        return volume
    positions = [k for k, a in enumerate(alpha) for _ in range(a)]
    total = Fraction(0)
    for choice in itertools.product(range(n + 1), repeat=degree):
        term = Fraction(1)
        for pos, idx in zip(positions, choice):
            term *= vertices[idx][pos]
        if term == 0:
            continue
        counts: dict[int, int] = {}
        for idx in choice:
            counts[idx] = counts.get(idx, 0) + 1
        for c in counts.values():
            term *= math.factorial(c)
        total += term
    return volume * math.factorial(n) / math.factorial(n + degree) * total


# Bounded so that a long run (a chop tower) does not keep every polytope
# alive; one moment check needs far fewer entries than this.
@lru_cache(maxsize=256)
def _triangulate(poly: DelzantPolytope) -> tuple[tuple[Vector, ...], ...]:
    """Fan triangulation into simplices, each a tuple of n+1 vertex points.

    Recursively cones each face from its lexicographically smallest
    vertex over the face's own facets; faces are identified with their
    vertex index sets, which makes memoisation across branches exact.
    """
    points = [v.point for v in poly.vertices]
    tight = [frozenset(v.active) for v in poly.vertices]
    nfacets = len(poly.facets)
    cache: dict[frozenset[int], tuple[tuple[int, ...], ...]] = {}

    def face_rank(face: frozenset[int]) -> int:
        return affine_rank([points[i] for i in face])

    def tri(face: frozenset[int]) -> tuple[tuple[int, ...], ...]:
        if face in cache:
            return cache[face]
        d = face_rank(face)
        if len(face) == d + 1:
            result: tuple[tuple[int, ...], ...] = (tuple(sorted(face)),)
            cache[face] = result
            return result
        apex = min(face, key=lambda i: points[i])
        subfaces = set()
        for j in range(nfacets):
            sub = frozenset(i for i in face if j in tight[i])
            if apex in sub or not sub:
                continue
            if face_rank(sub) == d - 1:
                subfaces.add(sub)
        simplices = []
        for sub in sorted(subfaces, key=sorted):
            for s in tri(sub):
                simplices.append(s + (apex,))
        result = tuple(simplices)
        cache[face] = result
        return result

    top = frozenset(range(len(points)))
    return tuple(tuple(points[i] for i in s) for s in tri(top))


def _integrate_monomial(poly: DelzantPolytope, alpha: Sequence[int]) -> Fraction:
    """Exact integral of x^alpha over the polytope, any degree."""
    if len(alpha) != poly.dim:
        raise DimensionMismatch(
            f"exponent tuple has length {len(alpha)}, polytope dimension is {poly.dim}"
        )
    return sum(
        (_simplex_monomial_integral(s, tuple(alpha)) for s in _triangulate(poly)),
        Fraction(0),
    )


def polytope_moments(poly: DelzantPolytope) -> MomentData:
    """Exact volume, first, and second moments of the polytope."""
    n = poly.dim
    volume = _integrate_monomial(poly, tuple(0 for _ in range(n)))
    first = tuple(
        _integrate_monomial(poly, tuple(1 if k == i else 0 for k in range(n)))
        for i in range(n)
    )
    second_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(second_rows[j][i])
            else:
                alpha = tuple(
                    (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
                )
                row.append(_integrate_monomial(poly, alpha))
        second_rows.append(row)
    return MomentData(
        volume=volume,
        first_moments=first,
        second_moments=tuple(tuple(row) for row in second_rows),
    )


def _facet_moments(poly: DelzantPolytope, index: int) -> FacetMoments:
    n = poly.dim
    if n == 1:
        # Zero-dimensional facet: the lattice measure is a unit point mass.
        f = poly.facets[index]
        point = tuple(f.offset * x for x in f.normal)
        return FacetMoments(measure=Fraction(1), first_moments=point)
    face, chart = facet_polytope(poly, index)
    m = polytope_moments(face)
    first = []
    for k in range(n):
        value = chart.origin[k] * m.volume
        for j, b in enumerate(chart.basis):
            value += b[k] * m.first_moments[j]
        first.append(value)
    return FacetMoments(measure=m.volume, first_moments=tuple(first))


def boundary_moments(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> BoundaryMomentData:
    """Lattice boundary moments, facet by facet, skipping excluded facets."""
    skip = sorted({poly.resolve_facet(key) for key in excluded})
    if len(skip) == len(poly.facets):
        raise ValueError("cannot exclude every facet of the polytope")
    entries: list[FacetMoments | None] = []
    for i in range(len(poly.facets)):
        entries.append(None if i in skip else _facet_moments(poly, i))
    return BoundaryMomentData(facets=tuple(entries), excluded=tuple(skip))


def integrate_polynomial(poly: DelzantPolytope, q: Poly2) -> Fraction:
    """Integral of a degree <= 2 polynomial over the polytope."""
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables over a {poly.dim}-dimensional polytope"
        )
    m = polytope_moments(poly)
    value = q.constant * m.volume + dot(q.linear, m.first_moments)
    for i in range(poly.dim):
        value += dot(q.quad[i], m.second_moments[i])
    return value


def integrate_polynomial_boundary(
    poly: DelzantPolytope, q: Poly2, excluded: Sequence[int | str] = ()
) -> Fraction:
    """Integral of q over the boundary minus excluded facets, in dsigma.

    Each facet integral is the chart pullback of q integrated over the
    facet polytope, which is exactly the lattice boundary integral.
    """
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables over a {poly.dim}-dimensional polytope"
        )
    skip = {poly.resolve_facet(key) for key in excluded}
    total = Fraction(0)
    for i in range(len(poly.facets)):
        if i in skip:
            continue
        if poly.dim == 1:
            f = poly.facets[i]
            point = tuple(f.offset * x for x in f.normal)
            total += q(point)
            continue
        face, chart = facet_polytope(poly, i)
        pulled = q.compose_affine(chart.origin, chart.basis)
        total += integrate_polynomial(face, pulled)
    return total
