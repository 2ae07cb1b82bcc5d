"""Exact volume and boundary moments of Delzant polytopes.

Every integral is a sum, over one fan triangulation of the polytope that
also triangulates each facet, of closed-form simplex moments (Baldoni,
Berline, De Loera, Koeppe and Vergne, "How to integrate a polynomial over
a simplex", Math. Comp. 80, 2011).  On a k-simplex of mass mu with
vertices v_0, ..., v_k, the barycentric monomials integrate as
lambda^beta -> mu k! beta! / (k + |beta|)!; expanding x = sum_p lambda_p v_p
and writing S = sum_p v_p for the vertex sum gives

    int 1             = mu
    int x_i           = mu S_i / (k+1)
    int x_i x_j       = mu (S_i S_j + sum_p v_pi v_pj) / ((k+1)(k+2))
    int x_i x_j x_l   = mu (S_i S_j S_l + sum_p (S_i v_pj v_pl + S_j v_pi v_pl
                        + S_l v_pi v_pj) + 2 sum_p v_pi v_pj v_pl)
                        / ((k+1)(k+2)(k+3)).

These are identities, not a quadrature rule, so every integral is exact.
Degree 3 suffices because every integrand in the package has degree at
most 3: the moments and ``Poly2`` have degree at most 2, and the volume
side of ``relative_futaki`` integrates q * A, a quadratic times an
affine function.  The body carries Lebesgue measure, mu = |det[edges]| / n!.
A facet with primitive normal u carries the lattice boundary measure
(the one with d(lattice volume) equal to d(boundary measure) wedged with
the pairing against u); on a facet simplex mu = |det[u; edges]| /
((n-1)! <u, u>), so no facet chart or facet polytope is built.

The sums run on ints: the triangulation's simplices index the
polytope's integer vertex table (``DelzantPolytope.scaled_vertices``, the
points Q = D v), and in Q every numerator above is an integer, over
k! D^(k+d) (k+1)...(k+d) at degree d.  Summed over the simplices of one
domain, each sum_p term becomes a sum over the domain's vertices: a
simplex's |det| times f(Q_p), for each of its vertices p, adds up to
w_p f(Q_p), the per-vertex weight w_p being the sum of |det| over the
simplices that hold p, and the cross term of degree 3 reads the weight
sum of |det| S over them.  So a simplex adds only |det|, |det| S (x) S
(and (x) S at degree 3) and its share of the weights, the first moments
are sum_p w_p Q_p, and each sum is divided once at the end.  Nothing is
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
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, InvariantViolation, UnsupportedDegree
from .linalg import Matrix, Vector, det_int, dot
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
    of each facet's face, the simplices ``_integrate`` sums over, and the
    moments integrated so far, by domain as ``_integrate`` names it (None
    for the body, else a facet index), each written once its integral has
    completed.  The per-vertex weights are built per integral and not
    kept: a domain is integrated once, so they would never be read again."""
    memo: dict[frozenset[int], Simplices] = {}
    n = poly.dim
    body = _fan(poly, frozenset(range(len(poly.vertices))), n, memo)
    return body, tuple(_fan(poly, face, n - 1, memo) for face in poly.facet_vertices), {}


def _idot(a: Iterable[int], b: Iterable[int]) -> int:
    return sum(map(mul, a, b))


def _integrate(
    poly: DelzantPolytope, degree: int, domains: Sequence[int | None] = (None,)
) -> tuple[dict[tuple[int, ...], Fraction], ...]:
    """Exact integral of every monomial of degree <= ``degree`` <= 3 over
    each domain in dsigma, by the simplex moments of the module docstring.

    Each domain is the body (None) or a facet index, and gets one dict
    from monomials to integrals: x_i x_j ... is keyed by its sorted
    variable indices (i, j, ...), in the order of
    ``combinations_with_replacement``, degree by degree.  Each simplex of
    the domain gives |det| (a facet simplex its mass in the form below)
    and, from degree 2, its vertex sum S; its |det| goes into the weight
    w_p of each of its vertices, and from degree 3 its |det| S into the
    cross weight.  Simplex terms are sums over the simplices, vertex
    terms sums over the domain's vertices, all in int; each is divided
    once at the end.
    """
    if degree > 3:
        raise InvariantViolation(f"the simplex moments are exact to degree 3, not {degree}")
    body, faces, _ = _triangulate(poly)
    lcm, table = poly.scaled_vertices
    n = poly.dim
    out = []
    for facet in domains:
        if facet is None:
            k, simplices, mass, flat = n, body, 1, table
            vertices: Iterable[int] = range(len(table))
        else:
            # The n - 1 edges of a facet simplex lie in u-perp, so their
            # signed (n-1)-minors C are parallel to u and det[u; edges]
            # = <u, u> C_c / u_c: the lattice mass |det[u; edges]| / <u, u>
            # is |C_c| / |u_c|, the edges' determinant without column c.
            normal = poly.facets[facet].normal
            mass, drop = min((abs(x), c) for c, x in enumerate(normal) if x)
            k, simplices = n - 1, faces[facet]
            vertices = sorted(poly.facet_vertices[facet])
            flat = {i: table[i][:drop] + table[i][drop + 1 :] for i in vertices}
        weight = dict.fromkeys(vertices, 0)
        dets = []
        for s in simplices:
            base, *rest = [flat[i] for i in s]
            det = abs(det_int([list(map(sub, p, base)) for p in rest]))
            dets.append(det)
            for i in s:
                weight[i] += det
        points = [[table[i][c] for i in weight] for c in range(n)]
        weighted = [list(map(mul, weight.values(), column)) for column in points]
        raw = {(): sum(dets)}
        if degree > 0:
            raw.update(((i,), sum(weighted[i])) for i in range(n))
        if degree > 1:
            sums = list(zip(*[map(sum, zip(*[table[i] for i in s])) for s in simplices]))
            det_sums = [list(map(mul, dets, column)) for column in sums]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                raw[i, j] = _idot(det_sums[i], sums[j]) + _idot(weighted[i], points[j])
        if degree > 2:
            cross = {i: [0] * n for i in weight}
            for s, d, *total in zip(simplices, dets, *sums):
                for i in s:
                    cross[i] = [a + d * b for a, b in zip(cross[i], total)]
            cross_columns = [[cross[i][c] for i in weight] for c in range(n)]
            for i, j, l in itertools.combinations_with_replacement(range(n), 3):
                raw[i, j, l] = (
                    _idot(map(mul, det_sums[i], sums[j]), sums[l])
                    + _idot(cross_columns[i], map(mul, points[j], points[l]))
                    + _idot(cross_columns[j], map(mul, points[i], points[l]))
                    + _idot(cross_columns[l], map(mul, points[i], points[j]))
                    + 2 * _idot(map(mul, weighted[i], points[j]), points[l])
                )
        scale = [math.factorial(k) * lcm**k * mass]
        for d in range(1, degree + 1):
            scale.append(scale[-1] * (k + d) * lcm)
        out.append({m: Fraction(t, scale[len(m)]) for m, t in raw.items()})
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
    (values,) = _integrate(poly, 2)
    stored[None] = moments = MomentData(
        volume=values[()],
        first_moments=tuple(values[i,] for i in range(n)),
        second_moments=tuple(
            tuple(values[min(i, j), max(i, j)] for j in range(n)) for i in range(n)
        ),
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
        values = _integrate(poly, 1, missing)
        stored.update(
            (i, FacetMoments(v[()], tuple(v[c,] for c in range(poly.dim))))
            for i, v in zip(missing, values)
        )
    entries = tuple(
        None if i in skip else stored[i] for i in range(len(poly.facets))
    )
    return BoundaryMomentData(facets=entries, excluded=tuple(skip))


def _coefficients(q: Poly2) -> dict[tuple[int, ...], Fraction]:
    """q's coefficient of each monomial, keyed as ``_monomials`` names it."""
    n = q.dimension
    out = {(): q.constant}
    out.update(((i,), c) for i, c in enumerate(q.linear))
    out.update(
        ((i, j), q.quad[i][j] * (1 + (i < j)))
        for i, j in itertools.combinations_with_replacement(range(n), 2)
    )
    return out


def _contract(
    coefficients: Mapping[tuple[int, ...], Fraction], integrals: Mapping[tuple[int, ...], Fraction]
) -> Fraction:
    """Integral of the polynomial with these monomial coefficients."""
    return sum((c * integrals[m] for m, c in coefficients.items() if c), Fraction(0))


def _integrate_poly2(
    poly: DelzantPolytope, q: Poly2, domains: Sequence[int | None]
) -> Fraction:
    """Sum of the integrals of q over the body (None) or facets (indices)."""
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables over a {poly.dim}-dimensional polytope"
        )
    coefficients = _coefficients(q)
    return sum(
        (_contract(coefficients, values) for values in _integrate(poly, 2, domains)), Fraction(0)
    )


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
