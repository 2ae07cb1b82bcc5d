"""Exact moments of Delzant polytopes and of their faces.

Every integral is a sum, over one fan triangulation of the polytope that
also triangulates each face, of closed-form simplex moments (Baldoni,
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
affine function.

A domain is named by the facets it lies on: () the body, (i,) a facet,
(i, j) a ridge.  A face of codimension r, cut out by facets with normals
N (r x n), carries its lattice measure, the one in which the lattice
Lambda = Z^n & ker N of the face's directions has covolume 1.  One rule
gives the mass of a k-simplex of the face, k = n - r, for every r: take
an r-set K of columns whose minor N_K of N is nonzero, let g be the gcd
of all r x r minors of N and J the other k columns; then, with E_J the
k x k minor of the simplex's edges on J,

    mu = |E_J| g / (|N_K| k!).

It is exact.  The edges are T B for a basis B of Lambda, so E_J =
det T * B_J, and mu = |det T| / k!.  Lambda is saturated, and a
saturated lattice and its orthogonal lattice Z^n & rowspan N have the
same Pluecker coordinates up to one sign, so |B_J| = |q_K| for the
coordinates q of the orthogonal lattice; N's rows span a sublattice of
index g in it, so N_K = g q_K, and |det T| = |E_J| g / |N_K|.  For r = 0
this is the body's |det[edges]| / n!; for r = 1 a primitive normal u has
g = 1, so a facet simplex has |C_c| / (|u_c| (n-1)!), C_c the edges'
minor without column c, the lattice boundary measure (d(lattice volume)
is d(boundary measure) wedged with the pairing against u); a vertex
(r = n) has mass 1.  No face chart and no face polytope is built.  The
chart of a facet F maps Z^(n-1) onto F's lattice, so a ridge F & G in
this measure is a facet of F's facet polytope in its boundary measure,
and F's own measure is that polytope's volume.

The fan cones the body from its vertex 0 over the simplices of each
facet j that misses it, so a body simplex needs no n x n determinant:
its |det[edges]| is h |C_c| / |u_c|, the facet simplex's lattice mass
times (n-1)! times the lattice height h = <u_j, Q_0> - D c_j of the apex
over the facet.  Every minor the kernel takes is then at most
(n-1) x (n-1), closed-form in ``det_int`` up to n = 5.

The sums run on ints: the triangulation's simplices index the
polytope's integer vertex table (``DelzantPolytope.scaled_vertices``, the
points Q = D v), and in Q every numerator above is an integer, over
k! D^(k+d) (k+1)...(k+d) |N_K| / g at degree d.  Summed over the
simplices of one domain, each sum_p term becomes a sum over the domain's
vertices: a simplex's |det| times f(Q_p), for each of its vertices p,
adds up to w_p f(Q_p), the per-vertex weight w_p being the sum of |det|
over the simplices that hold p, and the cross term of degree 3 reads the
weight sum of |det| S over them.  So a simplex adds only |det|, |det| S
for the first moments, |det| S (x) S (and (x) S at degree 3) and its
share of the weights, which are built only from degree 2, and each sum
is divided once, by its degree's scale, when a reader builds its
Fraction.  Nothing is approximated.

One store entry per polytope, keyed on its value and bounded at 256
polytopes, holds its fan triangulations, the raw int sums and their
scales of each domain integrated so far, to the highest degree asked,
and the moments the public readers built from them.  Fractions are built
only by the readers (``polytope_moments``, ``boundary_moments``, the
``integrate_polynomial`` pair, and ``extremal``'s ``relative_futaki``
and reports); the Gram solves of ``extremal`` and ``obstruction`` read
the int sums.  Each domain is integrated at most once per degree, an
excluded facet not at all.  So checking every facet of a polytope, one
divisor at a time, integrates its body once, each facet at most once per
degree and each ridge once, and builds no other polytope.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul, sub
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
    The totals ``measure`` and ``first_moments`` are built once, on first
    read, each summed in int over one common denominator.
    """

    facets: tuple[FacetMoments | None, ...]
    excluded: tuple[int, ...]

    def __post_init__(self) -> None:
        if all(fm is None for fm in self.facets):
            raise ValueError("cannot exclude every facet of the polytope")

    @functools.cached_property
    def _totals(self) -> tuple[Fraction, Vector]:
        columns = zip(*[(fm.measure, *fm.first_moments) for fm in self.facets if fm is not None])
        totals = []
        for column in columns:
            den = math.lcm(*[x.denominator for x in column])
            totals.append(Fraction(sum(x.numerator * (den // x.denominator) for x in column), den))
        return totals[0], tuple(totals[1:])

    @property
    def measure(self) -> Fraction:
        return self._totals[0]

    @property
    def first_moments(self) -> Vector:
        return self._totals[1]


Simplices = tuple[tuple[int, ...], ...]
# A domain is named by the facets it lies on: () the body, (i,) facet i,
# (i, j) with i < j the ridge on facets i and j.
Domain = tuple[int, ...]
# The raw int sum of each monomial, keyed as ``_integrate`` keys it, and the
# scale of each degree: the integral of monomial m is raw[m] / scale[len(m)].
Sums = tuple[dict[tuple[int, ...], int], tuple[int, ...]]


def _fan(
    poly: DelzantPolytope, face: frozenset[int], d: int, memo: dict[frozenset[int], Simplices]
) -> Simplices:
    """Fan triangulation of the d-dimensional face with these vertex indices.

    Simplices are tuples of vertex indices into ``poly.vertices``.  The
    face is coned from its lexicographically smallest vertex, its least
    index since vertices are sorted, over its subfaces missing the apex:
    its intersections with the facets tight at some vertex of the face
    but not at the apex, kept when ``poly.face_dim`` is one less, in the
    order of the least such facet that cuts each out.  Faces are vertex
    index sets, which makes ``memo`` exact across branches, and across
    the body and its facets, or across a call's ridges.  The body's
    subfaces are the facets that miss the apex, each of dimension n - 1
    by ``DelzantPolytope._check_faces``, so they are not tested, and the
    body's simplices are theirs, coned, in facet order.
    """
    if face not in memo:
        if len(face) == d + 1:
            memo[face] = (tuple(sorted(face)),)
        else:
            apex = min(face)
            active = poly.vertices[apex].active
            near = sorted({j for i in face for j in poly.vertices[i].active}.difference(active))
            subfaces = dict.fromkeys(face & poly.facet_vertices[j] for j in near)
            memo[face] = tuple(
                s + (apex,)
                for sub in subfaces
                if d == poly.dim or poly.face_dim(sub) == d - 1
                for s in _fan(poly, sub, d - 1, memo)
            )
    return memo[face]


# Bounded so that a long run (a chop tower) does not keep every polytope
# alive; one moment check needs far fewer entries than this.
@functools.lru_cache(maxsize=256)
def _triangulate(
    poly: DelzantPolytope,
) -> tuple[
    Simplices,
    tuple[Simplices, ...],
    dict[int | None, MomentData | FacetMoments],
    dict[Domain, Sums],
]:
    """The store entry of ``poly``: the fan triangulations of its body and
    of each facet's face; the moments the readers built, None for the body,
    else a facet index; and the raw int sums of each domain integrated so
    far, to the highest degree asked.  A ridge is triangulated when it is
    integrated, and neither its fan nor the per-vertex weights are kept:
    a domain is integrated once per degree, so they would never be read
    again."""
    memo: dict[frozenset[int], Simplices] = {}
    n = poly.dim
    body = _fan(poly, frozenset(range(len(poly.vertices))), n, memo)
    return body, tuple(_fan(poly, face, n - 1, memo) for face in poly.facet_vertices), {}, {}


def _idot(a: Iterable[int], b: Iterable[int]) -> int:
    return sum(map(mul, a, b))


def _mass_rule(normals: Sequence[Sequence[int]], n: int) -> tuple[int, list[int]]:
    """The mass rule of a face cut out by these normals: |N_K| / g and the
    columns J the edges keep, K being the least r-set of columns, by
    minor and then by position, whose minor is nonzero.  For a facet,
    whose normal u is primitive, g = 1 and the minors are the |u_c|."""
    if len(normals) == 1:
        mass, drop = min((abs(x), c) for c, x in enumerate(normals[0]) if x)
        return mass, [c for c in range(n) if c != drop]
    minors = [
        (abs(det_int([[u[c] for c in cols] for u in normals])), cols)
        for cols in itertools.combinations(range(n), len(normals))
    ]
    mass, drop = min((m, cols) for m, cols in minors if m)
    return mass // math.gcd(*[m for m, _ in minors]), [c for c in range(n) if c not in drop]


def _minors(table: Sequence[Sequence[int]], simplices: Simplices, keep: list[int]) -> list[int]:
    """|E_J| of each simplex: the minor of its edges on the columns J."""
    if len(keep) < 2:
        if not keep:
            return [1] * len(simplices)
        (c,) = keep
        return [abs(table[b][c] - table[a][c]) for a, b in simplices]
    pick = itemgetter(*keep)
    out = []
    for s in simplices:
        base, *rest = [pick(table[i]) for i in s]
        out.append(abs(det_int([list(map(sub, p, base)) for p in rest])))
    return out


def _body_dets(poly: DelzantPolytope, facets: tuple[Simplices, ...]) -> list[int]:
    """|det[edges]| of each body simplex, in the order of the body's fan.

    ``_fan`` cones the body from vertex 0 over the simplices of each facet
    j that misses it, in facet order (a body that is one simplex is that
    cone too).  With h = <u_j, Q_0> - D c_j, the height of Q_0 over the
    facet, such a simplex has |det| = h |C_c| / |u_c|, C_c the facet
    simplex's minor under the facet's mass rule: its edges are T B for a
    basis B of the facet's lattice, completed to a unimodular frame by a w
    with <u_j, w> = 1, in which the apex edge has w-coordinate h.  So
    every body simplex takes one (n-1) x (n-1) minor.
    """
    table = poly.scaled_vertices[1]
    dets: list[int] = []
    for j, face in enumerate(poly.facet_vertices):
        if 0 in face:
            continue
        u = poly.facets[j].normal
        mass, keep = _mass_rule([u], poly.dim)
        height = _idot(u, table[0]) - _idot(u, table[facets[j][0][0]])
        dets += [height * m // mass for m in _minors(table, facets[j], keep)]
    return dets


def _integrate(
    poly: DelzantPolytope, degree: int, domains: Sequence[Domain] = ((),)
) -> tuple[Sums, ...]:
    """Exact integral of every monomial of degree <= ``degree`` <= 3 over
    each domain in its lattice measure, by the simplex moments of the
    module docstring, as raw int sums and their scales.

    Each domain, named by the facets it lies on, gets one dict from
    monomials to raw sums: x_i x_j ... is keyed by its sorted variable
    indices (i, j, ...), in the order of ``combinations_with_replacement``,
    degree by degree.  Each simplex of a domain of dimension k gives |det|,
    the k x k minor of its edges on the columns the mass rule keeps (for
    the body, by the cone rule of ``_body_dets``), and its vertex sum S;
    the first moments are sum_s |det| S.  From degree 2 its |det| goes
    into the weight w_p of each of its vertices, and from degree 3 its
    |det| S into the cross weight.  Simplex terms are sums over the
    simplices, vertex terms sums over the domain's vertices, all in int;
    the scale of degree d is the one denominator
    k! D^(k+d) (k+1)...(k+d) |N_K| / g.
    """
    if degree > 3:
        raise InvariantViolation(f"the simplex moments are exact to degree 3, not {degree}")
    body, facets = _triangulate(poly)[:2]
    lcm, table = poly.scaled_vertices
    n = poly.dim
    memo: dict[frozenset[int], Simplices] = {}
    out = []
    for domain in domains:
        k = n - len(domain)
        if not domain:
            simplices, dets, mass = body, _body_dets(poly, facets), 1
        else:
            if len(domain) == 1:
                simplices = facets[domain[0]]
            else:
                face = frozenset.intersection(*[poly.facet_vertices[i] for i in domain])
                simplices = _fan(poly, face, k, memo)
            mass, keep = _mass_rule([poly.facets[i].normal for i in domain], n)
            dets = _minors(table, simplices, keep)
        raw = {(): sum(dets)}
        if degree > 0:
            sums = list(zip(*[map(sum, zip(*map(table.__getitem__, s))) for s in simplices]))
            det_sums = [list(map(mul, dets, column)) for column in sums]
            for i, column in enumerate(det_sums):
                raw[i,] = sum(column)
        if degree > 1:
            weight: dict[int, int] = {}
            for s, d in zip(simplices, dets):
                for i in s:
                    weight[i] = weight.get(i, 0) + d
            points = [[table[i][c] for i in weight] for c in range(n)]
            weighted = [list(map(mul, weight.values(), column)) for column in points]
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
        out.append((raw, tuple(scale)))
    return tuple(out)


def _sums(poly: DelzantPolytope, degree: int, domains: Sequence[Domain]) -> list[Sums]:
    """The stored raw sums of each domain, to at least ``degree``.

    One ``_integrate`` call covers the domains that no earlier call
    integrated to this degree; its sums replace any of lower degree.
    """
    stored = _triangulate(poly)[3]
    missing = [d for d in domains if d not in stored or len(stored[d][1]) <= degree]
    if missing:
        stored.update(zip(missing, _integrate(poly, degree, missing)))
    return [stored[d] for d in domains]


def _value(sums: Sums, monomial: tuple[int, ...]) -> Fraction:
    raw, scale = sums
    return Fraction(raw[monomial], scale[len(monomial)])


def _linear_image(sums: Sums, matrix: Sequence[Sequence[int]]) -> Sums:
    """The sums of degree <= 2 in y = matrix x, an integer linear map:
    each monomial in y is an integer combination of those in x, so its raw
    sum is the same combination, over the same scales.  The measure stays
    the domain's lattice measure, which a facet's chart maps to Lebesgue
    measure."""
    raw, scale = sums
    n = len(matrix[0])
    out = {(): raw[()]}
    if len(scale) > 1:
        out.update(((a,), _idot(row, [raw[i,] for i in range(n)])) for a, row in enumerate(matrix))
    if len(scale) > 2:
        second = [[raw[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        half = [[_idot(row, column) for column in second] for row in matrix]
        for a, b in itertools.combinations_with_replacement(range(len(matrix)), 2):
            out[a, b] = _idot(half[a], matrix[b])
    return out, scale[:3]


def polytope_moments(poly: DelzantPolytope) -> MomentData:
    """Exact volume, first, and second moments of the polytope.

    The body is integrated once per polytope, for up to 256 polytopes;
    later calls, also with an equal polytope, read the stored result.
    """
    stored = _triangulate(poly)[2]
    if None in stored:
        return stored[None]
    n = poly.dim
    (body,) = _sums(poly, 2, [()])
    values = {m: _value(body, m) for m in body[0] if len(m) < 3}
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
        stored.update(
            (i, FacetMoments(_value(s, ()), tuple(_value(s, (c,)) for c in range(poly.dim))))
            for i, s in zip(missing, _sums(poly, 1, [(i,) for i in missing]))
        )
    entries = tuple(
        None if i in skip else stored[i] for i in range(len(poly.facets))
    )
    return BoundaryMomentData(facets=entries, excluded=tuple(skip))


def _coefficients(q: Poly2) -> dict[tuple[int, ...], Fraction]:
    """q's coefficient of each monomial, keyed as ``_integrate`` keys it."""
    n = q.dimension
    out = {(): q.constant}
    out.update(((i,), c) for i, c in enumerate(q.linear))
    out.update(
        ((i, j), q.quad[i][j] * (1 + (i < j)))
        for i, j in itertools.combinations_with_replacement(range(n), 2)
    )
    return out


def _contract(coefficients: Mapping[tuple[int, ...], Fraction], sums: Sums) -> Fraction:
    """Integral of the polynomial with these monomial coefficients."""
    return sum((c * _value(sums, m) for m, c in coefficients.items() if c), Fraction(0))


def _integrate_poly2(poly: DelzantPolytope, q: Poly2, domains: Sequence[Domain]) -> Fraction:
    """Sum of the integrals of q over the body (()) or facets ((i,))."""
    if q.dimension != poly.dim:
        raise DimensionMismatch(
            f"polynomial in {q.dimension} variables over a {poly.dim}-dimensional polytope"
        )
    coefficients = _coefficients(q)
    return sum((_contract(coefficients, s) for s in _sums(poly, 2, domains)), Fraction(0))


def integrate_polynomial(poly: DelzantPolytope, q: Poly2) -> Fraction:
    """Integral of a degree <= 2 polynomial over the polytope."""
    return _integrate_poly2(poly, q, [()])


def integrate_polynomial_boundary(
    poly: DelzantPolytope, q: Poly2, excluded: Sequence[int | str] = ()
) -> Fraction:
    """Integral of q over the boundary minus excluded facets, in dsigma.

    With every facet excluded the integral is 0.
    """
    skip = {poly.resolve_facet(key) for key in excluded}
    return _integrate_poly2(poly, q, [(i,) for i in range(len(poly.facets)) if i not in skip])
