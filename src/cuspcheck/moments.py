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
(i, j) a ridge; None names the whole boundary.  A face of codimension r, cut out by facets with normals
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
and F's own measure is that polytope's volume.  These measures are the
faces' own, so they need no coordinates: the divisor check solves F's
Gram system from F's stored sums in the ambient columns J its mass rule
keeps, which map F's hyperplane onto R^(n-1) one to one, and no sum is
mapped into a chart.

The body has no fan of its own: it is the cone from its vertex 0 over
the simplices of each facet j that misses it, so a body simplex needs
no n x n determinant.  Its |det[edges]| is h |C_c| / |u_c|, the facet
simplex's lattice mass times (n-1)! times the lattice height
h = <u_j, Q_0> - D c_j of the apex over the facet: the facet simplex's
edges are T B for a basis B of the facet's lattice, completed to a
unimodular frame by a w with <u_j, w> = 1, in which the apex edge has
w-coordinate h.  Its vertex sum is the facet simplex's plus Q_0.  So
one sweep over the facet fans integrates the body and the whole
boundary: each facet simplex's minor and vertex sum are taken once and
feed both.  The sweep is flat: the simplices of every facet fan are
gathered into one list, those of the facets that miss vertex 0 first,
and each quantity (the facets' mass rules, the minors, the vertex sums,
the boundary's lift and the cones' |det|) is taken in one pass over all
of them; the body, the boundary and each facet asked for are then one
``_raw`` call each, a facet on its slice of the lists.  No cone simplex
is listed: the body's ``_raw`` call reads the far facets' simplices with
vertex 0 as their apex, which lies in every cone, so its per-vertex weight
is the sum of the cones' |det| and its degree-3 cross weight is the sum
of |det| S over them, the body's first-moment sums.  A loop over the
facets paid its call and list overhead once per facet, and a 2D facet
holds one simplex.  The minors of edges and triangles (n = 2, 3) are
taken in closed form in that pass; every minor the kernel takes is at
most (n-1) x (n-1), closed-form in ``det_int`` up to n = 5.

The fans' faces are vertex index sets of the incidence table
(``facet_vertices``).  Their work is bounded: a pulling fan has up to
(n-1)! simplices per vertex of a cube-like facet, so the facet fans of
one ``_triangulate`` call, or the ridge fans of one ``_integrate`` call,
may hold at most ``_MAX_FAN_SIMPLICES`` simplices, counted as
each face's fan is made; past it PolytopeTooLarge is raised, which the
command line reports with exit 1.  The polytope stays built, so its
vertices are still listed.  On a simple polytope (``DelzantPolytope.simple``,
as every smooth one is) a face's facets are its intersections with the
facets tight at its vertices, read off the tight sets; otherwise each is
tested by ``face_dim``.

The sums run on ints: the triangulation's simplices index the polytope's
integer vertex table (``DelzantPolytope.scaled_vertices``, the points
Q = D v, with their tight sets in ``vertex_facets``), and in Q every
numerator above is an integer, over k! D^(k+d) (k+1)...(k+d) |N_K| / g
at degree d.  Summed over the simplices of one domain, each sum_p term
becomes a sum over the domain's vertices: a simplex's |det| times
f(Q_p), for each of its vertices p, adds up to w_p f(Q_p), the
per-vertex weight w_p being the sum of |det| over the simplices that
hold p, and the cross term of degree 3 reads the weight sum of |det| S
over them.  So a simplex adds only |det|, |det| S for the first moments,
|det| S (x) S (and (x) S at degree 3) and its share of the weights,
which are built only from degree 2, and each sum is divided once, by its
degree's scale, when a reader builds its Fraction.  Nothing is
approximated.

The store keeps one entry, for the polytope in use, keyed on its value:
every reader integrates one polytope at a time, and a chop tower moves on
to the next round's polytope, so an older entry would not be read again.
The entry holds the fan triangulations of the polytope's facets and the
raw int sums and their scales of each domain integrated so far, to the
highest degree asked; each derived quantity is stored once, in int.  Fractions
are built only by the readers, from the stored sums on each call
(``polytope_moments``, ``boundary_moments``, the ``integrate_polynomial``
pair, and ``extremal``'s ``relative_futaki`` and reports); the Gram
solves of ``extremal`` and ``obstruction`` read the int sums.  The sweep
that integrates the body also sums the whole boundary to degree 1, as
one domain of mass L, the lcm of the facet masses: it lifts each facet
simplex's |det| by L / |u_c| as it takes it, and sums them all at once.
So the pair's boundary is one domain too: the whole boundary minus the
sums of each excluded facet, lifted by L / |u_c|, and the
``extremal_affine`` report's right-hand side is read off the same
domain.  Each domain is integrated at most once per degree.  So
checking every facet of a polytope, one divisor at a time, sweeps each
facet fan once with the body, integrates each facet at most once more,
to degree 2 as a divisor, and each ridge once, and builds no other
polytope.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, InvariantViolation, PolytopeTooLarge, UnsupportedDegree
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
# (i, j) with i < j the ridge on facets i and j; None names the whole
# boundary, integrated to degree <= 1 in the sweep that integrates the body.
Domain = tuple[int, ...] | None
# The raw int sum of each monomial, keyed as ``_integrate`` keys it, and the
# scale of each degree: the integral of monomial m is raw[m] / scale[len(m)].
Sums = tuple[dict[tuple[int, ...], int], tuple[int, ...]]


def _fan(
    poly: DelzantPolytope, face: frozenset[int], d: int, memo: dict[frozenset[int], Simplices]
) -> Simplices:
    """Fan triangulation of the d-dimensional face with these vertex indices.

    Simplices are tuples of indices into the vertex table.  The
    face is coned from its lexicographically smallest vertex, its least
    index since vertices are sorted, over its subfaces missing the apex:
    its intersections with the facets tight at some vertex of the face
    but not at the apex, in the order of the least such facet that cuts
    each out.  On a simple polytope each of them is a facet of the face:
    at a vertex of the face such a facet adds one to the n - d facets
    that cut the face out there, so the intersection has dimension d - 1
    (Ziegler, Lectures on Polytopes, ch. 2).  Otherwise one is kept when
    ``poly.face_dim`` is d - 1.  Faces are vertex index sets, which makes
    ``memo`` exact across branches, and across the facets, or across a
    call's ridges.
    """
    if face not in memo:
        if len(face) == d + 1:
            memo[face] = (tuple(sorted(face)),)
        else:
            apex = min(face)
            active = poly.vertex_facets[apex]
            near = sorted({j for i in face for j in poly.vertex_facets[i]}.difference(active))
            subfaces = dict.fromkeys(face & poly.facet_vertices[j] for j in near)
            memo[face] = tuple(
                s + (apex,)
                for sub in subfaces
                if poly.simple or poly.face_dim(sub) == d - 1
                for s in _fan(poly, sub, d - 1, memo)
            )
    return memo[face]


# The fan triangulation's work is bounded, in simplices: past this many in
# the facet fans of one ``_triangulate`` call, or in the ridge fans of one
# ``_integrate`` call, counted as each face's fan is made, the call is
# refused.  A pulling fan has up to (n-1)! simplices per vertex of a
# cube-like facet, so a short accepted document could otherwise ask for a
# check of minutes: the facet fans of the product of four hexagons (8D, 24
# facets) hold 967,680 simplices, at about 1.3 us and 470 B each.  The
# 8-cube's hold 80,640, triangulated in about 0.1 s (2-CPU Linux machine).
_MAX_FAN_SIMPLICES = 100_000
_FAN_LIMIT = "the fan triangulation exceeds its limit of {} simplices"


# One entry: the readers integrate one polytope at a time, and a long run
# (a chop tower) keeps no earlier round alive.
@functools.lru_cache(maxsize=1)
def _triangulate(poly: DelzantPolytope) -> tuple[tuple[Simplices, ...], dict[Domain, Sums]]:
    """The store entry of ``poly``: the fan triangulation of each facet's
    face, and the raw int sums of each domain integrated so far, to the
    highest degree asked.  Nothing else is kept: the body is integrated
    over cones on the facet fans and has no fan of its own, the readers
    build their Fractions from the sums on each call, a ridge is
    triangulated when it is integrated, and neither its fan nor the
    per-vertex weights are kept, since a domain is integrated once per
    degree, so they would never be read again."""
    memo: dict[frozenset[int], Simplices] = {}
    left = _MAX_FAN_SIMPLICES
    fans = []
    for face in poly.facet_vertices:
        fans.append(_fan(poly, face, poly.dim - 1, memo))
        left -= len(fans[-1])
        if left < 0:
            raise PolytopeTooLarge(_FAN_LIMIT.format(_MAX_FAN_SIMPLICES))
    return tuple(fans), {}


def _idot(a: Iterable[int], b: Iterable[int]) -> int:
    return sum(map(mul, a, b))


def _facet_rule(normal: Sequence[int]) -> tuple[int, int]:
    """A facet's mass rule: |u_c| and the column c its edges drop, the
    least nonzero |u_c| and then the least c.  The normal is primitive, so
    g = 1."""
    return min((abs(x), c) for c, x in enumerate(normal) if x)


def _mass_rule(normals: Sequence[Sequence[int]], n: int) -> tuple[int, list[int]]:
    """The mass rule of a face cut out by these normals: |N_K| / g and the
    columns J the edges keep, K being the least r-set of columns, by
    minor and then by position, whose minor is nonzero.  For a facet it is
    ``_facet_rule``; for a ridge, on normals u and v, the minors are the
    C(n, 2) closed-form 2 x 2 minors |u_a v_b - u_b v_a|.  The kernel
    integrates no face of higher codimension, and more than two normals
    are refused."""
    if len(normals) == 1:
        mass, drop = _facet_rule(normals[0])
        return mass, [c for c in range(n) if c != drop]
    if len(normals) != 2:
        raise InvariantViolation(
            f"the mass rule is taken for a facet or a ridge, not {len(normals)} normals"
        )
    u, v = normals
    minors = [
        (abs(u[a] * v[b] - u[b] * v[a]), (a, b)) for a, b in itertools.combinations(range(n), 2)
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


def _fan_minors(
    table: Sequence[Sequence[int]],
    columns: Sequence[Sequence[int]],
    fans: Sequence[Simplices],
    drops: Sequence[int],
) -> list[int]:
    """|E_J| of every simplex of these facet fans, fan after fan, J being
    all columns but the one each facet's mass rule drops; ``columns`` are
    the vertex table's columns.  Edges (n = 2) and triangles (n = 3) take
    theirs in closed form, in one pass over all the fans; other facet
    simplices go through ``_minors``, fan by fan."""
    n = len(columns)
    if n == 2:
        picks = [columns[1 - c] for c in drops]
        return [abs(x[b] - x[a]) for fan, x in zip(fans, picks) for a, b in fan]
    if n == 3:
        picks = [(columns[(c + 1) % 3], columns[(c + 2) % 3]) for c in drops]
        return [
            abs((x[b] - x[a]) * (y[c] - y[a]) - (x[c] - x[a]) * (y[b] - y[a]))
            for fan, (x, y) in zip(fans, picks)
            for a, b, c in fan
        ]
    return list(
        itertools.chain.from_iterable(
            _minors(table, fan, [x for x in range(n) if x != c]) for fan, c in zip(fans, drops)
        )
    )


def _scale(k: int, mass: int, lcm: int, degree: int) -> tuple[int, ...]:
    """The scale of each degree d <= ``degree`` of a k-dimensional domain:
    k! D^(k+d) (k+1)...(k+d) times the mass rule's |N_K| / g."""
    scale = [math.factorial(k) * lcm**k * mass]
    for d in range(1, degree + 1):
        scale.append(scale[-1] * (k + d) * lcm)
    return tuple(scale)


def _raw(
    table: Sequence[Sequence[int]],
    simplices: Simplices,
    dets: list[int],
    sums: list,
    degree: int,
    apex: int | None = None,
) -> dict[tuple[int, ...], int]:
    """The raw sums of one domain to ``degree``, from the |det| and the
    vertex sum S of each of its simplices (``sums`` holds the columns of
    the S), by the simplex moments of the module docstring: the first
    moments are sum_s |det| S; from degree 2 each |det| goes into the
    weight w_p of each of the simplex's vertices, and from degree 3 its
    |det| S into the cross weight.

    With ``apex``, each simplex of the domain is the cone from that vertex
    over the one listed, and S includes the apex: the apex lies in every
    simplex, so its weight is sum_s |det|, and its cross weight
    sum_s |det| S, the first-moment sums; no cone is listed."""
    raw = {(): sum(dets)}
    if degree == 0:
        return raw
    n = len(sums)
    det_sums = [list(map(mul, dets, column)) for column in sums]
    for i, column in enumerate(det_sums):
        raw[i,] = sum(column)
    if degree > 1:
        weight: dict[int, int] = {} if apex is None else {apex: raw[()]}
        for s, d in zip(simplices, dets):
            for i in s:
                weight[i] = weight.get(i, 0) + d
        points = [[table[i][c] for i in weight] for c in range(n)]
        weighted = [list(map(mul, weight.values(), column)) for column in points]
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            raw[i, j] = _idot(det_sums[i], sums[j]) + _idot(weighted[i], points[j])
    if degree > 2:
        cross = {i: [0] * n for i in weight}
        if apex is not None:
            cross[apex] = [raw[i,] for i in range(n)]
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
    return raw


def _sweep(
    poly: DelzantPolytope, fans: Sequence[Simplices], degree: int, wanted: Sequence[int]
) -> dict[Domain, Sums]:
    """The body (()) and the whole boundary (None) to ``degree``, and the
    facets in ``wanted``, in one flat pass over the facet fans ``fans``.

    The simplices of all the fans are gathered into one list, the fans of
    the facets that miss vertex 0 first, and each quantity is taken in one
    pass over it: |C|, the minor of the edges on the columns the facet's
    mass rule keeps, and the columns of S.  The boundary is one domain of
    mass L, the lcm of the facet masses |u_c|, each |C| lifted by L / |u_c|
    and summed to degree <= 1; the cone from vertex 0 over a simplex of a
    facet that misses it is a simplex of the body's fan, with |det| =
    h |C| / |u_c| by the cone rule and vertex sum S + Q_0.  ``_raw`` takes
    vertex 0 as the apex of these cones, so it integrates the body on the
    far facets' simplices and no cone simplex is built.  A facet asked for
    reads its slice of the flat lists.
    """
    lcm, table = poly.scaled_vertices
    n = poly.dim
    columns = list(zip(*table))
    normals = [facet.normal for facet in poly.facets]
    far = [j for j, face in enumerate(poly.facet_vertices) if 0 not in face]
    order = far + [j for j, face in enumerate(poly.facet_vertices) if 0 in face]
    masses, drops = zip(*map(_facet_rule, [normals[j] for j in order]))
    top = math.lcm(*masses)
    ordered = [fans[j] for j in order]
    simplices = [s for fan in ordered for s in fan]
    dets = _fan_minors(table, columns, ordered, drops)
    if n == 2:
        sums = [[x[a] + x[b] for a, b in simplices] for x in columns]
    elif n == 3:
        sums = [[x[a] + x[b] + x[c] for a, b, c in simplices] for x in columns]
    else:
        sums = list(zip(*[tuple(map(sum, zip(*map(table.__getitem__, s)))) for s in simplices]))
    ends = list(itertools.accumulate(map(len, ordered)))
    # The facet of each simplex, by its position in ``order``.
    owner = [p for p, fan in enumerate(ordered) for _ in fan]
    lifts = [top // mass for mass in masses]
    boundary = [d * lifts[p] for d, p in zip(dets, owner)]
    # The lattice height of vertex 0 over each facet that misses it.
    heights = [_idot(normals[j], map(sub, table[0], table[fans[j][0][0]])) for j in far]
    split = ends[len(far) - 1]
    cone_dets = [heights[p] * d // masses[p] for d, p in zip(dets, owner[:split])]
    shifted = [[x + q for x in column[:split]] for column, q in zip(sums, table[0])]
    first = min(degree, 1)
    out = {
        None: (_raw(table, (), boundary, sums, first), _scale(n - 1, top, lcm, first)),
        (): (
            _raw(table, simplices[:split], cone_dets, shifted, degree, apex=0),
            _scale(n, 1, lcm, degree),
        ),
    }
    for j in wanted:
        p = order.index(j)
        start, end = ends[p - 1] if p else 0, ends[p]
        out[j,] = (
            _raw(table, fans[j], dets[start:end], [x[start:end] for x in sums], degree),
            _scale(n - 1, masses[p], lcm, degree),
        )
    return out


def _integrate(
    poly: DelzantPolytope, degree: int, domains: Sequence[Domain] = ((),)
) -> dict[Domain, Sums]:
    """Exact integral of every monomial of degree <= ``degree`` <= 3 over
    each domain in its lattice measure, by the simplex moments of the
    module docstring, as raw int sums and their scales.

    Each domain, named by the facets it lies on, gets one dict from
    monomials to raw sums: x_i x_j ... is keyed by its sorted variable
    indices (i, j, ...), in the order of ``combinations_with_replacement``,
    degree by degree.  Each simplex of a face of dimension k gives |det|,
    the k x k minor of its edges on the columns the mass rule keeps, and
    its vertex sum S; ``_raw`` sums them in int, and the scale of degree d
    is the one denominator k! D^(k+d) (k+1)...(k+d) |N_K| / g.

    A call that asks for the body (()) or the boundary (None) sweeps:
    ``_sweep`` integrates both, and every facet asked with them, in one
    flat pass over the simplices of all the facet fans, one comprehension
    per quantity.  A loop over the facets paid a mass rule, a ``_minors``
    call and a handful of small lists per facet, and a 2D facet holds one
    simplex, so the per-facet overhead was most of the sweep: the 2D
    tower's round-10 sweep (1026 facets) took 7.1-7.5 ms in such a loop
    and takes 2.7-3.3 ms flat (best of 15 timed runs, 2-CPU Linux
    machine).  No cone simplex is built: ``_raw`` takes vertex 0 as the
    apex of the body's cones.  The other domains, a lone facet and the
    ridges that the divisor check of an already swept polytope asks for,
    are integrated one by one, each over its own fan; their fans share one
    memo and one fan budget per call.
    """
    if degree > 3:
        raise InvariantViolation(f"the simplex moments are exact to degree 3, not {degree}")
    facets = _triangulate(poly)[0]
    out = {}
    if () in domains or None in domains:
        out = _sweep(poly, facets, degree, [d[0] for d in domains if d and len(d) == 1])
    lcm, table = poly.scaled_vertices
    n = poly.dim
    memo: dict[frozenset[int], Simplices] = {}
    left = _MAX_FAN_SIMPLICES
    for domain in domains:
        if domain in out:
            continue
        k = n - len(domain)
        if len(domain) == 1:
            simplices = facets[domain[0]]
        else:
            face = frozenset.intersection(*[poly.facet_vertices[i] for i in domain])
            simplices = _fan(poly, face, k, memo)
            left -= len(simplices)
            if left < 0:
                raise PolytopeTooLarge(_FAN_LIMIT.format(_MAX_FAN_SIMPLICES))
        mass, keep = _mass_rule([poly.facets[i].normal for i in domain], n)
        dets = _minors(table, simplices, keep)
        sums = list(zip(*[map(sum, zip(*map(table.__getitem__, s))) for s in simplices]))
        out[domain] = _raw(table, simplices, dets, sums, degree), _scale(k, mass, lcm, degree)
    return out


def _sums(poly: DelzantPolytope, degree: int, domains: Sequence[Domain]) -> list[Sums]:
    """The stored raw sums of each domain, to at least ``degree``.

    One ``_integrate`` call covers the domains that no earlier call
    integrated to this degree; its sums replace any of lower degree.
    """
    stored = _triangulate(poly)[1]
    missing = [d for d in domains if d not in stored or len(stored[d][1]) <= degree]
    if missing:
        stored.update(_integrate(poly, degree, missing))
    return [stored[d] for d in domains]


def _value(sums: Sums, monomial: tuple[int, ...]) -> Fraction:
    raw, scale = sums
    return Fraction(raw[monomial], scale[len(monomial)])


def polytope_moments(poly: DelzantPolytope) -> MomentData:
    """Exact volume, first, and second moments of the polytope.

    The body is integrated once for the polytope in use; later calls,
    also with an equal polytope, read the stored sums until another
    polytope is integrated.
    """
    n = poly.dim
    (body,) = _sums(poly, 2, [()])
    values = {m: _value(body, m) for m in body[0] if len(m) < 3}
    return MomentData(
        volume=values[()],
        first_moments=tuple(values[i,] for i in range(n)),
        second_moments=tuple(
            tuple(values[min(i, j), max(i, j)] for j in range(n)) for i in range(n)
        ),
    )


def boundary_moments(
    poly: DelzantPolytope, excluded: Sequence[int | str] = ()
) -> BoundaryMomentData:
    """Lattice boundary moments, facet by facet, skipping excluded facets.

    Each kept facet is integrated on its own once for the polytope in
    use: one ``_integrate`` call covers the kept facets that no earlier
    call integrated.  An excluded facet is not read here, but it
    is integrated all the same: the sweep that integrates the body takes
    its fan too, and the pair's Gram system asks for its own sums, to
    subtract it from the whole boundary.
    """
    skip = sorted({poly.resolve_facet(key) for key in excluded})
    kept = [i for i in range(len(poly.facets)) if i not in skip]
    entries: list[FacetMoments | None] = [None] * len(poly.facets)
    for i, s in zip(kept, _sums(poly, 1, [(i,) for i in kept])):
        entries[i] = FacetMoments(_value(s, ()), tuple(_value(s, (c,)) for c in range(poly.dim)))
    return BoundaryMomentData(facets=tuple(entries), excluded=tuple(skip))


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
