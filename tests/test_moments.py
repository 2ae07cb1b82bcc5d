"""Moment integration against symbolic and Monte-Carlo oracles.

2-dimensional bodies are cross-checked with sympy's polytope_integrate
(an independent Green's-theorem implementation); the 3-simplex against
iterated symbolic integrals; facet integrals in dimensions 1-5 against
Euler's identity for homogeneous integrands and against the facet
polytope's own moments in its lattice chart; the triangulation and facet
polytopes against the ranks of vertex points that the face rule replaced;
everything exact except the Monte-Carlo smoke check.
"""

import collections
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.abc import x, y, z
from sympy.geometry import Point, Polygon
from sympy.integrals.intpoly import polytope_integrate

from conftest import affine_rank, interval, tower_rounds, unit_cube, unit_simplex
from cuspcheck import (
    BoundaryMomentData,
    DelzantPolytope,
    Facet,
    FacetChart,
    Poly2,
    UnsupportedDegree,
    apply_unimodular,
    blow_up_vertex,
    boundary_moments,
    check_facet_condition,
    facet_polytope,
    integrate_polynomial,
    max_chop_parameter,
    polytope_moments,
    start_tower,
    tower_step,
)
from cuspcheck import moments, obstruction
from cuspcheck.errors import InvariantViolation
from cuspcheck.linalg import IntVector, Vector, complete_primitive, det_int, dot, gcd_vector
from cuspcheck.moments import (
    FacetMoments,
    _integrate,
    _triangulate,
    integrate_polynomial_boundary,
)
from cuspcheck.polytope import _ridge_facets

_RNG = random.Random(515253)


def compose_affine(q, origin, columns):
    """Pull q back along y -> origin + sum_j y_j columns[j]."""
    o = tuple(Fraction(x) for x in origin)
    cols = [tuple(Fraction(x) for x in col) for col in columns]
    qo = tuple(dot(row, o) for row in q.quad)
    constant = q.constant + dot(q.linear, o) + dot(o, qo)
    linear = tuple(dot(q.linear, c) + 2 * dot(qo, c) for c in cols)
    quad = tuple(
        tuple(dot(ci, tuple(dot(row, cj) for row in q.quad)) for cj in cols)
        for ci in cols
    )
    return Poly2(constant=constant, linear=linear, quad=quad)


def _sympy_polygon(poly):
    # ccw ordering by angle around the barycenter
    pts = [tuple(v.point) for v in poly.vertices]
    cx = sum(Fraction(p[0]) for p in pts) / len(pts)
    cy = sum(Fraction(p[1]) for p in pts) / len(pts)
    import math

    pts.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
    return Polygon(*[Point(sympy.Rational(p[0]), sympy.Rational(p[1])) for p in pts])


def _oracle_moment_2d(poly, expr):
    # normalize away sympy's orientation convention via the sign of the area
    pg = _sympy_polygon(poly)
    sign = 1 if polytope_integrate(pg, sympy.Integer(1)) > 0 else -1
    return Fraction(str(sign * polytope_integrate(pg, expr)))


@pytest.mark.parametrize(
    "expr, getter",
    [
        (sympy.Integer(1), lambda m: m.volume),
        (x, lambda m: m.first_moments[0]),
        (y, lambda m: m.first_moments[1]),
        (x * x, lambda m: m.second_moments[0][0]),
        (x * y, lambda m: m.second_moments[0][1]),
        (y * y, lambda m: m.second_moments[1][1]),
    ],
)
def test_triangle_and_square_match_sympy(expr, getter):
    for poly in (unit_simplex(2), unit_cube(2)):
        assert getter(polytope_moments(poly)) == _oracle_moment_2d(poly, expr)


def test_frozen_triangle_moments(triangle):
    m = polytope_moments(triangle)
    assert m.volume == Fraction(1, 2)
    assert m.first_moments == (Fraction(1, 6), Fraction(1, 6))
    assert m.second_moments[0][0] == Fraction(1, 12)
    assert m.second_moments[0][1] == Fraction(1, 24)
    assert m.barycenter == (Fraction(1, 3), Fraction(1, 3))


def test_frozen_square_moments(square):
    m = polytope_moments(square)
    assert m.volume == 1
    assert m.first_moments == (Fraction(1, 2), Fraction(1, 2))
    assert m.second_moments[0][0] == Fraction(1, 3)
    assert m.second_moments[0][1] == Fraction(1, 4)


def test_random_chopped_polygons_match_sympy():
    from cuspcheck import max_chop_parameter

    for _ in range(8):
        poly = unit_simplex(2)
        for _ in range(_RNG.randint(1, 2)):
            v = _RNG.choice(poly.vertices)
            bound = max_chop_parameter(poly, v.point)
            poly = blow_up_vertex(poly, v.point, bound / _RNG.choice((3, 5)))
        m = polytope_moments(poly)
        assert m.volume == _oracle_moment_2d(poly, sympy.Integer(1))
        assert m.first_moments[0] == _oracle_moment_2d(poly, x)
        assert m.second_moments[1][1] == _oracle_moment_2d(poly, y * y)


def test_simplex3_matches_iterated_integrals(simplex3):
    m = polytope_moments(simplex3)
    for expr, mine in [
        (sympy.Integer(1), m.volume),
        (x, m.first_moments[0]),
        (x * x, m.second_moments[0][0]),
        (x * y, m.second_moments[0][1]),
        (y * z, m.second_moments[1][2]),
    ]:
        oracle = sympy.integrate(
            expr, (z, 0, 1 - x - y), (y, 0, 1 - x), (x, 0, 1)
        )
        assert mine == Fraction(str(oracle))


def test_cube3_moments():
    m = polytope_moments(unit_cube(3))
    assert m.volume == 1
    assert m.first_moments == (Fraction(1, 2),) * 3
    assert m.second_moments[0][0] == Fraction(1, 3)
    assert m.second_moments[0][2] == Fraction(1, 4)


def test_monte_carlo_smoke(triangle):
    hits = 0
    total = 20000
    acc = 0.0
    for _ in range(total):
        px, py = _RNG.random(), _RNG.random()
        if px + py <= 1:
            hits += 1
            acc += px
    box = 1.0
    vol = box * hits / total
    first = box * acc / total
    m = polytope_moments(triangle)
    assert abs(vol - float(m.volume)) < 0.02
    assert abs(first - float(m.first_moments[0])) < 0.02


def test_symmetric_gram(triangle):
    m = polytope_moments(triangle)
    g = m.gram
    assert len(g) == 3
    assert g[0][0] == m.volume
    assert g[0][1] == m.first_moments[0]
    assert g[1][2] == m.second_moments[0][1]
    assert all(g[i][j] == g[j][i] for i in range(3) for j in range(3))


def test_boundary_measures_triangle(triangle):
    bd = boundary_moments(triangle)
    measures = [fm.measure for fm in bd.facets]
    # two unit legs plus the hypotenuse at lattice length one
    assert measures == [1, 1, 1]
    assert bd.measure == 3
    assert bd.first_moments == (Fraction(1), Fraction(1))


def test_boundary_excluded_triangle(triangle):
    bd = boundary_moments(triangle, excluded=("hyp",))
    assert bd.excluded == (2,)
    assert bd.facets[2] is None
    assert bd.measure == 2
    assert bd.first_moments == (Fraction(1, 2), Fraction(1, 2))


def test_boundary_square(square):
    bd = boundary_moments(square)
    assert bd.measure == 4
    assert bd.first_moments == (Fraction(2), Fraction(2))


def test_boundary_skew_facet_lattice_measure():
    # hypotenuse with normal (-1,-2): euclidean length sqrt(5), lattice 1
    from cuspcheck import DelzantPolytope, Facet

    poly = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2, label="h"))
    )
    bd = boundary_moments(poly)
    assert bd.facets[2].measure == 1
    # first moment of x along the segment (2,0)-(0,1) in lattice measure:
    # parametrize x = 2 - 2t, t in [0,1]
    assert bd.facets[2].first_moments[0] == 1


def test_boundary_simplex3_facet_measures(simplex3):
    bd = boundary_moments(simplex3)
    # coordinate facets are unit triangles, the slanted one has lattice area 1/2
    assert [fm.measure for fm in bd.facets] == [Fraction(1, 2)] * 4


def test_boundary_interval_point_masses():
    poly = interval(0, 1)
    bd = boundary_moments(poly)
    assert [fm.measure for fm in bd.facets] == [1, 1]
    assert bd.facets[0].first_moments == (Fraction(0),)
    assert bd.facets[1].first_moments == (Fraction(1),)


def test_boundary_rejects_excluding_everything():
    poly = interval(0, 1)
    refused = "cannot exclude every facet of the polytope"
    with pytest.raises(ValueError, match=refused):
        boundary_moments(poly, excluded=("lo", "hi"))
    for facets in [(None,), ()]:
        with pytest.raises(ValueError, match=refused):
            BoundaryMomentData(facets=facets, excluded=tuple(range(len(facets))))


def test_boundary_resolves_labels_and_indices(triangle):
    assert boundary_moments(triangle, excluded=("hyp",)).excluded == (2,)
    assert boundary_moments(triangle, excluded=(2,)).excluded == (2,)
    with pytest.raises(KeyError):
        boundary_moments(triangle, excluded=("zzz",))


def test_integrate_polynomial_frozen_values(triangle):
    one = Poly2.from_monomials(2, {(0, 0): 1})
    assert integrate_polynomial(triangle, one) == Fraction(1, 2)
    xy_sum = Poly2.from_monomials(2, {(1, 0): 1, (0, 1): 1})
    assert integrate_polynomial(triangle, xy_sum) == Fraction(1, 3)
    square_sum = Poly2.from_monomials(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert integrate_polynomial(triangle, square_sum) == Fraction(1, 4)


def test_integrate_polynomial_matches_sympy_random(triangle):
    for _ in range(10):
        coeffs = {
            (0, 0): _RNG.randint(-3, 3),
            (1, 0): _RNG.randint(-3, 3),
            (0, 1): _RNG.randint(-3, 3),
            (2, 0): _RNG.randint(-3, 3),
            (1, 1): _RNG.randint(-3, 3),
            (0, 2): _RNG.randint(-3, 3),
        }
        q = Poly2.from_monomials(2, coeffs)
        expr = (
            coeffs[(0, 0)]
            + coeffs[(1, 0)] * x
            + coeffs[(0, 1)] * y
            + coeffs[(2, 0)] * x * x
            + coeffs[(1, 1)] * x * y
            + coeffs[(0, 2)] * y * y
        )
        assert integrate_polynomial(triangle, q) == _oracle_moment_2d(triangle, expr)


def test_degree_cap():
    with pytest.raises(UnsupportedDegree):
        Poly2.from_monomials(2, {(3, 0): 1})
    from cuspcheck import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        Poly2.from_monomials(2, {(1, 0, 0): 1})


def test_poly2_eval_and_compose():
    q = Poly2.from_monomials(2, {(0, 0): 1, (1, 0): 2, (1, 1): 3})
    assert q((Fraction(1), Fraction(2))) == 1 + 2 + 6
    # substitute x = 1 + 2t, y = t
    composed = compose_affine(
        q, (Fraction(1), Fraction(0)), ((Fraction(2), Fraction(1)),)
    )
    for t in (Fraction(0), Fraction(1, 2), Fraction(-3)):
        assert composed((t,)) == q((1 + 2 * t, t))


def test_boundary_polynomial_integral(triangle):
    # int over the two legs of x^2: only the bottom leg contributes 1/3
    q = Poly2.from_monomials(2, {(2, 0): 1})
    total = integrate_polynomial_boundary(triangle, q, excluded=("hyp",))
    assert total == Fraction(1, 3)
    # over the whole boundary: hypotenuse adds int_0^1 x^2 dt = 1/3
    assert integrate_polynomial_boundary(triangle, q) == Fraction(2, 3)


def test_triangulation_additivity(triangle):
    # chop splits the body; moments add up across the pieces exactly
    eps = Fraction(1, 4)
    chopped = blow_up_vertex(triangle, (0, 0), eps)
    m_whole = polytope_moments(triangle)
    m_chop = polytope_moments(chopped)
    assert m_whole.volume - m_chop.volume == eps**2 / 2


# --- facet integrals against oracles that do not triangulate the facets ---


def _pyramid():
    # square pyramid: the apex lies on four facets, so it is not simple
    return DelzantPolytope(
        3,
        (
            Facet((0, 0, 1), 0),
            Facet((1, 0, -1), 0),
            Facet((0, 1, -1), 0),
            Facet((-1, 0, -1), -1),
            Facet((0, -1, -1), -1),
        ),
    )


def _skew_triangle():
    # the vertex (0, 1) has active normals of determinant -2
    return DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2, label="h"))
    )


@st.composite
def framed_chopped(draw, n=None):
    """A simplex (dimension 1-5, or n) or cube (1-4), chopped up to twice, in a lattice frame."""
    n = draw(st.integers(1, 5)) if n is None else n
    kind = "simplex" if n == 5 else draw(st.sampled_from(["simplex", "cube"]))
    poly = unit_simplex(n) if kind == "simplex" else unit_cube(n)
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        vertex = draw(st.sampled_from(poly.vertices)).point
        ratio = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
        poly = blow_up_vertex(poly, vertex, max_chop_parameter(poly, vertex) * ratio)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
            max_size=4,
        )
    ):
        if i != j:
            matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
    shift = draw(
        st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * n)
    )
    return apply_unimodular(poly, matrix, shift)


def _monomials(n):
    """Exponent tuples of every monomial of degree at most two in n variables."""
    out = [(0,) * n]
    for i in range(n):
        out.append(tuple(int(k == i) for k in range(n)))
        for j in range(i, n):
            out.append(tuple(int(k == i) + int(k == j) for k in range(n)))
    return out


def _facet_integral(poly, q, index):
    others = [i for i in range(len(poly.facets)) if i != index]
    return integrate_polynomial_boundary(poly, q, excluded=others)


def _assert_euler_identity(poly):
    # Divergence of x * f for f homogeneous of degree d is (n + d) f; on
    # the facet <u, x> = c the outward flux density against the lattice
    # measure is -c, so (n + d) int_P f dx = -sum_F c_F int_F f dsigma.
    n = poly.dim
    m = polytope_moments(poly)
    for alpha in _monomials(n):
        support = [k for k, a in enumerate(alpha) for _ in range(a)]
        if not support:
            volume = m.volume
        elif len(support) == 1:
            volume = m.first_moments[support[0]]
        else:
            volume = m.second_moments[support[0]][support[1]]
        q = Poly2.from_monomials(n, {alpha: 1})
        boundary = sum(
            (f.offset * _facet_integral(poly, q, i) for i, f in enumerate(poly.facets)),
            Fraction(0),
        )
        assert (n + len(support)) * volume == -boundary, alpha


def _assert_chart_route(poly):
    # The old route to facet integrals: the facet polytope's own volume
    # moments in its lattice chart, whose Lebesgue measure is the lattice
    # measure, pushed forward (first moments) or pulled back (q).
    n = poly.dim
    q = Poly2.from_monomials(n, {alpha: k + 1 for k, alpha in enumerate(_monomials(n))})
    bd = boundary_moments(poly)
    for index, fm in enumerate(bd.facets):
        face, chart = facet_polytope(poly, index)
        m = polytope_moments(face)
        first = tuple(
            chart.origin[k] * m.volume
            + sum((b[k] * mj for b, mj in zip(chart.basis, m.first_moments)), Fraction(0))
            for k in range(n)
        )
        assert (fm.measure, fm.first_moments) == (m.volume, first)
        pulled = compose_affine(q, chart.origin, chart.basis)
        expected = pulled.constant * m.volume + dot(pulled.linear, m.first_moments)
        for row, moments in zip(pulled.quad, m.second_moments):
            expected += dot(row, moments)
        assert _facet_integral(poly, q, index) == expected


@given(framed_chopped())
@settings(max_examples=20, deadline=None)
def test_facet_integrals_satisfy_euler_identity(poly):
    _assert_euler_identity(poly)


@given(framed_chopped().filter(lambda poly: poly.dim >= 2))
@settings(max_examples=20, deadline=None)
def test_facet_moments_match_chart_push_forward(poly):
    _assert_chart_route(poly)


@pytest.mark.parametrize(
    "build", [_pyramid, _skew_triangle, lambda: interval(Fraction(1, 3), 2)]
)
def test_euler_identity_on_non_simple_and_non_unimodular(build):
    # Shifted so that no facet passes through the origin: such a facet has
    # offset 0 and would drop out of the identity.
    poly = build()
    n = poly.dim
    frame = [[int(i == j) for j in range(n)] for i in range(n)]
    shift = (Fraction(1, 3), Fraction(-1, 2), Fraction(2))[:n]
    moved = apply_unimodular(poly, frame, shift)
    assert all(f.offset != 0 for f in moved.facets)
    _assert_euler_identity(moved)


@pytest.mark.parametrize("build", [_pyramid, _skew_triangle])
def test_chart_push_forward_on_non_simple_and_non_unimodular(build):
    _assert_chart_route(build())


def _assert_ridges_match_facet_polytope_boundary(poly):
    # A ridge F & G in the lattice measure of codimension 2 is a facet of
    # F's facet polytope in that polytope's boundary measure: its degree-1
    # sums on the parent equal the facet polytope's boundary moments there,
    # mapped back to ambient coordinates, x = origin + sum_k y_k basis[k].
    n = poly.dim
    for index in range(len(poly.facets)):
        face, chart = facet_polytope(poly, index)
        ridges = _ridge_facets(poly, index)
        assert len(ridges) == len(face.facets)
        for j, fm in zip(ridges, boundary_moments(face).facets):
            ((raw, scale),) = _integrate(poly, 1, [tuple(sorted((index, j)))])
            first = tuple(
                chart.origin[c] * fm.measure
                + sum((b[c] * m for b, m in zip(chart.basis, fm.first_moments)), Fraction(0))
                for c in range(n)
            )
            assert Fraction(raw[()], scale[0]) == fm.measure, (index, j)
            assert tuple(Fraction(raw[c,], scale[1]) for c in range(n)) == first, (index, j)


@pytest.mark.parametrize(
    "build",
    [_pyramid, _skew_triangle, *[lambda n=n: unit_cube(n) for n in range(2, 6)]]
    + [lambda n=n: unit_simplex(n) for n in range(2, 6)],
)
def test_ridge_sums_match_the_facet_polytope_boundary(build):
    _assert_ridges_match_facet_polytope_boundary(build())


@given(framed_chopped().filter(lambda poly: poly.dim >= 2))
@settings(max_examples=20, deadline=None)
def test_ridge_sums_match_the_facet_polytope_boundary_in_random_frames(poly):
    _assert_ridges_match_facet_polytope_boundary(poly)


def test_boundary_totals_are_built_once_over_one_denominator():
    poly = blow_up_vertex(unit_cube(3), (0, 0, 0), Fraction(1, 3))
    bd = boundary_moments(poly, [1])
    assert bd.measure is bd.measure and bd.first_moments is bd.first_moments
    kept = [fm for fm in bd.facets if fm is not None]
    assert bd.measure == sum((fm.measure for fm in kept), Fraction(0))
    assert bd.first_moments == tuple(
        sum((fm.first_moments[c] for fm in kept), Fraction(0)) for c in range(3)
    )
    built = BoundaryMomentData(
        facets=(FacetMoments(Fraction(1, 6), (1, Fraction(2, 9))), None, FacetMoments(2, (0, 1))),
        excluded=(1,),
    )
    assert (built.measure, built.first_moments) == (Fraction(13, 6), (1, Fraction(11, 9)))


# --- faces from the incidence table against ranks of vertex points ---


def _triangulate_by_point_ranks(poly):
    """The triangulation as it was before the face rule: every face and
    candidate subface ranked by ``affine_rank`` on the integer vertex
    table, and subfaces sought over all m facets, each coned in the order
    of the least facet that cuts it out."""
    table = poly.scaled_vertices[1]
    tight = [frozenset(v.active) for v in poly.vertices]
    nfacets = len(poly.facets)
    cache = {}

    def face_rank(face):
        return affine_rank([table[i] for i in face])

    def tri(face):
        if face in cache:
            return cache[face]
        d = face_rank(face)
        if len(face) == d + 1:
            cache[face] = (tuple(sorted(face)),)
            return cache[face]
        apex = min(face)
        subfaces = {}
        for j in range(nfacets):
            sub = frozenset(i for i in face if j in tight[i])
            if apex in sub or not sub:
                continue
            if face_rank(sub) == d - 1:
                subfaces.setdefault(sub)
        cache[face] = tuple(s + (apex,) for sub in subfaces for s in tri(sub))
        return cache[face]

    everything = range(len(table))
    return tri(frozenset(everything)), tuple(
        tri(frozenset(i for i in everything if j in tight[i])) for j in range(nfacets)
    )


def _facet_polytope_by_point_ranks(poly, index):
    """``facet_polytope`` with its ridge test as it was: facet j bounds the
    facet polytope when the points tight on both have affine rank n - 2."""
    n = poly.dim
    chosen = poly.facets[index]
    w, basis = complete_primitive(chosen.normal)
    origin = tuple(chosen.offset * x for x in w)
    chart = FacetChart(index, chosen.normal, chosen.offset, origin, basis)
    table = poly.scaled_vertices[1]
    on_facet = [(v.active, p) for v, p in zip(poly.vertices, table) if index in v.active]
    induced = []
    for j, other in enumerate(poly.facets):
        shared = [p for active, p in on_facet if j in active]
        if j == index or affine_rank(shared) != n - 2:
            continue
        coeffs = tuple(int(dot(other.normal, b)) for b in basis)
        g = gcd_vector(coeffs)
        offset = (other.offset - dot(other.normal, origin)) / g
        induced.append(Facet(tuple(x // g for x in coeffs), offset, other.label))
    return DelzantPolytope(n - 1, tuple(induced)), chart


def _assert_faces_match_point_ranks(poly):
    # Identical simplex tuples, not just equal integrals; the same for each
    # facet polytope, whose facets, chart and vertices must also agree.
    assert poly.facet_vertices == tuple(
        frozenset(k for k, v in enumerate(poly.vertices) if i in v.active)
        for i in range(len(poly.facets))
    )
    assert _triangulate(poly)[:2] == _triangulate_by_point_ranks(poly)
    if poly.dim < 2:
        return
    for index in range(len(poly.facets)):
        face, chart = facet_polytope(poly, index)
        expected_face, expected_chart = _facet_polytope_by_point_ranks(poly, index)
        assert (face.facets, chart) == (expected_face.facets, expected_chart)
        assert face.vertices == expected_face.vertices
        assert _triangulate(face)[:2] == _triangulate_by_point_ranks(face)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_face_rule_matches_point_ranks(n, data):
    _assert_faces_match_point_ranks(data.draw(framed_chopped(n)))


@pytest.mark.parametrize("build", [_pyramid, _skew_triangle])
def test_face_rule_matches_point_ranks_on_non_simple_and_non_unimodular(build):
    _assert_faces_match_point_ranks(build())


@pytest.mark.parametrize("round_", range(1, 9))
def test_face_rule_matches_point_ranks_on_tower_rounds(round_):
    _assert_faces_match_point_ranks(tower_rounds()[round_ - 1])


# --- the simplex moments against the barycentric expansion ---


def _simplex_monomial_integral(
    vertices: Sequence[Vector], alpha: Sequence[int], normal: IntVector | None = None
) -> Fraction:
    """Integral of x^alpha over the simplex spanned by k + 1 points of R^n.

    Without ``normal`` the simplex is an n-simplex in Lebesgue measure.
    With a primitive facet normal u it is an (n-1)-simplex in the lattice
    measure, of mass |det[u; p_1 - p_0; ...]| / ((n-1)! <u, u>), which for
    n = 1 is the unit point mass.  The monomial is expanded in barycentric
    coordinates; over a k-simplex of mass mu, lambda^beta integrates to
    mu * k! * prod(beta!) / (k + |beta|)!.
    """
    n = len(alpha)
    k = n if normal is None else n - 1
    if len(vertices) != k + 1:
        raise InvariantViolation(f"a {k}-simplex needs {k + 1} points, got {len(vertices)}")
    edges = [
        [vertices[i][j] - vertices[0][j] for j in range(n)] for i in range(1, k + 1)
    ]
    lcm = 1
    for row in edges:
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    rows = [[int(x * lcm) for x in row] for row in edges]
    scale = math.factorial(k) * lcm**k
    if normal is not None:
        rows.insert(0, list(normal))
        scale *= sum(x * x for x in normal)
    mass = Fraction(abs(det_int(rows)), scale)
    degree = sum(alpha)
    if degree == 0:
        return mass
    positions = [j for j, a in enumerate(alpha) for _ in range(a)]
    total = Fraction(0)
    for choice in itertools.product(range(k + 1), repeat=degree):
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
    return mass * math.factorial(k) / math.factorial(k + degree) * total


def _monomials_to_degree_three(n):
    """Exponent tuples of every monomial of degree at most three in n variables."""
    out = []
    for degree in range(4):
        for support in itertools.combinations_with_replacement(range(n), degree):
            out.append(tuple(support.count(k) for k in range(n)))
    return out


def _assert_rule_matches_expansion(poly):
    # Same triangulation, two integrators: the kernel's closed-form simplex
    # moments, gathered through per-vertex weights, against the expansion
    # over all vertex tuples, simplex by simplex, exactly.
    alphas = _monomials_to_degree_three(poly.dim)
    # The triangulation indexes the vertex list; the expansion takes points.
    points = [v.point for v in poly.vertices]
    body, facets = _triangulate(poly)[:2]
    for index, simplices in [(None, body), *enumerate(facets)]:
        normal = None if index is None else poly.facets[index].normal
        expected = {
            alpha: sum(
                (
                    _simplex_monomial_integral([points[i] for i in s], alpha, normal)
                    for s in simplices
                ),
                Fraction(0),
            )
            for alpha in alphas
        }
        ((raw, scale),) = _integrate(poly, 3, [() if index is None else (index,)])
        exponents = {
            tuple(m.count(c) for c in range(poly.dim)): Fraction(v, scale[len(m)])
            for m, v in raw.items()
        }
        assert list(exponents) == alphas, index
        assert exponents == expected, index


def _chopped_five_simplex():
    poly = unit_simplex(5)
    for vertex in [(0,) * 5, (1, 0, 0, 0, 0)]:
        poly = blow_up_vertex(poly, vertex, max_chop_parameter(poly, vertex) / 3)
    frame = [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 1]]
    return apply_unimodular(poly, frame, (Fraction(1, 2), 0, Fraction(-2, 3), 1, 0))


@pytest.mark.parametrize(
    "build",
    [lambda: unit_cube(5), lambda: unit_simplex(5), _chopped_five_simplex],
    ids=["cube5", "simplex5", "chopped_simplex5"],
)
def test_body_sums_by_cones_match_full_determinants(build, monkeypatch):
    # Each body simplex's |det| comes from its facet simplex's minor and the
    # apex height, so a check in dimension 5 takes no 5 x 5 determinant.
    # The body sums to degree 2 must equal those of the full n x n
    # determinants of the stored body fan, which run the elimination.
    poly = build()
    n = poly.dim
    lcm, table = poly.scaled_vertices
    expected = collections.Counter()
    for s in _triangulate(poly)[0]:
        points = [table[i] for i in s]
        det = abs(det_int([[a - b for a, b in zip(p, points[0])] for p in points[1:]]))
        total = [sum(column) for column in zip(*points)]
        expected[()] += det
        for i in range(n):
            expected[i,] += det * total[i]
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            expected[i, j] += det * (total[i] * total[j] + sum(p[i] * p[j] for p in points))
    sizes = []
    monkeypatch.setattr(moments, "det_int", lambda m: sizes.append(len(m)) or det_int(m))
    _triangulate.cache_clear()
    obstruction._facet_sides.clear()
    ((raw, scale),) = _integrate(poly, 2)
    assert raw == expected
    factorial = math.factorial(n)
    assert scale == (factorial * lcm**n, factorial * lcm**n * (n + 1) * lcm,
                     factorial * lcm**n * (n + 1) * (n + 2) * lcm**2)
    check_facet_condition(poly, 0)
    assert sizes and max(sizes) <= 4


def test_integrate_refuses_degree_four(triangle):
    with pytest.raises(InvariantViolation):
        _integrate(triangle, 4)


@pytest.mark.parametrize(
    "build",
    [lambda: unit_cube(1), lambda: unit_cube(3), lambda: unit_simplex(2), _skew_triangle],
)
def test_moment_fields_are_fractions_not_ints(build):
    # The integer kernel divides once at the end; integral values such as
    # the unit cube's volume must still come back as Fractions.
    poly = build()
    moments = polytope_moments(poly)
    values = [moments.volume, *moments.first_moments]
    values += [x for row in moments.second_moments for x in row]
    for fm in boundary_moments(poly).facets:
        values += [fm.measure, *fm.first_moments]
    assert all(type(x) is Fraction for x in values)


def _tower3d_round3():
    state = start_tower(unit_simplex(3), "hyp")
    for r in range(1, 4):
        state = tower_step(state, Fraction(1, 4**r))
    return state.polytope


@pytest.mark.parametrize(
    "build", [lambda: unit_cube(3), _tower3d_round3], ids=["cube3", "tower3d_round3"]
)
def test_moments_build_one_fraction_per_monomial_per_domain(build, monkeypatch):
    # The kernel sums in int over the simplices and divides each sum once,
    # at the end: from a cleared store, the body's moments and every facet's
    # build one Fraction per monomial per domain and no more, however many
    # simplices there are.  Fraction arithmetic builds through __new__, or
    # through _from_coprime_ints on Python 3.12 and later.
    poly = build()
    n = poly.dim
    assert len(_triangulate(poly)[0]) > n + 1
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(
            Fraction,
            "_from_coprime_ints",
            classmethod(lambda cls, a, b: built.append((a, b)) or coprime(a, b)),
        )
    _triangulate.cache_clear()
    polytope_moments(poly)
    boundary_moments(poly)
    monkeypatch.undo()
    monomials = (1 + n + n * (n + 1) // 2) + len(poly.facets) * (1 + n)
    assert 0 < len(built) <= monomials


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_simplex_rule_matches_barycentric_expansion(n, data):
    _assert_rule_matches_expansion(data.draw(framed_chopped().filter(lambda p: p.dim == n)))


@pytest.mark.parametrize("build", [_pyramid, _skew_triangle])
def test_simplex_rule_matches_expansion_on_non_simple_and_non_unimodular(build):
    _assert_rule_matches_expansion(build())


def _store_corpus() -> list[DelzantPolytope]:
    """Simplices and cubes in dimensions 2-5, 2D tower rounds 1-6, 3D rounds 1-3."""
    polys = [unit_simplex(n) for n in range(2, 6)] + [unit_cube(n) for n in range(2, 6)]
    polys += tower_rounds()[:6]
    state = start_tower(unit_simplex(3), "hyp")
    for r in range(1, 4):
        state = tower_step(state, Fraction(1, 4**r))
        polys.append(state.polytope)
    return polys


def test_moment_store_answers_do_not_depend_on_order():
    """Through the store, in a shuffled order, every exclusion set of size
    0 and 1 and every facet check reads what a cleared store computes."""
    polys = _store_corpus()
    asks = [(p, None) for p in polys]
    asks += [(p, skip) for p in polys for skip in [(), *((i,) for i in range(len(p.facets)))]]
    asks += [(p, i) for p in polys for i in range(len(p.facets))]

    def answer(poly, what):
        if what is None:
            return polytope_moments(poly)
        if isinstance(what, tuple):
            return boundary_moments(poly, what)
        return check_facet_condition(poly, what)

    fresh = []
    for poly, what in asks:
        _triangulate.cache_clear()
        fresh.append(answer(poly, what))
    order = list(range(len(asks)))
    random.Random(14).shuffle(order)
    _triangulate.cache_clear()
    for k in order:
        assert answer(*asks[k]) == fresh[k], asks[k]
