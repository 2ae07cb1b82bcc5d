"""Property-based invariants over randomized exact inputs."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_positive_definite, unit_cube, unit_simplex
from cuspcheck import (
    DelzantPolytope,
    Facet,
    ModelCoefficients,
    SpectralPair,
    apply_unimodular,
    blow_up_vertex,
    boundary_moments,
    certify_weight,
    check_facet_condition,
    extremal_affine,
    facet_polytope,
    free_fixed_points,
    indicial_roots,
    is_delzant,
    max_chop_parameter,
    polytope_moments,
    roots_in_window,
)
from cuspcheck.linalg import dot, mat_vec
from cuspcheck.moments import integrate_polynomial_boundary

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=8)
chop_ratio = st.sampled_from(
    [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(3, 7)]
)


@st.composite
def unimodular_2x2(draw):
    m = ((1, 0), (0, 1))
    for upper, k in draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(-2, 2)), min_size=1, max_size=4
        )
    ):
        s = ((1, k), (0, 1)) if upper else ((1, 0), (k, 1))
        m = tuple(
            tuple(sum(s[i][r] * m[r][j] for r in range(2)) for j in range(2))
            for i in range(2)
        )
    if draw(st.booleans()):
        m = (m[1], m[0])  # swap rows: determinant flips to -1
    return m


@st.composite
def polygons(draw):
    """Delzant polygons: base shapes, optional dilation and chops."""
    kind = draw(st.sampled_from(["simplex", "square"]))
    poly = unit_simplex(2) if kind == "simplex" else unit_cube(2)
    scale = draw(st.sampled_from([1, 1, 2, 3, Fraction(1, 2)]))
    if scale != 1:
        poly = DelzantPolytope(
            2,
            tuple(
                Facet(f.normal, f.offset * scale, label=f.label) for f in poly.facets
            ),
        )
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, len(poly.vertices) - 1))
        vertex = poly.vertices[index].point
        bound = max_chop_parameter(poly, vertex)
        poly = blow_up_vertex(poly, vertex, bound * draw(chop_ratio))
    return poly


@st.composite
def polytopes_3d(draw):
    poly = unit_simplex(3) if draw(st.booleans()) else unit_cube(3)
    if draw(st.booleans()):
        index = draw(st.integers(0, len(poly.vertices) - 1))
        vertex = poly.vertices[index].point
        bound = max_chop_parameter(poly, vertex)
        poly = blow_up_vertex(poly, vertex, bound * draw(chop_ratio))
    return poly


@given(polygons(), st.integers(0, 10))
@settings(max_examples=120)
def test_residuals_zero_and_gram_positive_definite(poly, seed):
    excluded = (seed % len(poly.facets),)
    report = extremal_affine(poly, excluded)
    assert all(r == 0 for r in report.residuals)
    assert is_positive_definite(report.gram)


@given(polygons(), unimodular_2x2(), st.tuples(small_fraction, small_fraction))
@settings(max_examples=100)
def test_extremal_unimodular_equivariance(poly, t, shift):
    excluded = (len(poly.facets) - 1,)
    a = extremal_affine(poly, excluded).affine
    moved = apply_unimodular(poly, t, shift)
    a_moved = extremal_affine(moved, excluded).affine
    for v in poly.vertices:
        image = tuple(
            dot(t[i], v.point) + shift[i] for i in range(2)
        )
        assert a_moved(image) == a(v.point)


@given(polygons(), st.tuples(small_fraction, small_fraction))
@settings(max_examples=80)
def test_extremal_translation_law(poly, shift):
    a = extremal_affine(poly, (0,)).affine
    moved = apply_unimodular(poly, ((1, 0), (0, 1)), shift)
    a_moved = extremal_affine(moved, (0,)).affine
    assert a_moved.gradient == a.gradient
    assert a_moved.constant == a.constant - dot(a.gradient, shift)


@given(polygons(), st.sampled_from([2, 3, 5, Fraction(1, 2), Fraction(3, 2)]))
@settings(max_examples=80)
def test_extremal_dilation_law(poly, c):
    a = extremal_affine(poly, (0,)).affine
    dilated = DelzantPolytope(
        2, tuple(Facet(f.normal, f.offset * c, label=f.label) for f in poly.facets)
    )
    a_dilated = extremal_affine(dilated, (0,)).affine
    assert a_dilated.constant == a.constant / c
    assert a_dilated.gradient == tuple(g / c**2 for g in a.gradient)


@given(polygons(), st.integers(0, 100), chop_ratio)
@settings(max_examples=100)
def test_chop_volume_loss(poly, pick, ratio):
    vertex = poly.vertices[pick % len(poly.vertices)].point
    eps = max_chop_parameter(poly, vertex) * ratio
    before = polytope_moments(poly).volume
    after = polytope_moments(blow_up_vertex(poly, vertex, eps)).volume
    assert before - after == eps**2 / 2


@given(polytopes_3d(), st.integers(0, 100), chop_ratio)
@settings(max_examples=40)
def test_chop_volume_loss_3d(poly, pick, ratio):
    vertex = poly.vertices[pick % len(poly.vertices)].point
    eps = max_chop_parameter(poly, vertex) * ratio
    before = polytope_moments(poly).volume
    after = polytope_moments(blow_up_vertex(poly, vertex, eps)).volume
    assert before - after == eps**3 / 6


@given(polygons(), st.integers(0, 10))
@settings(max_examples=60)
def test_boundary_exclusion_is_subtraction(poly, seed):
    index = seed % len(poly.facets)
    full = boundary_moments(poly)
    partial = boundary_moments(poly, excluded=(index,))
    facet = full.facets[index]
    assert full.measure - partial.measure == facet.measure
    assert tuple(
        a - b for a, b in zip(full.first_moments, partial.first_moments)
    ) == facet.first_moments


@given(polygons(), st.integers(0, 10))
@settings(max_examples=60)
def test_facet_chart_preserves_measure(poly, seed):
    index = seed % len(poly.facets)
    face, chart = facet_polytope(poly, index)
    # lattice length of the facet equals the 1d volume of its chart image
    assert polytope_moments(face).volume == boundary_moments(poly).facets[index].measure
    for v in face.vertices:
        ambient = chart.to_ambient(v.point)
        assert dot(chart.normal, ambient) == chart.offset
        assert chart.from_ambient(ambient) == v.point


@given(polygons(), unimodular_2x2(), st.tuples(small_fraction, small_fraction))
@settings(max_examples=60)
def test_moments_unimodular_invariance(poly, t, shift):
    m = polytope_moments(poly)
    moved = apply_unimodular(poly, t, shift)
    m_moved = polytope_moments(moved)
    assert m_moved.volume == m.volume
    assert m_moved.barycenter == tuple(
        dot(t[i], m.barycenter) + shift[i] for i in range(2)
    )
    assert boundary_moments(moved).measure == boundary_moments(poly).measure
    assert is_delzant(moved).ok == is_delzant(poly).ok


@given(polygons())
@settings(max_examples=60)
def test_free_points_partition_vertices(poly):
    index = len(poly.facets) - 1
    free = {v.point for v in free_fixed_points(poly, index)}
    tight = {v.point for v in poly.vertices if index in v.active}
    assert free | tight == {v.point for v in poly.vertices}
    assert free & tight == set()


@given(polygons(), unimodular_2x2(), st.tuples(small_fraction, small_fraction))
@settings(max_examples=30)
def test_obstruction_unimodular_invariance(poly, t, shift):
    index = len(poly.facets) - 1
    base = check_facet_condition(poly, index)
    moved_report = check_facet_condition(apply_unimodular(poly, t, shift), index)
    assert moved_report.satisfied == base.satisfied
    if base.satisfied:
        # the difference function is constant on the facet, so its value
        # does not depend on the chart; otherwise it is chart-relative
        assert moved_report.offset == base.offset


@given(polygons())
@settings(max_examples=50)
def test_serialization_round_trip(poly):
    data = poly.to_data()
    again = DelzantPolytope.from_data(data)
    assert again.facets == poly.facets
    assert again.to_data() == data


@given(
    st.floats(min_value=0, max_value=200, allow_nan=False),
    st.floats(min_value=0, max_value=200, allow_nan=False),
)
@settings(max_examples=200)
def test_indicial_quartic_residual_and_window(lam, mu):
    pair = SpectralPair(lam, mu)
    roots = indicial_roots(pair)
    assert len(roots) == 4
    coeffs = [0.5, -1.0, 0.5 - (lam + 0.5), lam + 0.5, mu]
    for r in roots:
        residual = np.polyval(coeffs, r.delta)
        assert abs(residual) <= 1e-9 * (1 + lam + mu) ** 2
    # reflection through 1/2 maps the root multiset to itself
    mirrored = sorted(
        (round((1 - r.delta).real, 9), round((1 - r.delta).imag, 9)) for r in roots
    )
    direct = sorted(
        (round(r.delta.real, 9), round(r.delta.imag, 9)) for r in roots
    )
    assert mirrored == direct
    assert roots_in_window([pair], 0, 1) == ()


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.floats(min_value=0, max_value=50, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    ),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)
@settings(max_examples=120)
def test_certify_distance_definition(raw_pairs, eta):
    pairs = [SpectralPair(lam, mu) for lam, mu in raw_pairs]
    cert = certify_weight(pairs, eta)
    best = min(
        abs(r.delta.real - eta) for p in pairs for r in indicial_roots(p)
    )
    assert abs(cert.distance - best) < 1e-12
    assert cert.certified == (cert.distance > 1e-9)


@given(
    st.floats(min_value=0.1, max_value=4, allow_nan=False),
    st.floats(min_value=0.1, max_value=3, allow_nan=False),
    st.floats(min_value=0, max_value=2, allow_nan=False),
    st.floats(min_value=0, max_value=30, allow_nan=False),
    st.floats(min_value=0, max_value=30, allow_nan=False),
)
@settings(max_examples=80)
def test_indicial_matches_numpy_for_general_coefficients(c2, c1, c0, lam, mu):
    coeff = ModelCoefficients(square=c2, mixed=c1, linear=c0)
    pair = SpectralPair(lam, mu, scale=2 * c2)
    mine = indicial_roots(pair, coeff)
    k = c1 * lam + c0
    oracle = sorted(
        np.roots([c2, -2 * c2, c2 - k, k, mu]), key=lambda z: (z.real, z.imag)
    )
    scale_tol = 1e-7 * (1 + k + mu)
    for root, expected in zip(mine, oracle):
        assert abs(root.delta - complex(expected)) < scale_tol


@given(polygons(), st.integers(0, 10), small_fraction, small_fraction, small_fraction)
@settings(max_examples=60)
def test_boundary_integral_linearity(poly, seed, a, b, c):
    from cuspcheck import Poly2

    index = seed % len(poly.facets)
    f = Poly2.from_monomials(2, {(0, 0): a, (1, 0): b, (0, 1): c})
    total = integrate_polynomial_boundary(poly, f)
    partial = integrate_polynomial_boundary(poly, f, excluded=(index,))
    fm = boundary_moments(poly).facets[index]
    facet_part = a * fm.measure + b * fm.first_moments[0] + c * fm.first_moments[1]
    assert total - partial == facet_part
