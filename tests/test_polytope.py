"""Polytope construction and charts, with a computational-geometry oracle.

scipy's qhull wrapper recomputes vertex sets from the same halfspaces;
interior points for it come from an independent Chebyshev-center LP.
Emptiness and boundedness are checked against an exact oracle, a
Fourier-Motzkin elimination and a scan of every (n-1)-subset of facets
for a recession ray.  Vertices, active sets and face checks are checked
against a reference in Fraction heights, one dot per vertex and facet,
while the constructor compares integer heights on its vertex table.
"""

import ast
import importlib.util
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from conftest import (
    hostile_document,
    interval,
    row_claim,
    rref,
    rref_nullspace,
    tower_rounds,
    unit_cube,
    unit_simplex,
    unit_simplex_document,
    vertex_scan,
)
from cuspcheck import (
    ChartMismatch,
    DegenerateFacet,
    DegeneratePolytope,
    DelzantPolytope,
    DimensionMismatch,
    EmptyPolytope,
    Facet,
    InputValidationError,
    NotUnimodular,
    PolytopeTooLarge,
    UnboundedPolytope,
    Vertex,
    apply_unimodular,
    blow_up_vertex,
    enumerate_vertices,
    facet_polytope,
    is_delzant,
    start_tower,
    tower_step,
)
from cuspcheck import polytope
from cuspcheck.errors import InvalidPolytope, InvariantViolation
from cuspcheck.linalg import dot, gcd_vector, is_primitive, rank, solve_linear
from cuspcheck.rational import format_rational_vector

_RNG = random.Random(8141)


def _scipy_vertices(poly: DelzantPolytope) -> set[tuple[float, ...]]:
    """Independent vertex enumeration: Chebyshev center + qhull."""
    a = np.array([[-float(x) for x in f.normal] for f in poly.facets])
    b = np.array([float(f.offset) for f in poly.facets])
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    res = linprog(
        c=[0.0] * poly.dim + [-1.0],
        A_ub=np.hstack([a, norms]),
        b_ub=-b,
        bounds=[(None, None)] * poly.dim + [(0, None)],
    )
    assert res.success and res.x[-1] > 1e-9, "oracle needs a full-dimensional body"
    hs = HalfspaceIntersection(np.hstack([a, b.reshape(-1, 1)]), res.x[: poly.dim])
    found = set()
    for p in hs.intersections:
        found.add(tuple(round(x, 9) for x in p))
    return found


def _assert_matches_oracle(poly: DelzantPolytope) -> None:
    mine = {tuple(round(float(x), 9) for x in v.point) for v in poly.vertices}
    assert mine == _scipy_vertices(poly)


@pytest.mark.parametrize(
    "build",
    [
        lambda: unit_simplex(2),
        lambda: unit_simplex(3),
        lambda: unit_simplex(4),
        lambda: unit_cube(2),
        lambda: unit_cube(3),
        lambda: interval(0, 1),
    ],
)
def test_vertices_match_scipy_oracle(build):
    poly = build()
    if poly.dim == 1:
        assert [v.point for v in poly.vertices] == [(Fraction(0),), (Fraction(1),)]
    else:
        _assert_matches_oracle(poly)


def test_random_chopped_polytopes_match_oracle():
    from cuspcheck import max_chop_parameter

    for _ in range(20):
        n = _RNG.choice((2, 3))
        poly = unit_simplex(n)
        for _ in range(_RNG.randint(1, 2)):
            v = _RNG.choice(poly.vertices)
            bound = max_chop_parameter(poly, v.point)
            poly = blow_up_vertex(poly, v.point, bound / _RNG.choice((3, 4, 7)))
        _assert_matches_oracle(poly)


def test_unit_simplex_vertex_list_is_sorted():
    poly = unit_simplex(2)
    assert [v.point for v in enumerate_vertices(poly)] == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]


def test_chopped_simplex_vertices():
    poly = blow_up_vertex(unit_simplex(2), (0, 0), Fraction(1, 4))
    assert {v.point for v in poly.vertices} == {
        (Fraction(1, 4), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }


def test_active_sets_are_complete():
    poly = unit_cube(2)
    for v in poly.vertices:
        for i, f in enumerate(poly.facets):
            from cuspcheck.linalg import dot

            tight = dot(f.normal, v.point) == f.offset
            assert (i in v.active) == tight


def test_facet_requires_primitive_normal():
    with pytest.raises(DegenerateFacet, match="not primitive"):
        Facet((2, 2), 0)
    with pytest.raises(DegenerateFacet, match="zero"):
        Facet((0, 0), 1)


def test_facet_rejects_float_offset_and_bool_normal():
    with pytest.raises(ValueError):
        Facet((1, 0), 0.5)
    with pytest.raises(TypeError):
        Facet((True, False), 0)


def test_empty_polytope_detected():
    with pytest.raises(EmptyPolytope):
        DelzantPolytope(1, (Facet((1,), 0), Facet((-1,), 1)))
    with pytest.raises(EmptyPolytope):
        DelzantPolytope(
            2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((1, 1), 5), Facet((-1, -1), -1))
        )


def test_unbounded_polytope_detected():
    with pytest.raises(UnboundedPolytope):
        DelzantPolytope(2, (Facet((1, 0), 0), Facet((0, 1), 0)))
    # bounded in one direction only
    with pytest.raises(UnboundedPolytope):
        DelzantPolytope(2, (Facet((1, 0), 0), Facet((-1, 0), -1), Facet((0, 1), 0)))


def test_rank_deficient_empty_system_is_empty():
    # x >= 1 and -x >= 0 in the plane: the normals span only a line
    with pytest.raises(EmptyPolytope, match="no point satisfies"):
        DelzantPolytope(2, (Facet((1, 0), 1), Facet((-1, 0), 0)))


def test_strip_normals_do_not_span():
    with pytest.raises(UnboundedPolytope, match="facet normals do not span"):
        DelzantPolytope(2, (Facet((1, 0), 0), Facet((-1, 0), -1)))


def test_cone_with_non_simple_apex_is_unbounded():
    normals = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))
    with pytest.raises(UnboundedPolytope, match="recession direction") as err:
        DelzantPolytope(3, tuple(Facet(u, 0) for u in normals))
    _assert_names_recession_ray(str(err.value), normals)


def test_one_dimensional_ray_is_unbounded():
    with pytest.raises(UnboundedPolytope, match=r"recession direction \(1,\)"):
        DelzantPolytope(1, (Facet((1,), 0),))


def test_lower_dimensional_body_rejected():
    # The segment x = 0, 0 <= y <= 1 has D = 1.  In the second system the
    # redundant facet x + y >= -1/3, listed first, supports no face: its
    # height row is scaled by r = 3, and the barycentre test still finds
    # the segment in the hyperplane of x >= 0 before any facet's face is
    # tested.
    segment = (Facet((1, 0), 0), Facet((-1, 0), 0), Facet((0, 1), 0), Facet((0, -1), -1))
    for facets in (segment, (Facet((1, 1), Fraction(-1, 3)), *segment)):
        with pytest.raises(DegeneratePolytope):
            DelzantPolytope(2, facets)


def test_duplicate_normals_rejected():
    with pytest.raises(DegenerateFacet):
        DelzantPolytope(
            1, (Facet((1,), 0), Facet((1,), -1), Facet((-1,), -1))
        )


def test_duplicate_normals_report_the_least_pair():
    # normals A, B, B, A: the pair (0, 3) comes before (1, 2)
    with pytest.raises(DegenerateFacet) as exc:
        DelzantPolytope(
            2,
            (
                Facet((1, 0), 0),
                Facet((0, 1), 0),
                Facet((0, 1), -1),
                Facet((1, 0), -2),
            ),
        )
    assert str(exc.value) == "facets 0 and 3 share the normal (1, 0)"


def test_facet_without_ridge_support_rejected():
    # the diagonal halfspace only touches the square at one corner
    with pytest.raises(DegenerateFacet):
        DelzantPolytope(
            2,
            (
                Facet((1, 0), 0),
                Facet((0, 1), 0),
                Facet((-1, 0), -1),
                Facet((0, -1), -1),
                Facet((1, 1), 0),
            ),
        )


def _cube_with_edge_facet():
    # (1, 1, 0) >= 0 touches the unit cube only along the edge x = y = 0,
    # and both ends of that edge lie on four facets, so neither is simple.
    cube = unit_cube(3)
    return cube, cube.facets + (Facet((1, 1, 0), 0),)


def test_facet_tight_on_a_non_simple_edge_is_refused():
    cube, facets = _cube_with_edge_facet()
    message = "facet 6 does not support an (n-1)-dimensional face"
    with pytest.raises(DegenerateFacet) as exc:
        DelzantPolytope(3, facets)
    assert str(exc.value) == message
    # the claims name facet 6 where it is tight, on the edge x = y = 0
    claimed = [
        Vertex(v.point, v.active + ((6,) if v.point[:2] == (0, 0) else ()))
        for v in cube.vertices
    ]
    with pytest.raises(DegenerateFacet) as exc:
        DelzantPolytope._from_claimed_vertices(3, facets, *row_claim(claimed))
    assert str(exc.value) == message


def test_face_dim_on_the_square_pyramid():
    pyramid = DelzantPolytope(3, _PYRAMID)
    (apex,) = [k for k, v in enumerate(pyramid.vertices) if len(v.active) == 4]
    base = [k for k in range(len(pyramid.vertices)) if k != apex]
    assert pyramid.face_dim(()) == -1
    assert pyramid.face_dim({apex}) == 0
    assert [pyramid.face_dim({apex, k}) for k in base] == [1] * 4
    assert [pyramid.face_dim(face) for face in pyramid.facet_vertices] == [2] * 5
    assert pyramid.facet_vertices[0] == frozenset(base)
    assert pyramid.face_dim(range(len(pyramid.vertices))) == 3


def test_simple_flag_is_false_exactly_at_a_vertex_on_more_than_n_facets():
    octahedron = DelzantPolytope(
        3, tuple(Facet(u, -1) for u in itertools.product((1, -1), repeat=3))
    )
    pyramid = DelzantPolytope(3, _PYRAMID)
    cases = [
        *(unit_simplex(n) for n in (1, 2, 3, 5)),
        *(unit_cube(n) for n in (2, 4)),
        *tower_rounds()[:3],
        DelzantPolytope(2, _SKEW_TRIANGLE),
        facet_polytope(pyramid, 0)[0],
        facet_polytope(pyramid, 1)[0],
    ]
    assert all(poly.simple for poly in cases)
    for poly in cases + [octahedron, pyramid]:
        assert poly.simple == all(len(a) == poly.dim for a in poly.vertex_facets)
    # the pyramid's apex lies on 4 facets, every octahedron vertex on 4
    assert not pyramid.simple and not octahedron.simple
    assert sorted(map(len, pyramid.vertex_facets)) == [3, 3, 3, 3, 4]
    assert set(map(len, octahedron.vertex_facets)) == {4}


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="label"):
        DelzantPolytope(1, (Facet((1,), 0, label="a"), Facet((-1,), -1, label="a")))


def test_is_delzant_true_cases():
    for n in (2, 3, 4):
        assert is_delzant(unit_simplex(n)).ok
    assert is_delzant(unit_cube(3)).ok
    for k in (2, 3, 5):
        assert is_delzant(blow_up_vertex(unit_simplex(2), (0, 0), Fraction(1, k))).ok


def test_is_delzant_false_for_singular_corner():
    # triangle with normals (1,0), (0,1), (-1,-2): vertex (0,1) has det -2
    poly = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    report = is_delzant(poly)
    assert not report.ok
    assert not bool(report)
    assert any("determinant" in text for text in report.violations)


def test_is_delzant_false_for_nonsimple_vertex():
    # square pyramid apex in 3d lies on 4 facets
    poly = DelzantPolytope(
        3,
        (
            Facet((0, 0, 1), 0),
            Facet((1, 0, -1), 0),
            Facet((0, 1, -1), 0),
            Facet((-1, 0, -1), -1),
            Facet((0, -1, -1), -1),
        ),
    )
    report = is_delzant(poly)
    assert not report.ok
    assert any("facets" in text for text in report.violations)


def test_contains_and_resolve():
    poly = unit_simplex(2)
    assert poly.contains((Fraction(1, 4), Fraction(1, 4)))
    assert not poly.contains((Fraction(1), Fraction(1)))
    assert poly.resolve_facet("hyp") == 2
    assert poly.resolve_facet(0) == 0
    with pytest.raises(KeyError):
        poly.resolve_facet("nope")
    with pytest.raises(IndexError):
        poly.resolve_facet(17)
    # wire-format indices are nonnegative; no python-style wraparound
    with pytest.raises(IndexError):
        poly.resolve_facet(-1)


def test_apply_unimodular_identity_and_shear():
    poly = unit_simplex(2)
    same = apply_unimodular(poly, ((1, 0), (0, 1)))
    assert same.facets == poly.facets
    sheared = apply_unimodular(poly, ((1, 1), (0, 1)))
    assert is_delzant(sheared).ok
    t = ((1, 1), (0, 1))
    expected = {
        tuple(
            sum(Fraction(t[i][j]) * v.point[j] for j in range(2)) for i in range(2)
        )
        for v in poly.vertices
    }
    assert {v.point for v in sheared.vertices} == expected


def test_apply_unimodular_translation_shifts_offsets():
    poly = unit_simplex(2)
    moved = apply_unimodular(poly, ((1, 0), (0, 1)), (3, -2))
    for before, after in zip(poly.facets, moved.facets):
        assert after.normal == before.normal
        shift = before.normal[0] * 3 + before.normal[1] * (-2)
        assert after.offset == before.offset + shift
    assert {v.point for v in moved.vertices} == {
        (v.point[0] + 3, v.point[1] - 2) for v in poly.vertices
    }


def test_apply_unimodular_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        apply_unimodular(unit_simplex(2), ((2, 0), (0, 1)))


def test_facet_polytope_of_hypotenuse_is_unit_interval():
    poly = unit_simplex(2)
    face, chart = facet_polytope(poly, "hyp")
    assert face.dim == 1
    points = sorted(v.point[0] for v in face.vertices)
    assert points[1] - points[0] == 1  # lattice length one
    # chart carries facet points back onto the hyperplane x+y=1
    for v in face.vertices:
        ambient = chart.to_ambient(v.point)
        assert sum(ambient) == 1
        assert poly.contains(ambient)
        assert chart.from_ambient(ambient) == v.point
    with pytest.raises(ChartMismatch):
        chart.from_ambient((Fraction(0), Fraction(0)))


def test_facet_polytope_of_cube_face_is_square():
    poly = unit_cube(3)
    face, _ = facet_polytope(poly, "top2")
    assert face.dim == 2
    assert len(face.vertices) == 4
    from cuspcheck.moments import polytope_moments

    assert polytope_moments(face).volume == 1


def test_facet_polytope_carries_labels():
    poly = unit_simplex(2)
    face, _ = facet_polytope(poly, "hyp")
    assert {f.label for f in face.facets} == {"x0", "x1"}


def test_facet_polytope_rejects_dim_one():
    with pytest.raises(DimensionMismatch):
        facet_polytope(interval(0, 1), "lo")


def _seeded_chopped_inputs(seeds):
    """The benchmark's seeded chopped 3D simplices and cubes, each in a
    seed-drawn lattice frame (``perfbench/corpus.py``, stdlib only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [
        DelzantPolytope.from_data(item["doc"])
        for seed in seeds
        for item in corpus.seeded_checks(seed)
    ]


def _tower_3d_rounds(rounds):
    state = start_tower(unit_simplex(3), "hyp")
    out = []
    for r in range(1, rounds + 1):
        state = tower_step(state, Fraction(1, 4**r))
        out.append(state.polytope)
    return out


def test_derived_facet_polytopes_match_the_scan():
    # facet_polytope derives its vertices and tight sets from the parent's;
    # the constructor's walk of the same facets is the oracle, on simplices
    # and cubes, tower rounds, chopped inputs in skew frames and a
    # non-simple apex.
    cases = [unit_simplex(n) for n in (2, 3, 4, 5)] + [unit_cube(n) for n in (2, 3, 4, 5)]
    cases += [*tower_rounds()[:6], *_tower_3d_rounds(3)]
    cases += _seeded_chopped_inputs((1, 2)) + [DelzantPolytope(3, _PYRAMID)]
    faces = 0
    for poly in cases:
        for index in range(len(poly.facets)):
            face, _ = facet_polytope(poly, index)
            oracle = DelzantPolytope(poly.dim - 1, face.facets)
            assert face.vertices == oracle.vertices
            assert face.scaled_vertices == oracle.scaled_vertices
            assert face.facet_vertices == oracle.facet_vertices
            assert face.cones == oracle.cones
            faces += 1
    # simplices, cubes, 2D rounds 1-6, 3D rounds 1-3, seeded inputs, pyramid
    assert faces == 18 + 28 + 138 + (5 + 8 + 17) + 61 + 5


def test_a_claimed_tight_facet_that_is_not_tight_is_refused():
    # On the facet path no generators are claimed, so the tight-set check
    # alone stands between a wrong derivation and the face checks.
    face, _ = facet_polytope(unit_cube(3), "top2")
    claims = list(face.vertices)
    rebuilt = DelzantPolytope._from_claimed_vertices(2, face.facets, *row_claim(claims))
    assert rebuilt.vertices == face.vertices
    assert rebuilt.facet_vertices == face.facet_vertices
    for k, v in enumerate(claims):
        for extra in sorted(set(range(len(face.facets))) - set(v.active)):
            wrong = claims[:k] + [Vertex(v.point, tuple(sorted(v.active + (extra,))))]
            with pytest.raises(InvariantViolation) as info:
                DelzantPolytope._from_claimed_vertices(
                    2, face.facets, *row_claim(wrong + claims[k + 1 :])
                )
            assert str(info.value) == (
                f"claimed vertex {format_rational_vector(v.point)} is not tight on facet {extra}"
            )


def test_dimension_mismatch_on_bad_facet_length():
    with pytest.raises(DimensionMismatch):
        DelzantPolytope(2, (Facet((1,), 0), Facet((-1,), -1)))


def test_from_data_round_trip(triangle):
    data = triangle.to_data()
    again = DelzantPolytope.from_data(data)
    assert again.facets == triangle.facets
    assert again.to_data() == data


def test_from_data_offsets_are_strings():
    poly = blow_up_vertex(unit_simplex(2), (0, 0), Fraction(1, 4))
    data = poly.to_data()
    assert data["facets"][-1]["offset"] == "1/4"


def test_from_data_error_pointers():
    doc = {
        "dim": 2,
        "facets": [
            {"normal": [2, 2], "offset": 0},
            {"normal": [1, 0], "offset": "1/0", "label": ""},
            {"normal": [0, 1], "offset": 0, "extra": 1},
        ],
        "stray": True,
    }
    with pytest.raises(InputValidationError) as err:
        DelzantPolytope.from_data(doc)
    # One order for the schema's and the parsers' errors alike: by pointer,
    # token by token, array indices as integers.
    assert [p for p, _ in err.value.errors] == [
        "/facets/0", "/facets/1/label", "/facets/1/offset", "/facets/2/extra", "/stray"
    ]
    pointers = dict(err.value.errors)
    assert "not primitive" in pointers["/facets/0"]
    assert "invalid rational" in pointers["/facets/1/offset"]
    assert "non-empty" in pointers["/facets/1/label"]
    assert pointers["/facets/2/extra"] == "unknown field"
    assert pointers["/stray"] == "unknown field"


def test_input_errors_sort_by_pointer_with_integer_indices_and_keep_ties_in_order():
    err = InputValidationError(
        [("/a/10", "x"), ("/b", "first"), ("/a/2/k", "y"), ("", "root"), ("/b", "second"),
         ("/a/2", "z"), ("/a/9", "w")]
    )
    assert err.errors == [
        ("", "root"), ("/a/2", "z"), ("/a/2/k", "y"), ("/a/9", "w"), ("/a/10", "x"),
        ("/b", "first"), ("/b", "second"),
    ]


def test_from_data_requires_object():
    with pytest.raises(InputValidationError):
        DelzantPolytope.from_data([1, 2])
    with pytest.raises(InputValidationError) as err:
        DelzantPolytope.from_data({"dim": 0, "facets": []})
    pointers = dict(err.value.errors)
    assert "/dim" in pointers and "/facets" in pointers


# Exact oracle for emptiness and boundedness, in the constructor's order:
# Fourier-Motzkin elimination when the scan finds no vertex, then the
# rank of the normals, then a recession ray over all (n-1)-subsets.


def _fourier_motzkin_feasible(
    constraints: list[tuple[tuple[Fraction, ...], Fraction]], nvars: int
) -> bool:
    # Constraints are sum(coef * x) >= rhs; eliminate the trailing
    # variable each round.
    cons = constraints
    for var in range(nvars - 1, -1, -1):
        lower, upper, rest = [], [], []
        for coef, rhs in cons:
            a = coef[var]
            if a > 0:
                lower.append((coef, rhs))
            elif a < 0:
                upper.append((coef, rhs))
            else:
                rest.append((coef[:var], rhs))
        for (cl, rl), (cu, ru) in itertools.product(lower, upper):
            al, au = cl[var], cu[var]
            coef = tuple(-au * a + al * b for a, b in zip(cl[:var], cu[:var]))
            rest.append((coef, -au * rl + al * ru))
        cons = list(dict.fromkeys(rest))
    return all(rhs <= 0 for _, rhs in cons)


def _primitive_int_vector(v):
    # The primitive integer vector along a nonzero rational vector.
    lcm = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * lcm) for x in v]
    g = gcd_vector(ints)
    return tuple(x // g for x in ints)


def _recession_ray(normals, n):
    # The recession cone is pointed once the normals span R^n; a
    # nontrivial pointed cone has an extreme ray cut out by n-1
    # independent tight constraints, so scanning those suffices.  The
    # kernel line comes from the Fraction null space of rref, not from
    # the minors the constructor takes.
    for subset in itertools.combinations(range(len(normals)), n - 1):
        mat = [tuple(Fraction(x) for x in normals[i]) for i in subset]
        if mat and rank(mat) != n - 1:
            continue
        kernel = rref_nullspace(mat, n)
        if len(kernel) != 1:
            continue
        z = _primitive_int_vector(kernel[0])
        for candidate in (z, tuple(-x for x in z)):
            if all(dot(u, candidate) >= 0 for u in normals):
                return candidate
    return None


def _reference_candidates(normals, offsets):
    # The C(m, n) scan with Fraction heights.
    n = len(normals[0])
    found = set()
    for subset in itertools.combinations(range(len(normals)), n):
        mat = [tuple(Fraction(x) for x in normals[i]) for i in subset]
        point = solve_linear(mat, [offsets[i] for i in subset])
        if point is not None and all(dot(u, point) >= c for u, c in zip(normals, offsets)):
            found.add(point)
    return found


def _reference_vertices(facets, points):
    # One Fraction dot per vertex and facet, in the constructor's order.
    vertices = []
    for point in sorted(points):
        active = []
        for i, f in enumerate(facets):
            height = dot(f.normal, point)
            if height < f.offset:
                raise InvariantViolation(
                    f"vertex {format_rational_vector(point)} violates facet {i}"
                )
            if height == f.offset:
                active.append(i)
        vertices.append(Vertex(point=point, active=tuple(active)))
    return tuple(vertices)


def _affine_dimension(points):
    # rref of the differences to the first point; -1 for no points.
    if not points:
        return -1
    return len(rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])[1])


def _reference_faces(dim, facets, vertices):
    barycenter = tuple(
        sum((v.point[i] for v in vertices), Fraction(0)) / len(vertices) for i in range(dim)
    )
    if any(dot(f.normal, barycenter) == f.offset for f in facets):
        raise DegeneratePolytope(
            "polytope is not full-dimensional: it lies in a facet hyperplane"
        )
    for i in range(len(facets)):
        if _affine_dimension([v.point for v in vertices if i in v.active]) != dim - 1:
            raise DegenerateFacet(f"facet {i} does not support an (n-1)-dimensional face")


def _checked_facets(dim, facets):
    # The constructor's own facet checks, which run before any vertex.
    poly = object.__new__(DelzantPolytope)
    object.__setattr__(poly, "dim", dim)
    object.__setattr__(poly, "facets", facets)
    return poly._check_facets()


def _oracle_vertices(dim, facets):
    normals, offsets = _checked_facets(dim, facets)
    candidates = _reference_candidates(normals, offsets) if normals else set()
    if not candidates:
        constraints = [
            (tuple(Fraction(x) for x in u), c) for u, c in zip(normals, offsets)
        ]
        if not _fourier_motzkin_feasible(constraints, dim):
            raise EmptyPolytope("no point satisfies all facet inequalities")
    if rank([tuple(Fraction(x) for x in u) for u in normals]) < dim:
        raise UnboundedPolytope("facet normals do not span the ambient space")
    ray = _recession_ray(normals, dim)
    if ray is not None:
        raise UnboundedPolytope(f"recession direction {ray} is unbounded")
    vertices = _reference_vertices(facets, candidates)
    _reference_faces(dim, facets, vertices)
    return vertices


def _outcome(build):
    try:
        return "ok", build()
    except (InvalidPolytope, DegenerateFacet, InvariantViolation) as exc:
        return type(exc), str(exc)


def _assert_names_recession_ray(message, normals):
    ray = ast.literal_eval(message.split("recession direction ", 1)[1].split(" is")[0])
    assert any(ray)
    assert all(dot(u, ray) >= 0 for u in normals)


@st.composite
def halfspace_systems(draw):
    """Primitive normals with entries in [-2, 2], half-integer offsets."""
    n = draw(st.integers(1, 4))
    primitive = [u for u in itertools.product(range(-2, 3), repeat=n) if is_primitive(u)]
    m = draw(st.integers(0, 2 if n == 1 else n + 4))
    # Half the systems start from the box normals +-e_i, so that bounded
    # polytopes and their degenerate cuts are common too.
    box = [u for u in primitive if sum(map(abs, u)) == 1] if draw(st.booleans()) else []
    extra = max(m - len(box), 0)
    rest = st.sampled_from(primitive).filter(lambda u: u not in box)
    normals = box[:m] + draw(st.lists(rest, min_size=extra, max_size=extra, unique=True))
    halves = draw(st.lists(st.integers(-6, 2), min_size=m, max_size=m))
    return n, tuple(Facet(u, Fraction(h, 2)) for u, h in zip(normals, halves))


@given(halfspace_systems())
@settings(max_examples=300, deadline=None)
def test_constructor_matches_exact_oracle(system):
    dim, facets = system
    got = _outcome(lambda: DelzantPolytope(dim, facets).vertices)
    expected = _outcome(lambda: _oracle_vertices(dim, facets))
    recession = "recession direction "
    if got[0] is UnboundedPolytope and got[1].startswith(recession):
        assert expected[0] is UnboundedPolytope
        assert expected[1].startswith(recession)
        _assert_names_recession_ray(got[1], [f.normal for f in facets])
    else:
        assert got == expected


# --- the vertex walk against the C(m, n) scan ---


def _walk_systems():
    """Seeded facet systems in dimensions 1-4: general ones, ones whose
    normals all have a zero last entry, so do not span, and ones with
    entries in {-1, 0, 1} and offsets -1 or 0, whose vertices are often
    degenerate; then the square pyramid and the cross-polytopes."""
    rng = random.Random(2601)
    systems = []
    for _ in range(330):
        n = rng.randint(1, 4)
        kind = rng.randrange(3)
        top = 1 if kind == 2 else 2
        pool = [u for u in itertools.product(range(-top, top + 1), repeat=n) if is_primitive(u)]
        if kind == 1 and n > 1:
            pool = [u for u in pool if u[-1] == 0]
        normals = rng.sample(pool, min(len(pool), rng.randint(1, n + 5)))
        if kind == 2:
            offsets = [Fraction(rng.choice((-1, -1, 0))) for _ in normals]
        else:
            offsets = [Fraction(rng.randint(-6, 2), rng.choice((1, 2, 3))) for _ in normals]
        systems.append((n, [Facet(u, c) for u, c in zip(normals, offsets)]))
    systems.append((3, list(_PYRAMID)))
    for n in (2, 3, 4):
        systems.append((n, [Facet(u, -1) for u in itertools.product((-1, 1), repeat=n)]))
    return systems


def _table(claim):
    """A vertex claim in the normal form ``_set_vertices`` stores: the
    scale with its gcd with every entry divided out, and the sorted rows
    with their tight sets."""
    scale, rows, tight = claim
    g = math.gcd(scale, *itertools.chain.from_iterable(rows))
    return scale // g, sorted(zip([tuple(x // g for x in row) for row in rows], tight))


def test_vertex_walk_matches_the_scan():
    # The walk's vertex table and tight sets equal the C(m, n) scan's
    # wherever the scan finds a vertex and the system has no recession
    # ray.  Where it has one, the walk refuses the system as unbounded at
    # the first ray it meets, and names it, primitive.  Where the scan
    # finds no vertex, the walk refuses the system as empty exactly when
    # Fourier-Motzkin elimination finds no point, and otherwise, as the
    # normals then do not span, as unbounded.
    seen = dict.fromkeys(["simple", "degenerate", "unbounded", "empty", "not spanning"], 0)
    for dim, facets in _walk_systems():
        normals = [f.normal for f in facets]
        offsets = [f.offset for f in facets]
        scanned = vertex_scan(normals, offsets)
        if scanned is not None and _recession_ray(normals, dim) is not None:
            with pytest.raises(UnboundedPolytope, match="^recession direction") as info:
                polytope._vertex_walk(normals, offsets)
            _assert_names_recession_ray(str(info.value), normals)
            ray = ast.literal_eval(str(info.value).split("direction ")[1].split(" is")[0])
            assert gcd_vector(ray) == 1
            seen["unbounded"] += 1
            continue
        if scanned is not None:
            assert _table(polytope._vertex_walk(normals, offsets)) == _table(scanned)
            seen["degenerate" if any(len(t) > dim for t in scanned[2]) else "simple"] += 1
            continue
        if _fourier_motzkin_feasible([(u, c) for u, c in zip(normals, offsets)], dim):
            assert rank(normals) < dim
            error, message = UnboundedPolytope, "facet normals do not span the ambient space"
            seen["not spanning"] += 1
        else:
            error, message = EmptyPolytope, "no point satisfies all facet inequalities"
            seen["empty"] += 1
        with pytest.raises(error) as info:
            polytope._vertex_walk(normals, offsets)
        assert str(info.value) == message
    assert min(seen.values()) >= 20, seen
    # The pyramid's apex is tight on four facets.
    apex = [t for t in vertex_scan([f.normal for f in _PYRAMID], [f.offset for f in _PYRAMID])[2]]
    assert (1, 2, 3, 4) in apex


def test_the_forty_facet_hostile_document_is_refused():
    # 40 random facets in dimension 4, most of them redundant: the walk
    # finds every vertex, and the face check refuses the first facet
    # without one.
    with pytest.raises(InputValidationError) as info:
        DelzantPolytope.from_data(hostile_document(40))
    assert info.value.errors == [("", "facet 3 does not support an (n-1)-dimensional face")]


def test_a_walk_over_its_budget_is_refused(monkeypatch):
    # The 3-cube's walk reads its 6 rows once at the start and once per
    # edge, 6 + 12 * 6 = 78 steps.
    cube = unit_cube(3)
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 78)
    assert DelzantPolytope(3, cube.facets) == cube
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 77)
    with pytest.raises(PolytopeTooLarge) as info:
        DelzantPolytope(3, cube.facets)
    assert isinstance(info.value, InvalidPolytope)
    assert str(info.value) == "the vertex walk exceeds its limit of 77 steps"
    with pytest.raises(InputValidationError) as info:
        DelzantPolytope.from_data(cube.to_data())
    assert info.value.errors == [("", "the vertex walk exceeds its limit of 77 steps")]
    # The square pyramid's walk reads its 5 rows at the start and once per
    # edge, and at the apex on 4 facets tries C(4, 2) = 6 subsets at
    # 4 + 3^2 steps each: 5 + 8 * 5 + 6 * 13 = 123 steps.
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 123)
    DelzantPolytope(3, _PYRAMID)
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 122)
    with pytest.raises(PolytopeTooLarge):
        DelzantPolytope(3, _PYRAMID)


def _unbounded_document(m):
    """``hostile_document(m)`` kept to its normals with first entry <= 0,
    so -e_1 is a recession direction."""
    doc = hostile_document(m)
    doc["facets"] = [f for f in doc["facets"] if f["normal"][0] <= 0]
    return doc


def test_an_unbounded_document_is_refused_at_the_first_ray(monkeypatch):
    # The 22 facets kept of hostile_document(40) have vertices, and the
    # walk meets a ray after 1205 steps.  A walk that went on to find
    # every vertex would spend 5081 and pass a budget of 2000.
    doc = _unbounded_document(40)
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 2000)
    with pytest.raises(InputValidationError) as info:
        DelzantPolytope.from_data(doc)
    ((pointer, message),) = info.value.errors
    assert pointer == ""
    assert message.startswith("recession direction ")
    _assert_names_recession_ray(message, [f["normal"] for f in doc["facets"]])
    monkeypatch.setattr(polytope, "_MAX_WALK_STEPS", 1204)
    with pytest.raises(InputValidationError) as info:
        DelzantPolytope.from_data(doc)
    assert info.value.errors == [("", "the vertex walk exceeds its limit of 1204 steps")]


def test_only_a_claim_runs_the_open_edge_test(monkeypatch):
    # A walked build is decided by the walk: it takes no ridge map and
    # runs no open-edge test.  A chop's claimed vertex set still does.
    calls = []

    def spy(name):
        real = getattr(DelzantPolytope, name)

        def counted(self, *args):
            calls.append(name)
            return real(self, *args)

        return counted

    for name in ("_ridge_ends", "_open_edge"):
        monkeypatch.setattr(DelzantPolytope, name, spy(name))
    square = unit_cube(2)
    DelzantPolytope(3, _PYRAMID)
    with pytest.raises(UnboundedPolytope):
        DelzantPolytope(2, (Facet((1, 0), 0), Facet((0, 1), 0)))
    assert calls == []
    # The cone table takes the ridge map once, on first read.
    square.cones
    square.cones
    assert calls == ["_ridge_ends"]
    calls.clear()
    blow_up_vertex(square, (Fraction(0), Fraction(0)), Fraction(1, 2))
    assert calls == ["_ridge_ends", "_open_edge"]


def test_a_dimension_over_the_limit_is_refused_before_any_work():
    # The 80-dimensional unit simplex is a document of about 22 kB whose
    # check would run for minutes; it is refused as soon as its dimension
    # is read, after about 10 ms of parsing.
    big = unit_simplex_document(80)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(InputValidationError) as info:
            DelzantPolytope.from_data(big)
        best = min(best, time.perf_counter() - start)
    assert info.value.errors == [("", "dimension 80 exceeds the limit of 8")]
    assert best < 0.05
    with pytest.raises(PolytopeTooLarge, match="dimension 9 exceeds the limit of 8"):
        DelzantPolytope(9, ())
    # At the limit a document still builds.
    at_limit = DelzantPolytope.from_data(unit_simplex_document(polytope._MAX_DIM))
    assert at_limit == unit_simplex(polytope._MAX_DIM)
    assert len(at_limit.vertices) == polytope._MAX_DIM + 1


# --- integer heights against the Fraction reference ---

_PYRAMID = (
    Facet((0, 0, 1), 0),
    Facet((1, 0, -1), 0),
    Facet((0, 1, -1), 0),
    Facet((-1, 0, -1), -1),
    Facet((0, -1, -1), -1),
)
_SKEW_TRIANGLE = (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))


@st.composite
def _odd_cut(draw, dim, points, never_tight=False):
    """A facet with an offset in thirds or fifths near the points' heights."""
    primitive = [u for u in itertools.product(range(-2, 3), repeat=dim) if is_primitive(u)]
    normal = draw(st.sampled_from(primitive))
    d = draw(st.sampled_from((3, 5)))
    heights = [dot(normal, p) * d for p in points]
    k = draw(st.integers(math.floor(min(heights)) - d, math.ceil(max(heights)) + d))
    if never_tight and k % d == 0:
        k += 1
    return Facet(normal, Fraction(k, d))


@st.composite
def odd_offset_cases(draw):
    """(dim, facets, claimed): a walked case when claimed is None.

    Walked cases cut a box in quarters, the square pyramid or the
    skew triangle by one facet in thirds or fifths.  Claimed cases are
    2D tower rounds 1-8, rebuilt from their vertex records,
    perhaps with a facet in thirds or fifths added that no vertex is
    tight on, and perhaps with one record that claims it tight.
    """
    kind = draw(st.sampled_from(("box", "pyramid", "skew", "tower")))
    if kind == "tower":
        poly = tower_rounds()[draw(st.integers(0, 7))]
        vertices = list(poly.vertices)
        facets = poly.facets
        if draw(st.booleans()):
            points = [v.point for v in vertices]
            facets += (draw(_odd_cut(2, points, never_tight=True)),)
            if draw(st.booleans()):
                k = draw(st.integers(0, len(vertices) - 1))
                vertices[k] = Vertex(vertices[k].point, vertices[k].active + (len(facets) - 1,))
        return 2, facets, vertices
    if kind == "box":
        dim = draw(st.integers(2, 3))
        facets = []
        for i in range(dim):
            low = draw(st.integers(-6, 6))
            width = draw(st.integers(1, 8))
            e = tuple(int(j == i) for j in range(dim))
            minus_e = tuple(-x for x in e)
            facets += [Facet(e, Fraction(low, 4)), Facet(minus_e, Fraction(-low - width, 4))]
        facets = tuple(facets)
    else:
        facets = _PYRAMID if kind == "pyramid" else _SKEW_TRIANGLE
        dim = len(facets[0].normal)
    points = [v.point for v in DelzantPolytope(dim, facets).vertices]
    return dim, facets + (draw(_odd_cut(dim, points)),), None


def _reference_claimed(dim, facets, claimed):
    # Each claimed tight facet checked in Fraction, in the constructor's order.
    _checked_facets(dim, facets)
    vertices = tuple(sorted(claimed, key=lambda v: v.point))
    for v in vertices:
        for i in v.active:
            if dot(facets[i].normal, v.point) != facets[i].offset:
                raise InvariantViolation(
                    f"claimed vertex {format_rational_vector(v.point)} is not tight on facet {i}"
                )
    _reference_faces(dim, facets, vertices)
    return vertices


@given(odd_offset_cases())
@settings(max_examples=120, deadline=None)
def test_integer_heights_match_fraction_reference(case):
    dim, facets, claimed = case
    if claimed is None:
        got = _outcome(lambda: DelzantPolytope(dim, facets).vertices)
        expected = _outcome(lambda: _oracle_vertices(dim, facets))
    else:
        got = _outcome(
            lambda: DelzantPolytope._from_claimed_vertices(
                dim, facets, *row_claim(claimed)
            ).vertices
        )
        expected = _outcome(lambda: _reference_claimed(dim, facets, claimed))
    assert got == expected


def test_claimed_point_outside_a_third_offset_facet_is_named():
    # Points in quarters claimed tight on x >= 1/3: the heights
    # cross-multiply by 3, and the first point in order is named.
    facets = (Facet((1, 0), Fraction(1, 3)), Facet((0, 1), 0), Facet((-1, -1), -2))
    claimed = [
        Vertex((Fraction(1, 4), Fraction(0)), (0, 1)),
        Vertex((Fraction(2), Fraction(0)), (1, 2)),
        Vertex((Fraction(1, 4), Fraction(7, 4)), (0, 2)),
    ]
    with pytest.raises(
        InvariantViolation, match=r"claimed vertex \['1/4', '0'\] is not tight on facet 0"
    ):
        DelzantPolytope._from_claimed_vertices(2, facets, *row_claim(claimed))
