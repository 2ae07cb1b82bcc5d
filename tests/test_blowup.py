"""Corner chops, Seshadri-type bounds, and the symmetric tower."""

import copy
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cone_oracle,
    count_fractions,
    interval,
    product_document,
    row_claim,
    tower_rounds,
    unit_cube,
    unit_simplex,
)
from cuspcheck import (
    BlowupSpec,
    ChopTooDeep,
    DegenerateFacet,
    DelzantPolytope,
    DimensionMismatch,
    Facet,
    InteractingChops,
    InvalidPolytope,
    InvariantViolation,
    NotAVertex,
    NotUnimodular,
    TowerState,
    Vertex,
    apply_unimodular,
    blow_up_vertex,
    free_fixed_points,
    is_delzant,
    max_chop_parameter,
    polytope_moments,
    start_tower,
    tower_step,
)
from cuspcheck import linalg, polytope
from cuspcheck.blowup import _find_vertex
from cuspcheck.linalg import dot, is_primitive
from test_moments import _pyramid


def test_max_chop_frozen_values(triangle, square):
    assert max_chop_parameter(triangle, (0, 0)) == 1
    assert max_chop_parameter(square, (0, 0)) == 1
    quarter = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    assert max_chop_parameter(quarter, (Fraction(1, 4), 0)) == Fraction(1, 4)
    assert max_chop_parameter(quarter, (0, Fraction(1, 4))) == Fraction(1, 4)


def _bounds_match_brute_force(poly):
    """Compare max_chop_parameter with the minimum over the other vertices
    at every smooth corner; return the number of corners compared."""
    cones = zip(poly.vertices, poly.cones)
    corners = [v for v, cone in cones if cone.generators is not None]
    for v in corners:
        assert max_chop_parameter(poly, v.point) == _scan_corner(poly, v)[2]
    return len(corners)


def test_max_chop_brute_force_agreement(simplex3):
    assert _bounds_match_brute_force(simplex3) == 4
    # the square pyramid: four simple corners around a non-simple apex
    pyramid = DelzantPolytope(
        3,
        (
            Facet((0, 0, 1), 0),
            Facet((1, 0, -1), 0),
            Facet((0, 1, -1), 0),
            Facet((-1, 0, -1), -1),
            Facet((0, -1, -1), -1),
        ),
    )
    assert _bounds_match_brute_force(pyramid) == 4
    # the triangle with normal (-1, -2): two smooth corners, one singular
    singular = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    assert _bounds_match_brute_force(singular) == 2


def test_blow_up_vertex_frozen(triangle):
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    new = chopped.facets[-1]
    assert new.normal == (1, 1)
    assert new.offset == Fraction(1, 4)
    assert {v.point for v in chopped.vertices} == {
        (Fraction(1, 4), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    assert is_delzant(chopped).ok


def test_blow_up_simplex3_is_band(simplex3):
    chopped = blow_up_vertex(simplex3, (0, 0, 0), Fraction(1, 5))
    assert chopped.facets[-1].normal == (1, 1, 1)
    assert chopped.facets[-1].offset == Fraction(1, 5)
    assert is_delzant(chopped).ok
    assert len(chopped.vertices) == 6


def test_blow_up_label(triangle):
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 3), label="E")
    assert chopped.facets[-1].label == "E"


def test_volume_drop_is_chop_simplex_volume():
    # On unit simplices up to the dimension limit, and on the 6D product of
    # three triangles, whose corner at the origin is a unit cone too.
    triangles = DelzantPolytope.from_data(product_document(*[unit_simplex(2)] * 3))
    for poly in [unit_simplex(n) for n in (2, 3, 6, 7, 8)] + [triangles]:
        n = poly.dim
        before = polytope_moments(poly).volume
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            after = polytope_moments(blow_up_vertex(poly, (0,) * n, eps)).volume
            assert before - after == eps**n / math.factorial(n)


def test_chop_rejections(triangle):
    with pytest.raises(ValueError):
        blow_up_vertex(triangle, (0, 0), Fraction(-1, 4))
    with pytest.raises(ValueError):
        blow_up_vertex(triangle, (0, 0), 0)
    with pytest.raises(ChopTooDeep):
        blow_up_vertex(triangle, (0, 0), 1)
    with pytest.raises(ChopTooDeep):
        blow_up_vertex(triangle, (0, 0), Fraction(3, 2))
    with pytest.raises(NotAVertex):
        blow_up_vertex(triangle, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 8))



def test_chops_in_dimension_one_are_refused():
    # A segment has no corner to chop: each call is refused up front, not
    # by a chop facet that repeats a normal.
    segment = interval(0, 1)
    calls = (
        lambda: blow_up_vertex(segment, (0,), Fraction(1, 4)),
        lambda: max_chop_parameter(segment, (0,)),
        lambda: tower_step(start_tower(segment, "hi"), Fraction(1, 4)),
    )
    for call in calls:
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert str(info.value) == "chops need a polytope of dimension >= 2"

def test_chop_rejects_singular_corner():
    poly = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    with pytest.raises(NotUnimodular):
        blow_up_vertex(poly, (0, 1), Fraction(1, 8))


def test_free_fixed_points(triangle, square):
    assert [v.point for v in free_fixed_points(triangle, "hyp")] == [
        (Fraction(0), Fraction(0))
    ]
    quarter = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    assert {v.point for v in free_fixed_points(quarter, "hyp")} == {
        (Fraction(1, 4), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
    }
    cube = unit_cube(3)
    bottom = free_fixed_points(cube, "top2")
    assert len(bottom) == 4
    assert all(v.point[2] == 0 for v in bottom)
    assert len(free_fixed_points(square, "top1")) == 2


def test_tower_two_rounds_frozen(triangle):
    state = start_tower(triangle, "hyp")
    assert state.round == 0
    assert state.history == ()
    assert [v.point for v in state.designated_vertices()] == [(0, 0)]

    state = tower_step(state, Fraction(1, 4))
    assert state.round == 1
    assert len(state.history) == 1
    record = state.history[0]
    assert record.vertex == (0, 0)
    assert record.parameter == Fraction(1, 4)
    assert record.bound == 1
    assert record.label == "E1"
    assert state.polytope.facets[-1].normal == (1, 1)

    state = tower_step(state, Fraction(1, 16))
    assert state.round == 2
    assert len(state.history) == 3
    normals = {f.normal for f in state.polytope.facets[-2:]}
    assert normals == {(2, 1), (1, 2)}
    assert {f.offset for f in state.polytope.facets[-2:]} == {Fraction(5, 16)}
    assert is_delzant(state.polytope).ok
    assert {r.round for r in state.history} == {1, 2}
    assert {r.label for r in state.history} == {"E1", "E2", "E3"}


def test_tower_labels_skip_used_names(triangle):
    pre = blow_up_vertex(triangle, (0, 0), Fraction(1, 4), label="E1")
    state = start_tower(pre, "hyp")
    state = tower_step(state, Fraction(1, 16))
    new_labels = {f.label for f in state.polytope.facets[4:]}
    assert "E1" not in new_labels
    assert len(new_labels) == 2


def test_tower_requires_delzant():
    poly = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    with pytest.raises(NotUnimodular):
        start_tower(poly, 2)


def test_tower_interacting_chops(triangle):
    state = start_tower(triangle, "hyp")
    state = tower_step(state, Fraction(1, 4))
    # the two round-2 chops meet along the first exceptional facet when
    # eps reaches half its lattice length
    with pytest.raises(InteractingChops):
        tower_step(state, Fraction(1, 8))
    with pytest.raises(InteractingChops):
        tower_step(state, Fraction(3, 16))
    ok = tower_step(state, Fraction(1, 16))
    assert is_delzant(ok.polytope).ok


@pytest.mark.parametrize("dim, rounds", [(2, 3), (3, 2)])
def test_the_depth_test_refuses_a_chop_at_its_bound_exactly(dim, rounds):
    # eps = p / q against the least length t over D, p D >= q t in int, on
    # tower rounds whose tables have D > 1: a chop at the bound is refused
    # and one just below it is made, alone or as a whole round.
    state = start_tower(unit_simplex(dim), "hyp")
    for r in range(1, rounds + 1):
        state = tower_step(state, Fraction(1, 4**r))
        poly = state.polytope
        assert poly.scaled_vertices[0] > 1
        for vertex in poly.vertices:
            bound = max_chop_parameter(poly, vertex.point)
            with pytest.raises(ChopTooDeep):
                blow_up_vertex(poly, vertex.point, bound)
            blow_up_vertex(poly, vertex.point, bound * Fraction(999, 1000))
        least = min(max_chop_parameter(poly, v.point) for v in state.designated_vertices())
        with pytest.raises(ChopTooDeep):
            tower_step(state, least)


def test_tower_chop_too_deep_reports_round(triangle):
    state = start_tower(triangle, "hyp")
    state = tower_step(state, Fraction(1, 4))
    with pytest.raises(ChopTooDeep, match="round 2"):
        tower_step(state, Fraction(1, 2))


def test_tower_refuses_a_round_over_the_vertex_budget(triangle, monkeypatch):
    # The 2D tower has 4, 6 and then 10 vertices after rounds 1-3: round 3
    # chops 4 corners of the 6-vertex polytope, 6 + 4 > 9.  It is refused
    # before any corner is read or chopped.
    from cuspcheck import blowup

    monkeypatch.setattr(blowup, "_MAX_TOWER_VERTICES", 9)
    state = tower_step(tower_step(start_tower(triangle, "hyp"), Fraction(1, 4)), Fraction(1, 16))
    assert len(state.polytope.vertices) == 6

    def refuse(*args):
        raise AssertionError("a refused round chopped")

    monkeypatch.setattr(blowup, "_corner", refuse)
    monkeypatch.setattr(blowup, "_chop", refuse)
    with pytest.raises(ValueError, match="round 3 would make 10 vertices, over the limit of 9"):
        tower_step(state, Fraction(1, 64))


def test_tower_round_volume_bookkeeping(triangle):
    state = start_tower(triangle, "hyp")
    v0 = polytope_moments(state.polytope).volume
    state = tower_step(state, Fraction(1, 4))
    v1 = polytope_moments(state.polytope).volume
    assert v0 - v1 == Fraction(1, 4) ** 2 / 2
    state = tower_step(state, Fraction(1, 16))
    v2 = polytope_moments(state.polytope).volume
    # two corners chopped at equal parameter: equal volume excised
    assert v1 - v2 == 2 * (Fraction(1, 16) ** 2 / 2)


def test_tower_divisor_vertices_never_chopped(triangle):
    state = start_tower(triangle, "hyp")
    state = tower_step(state, Fraction(1, 4))
    divisor = state.divisor_facet
    for record in state.history:
        from cuspcheck.linalg import dot

        facet = state.polytope.facets[divisor]
        assert dot(facet.normal, record.vertex) != facet.offset


def test_chop_error_messages_are_frozen(triangle):
    state = tower_step(start_tower(triangle, "hyp"), Fraction(1, 4))
    for eps in (Fraction(1, 8), Fraction(3, 16)):
        with pytest.raises(InteractingChops) as info:
            tower_step(state, eps)
        assert str(info.value) == (
            f"chops at ['0', '1/4'] and ['1/4', '0'] overlap at parameter {eps}"
        )
    with pytest.raises(ChopTooDeep) as info:
        tower_step(state, Fraction(1, 2))
    assert str(info.value) == "round 2 chop at ['0', '1/4'] needs eps < 1/4, got 1/2"
    with pytest.raises(ChopTooDeep) as info:
        blow_up_vertex(triangle, (0, 0), Fraction(3, 2))
    assert str(info.value) == "chop parameter 3/2 at ['0', '0'] reaches the bound 1"
    singular = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    for call in (
        lambda: blow_up_vertex(singular, (0, 1), Fraction(1, 8)),
        lambda: max_chop_parameter(singular, (0, 1)),
    ):
        with pytest.raises(NotUnimodular) as info:
            call()
        assert str(info.value) == (
            "corner at ['0', '1'] has active normal determinant other than +-1"
        )


def test_chop_beside_a_singular_corner_matches_the_scan():
    # Parents that fail the vertex test are chopped by the same closed
    # form: the skew triangle beside its singular corner, and the square
    # pyramid beside its non-simple apex.
    skew = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -2))
    )
    pyramid = DelzantPolytope(
        3,
        (
            Facet((0, 0, 1), 0),
            Facet((1, 0, -1), 0),
            Facet((0, 1, -1), 0),
            Facet((-1, 0, -1), -1),
            Facet((0, -1, -1), -1),
        ),
    )
    chops = 0
    for poly in (skew, pyramid):
        assert not is_delzant(poly).ok
        for v, cone in zip(poly.vertices, poly.cones):
            if cone.generators is None:
                continue
            bound = max_chop_parameter(poly, v.point)
            for eps in (bound / 2, bound / 3):
                chopped = blow_up_vertex(poly, v.point, eps, label="E")
                oracle = DelzantPolytope(poly.dim, chopped.facets)
                assert chopped.facets[:-1] == poly.facets
                assert chopped.vertices == oracle.vertices
                assert chopped.cones == oracle.cones
                assert is_delzant(chopped) == is_delzant(oracle)
                assert not is_delzant(chopped).ok
                chops += 1
    assert chops == 2 * (2 + 4)


def _tower_rounds(dim, rounds):
    state = start_tower(unit_simplex(dim), "hyp")
    polytopes = []
    for r in range(1, rounds + 1):
        state = tower_step(state, Fraction(1, 4**r))
        polytopes.append(state.polytope)
    return tuple(polytopes)


def _seeded_systems(count):
    """The first ``count`` polytopes cut out by seeded random systems in
    2-4D: n + 1 to 2n + 3 distinct primitive normals with entries in
    [-2, 2], offsets in [-6, 0] over 1, 2 or 3, so the origin is feasible;
    a draw that is unbounded or has a redundant facet is skipped."""
    rng = random.Random(1811)
    found = []
    while len(found) < count:
        n = rng.choice((2, 3, 4))
        normals = [u for u in itertools.product(range(-2, 3), repeat=n) if is_primitive(u)]
        chosen = rng.sample(normals, rng.randint(n + 1, 2 * n + 3))
        facets = [Facet(u, Fraction(-rng.randint(0, 6), rng.choice((1, 2, 3)))) for u in chosen]
        try:
            found.append(DelzantPolytope(n, tuple(facets)))
        except (InvalidPolytope, DegenerateFacet):
            pass
    return found


def test_every_cone_table_matches_the_inverse_of_its_normals():
    # Cone tables are read off the edge graph; the oracle inverts each
    # vertex's active normals and reads no edge.  Tower rounds, chopped
    # cubes and the read-backs of all of them, a non-simple apex, simplices
    # that are not unimodular, and seeded random systems with a chop at
    # each corner that has generators.
    cases = [*tower_rounds(), *_tower_rounds(3, 4)]
    cases += [blow_up_vertex(unit_cube(n), (0,) * n, Fraction(1, 4)) for n in (2, 3, 4, 5)]
    cases += [DelzantPolytope.from_data(poly.to_data()) for poly in cases]
    cases.append(_pyramid())
    for normal in ((-1, -2), (-1, -1, -2)):
        n = len(normal)
        units = [Facet(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
        cases.append(DelzantPolytope(n, (*units, Facet(normal, -2))))
    for poly in _seeded_systems(40):
        cases.append(poly)
        for v, cone in zip(poly.vertices, poly.cones):
            if cone.generators is not None:
                bound = max_chop_parameter(poly, v.point)
                cases.append(blow_up_vertex(poly, v.point, bound / 2))
    corners = singular = 0
    for poly in cases:
        generators = [cone.generators for cone in poly.cones]
        assert generators == cone_oracle(poly)
        corners += sum(g is not None for g in generators)
        singular += sum(g is None for g in generators)
    assert (len(cases), corners, singular) == (122, 1715, 581)


def test_every_dropped_vertex_is_found_missing():
    # A claim that leaves out any one vertex leaves an edge of one of its
    # neighbours with a single claimed end.
    cases = _tower_rounds(2, 4) + _tower_rounds(3, 2)
    for poly in cases:
        claims = list(poly.vertices)
        rebuilt = DelzantPolytope._from_claimed_vertices(poly.dim, poly.facets, *row_claim(claims))
        assert rebuilt.vertices == poly.vertices
        for k in range(len(claims)):
            with pytest.raises(InvariantViolation, match="claimed endpoints, expected 2"):
                DelzantPolytope._from_claimed_vertices(
                    poly.dim, poly.facets, *row_claim(claims[:k] + claims[k + 1 :])
                )
    assert [len(poly.vertices) for poly in cases] == [4, 6, 10, 18, 6, 12]


def test_chops_run_no_vertex_scan(monkeypatch):
    cube = unit_cube(3)
    simplex = unit_simplex(2)
    walks = []
    inversions = []
    walk = polytope._vertex_walk
    invert = linalg.inverse_unimodular

    def counted(normals, offsets):
        walks.append(len(normals))
        return walk(normals, offsets)

    def counted_inverse(matrix):
        inversions.append(matrix)
        return invert(matrix)

    monkeypatch.setattr(polytope, "_vertex_walk", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "inverse_unimodular", None) is invert:
            monkeypatch.setattr(module, "inverse_unimodular", counted_inverse)
    chopped = blow_up_vertex(cube, (0, 0, 0), Fraction(1, 4))
    state = start_tower(simplex, "hyp")
    # every cone table is read off the edge graph, walked or chopped
    assert inversions == []
    for eps in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        state = tower_step(state, eps)
        assert is_delzant(state.polytope).ok
    assert walks == []
    assert inversions == []
    # A facet polytope inverts its chart frame once, and reads its own
    # cone table off its ridge map, not a walked parent's.
    parents = (chopped, state.polytope, unit_cube(3))
    for poly in parents:
        for j in range(len(poly.facets)):
            polytope.facet_polytope(poly, j)
    assert walks == [6]  # unit_cube(3) itself
    assert len(inversions) == sum(len(poly.facets) for poly in parents)
    DelzantPolytope.from_data(cube.to_data())
    assert walks == [6, 6]


def test_builds_and_chops_compare_no_fraction_heights(monkeypatch):
    # Every height test reads the integer vertex table, so neither a
    # walked polytope, three tower rounds nor the facet polytopes and
    # charts of either call the Fraction dot.
    cube = unit_cube(3)
    calls = []
    fraction_dot = polytope.dot

    def counted(a, b):
        calls.append((a, b))
        return fraction_dot(a, b)

    monkeypatch.setattr(polytope, "dot", counted)
    built = DelzantPolytope.from_data(cube.to_data())
    state = start_tower(unit_simplex(2), "hyp")
    for eps in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        state = tower_step(state, eps)
    for poly in (built, state.polytope):
        for j in range(len(poly.facets)):
            polytope.facet_polytope(poly, j)
    assert calls == []


def test_claimed_vertex_sets_are_verified(triangle):
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    facets = chopped.facets
    good = list(chopped.vertices)
    rebuilt = DelzantPolytope._from_claimed_vertices(2, facets, *row_claim(good[::-1]))
    assert rebuilt.vertices == chopped.vertices
    assert rebuilt.cones == chopped.cones
    midpoint = (Fraction(1, 2), Fraction(1, 2))
    # (2, 0) lies on x1 but outside the hypotenuse, facet 2, in place of (1, 0)
    outside = good[:-1] + [Vertex((Fraction(2), Fraction(0)), good[-1].active)]
    # tight on the hypotenuse alone: rank 1, so no vertex; it is a third end
    # of the hypotenuse's ridge, so no vertex on it reads neighbours there
    on_edge = good + [Vertex(midpoint, (2,))]
    cases = {
        "no vertices claimed": [],
        "listed twice": good + good[:1],
        "is not a vertex": on_edge,
        "is not tight on facet 2": outside,
        "claimed endpoints, expected 2": good[:-1],
    }
    for message, claimed in cases.items():
        with pytest.raises(InvariantViolation, match=message):
            DelzantPolytope._from_claimed_vertices(2, facets, *row_claim(claimed))


def test_claimed_cones_of_the_wrong_shape_are_refused():
    # A vertex that is not simple gets neither generators nor neighbours:
    # the square pyramid's apex, tight on four facets, n + 1.
    pyramid = _pyramid()
    records = list(pyramid.vertices)
    (apex,) = [k for k, v in enumerate(records) if len(v.active) == 4]
    claimed = DelzantPolytope._from_claimed_vertices(3, pyramid.facets, *row_claim(records))
    assert claimed.cones[apex] == polytope.VertexCone(None, None)
    assert claimed.cones == pyramid.cones
    # Tight normals of rank below n are no vertex.  No claim with one
    # tight facet at a vertex of the square passes the open-edge test, so
    # the rank test is run on the cone table itself.
    square = copy.copy(unit_cube(2))
    facets = list(square.vertex_facets)
    assert facets[0] == (0, 2) and square.facets[0].normal == (1, 0)
    facets[0] = (0,)
    object.__setattr__(square, "vertex_facets", tuple(facets))
    with pytest.raises(InvariantViolation) as info:
        square._vertex_cones(square._ridge_ends())
    assert str(info.value) == "claimed point ['0', '0'] is not a vertex"


def test_each_build_works_out_the_table_height_rows_once(monkeypatch):
    # The rows over the table's scale D are built by _set_vertices and
    # handed to _check_faces; the walk's own rows are over 1.
    scales = []
    height_rows = polytope._height_rows
    monkeypatch.setattr(
        polytope,
        "_height_rows",
        lambda normals, offsets, scale: scales.append(scale)
        or height_rows(normals, offsets, scale),
    )
    base = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -1), Fraction(-1, 3), label="hyp"))
    )
    assert scales == [1, 3]
    state = start_tower(base, "hyp")
    for eps in (Fraction(1, 12), Fraction(1, 48)):
        scales.clear()
        state = tower_step(state, eps)
        assert scales == [state.polytope.scaled_vertices[0]]
    for j in range(len(state.polytope.facets)):
        scales.clear()
        face, _ = polytope.facet_polytope(state.polytope, j)
        assert scales == [face.scaled_vertices[0]]
    cube = unit_cube(3)
    scales.clear()
    chopped = blow_up_vertex(cube, (0, 0, 0), Fraction(1, 5))
    assert scales == [5] == [chopped.scaled_vertices[0]]


def test_every_chop_hands_rows_over_the_childs_own_scale(monkeypatch):
    # A chop at eps = p / q over a parent table (D, X) hands its rows over
    # q D / gcd(q, D), so their gcd with the scale is 1 and _set_vertices
    # divides nothing out: the corpus towers, and single chops whose q
    # shares a factor with D.  Every tower is built here, inside the spy:
    # the cached ``tower_rounds`` would hide the chops of an earlier test.
    from test_obstruction import _load_corpus, _tower

    gcds = []
    claimed = DelzantPolytope._from_claimed_vertices

    def spy(dim, facets, scale, rows, *rest):
        gcds.append(math.gcd(scale, *itertools.chain.from_iterable(rows)))
        return claimed(dim, facets, scale, rows, *rest)

    monkeypatch.setattr(DelzantPolytope, "_from_claimed_vertices", staticmethod(spy))
    chops = len(_tower(2, 8)) + len(_tower(3, 4))
    corpus = _load_corpus()
    for seed in range(1, 6):
        for doc in corpus.seeded_tower_bases(seed).values():
            base = DelzantPolytope.from_data(doc)
            rounds = corpus.SEEDED_TOWER_ROUNDS[base.dim]
            chops += len(_tower(base.dim, rounds, base))
    base = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -1), Fraction(-1, 3), label="hyp"))
    )
    for eps in (Fraction(1, 12), Fraction(1, 6), Fraction(2, 9), Fraction(1, 7)):
        chopped = blow_up_vertex(base, (0, 0), eps)
        assert chopped.scaled_vertices[0] == math.lcm(3, eps.denominator)
        chops += 1
    assert len(gcds) == chops and set(gcds) == {1}


def test_each_tower_chop_matches_the_scan_of_its_facets():
    # A chop claims each vertex's tight set and generators; the
    # constructor's walk of the chopped facets finds the same tables.
    for dim, rounds in ((2, 6), (3, 3)):
        state = start_tower(unit_simplex(dim), "hyp")
        for r in range(1, rounds + 1):
            state = tower_step(state, Fraction(1, 4**r))
            chopped = state.polytope
            scanned = DelzantPolytope(dim, chopped.facets)
            assert chopped.vertices == scanned.vertices
            assert chopped.scaled_vertices == scanned.scaled_vertices
            assert chopped.facet_vertices == scanned.facet_vertices
            assert chopped.cones == scanned.cones


def _kept_rows(parent, child):
    """For each parent vertex, whether the child's table holds its point
    with the same tight set, compared in int over both tables' scales."""
    (d, table), (c, rows) = parent.scaled_vertices, child.scaled_vertices
    held = {tuple(x * d for x in row): tight for row, tight in zip(rows, child.vertex_facets)}
    return [
        held.get(tuple(x * c for x in row)) == tight
        for row, tight in zip(table, parent.vertex_facets)
    ]


def test_a_chop_keeps_its_parents_vertex_records():
    # The vertices a chop keeps are the parent's own rows, with their
    # tight sets as they are; only the created vertices are new rows.
    cube = unit_cube(3)
    chopped = blow_up_vertex(cube, (0, 0, 0), Fraction(1, 4))
    assert _kept_rows(cube, chopped) == [False] + [True] * 7
    assert len(chopped.vertex_facets) == 7 + 3
    state = start_tower(unit_simplex(3), "hyp")
    for r in range(1, 4):
        parent, designated = state.polytope, set(state._designated())
        state = tower_step(state, Fraction(1, 4**r))
        kept = _kept_rows(parent, state.polytope)
        assert kept == [k not in designated for k in range(len(parent.vertices))]
        assert len(state.polytope.vertex_facets) == sum(kept) + 3 * len(designated)


def test_a_chop_claim_with_a_wrong_tight_set_is_refused(triangle):
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    claims = list(chopped.vertices)
    rebuilt = DelzantPolytope._from_claimed_vertices(2, chopped.facets, *row_claim(claims[::-1]))
    assert rebuilt.vertices == chopped.vertices
    assert rebuilt.cones == chopped.cones
    # (1/4, 0) is tight on x1 and the chop facet E, facets 1 and 3.
    k = [v.point for v in claims].index((Fraction(1, 4), Fraction(0)))
    point, active = claims[k].point, claims[k].active
    assert active == (1, 3)
    for wrong, facet in (((0, 3), 0), ((1, 2), 2), ((1, 2, 3), 2)):
        with pytest.raises(InvariantViolation) as info:
            DelzantPolytope._from_claimed_vertices(
                2,
                chopped.facets,
                *row_claim(claims[:k] + [Vertex(point, wrong)] + claims[k + 1 :]),
            )
        assert str(info.value) == f"claimed vertex ['1/4', '0'] is not tight on facet {facet}"



@pytest.mark.parametrize("dim, rounds", [(2, 8), (3, 4)])
def test_a_tower_step_builds_n_plus_2_fractions_per_corner(dim, rounds, monkeypatch):
    # A chop hands the polytope int rows over one scale, so the only
    # Fractions a step builds are, per chopped corner, its point and depth
    # bound for the BlowupSpec and the new facet's offset; the claimed
    # build itself builds none.
    claimed = DelzantPolytope._from_claimed_vertices
    in_claims = []

    def counting_claim(cls, *args):
        before = len(built)
        poly = claimed(*args)
        in_claims.append(len(built) - before)
        return poly

    state = start_tower(unit_simplex(dim), "hyp")
    for r in range(1, rounds + 1):
        corners, eps = len(state._designated()), Fraction(1, 4**r)
        built = count_fractions(monkeypatch)
        monkeypatch.setattr(DelzantPolytope, "_from_claimed_vertices", classmethod(counting_claim))
        state = tower_step(state, eps)
        monkeypatch.undo()
        assert 0 < len(built) <= (dim + 2) * corners, r
        assert in_claims == [0]
        del in_claims[:]
    assert len(state.polytope.vertex_facets) == {2: 258, 3: 84}[dim]


def test_a_point_not_in_the_vertex_table_is_not_a_vertex(triangle):
    # The lookup scales the point by the table's D = 4 and looks it up in
    # the table: a denominator D does not clear, a wrong length and a point
    # D clears that is not in the table each fall through to the same
    # NotAVertex, from both public callers.
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    assert chopped.scaled_vertices[0] == 4
    cases = {
        (Fraction(1, 3), 0): "['1/3', '0']",
        (Fraction(1, 8), 0): "['1/8', '0']",
        (Fraction(1, 4),): "['1/4']",
        (Fraction(1, 4), 0, 0): "['1/4', '0', '0']",
        (0, 0): "['0', '0']",
        (1, 1): "['1', '1']",
        (Fraction(1, 2), 0): "['1/2', '0']",
        ("1/4", "1/4"): "['1/4', '1/4']",
    }
    for point, shown in cases.items():
        for call in (
            lambda: max_chop_parameter(chopped, point),
            lambda: blow_up_vertex(chopped, point, Fraction(1, 100)),
        ):
            with pytest.raises(NotAVertex) as info:
                call()
            assert str(info.value) == f"{shown} is not a vertex of the polytope"
    for k, v in enumerate(chopped.vertices):
        assert _find_vertex(chopped, v.point) == k
        assert _find_vertex(chopped, [str(x) for x in v.point]) == k


def test_messages_print_vertex_points_as_exact_rationals():
    # Points in thirds and sixths, read off tables whose D is 3 or 6:
    # every message shows each coordinate as p/q, never a float.
    third = DelzantPolytope(
        2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -1), Fraction(-1, 3), label="hyp"))
    )
    skew = apply_unimodular(
        DelzantPolytope(2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), -1))),
        [[1, 0], [0, 1]],
        (Fraction(1, 3), 0),
    )
    pyramid = apply_unimodular(
        DelzantPolytope(
            3,
            (
                Facet((0, 0, 1), 0),
                Facet((0, 1, -1), -1),
                Facet((0, -1, -1), -1),
                Facet((1, 0, -1), -1),
                Facet((-1, 0, -1), -1),
            ),
        ),
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    )
    state = tower_step(start_tower(third, "hyp"), Fraction(1, 12))
    cases = [
        (
            lambda: blow_up_vertex(third, (Fraction(1, 3), 0), Fraction(1, 3)),
            ChopTooDeep,
            "chop parameter 1/3 at ['1/3', '0'] reaches the bound 1/3",
        ),
        (
            lambda: tower_step(state, Fraction(1, 12)),
            ChopTooDeep,
            "round 2 chop at ['0', '1/12'] needs eps < 1/12, got 1/12",
        ),
        (
            lambda: tower_step(state, Fraction(1, 24)),
            InteractingChops,
            "chops at ['0', '1/12'] and ['1/12', '0'] overlap at parameter 1/24",
        ),
        (
            lambda: blow_up_vertex(skew, (Fraction(1, 3), Fraction(1, 2)), Fraction(1, 100)),
            NotUnimodular,
            "corner at ['1/3', '1/2'] has active normal determinant other than +-1",
        ),
        (
            lambda: blow_up_vertex(pyramid, (Fraction(1, 3), Fraction(1, 3), Fraction(4, 3)), 1),
            NotUnimodular,
            "vertex ['1/3', '1/3', '4/3'] lies on 4 facets; chops need a simple corner",
        ),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    assert is_delzant(skew).violations == (
        "vertex ('1/3', '1/2') has active normal determinant -2, expected +-1",
    )
    # A BlowupSpec derives its corner's point from the table alone.
    (spec,) = tower_step(state, Fraction(1, 48)).history[1:2]
    assert spec.vertex == (0, Fraction(1, 12))
    assert [type(x) for x in spec.vertex] == [Fraction, Fraction]
    # A claim's messages derive their points from its rows over its scale.
    rows = third.scaled_vertices[1]
    tight = list(third.vertex_facets)
    tight[1] = (0, 1)
    with pytest.raises(InvariantViolation) as info:
        DelzantPolytope._from_claimed_vertices(2, third.facets, 3, rows, tight)
    assert str(info.value) == "claimed vertex ['0', '1/3'] is not tight on facet 1"
    # Over scale 6 the rows double, and the table divides the 2 back out.
    doubled = [tuple(2 * x for x in row) for row in rows]
    assert DelzantPolytope._from_claimed_vertices(
        2, third.facets, 6, doubled, third.vertex_facets
    ).scaled_vertices == third.scaled_vertices


# --- differential oracle: closed-form chops against a rebuild from facets --


def _scan_corner(poly, vertex):
    """Chop facet data and depth bound, by brute force over the vertices."""
    normal = tuple(
        sum(poly.facets[i].normal[k] for i in vertex.active) for k in range(poly.dim)
    )
    base = sum((poly.facets[i].offset for i in vertex.active), Fraction(0))
    bound = min(dot(normal, w.point) - base for w in poly.vertices if w != vertex)
    return normal, base, bound


def test_designated_vertices_are_those_on_the_newest_chop_facets():
    state = start_tower(unit_simplex(2), "hyp")
    for r in range(1, 6):
        state = tower_step(state, Fraction(1, 4**r))
        labels = {record.label for record in state.history if record.round == r}
        newest = {i for i, f in enumerate(state.polytope.facets) if f.label in labels}
        expected = [v for v in state.polytope.vertices if newest & set(v.active)]
        assert list(state.designated_vertices()) == expected


def test_designated_vertex_on_the_distinguished_facet_is_refused(triangle):
    # The chop at the origin leaves E1 meeting x0 = 0 at (0, 1/4).
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4), label="E1")
    spec = BlowupSpec((0, 0), Fraction(1, 4), Fraction(1), "E1", 1)
    state = TowerState(chopped, chopped.resolve_facet("x0"), 1, (spec,))
    with pytest.raises(
        InvariantViolation,
        match="a vertex on the newest chop facets lies on the distinguished facet",
    ):
        state.designated_vertices()


def _scan_tower_step(state, eps, labels):
    """One tower round as a per-corner rebuild followed by a full walk."""
    poly = state.polytope
    corners = []
    for v in state.designated_vertices():
        normal, base, bound = _scan_corner(poly, v)
        if eps >= bound:
            raise ChopTooDeep(f"round {state.round + 1}")
        corners.append((v, normal, base))
    for v, normal, base in corners:
        single = DelzantPolytope(poly.dim, poly.facets + (Facet(normal, base + eps),))
        new_index = len(poly.facets)
        created = [w.point for w in single.vertices if new_index in w.active]
        for w, normal_w, base_w in corners:
            if w != v and any(dot(normal_w, p) <= base_w + eps for p in created):
                raise InteractingChops(f"{v.point} and {w.point}")
    new = tuple(
        Facet(normal, base + eps, label=label)
        for (_, normal, base), label in zip(corners, labels)
    )
    return DelzantPolytope(poly.dim, poly.facets + new)


@st.composite
def framed_bases(draw):
    """A unit simplex or cube of dimension 2-4 in a random lattice frame."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["simplex", "cube"]))
    poly = unit_simplex(n) if kind == "simplex" else unit_cube(n)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
            max_size=4,
        )
    ):
        if i != j:
            matrix[i] = [a + k * b for a, b in zip(matrix[i], matrix[j])]
    if draw(st.booleans()):
        matrix[0], matrix[1] = matrix[1], matrix[0]
    shift = draw(
        st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * n)
    )
    return kind, apply_unimodular(poly, matrix, shift)


def _same_polytope(actual, expected):
    assert actual.facets == expected.facets
    assert actual.vertices == expected.vertices
    assert actual.cones == expected.cones


@given(
    framed_bases(),
    st.integers(0, 63),
    st.sampled_from(
        [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), 1,
         Fraction(5, 4)]
    ),
)
@settings(max_examples=60, deadline=None)
def test_single_chop_matches_scan(base, index, ratio):
    _, poly = base
    vertex = poly.vertices[index % len(poly.vertices)]
    normal, offset, bound = _scan_corner(poly, vertex)
    eps = bound * ratio
    if eps >= bound:
        with pytest.raises(ChopTooDeep):
            blow_up_vertex(poly, vertex.point, eps)
        return
    chopped = blow_up_vertex(poly, vertex.point, eps, label="E")
    expected = DelzantPolytope(
        poly.dim, poly.facets + (Facet(normal, offset + eps, label="E"),)
    )
    _same_polytope(chopped, expected)


@given(framed_bases(), st.sampled_from([Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]))
@settings(max_examples=30, deadline=None)
def test_max_chop_framed_brute_force_agreement(base, eps):
    # every corner of a framed base, then of its first two tower rounds
    kind, poly = base
    state = start_tower(poly, "hyp" if kind == "simplex" else "top0")
    assert _bounds_match_brute_force(state.polytope) == len(poly.vertices)
    for _ in range(2):
        try:
            state = tower_step(state, eps)
        except (ChopTooDeep, InteractingChops):
            return
        polytope = state.polytope
        assert _bounds_match_brute_force(polytope) == len(polytope.vertices)


# Rounds per base, set when the oracle's rebuild scanned every n-subset of
# facets, so that none scanned more than C(16, 4).
_MAX_ROUNDS = {
    ("simplex", 2): 3, ("cube", 2): 3, ("simplex", 3): 3,
    ("cube", 3): 2, ("simplex", 4): 2, ("cube", 4): 1,
}
_TOWER_EPS = [
    Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 16),
    Fraction(1, 16), Fraction(1, 64), Fraction(1),
]


@given(framed_bases(), st.lists(st.sampled_from(_TOWER_EPS), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_tower_matches_scan(base, schedule):
    kind, poly = base
    state = start_tower(poly, "hyp" if kind == "simplex" else "top0")
    for eps in schedule[: _MAX_ROUNDS[(kind, poly.dim)]]:
        try:
            chopped = tower_step(state, eps)
        except (ChopTooDeep, InteractingChops) as exc:
            with pytest.raises(type(exc)):
                _scan_tower_step(state, eps, [])
            return
        labels = [record.label for record in chopped.history[len(state.history) :]]
        _same_polytope(chopped.polytope, _scan_tower_step(state, eps, labels))
        assert [r.vertex for r in chopped.history[len(state.history) :]] == [
            v.point for v in state.designated_vertices()
        ]
        state = chopped
