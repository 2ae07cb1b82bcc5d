"""Corner chops, Seshadri-type bounds, and the symmetric tower."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval, unit_cube, unit_simplex
from cuspcheck import (
    BlowupSpec,
    ChopTooDeep,
    DelzantPolytope,
    DimensionMismatch,
    Facet,
    InteractingChops,
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
from cuspcheck.linalg import dot


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
    for n in (2, 3):
        poly = unit_simplex(n)
        before = polytope_moments(poly).volume
        for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            after = polytope_moments(blow_up_vertex(poly, (0,) * n, eps)).volume
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            assert before - after == eps**n / fact


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


def test_every_dropped_vertex_is_found_missing():
    # A claim that leaves out any one vertex leaves an edge of one of its
    # neighbours with a single claimed end.
    cases = _tower_rounds(2, 4) + _tower_rounds(3, 2)
    for poly in cases:
        claims = list(poly.vertices)
        cones = [cone.generators for cone in poly.cones]
        rebuilt = DelzantPolytope._from_claimed_vertices(poly.dim, poly.facets, claims, cones)
        assert rebuilt.vertices == poly.vertices
        for k in range(len(claims)):
            with pytest.raises(InvariantViolation, match="claimed endpoints, expected 2"):
                DelzantPolytope._from_claimed_vertices(
                    poly.dim, poly.facets, claims[:k] + claims[k + 1 :], cones[:k] + cones[k + 1 :]
                )
    assert [len(poly.vertices) for poly in cases] == [4, 6, 10, 18, 6, 12]


def test_chops_run_no_vertex_scan(monkeypatch):
    cube = unit_cube(3)
    simplex = unit_simplex(2)
    scans = []
    inversions = []
    scan = polytope._vertex_candidates
    invert = linalg.inverse_unimodular

    def counted(normals, offsets):
        scans.append(len(normals))
        return scan(normals, offsets)

    def counted_inverse(matrix):
        inversions.append(matrix)
        return invert(matrix)

    monkeypatch.setattr(polytope, "_vertex_candidates", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("cuspcheck") and getattr(module, "inverse_unimodular", None) is invert:
            monkeypatch.setattr(module, "inverse_unimodular", counted_inverse)
    chopped = blow_up_vertex(cube, (0, 0, 0), Fraction(1, 4))
    state = start_tower(simplex, "hyp")
    # each scan-built input inverts its corners once, for its cone table
    assert len(inversions) == 8 + 3
    for eps in (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)):
        state = tower_step(state, eps)
        assert is_delzant(state.polytope).ok
    assert scans == []
    assert len(inversions) == 8 + 3
    # A facet polytope inverts its chart frame once and builds no cone
    # table, neither its own nor a scan-built parent's.
    parents = (chopped, state.polytope, unit_cube(3))
    del inversions[:]
    for poly in parents:
        for j in range(len(poly.facets)):
            polytope.facet_polytope(poly, j)
    assert scans == [6]  # unit_cube(3) itself
    assert len(inversions) == sum(len(poly.facets) for poly in parents)
    DelzantPolytope.from_data(cube.to_data())
    assert scans == [6, 6]


def test_builds_and_chops_compare_no_fraction_heights(monkeypatch):
    # Every height test reads the integer vertex table, so neither a
    # scan-built polytope, three tower rounds nor the facet polytopes and
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
    cones = [cone.generators for cone in chopped.cones]
    rebuilt = DelzantPolytope._from_claimed_vertices(2, facets, good[::-1], cones[::-1])
    assert rebuilt.vertices == chopped.vertices
    assert rebuilt.cones == chopped.cones
    midpoint = (Fraction(1, 2), Fraction(1, 2))
    # (2, 0) lies on x1 but outside the hypotenuse, facet 2, in place of (1, 0)
    outside = good[:-1] + [Vertex((Fraction(2), Fraction(0)), good[-1].active)]
    # tight on the hypotenuse alone: rank 1, so no vertex
    on_edge = good + [Vertex(midpoint, (2,))]
    cases = {
        "no vertices claimed": ([], []),
        "listed twice": (good + good[:1], cones + cones[:1]),
        "is not a vertex": (on_edge, cones + [None]),
        "is not tight on facet 2": (outside, cones),
        "fails the vertex test": (on_edge, cones + [((1, -1),)]),
        "claimed endpoints, expected 2": (good[:-1], cones[:-1]),
    }
    for message, (claimed, generators) in cases.items():
        with pytest.raises(InvariantViolation, match=message):
            DelzantPolytope._from_claimed_vertices(2, facets, claimed, generators)

    # The chop at (0, 0) creates (1/4, 0) along w_0 = (1, 0) of the corner's
    # cone (w_0, w_1) = ((1, 0), (0, 1)); its cone is (w_1 - w_0, w_0).
    k = [v.point for v in good].index((Fraction(1, 4), Fraction(0)))
    cone = cones[k]
    assert cone == ((-1, 1), (1, 0))
    wrong_cones = {
        "swapped generators": (cone[1], cone[0]),
        "sign flip": ((1, -1), cone[1]),
        "w_1 in place of w_1 - w_0": ((0, 1), cone[1]),
    }
    for wrong in wrong_cones.values():
        generators = cones[:k] + [wrong] + cones[k + 1 :]
        with pytest.raises(InvariantViolation, match="do not invert the normals"):
            DelzantPolytope._from_claimed_vertices(2, facets, good, generators)


def test_each_tower_chop_matches_the_scan_of_its_facets():
    # A chop claims each vertex's tight set and generators; the C(m, n)
    # scan of the chopped facets finds the same tables.
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


def test_a_chop_keeps_its_parents_vertex_records():
    # The vertices a chop keeps are the parent's own Vertex objects, handed
    # over as they are; only the created vertices are new records.
    cube = unit_cube(3)
    chopped = blow_up_vertex(cube, (0, 0, 0), Fraction(1, 4))
    held = {id(v) for v in chopped.vertices}
    assert [id(v) in held for v in cube.vertices] == [False] + [True] * 7
    state = start_tower(unit_simplex(3), "hyp")
    for r in range(1, 4):
        parent, designated = state.polytope, set(state._designated())
        state = tower_step(state, Fraction(1, 4**r))
        held = {id(v) for v in state.polytope.vertices}
        kept = [id(v) in held for v in parent.vertices]
        assert kept == [k not in designated for k in range(len(parent.vertices))]
        assert len(held) == sum(kept) + 3 * len(designated)


def test_a_chop_claim_with_a_wrong_tight_set_is_refused(triangle):
    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    claims = list(chopped.vertices)
    cones = [cone.generators for cone in chopped.cones]
    rebuilt = DelzantPolytope._from_claimed_vertices(2, chopped.facets, claims[::-1], cones[::-1])
    assert rebuilt.vertices == chopped.vertices
    assert rebuilt.cones == chopped.cones
    # (1/4, 0) is tight on x1 and the chop facet E, facets 1 and 3.
    k = [v.point for v in claims].index((Fraction(1, 4), Fraction(0)))
    point, active = claims[k].point, claims[k].active
    assert active == (1, 3)
    for wrong, facet in (((0, 3), 0), ((1, 2), 2), ((1, 2, 3), 2)):
        with pytest.raises(InvariantViolation) as info:
            DelzantPolytope._from_claimed_vertices(
                2, chopped.facets, claims[:k] + [Vertex(point, wrong)] + claims[k + 1 :], cones
            )
        assert str(info.value) == f"claimed vertex ['1/4', '0'] is not tight on facet {facet}"


# --- differential oracle: closed-form chops against the C(m, n) scan ------


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
    """One tower round as a per-corner rebuild followed by a full scan."""
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


# Rounds per base, so that no scan of the oracle exceeds C(16, 4) candidates.
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
