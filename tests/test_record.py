"""Value records keep the semantics the frozen value classes had."""

import collections
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from conftest import interval, tower_rounds, unit_cube, unit_simplex
from cuspcheck import (
    DegenerateFacet,
    DelzantPolytope,
    Facet,
    ModelCoefficients,
    check_facet_condition,
    extremal,
    extremal_affine,
    moments,
    obstruction,
    start_tower,
    tower_step,
)
from cuspcheck.moments import FacetMoments
from cuspcheck.polytope import Vertex


def test_reprs_name_every_field():
    facet = Facet((1, -2), Fraction(-1, 2), "hyp")
    vertex = Vertex(point=(Fraction(0), Fraction(1, 3)), active=(0, 2))
    assert repr(facet) == "Facet(normal=(1, -2), offset=Fraction(-1, 2), label='hyp')"
    assert repr(vertex) == "Vertex(point=(Fraction(0, 1), Fraction(1, 3)), active=(0, 2))"
    assert repr(Facet((0, 1), 0)) == "Facet(normal=(0, 1), offset=Fraction(0, 1), label=None)"


def test_equal_fields_are_equal_and_hash_equal():
    a = Facet(normal=(1, 0), offset=Fraction(1, 2), label="x")
    b = Facet((1, 0), "1/2", "x")
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Facet((1, 0), Fraction(1, 2), "y")
    assert a != Facet((1, 0), Fraction(1, 2))


def test_other_classes_with_the_same_values_are_not_equal():
    point, active = (Fraction(1),), (0,)
    vertex = Vertex(point=point, active=active)
    assert vertex != FacetMoments(measure=point, first_moments=active)
    assert vertex != (point, active)
    assert vertex == Vertex(point, active)


def test_fields_cannot_be_assigned_or_deleted():
    facet = Facet((1, 0), 0)
    poly = unit_cube(2)
    for record, name in ((facet, "offset"), (facet, "other"), (poly, "dim")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert facet.offset == 0 and poly.dim == 2


def test_missing_unknown_or_surplus_arguments_are_refused():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'offset'"):
        Facet((1, 0))
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        Facet((1, 0), 0, colour="red")
    with pytest.raises(TypeError, match="positional arguments but 5 were given"):
        Facet((1, 0), 0, "a", "b")
    with pytest.raises(TypeError, match="multiple values for argument 'normal'"):
        Facet((1, 0), 0, normal=(0, 1))


def test_keyword_defaults_apply():
    assert ModelCoefficients() == ModelCoefficients(square=0.5, mixed=1.0, linear=0.5)
    assert ModelCoefficients(mixed=2).mixed == 2.0
    assert Facet((1, 0), 0).label is None


def test_post_init_still_validates_and_normalises():
    with pytest.raises(DegenerateFacet, match="not primitive"):
        Facet((2, 0), 0)
    facet = Facet([1, 0], "3/4")
    assert facet.normal == (1, 0) and facet.offset == Fraction(3, 4)


def test_triangulation_cache_hits_an_equal_rebuilt_polytope():
    poly = tower_rounds()[2]
    rebuilt = DelzantPolytope.from_data(poly.to_data())
    assert rebuilt is not poly
    assert rebuilt == poly and hash(rebuilt) == hash(poly)
    moments._triangulate(poly)
    hits = moments._triangulate.cache_info().hits
    assert moments._triangulate(rebuilt) is moments._triangulate(poly)
    assert moments._triangulate.cache_info().hits == hits + 2


def test_moment_store_entry_is_shared_by_an_equal_rebuilt_polytope(monkeypatch, cold_store):
    # The entry holds the facet fans and the raw sums, and the readers build
    # their Fractions from the sums: read through an equal rebuilt polytope,
    # they give equal values and integrate nothing.  The sweep that
    # integrates the body also stores the whole boundary, under None.
    poly = tower_rounds()[2]
    rebuilt = DelzantPolytope.from_data(poly.to_data())
    body = moments.polytope_moments(poly)
    facets = moments.boundary_moments(poly).facets
    entry = moments._triangulate(rebuilt)
    assert entry is moments._triangulate(poly) and len(entry) == 2
    assert len(entry[0]) == len(poly.facets)
    assert set(entry[1]) == {(), None, *((i,) for i in range(len(poly.facets)))}
    calls = []
    monkeypatch.setattr(moments, "_integrate", lambda *args: calls.append(args))
    assert moments.polytope_moments(rebuilt) == body
    assert moments.boundary_moments(rebuilt).facets == facets
    assert calls == []
    assert moments._triangulate.cache_info().currsize == 1


def test_excluded_facet_is_not_integrated(monkeypatch, cold_store):
    # The pair's boundary is the whole boundary, summed in the sweep that
    # integrates the body, minus the excluded facet.  So the excluded facet
    # gets no pass of its own: its sums come from the minors that the sweep
    # takes once over all the facet fans, each fan once, and no facet is
    # integrated on its own, which would take its minors by ``_minors``.
    cube = unit_cube(3)
    swept, alone = [], []
    fan_minors, minors = moments._fan_minors, moments._minors
    monkeypatch.setattr(
        moments,
        "_fan_minors",
        lambda table, columns, fans, drops: swept.append(fans)
        or fan_minors(table, columns, fans, drops),
    )
    monkeypatch.setattr(
        moments, "_minors", lambda table, fan, keep: alone.append(fan) or minors(table, fan, keep)
    )
    extremal._affine(cube, [2])
    ((fans,),) = [swept]
    assert sorted(map(id, fans)) == sorted(map(id, moments._triangulate(cube)[0]))
    assert set(moments._triangulate(cube)[1]) == {(), None, (2,)}
    # The report's right-hand side is read off the same boundary domain,
    # so the report integrates no kept facet either.
    extremal_affine(cube, [2])
    assert set(moments._triangulate(cube)[1]) == {(), None, (2,)}
    assert len(swept) == 1 and len(fans) == 6 and alone == []


def test_checking_every_facet_integrates_the_body_once(monkeypatch, cold_store):
    # Checking all 8 facets of the 4-cube integrates the cube and nothing
    # else.  One sweep over the facet fans integrates its body, to degree 2,
    # the whole boundary and the first divisor; after it each other facet's
    # fan is swept once more, as the divisor, to degree 2, and each of its
    # 24 ridges is integrated once, at degree 1.  The body is never
    # triangulated on its own.
    cube = unit_cube(4)
    calls, swept, faces = [], [], []
    integrate, minors, fan = moments._integrate, moments._minors, moments._fan

    def counting(poly, degree, domains=((),)):
        calls.append((poly, degree, tuple(domains)))
        return integrate(poly, degree, domains)

    monkeypatch.setattr(moments, "_integrate", counting)
    monkeypatch.setattr(
        moments, "_minors", lambda table, s, keep: swept.append(s) or minors(table, s, keep)
    )
    monkeypatch.setattr(
        moments, "_fan", lambda poly, face, d, memo: faces.append(d) or fan(poly, face, d, memo)
    )
    check_facet_condition(cube, 0)
    body = moments._triangulate(cube)[1][()]
    for i in range(8):
        check_facet_condition(cube, i)
    assert moments._triangulate(cube)[1][()] is body
    assert all(poly is cube for poly, _, _ in calls)
    assert calls[0][1:] == (2, ((), (0,)))
    integrated = [(degree, d) for _, degree, domains in calls for d in domains]
    assert len(integrated) == len(set(integrated))
    assert [degree for degree, d in integrated if d == ()] == [2]
    facets = sorted((d, degree) for degree, d in integrated if len(d) == 1)
    assert facets == [((i,), 2) for i in range(8)]
    ridges = [d for degree, d in integrated if len(d) == 2 and degree == 1]
    assert len(ridges) == 24 == len(integrated) - 1 - len(facets)
    # Facets 2k and 2k + 1 are opposite, bot_k and top_k, and share no ridge.
    assert not any(i % 2 == 0 and j == i + 1 for i, j in ridges)
    # Each facet fan is swept once with the body and once more as a divisor,
    # but facet 0 took its own sums in the sweep; each ridge's fan once.
    index = {id(f): i for i, f in enumerate(moments._triangulate(cube)[0])}
    sweeps = collections.Counter(index.get(id(s), "ridge") for s in swept)
    assert sweeps == {0: 1, **{i: 2 for i in range(1, 8)}, "ridge": 24}
    assert faces and max(faces) < cube.dim
    assert moments._triangulate.cache_info().misses == 1
    # A second pass reads the store and the facet sides: it integrates nothing.
    del calls[:]
    for i in range(8):
        check_facet_condition(cube, i)
    assert calls == []


def test_moment_store_is_bounded_and_lets_evicted_polytopes_go(cold_store):
    # With the cycle collector off: the store keeps one entry, which is in
    # no reference cycle, so a polytope and its entry go as soon as the
    # next polytope is integrated.
    gc.disable()
    try:
        gone = None
        for b in range(1, 6):
            poly = interval(0, b)
            moments.polytope_moments(poly)
            assert gone is None or gone() is None
            assert moments._triangulate.cache_info().currsize == 1
            gone = weakref.ref(poly)
            del poly
    finally:
        gc.enable()


def test_a_tower_checked_round_by_round_keeps_only_the_round_in_use(cold_store):
    # Each round checks the divisor and then its newest facet, whose side
    # no other round shares.  With the cycle collector off, a round's
    # polytope, the key of its moment store entry, and its newest facet's
    # side go as soon as the next round is checked.
    gc.disable()
    try:
        state = start_tower(unit_simplex(2), "hyp")
        gone = []
        for r in range(1, 9):
            state = tower_step(state, Fraction(1, 4**r))
            poly = state.polytope
            check_facet_condition(poly, "hyp")
            newest = check_facet_condition(poly, len(poly.facets) - 1)
            assert [ref() for ref in gone] == [None] * len(gone)
            assert moments._triangulate.cache_info().currsize == 1
            assert len(obstruction._facet_sides) == 1
            ((frame, a_facet),) = obstruction._facet_sides.values()
            assert a_facet is newest.a_facet
            # A frame is a tuple, which takes no weak reference; the side's
            # tuple holds a_facet, so a_facet gone means the side is gone.
            gone = [weakref.ref(poly), weakref.ref(a_facet)]
            del poly, newest, frame, a_facet
    finally:
        gc.enable()


def test_a_polytope_hashes_its_value_at_most_once(monkeypatch, cold_store):
    # Hashing (dim, facets) hashes each facet, and in one check each facet
    # belongs to one polytope: the parent, or the divisor's facet polytope.
    poly = DelzantPolytope.from_data(tower_rounds()[5].to_data())
    counts = collections.Counter()
    facet_hash = Facet.__hash__

    def counting(facet):
        counts[id(facet)] += 1
        return facet_hash(facet)

    monkeypatch.setattr(Facet, "__hash__", counting)
    check_facet_condition(poly, "hyp")
    assert [counts[id(f)] for f in poly.facets] == [1] * len(poly.facets)
    assert max(counts.values()) == 1


def test_the_stored_hash_is_the_value_hash_and_is_not_pickled():
    poly = tower_rounds()[2]
    assert hash(poly) == hash((poly.dim, poly.facets))
    copy = pickle.loads(pickle.dumps(poly))
    assert "_hash" not in copy.__dict__
    assert copy == poly and hash(copy) == hash(poly)
