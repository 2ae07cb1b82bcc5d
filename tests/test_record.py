"""Value records keep the semantics the frozen value classes had."""

import collections
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from conftest import interval, tower_rounds, unit_cube
from cuspcheck import (
    DegenerateFacet,
    DelzantPolytope,
    Facet,
    ModelCoefficients,
    check_facet_condition,
    extremal_affine,
    moments,
    obstruction,
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


def test_moment_store_entry_is_shared_by_an_equal_rebuilt_polytope():
    poly = tower_rounds()[2]
    rebuilt = DelzantPolytope.from_data(poly.to_data())
    moments._triangulate.cache_clear()
    body = moments.polytope_moments(poly)
    facets = moments.boundary_moments(poly).facets
    assert moments._triangulate(rebuilt) is moments._triangulate(poly)
    assert moments.polytope_moments(rebuilt) is body
    assert all(a is b for a, b in zip(moments.boundary_moments(rebuilt).facets, facets))
    assert moments._triangulate.cache_info().currsize == 1


def test_excluded_facet_is_not_integrated():
    cube = unit_cube(3)
    moments._triangulate.cache_clear()
    extremal_affine(cube, [2])
    assert set(moments._triangulate(cube)[2]) == {None, 0, 1, 3, 4, 5}


def test_checking_every_facet_integrates_the_body_once(monkeypatch):
    # Checking all 8 facets of the 4-cube integrates the cube and nothing
    # else: its body once, each facet at most once per degree (degree 1 for
    # a pair's boundary, degree 2 as the divisor, which also serves degree
    # 1 later), and each of its 24 ridges once, at degree 1.
    cube = unit_cube(4)
    calls = []
    integrate = moments._integrate

    def counting(poly, degree, domains=((),)):
        calls.append((poly, degree, tuple(domains)))
        return integrate(poly, degree, domains)

    monkeypatch.setattr(moments, "_integrate", counting)
    moments._triangulate.cache_clear()
    obstruction._facet_sides.clear()
    check_facet_condition(cube, 0)
    body = moments._triangulate(cube)[3][()]
    for i in range(8):
        check_facet_condition(cube, i)
    assert moments._triangulate(cube)[3][()] is body
    assert all(poly is cube for poly, _, _ in calls)
    integrated = [(degree, d) for _, degree, domains in calls for d in domains]
    assert len(integrated) == len(set(integrated))
    assert [degree for degree, d in integrated if d == ()] == [2]
    facets = sorted((d, degree) for degree, d in integrated if len(d) == 1)
    assert facets == [((0,), 2)] + [((i,), degree) for i in range(1, 8) for degree in (1, 2)]
    ridges = [d for degree, d in integrated if len(d) == 2 and degree == 1]
    assert len(ridges) == 24 == len(integrated) - 1 - len(facets)
    # Facets 2k and 2k + 1 are opposite, bot_k and top_k, and share no ridge.
    assert not any(i % 2 == 0 and j == i + 1 for i, j in ridges)
    assert moments._triangulate.cache_info().misses == 1
    # A second pass reads the store and the facet sides: it integrates nothing.
    del calls[:]
    for i in range(8):
        check_facet_condition(cube, i)
    assert calls == []


def test_moment_store_is_bounded_and_lets_evicted_polytopes_go():
    # With the cycle collector off: an evicted entry is in no reference
    # cycle, so it and its polytope go as soon as the store drops them.
    moments._triangulate.cache_clear()
    gc.disable()
    try:
        first = interval(0, 1)
        moments.polytope_moments(first)
        gone = weakref.ref(first)
        del first
        for b in range(2, 300):
            moments.polytope_moments(interval(0, b))
            assert moments._triangulate.cache_info().currsize <= 256
        assert gone() is None
    finally:
        gc.enable()


def test_a_polytope_hashes_its_value_at_most_once(monkeypatch):
    # Hashing (dim, facets) hashes each facet, and in one check each facet
    # belongs to one polytope: the parent, or the divisor's facet polytope.
    poly = DelzantPolytope.from_data(tower_rounds()[5].to_data())
    counts = collections.Counter()
    facet_hash = Facet.__hash__

    def counting(facet):
        counts[id(facet)] += 1
        return facet_hash(facet)

    monkeypatch.setattr(Facet, "__hash__", counting)
    moments._triangulate.cache_clear()
    check_facet_condition(poly, "hyp")
    assert [counts[id(f)] for f in poly.facets] == [1] * len(poly.facets)
    assert max(counts.values()) == 1


def test_the_stored_hash_is_the_value_hash_and_is_not_pickled():
    poly = tower_rounds()[2]
    assert hash(poly) == hash((poly.dim, poly.facets))
    copy = pickle.loads(pickle.dumps(poly))
    assert "_hash" not in copy.__dict__
    assert copy == poly and hash(copy) == hash(poly)
