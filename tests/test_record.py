"""Value records keep the semantics the frozen value classes had."""

from fractions import Fraction

import pytest

from conftest import tower_rounds, unit_cube
from cuspcheck import DegenerateFacet, DelzantPolytope, Facet, ModelCoefficients, moments
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
