"""Facet compatibility and finite-dimensional hypothesis checks."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_fractions,
    product_document,
    spanning_configuration_document,
    tower_rounds,
    unit_cube,
    unit_simplex,
)
from cuspcheck import (
    DelzantPolytope,
    DimensionMismatch,
    Facet,
    InputValidationError,
    MissingEvaluationData,
    MomentConfiguration,
    blow_up_vertex,
    check_balance,
    check_facet_condition,
    check_genericity,
    check_hypotheses,
    check_kernel_condition,
    extremal_affine,
    facet_polytope,
    moments,
    obstruction,
    polytope,
    restrict_affine,
    start_tower,
    tower_step,
    toric_configuration,
)
from cuspcheck.linalg import nullspace, rank
from cuspcheck.polytope import FacetChart, _facet_chart, _facet_frame, _ridge_facets
from test_moments import _pyramid, _skew_triangle, framed_chopped


def _load_corpus():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _oracle(poly, index):
    """The check through the facet polytope: the pair's function restricted
    to the facet's chart, and the facet polytope's own solved function;
    both solves are confirmed by zero residuals on the Fraction Gram."""
    pair = extremal_affine(poly, [index])
    face, chart = facet_polytope(poly, index)
    own = extremal_affine(face)
    assert all(r == 0 for r in pair.residuals + own.residuals)
    return pair.affine, restrict_affine(pair.affine, chart), own.affine


def _assert_report_matches_oracle(poly, index, report):
    a_pair, a_restricted, a_facet = _oracle(poly, index)
    assert (report.a_pair, report.a_restricted, report.a_facet) == (
        a_pair, a_restricted, a_facet
    ), index
    difference = tuple(a - b for a, b in zip(a_restricted.gradient, a_facet.gradient))
    assert report.difference_gradient == difference
    assert report.offset == a_restricted.constant - a_facet.constant
    assert report.satisfied == all(x == 0 for x in difference)


def _assert_check_matches_oracle(poly):
    for index in range(len(poly.facets)):
        _assert_report_matches_oracle(poly, index, check_facet_condition(poly, index))


def _tower(n, rounds, base=None):
    state = start_tower(unit_simplex(n) if base is None else base, "hyp")
    out = []
    for r in range(1, rounds + 1):
        state = tower_step(state, Fraction(1, 4**r))
        out.append(state.polytope)
    return out


def _differential_corpus():
    polys = [unit_simplex(n) for n in range(2, 6)] + [unit_cube(n) for n in range(2, 6)]
    polys += list(tower_rounds()[:6]) + _tower(3, 3) + [_pyramid(), _skew_triangle()]
    corpus = _load_corpus()
    for seed in (1, 2):
        polys += [DelzantPolytope.from_data(item["doc"]) for item in corpus.seeded_checks(seed)]
        for doc in corpus.seeded_tower_bases(seed).values():
            base = DelzantPolytope.from_data(doc)
            polys += _tower(base.dim, corpus.SEEDED_TOWER_ROUNDS[base.dim], base)
    return polys


def test_check_matches_the_facet_polytope_oracle():
    # Simplices and cubes 2-5, 2D tower rounds 1-6, 3D rounds 1-3, the
    # pyramid, the skew triangle, and the benchmark's seeded inputs
    # (chopped 3D documents and towers in seed-drawn frames, seeds 1, 2).
    for poly in _differential_corpus():
        _assert_check_matches_oracle(poly)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_check_matches_the_oracle_in_random_frames(n, data):
    _assert_check_matches_oracle(data.draw(framed_chopped(n)))


def _hypotenuse_simplex(normal, offset):
    # x_i >= 0 and <normal, x> >= offset, with the hypotenuse labelled 'hyp'
    n = len(normal)
    facets = [Facet(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    return DelzantPolytope(n, (*facets, Facet(normal, offset, label="hyp")))


@pytest.mark.parametrize(
    "normal, offset", [((-2, -3), -6), ((-2, -3, -5), -30)], ids=["triangle", "simplex3"]
)
def test_check_matches_the_oracle_when_the_facet_normal_has_no_unit_entry(
    normal, offset, cold_store
):
    # The facet side drops the column of the least |u_c|, here 2, so the
    # kept columns map the hypotenuse's lattice onto a sublattice of
    # index 2, not onto Z^(n-1); the solved function is the same.
    poly = _hypotenuse_simplex(normal, offset)
    assert poly.simple
    _assert_check_matches_oracle(poly)
    cold_store()
    _assert_check_matches_oracle(_hypotenuse_simplex(normal[::-1], offset))


def test_simple_polytopes_take_no_face_rank(monkeypatch, cold_store):
    # A face cut out at a vertex of a simple polytope by k facets has
    # codimension k: building, chopping and checking read the tight sets
    # and never ask face_dim.
    def refuse(*args):
        raise AssertionError("face_dim was called on a simple polytope")

    docs = [
        poly.to_data()
        for poly in (unit_simplex(5), unit_cube(4), unit_cube(5), tower_rounds()[3], _skew_triangle())
    ]
    monkeypatch.setattr(DelzantPolytope, "face_dim", refuse)
    polys = [DelzantPolytope.from_data(doc) for doc in docs]
    polys.append(_hypotenuse_simplex((-2, -3, -5), -30))
    state = start_tower(unit_simplex(3), "hyp")
    for r in (1, 2):
        state = tower_step(state, Fraction(1, 4**r))
        polys.append(state.polytope)
    for poly in polys:
        assert poly.simple
        for index in range(len(poly.facets)):
            check_facet_condition(poly, index)
            assert facet_polytope(poly, index)[0].simple


def test_the_pyramid_takes_the_face_rank_and_matches_the_oracle(monkeypatch, cold_store):
    # Its apex lies on four facets, so its faces are tested by face_dim,
    # whose rank branch the apex's own faces take.
    calls = []
    face_dim = DelzantPolytope.face_dim
    monkeypatch.setattr(
        DelzantPolytope, "face_dim", lambda poly, face: calls.append(poly) or face_dim(poly, face)
    )
    pyramid = _pyramid()
    assert not pyramid.simple and calls
    del calls[:]
    for index in range(len(pyramid.facets)):
        check_facet_condition(pyramid, index)
    assert calls and all(poly is pyramid for poly in calls)
    monkeypatch.undo()
    cold_store()
    _assert_check_matches_oracle(pyramid)


def _tower_corpus():
    # 2D tower rounds 1-6, 3D rounds 1-3 and the benchmark's seeded towers.
    polys = list(tower_rounds()[:6]) + _tower(3, 3)
    corpus = _load_corpus()
    for seed in (1, 2):
        for doc in corpus.seeded_tower_bases(seed).values():
            base = DelzantPolytope.from_data(doc)
            polys += _tower(base.dim, corpus.SEEDED_TOWER_ROUNDS[base.dim], base)
    return polys


def test_check_matches_the_oracle_with_the_facet_sides_warm(monkeypatch, cold_store):
    # Checking a facet stores its side; the same face checked again right
    # after must read it, with no facet frame worked out, and the report must
    # still equal the oracle.
    def refuse(*args):
        raise AssertionError("a warm check solved the facet's side again")

    for poly in _tower_corpus():
        for index in range(len(poly.facets)):
            check_facet_condition(poly, index)
            with monkeypatch.context() as patch:
                patch.setattr(obstruction, "_facet_frame", refuse)
                report = check_facet_condition(poly, index)
            _assert_report_matches_oracle(poly, index, report)


def test_a_tower_solves_the_divisor_side_once(monkeypatch, cold_store):
    # Chops off the divisor leave its face, so only round 1 solves its side.
    frames = []
    facet_frame = obstruction._facet_frame
    monkeypatch.setattr(
        obstruction, "_facet_frame", lambda poly, index: frames.append(index) or facet_frame(poly, index)
    )
    for n, rounds in ((2, 6), (3, 3)):
        for poly in _tower(n, rounds):
            check_facet_condition(poly, "hyp")
    assert frames == [2, 3]


def test_a_chop_on_the_facet_changes_its_side(monkeypatch, cold_store):
    # A chop at a vertex of F makes its new facet a ridge facet of F, so a
    # warm check of F must not read the side stored for the unchopped face.
    frames = []
    facet_frame = obstruction._facet_frame
    monkeypatch.setattr(
        obstruction, "_facet_frame", lambda poly, index: frames.append(index) or facet_frame(poly, index)
    )
    for poly, vertex in [
        (unit_simplex(2), (1, 0)),
        (unit_simplex(3), (0, 0, 1)),
        (tower_rounds()[1], (1, 0)),
    ]:
        index = poly.resolve_facet("hyp")
        cold_store()
        del frames[:]
        check_facet_condition(poly, index)
        chopped = blow_up_vertex(poly, vertex, Fraction(1, 8))
        assert _ridge_facets(chopped, index)[-1] == len(poly.facets)
        report = check_facet_condition(chopped, index)
        assert frames == [index, index]
        assert report.a_facet == _oracle(chopped, index)[2]
        _assert_check_matches_oracle(chopped)


def test_the_facet_sides_are_bounded(cold_store):
    # 300 triangles x, y >= 0, x + y <= b have 300 different hypotenuses.
    for b in range(1, 301):
        triangle = DelzantPolytope(
            2, (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -1), -b, label="hyp"))
        )
        report = check_facet_condition(triangle, "hyp")
        assert report.a_facet == _oracle(triangle, 2)[2]
        assert len(obstruction._facet_sides) == 1


def test_a_check_builds_no_polytope(monkeypatch, cold_store):
    # No walk, no claimed build and no facet polytope: the check reads the
    # parent's own store.
    def refuse(*args, **kwargs):
        raise AssertionError("check_facet_condition built a polytope")

    polys = [unit_cube(4), unit_simplex(5), tower_rounds()[5], _pyramid(), *_tower(3, 3)]
    monkeypatch.setattr(DelzantPolytope, "__post_init__", refuse)
    monkeypatch.setattr(DelzantPolytope, "_from_claimed_vertices", classmethod(refuse))
    monkeypatch.setattr(polytope, "facet_polytope", refuse)
    for poly in polys:
        for index in range(len(poly.facets)):
            check_facet_condition(poly, index)
    assert moments._triangulate.cache_info().misses == len(polys)


def _frame_corpus():
    """Simplices and cubes 2-5, the 2D tower's rounds 1-4 and the 3D
    tower's rounds 1-2 (chop facets with offsets over 4^r), the seed-1
    chopped documents in seed-drawn frames, the skew triangle, which is
    not Delzant, and the 6D product of three triangles."""
    polys = [unit_simplex(n) for n in range(2, 6)] + [unit_cube(n) for n in range(2, 6)]
    polys += list(tower_rounds()[:4]) + _tower(3, 2) + [_skew_triangle()]
    polys += [DelzantPolytope.from_data(item["doc"]) for item in _load_corpus().seeded_checks(1)]
    triangle = unit_simplex(2)
    return polys + [DelzantPolytope.from_data(product_document(triangle, triangle, triangle))]


def test_the_int_frame_agrees_with_the_chart_route_on_every_facet(cold_store):
    # The frame is the chart's origin and basis in int, and the check's
    # int restriction is restrict_affine of its pair through the chart.
    for poly in _frame_corpus():
        for index in range(len(poly.facets)):
            w, basis, origin, r = _facet_frame(poly, index)
            chart, chart_w = _facet_chart(poly, index)
            assert (w, basis) == (chart_w, chart.basis)
            assert tuple(Fraction(x, r) for x in origin) == chart.origin
            assert r == math.lcm(*[x.denominator for x in chart.origin])
            report = check_facet_condition(poly, index)
            face_chart = facet_polytope(poly, index)[1]
            assert face_chart == chart
            assert report.a_restricted == restrict_affine(report.a_pair, face_chart), index


def _int_leaves(value):
    if isinstance(value, tuple):
        return all(_int_leaves(x) for x in value)
    return type(value) is int


def test_a_check_keeps_no_fraction_in_its_store_and_builds_no_chart(monkeypatch, cold_store):
    # Keys and frames of the stored facet sides are ints only, so a hit
    # hashes no Fraction, and no check builds a FacetChart, cold or warm.
    def refuse(*args, **kwargs):
        raise AssertionError("check_facet_condition built a FacetChart")

    monkeypatch.setattr(FacetChart, "__init__", refuse)
    for poly in _frame_corpus():
        for index in range(len(poly.facets)):
            for _ in range(2):
                check_facet_condition(poly, index)
                ((key, (frame, _)),) = obstruction._facet_sides.items()
                assert _int_leaves(key) and _int_leaves(frame), (poly, index)


@pytest.mark.parametrize(
    "build",
    [lambda: unit_cube(3), lambda: unit_simplex(4), lambda: unit_cube(5), lambda: tower_rounds()[5]],
    ids=["cube3", "simplex4", "cube5", "tower2d_round6"],
)
def test_a_check_builds_fractions_only_for_its_report(build, monkeypatch, cold_store):
    # From a cleared store and no stored facet sides, the integrals, the
    # chart maps and both Gram solves run in int: the Fractions a check
    # builds are its report's values, each built once.  The Fraction route
    # built one per monomial per domain and a Gram matrix per solve.
    poly = build()
    built = count_fractions(monkeypatch)
    report = check_facet_condition(poly, 0)
    monkeypatch.undo()
    values = [report.offset, *report.difference_gradient]
    for affine in (report.a_pair, report.a_restricted, report.a_facet):
        values += [affine.constant, *affine.gradient]
    assert 0 < len(built) <= len(values)


def test_triangle_hypotenuse_frozen(triangle):
    report = check_facet_condition(triangle, "hyp")
    assert report.satisfied
    assert bool(report)
    assert report.offset == -2
    assert report.difference_gradient == (0,)
    assert report.a_restricted.constant == 0
    assert report.a_restricted.gradient == (0,)
    assert report.a_facet.constant == 2
    assert report.a_pair.constant == 12


def test_square_any_facet_satisfied(square):
    report = check_facet_condition(square, "top1")
    assert report.satisfied
    # A_pair = 6 - 6y restricts to 0 on {y=1}; interval value is 2
    assert report.a_pair.gradient == (0, -6)
    assert report.offset == -2


def test_symmetric_chop_keeps_condition(triangle):
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        chopped = blow_up_vertex(triangle, (0, 0), eps)
        report = check_facet_condition(chopped, "hyp")
        assert report.satisfied, f"eps = {eps}"
        assert report.difference_gradient == (0,)


def test_symmetric_chop_keeps_condition_3d(simplex3):
    for eps in (Fraction(1, 8), Fraction(1, 4)):
        chopped = blow_up_vertex(simplex3, (0, 0, 0), eps)
        report = check_facet_condition(chopped, "hyp")
        assert report.satisfied, f"eps = {eps}"
        assert report.difference_gradient == (0, 0)


def test_single_free_point_chop_breaks_condition(triangle):
    quarter = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    for eps in (Fraction(1, 32), Fraction(1, 16), Fraction(1, 8)):
        lopsided = blow_up_vertex(quarter, (Fraction(1, 4), 0), eps)
        report = check_facet_condition(lopsided, "hyp")
        assert not report.satisfied, f"eps = {eps}"
        assert not bool(report)
        assert any(g != 0 for g in report.difference_gradient)


def test_offset_reported_even_when_not_satisfied(triangle):
    quarter = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    lopsided = blow_up_vertex(quarter, (Fraction(1, 4), 0), Fraction(1, 16))
    report = check_facet_condition(lopsided, "hyp")
    assert report.offset == report.a_restricted.constant - report.a_facet.constant


def test_condition_needs_dimension_two():
    from conftest import interval

    with pytest.raises(DimensionMismatch):
        check_facet_condition(interval(0, 1), "hi")


def test_unimodular_invariance_of_condition(triangle):
    from cuspcheck import apply_unimodular

    chopped = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    base = check_facet_condition(chopped, "hyp")
    moved = apply_unimodular(chopped, ((1, 1), (0, 1)), (3, -5))
    report = check_facet_condition(moved, "hyp")
    assert report.satisfied == base.satisfied
    assert report.offset == base.offset


def _config(**kw):
    defaults = dict(
        n=2,
        points=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        weights=(Fraction(1), Fraction(1)),
        t_basis=((Fraction(1), Fraction(1)),),
        eval_matrix=None,
    )
    defaults.update(kw)
    return MomentConfiguration(**defaults)


def test_balance_zero_point_always_true():
    cfg = _config(points=((Fraction(0), Fraction(0)),), weights=(Fraction(2),))
    result = check_balance(cfg)
    assert result.satisfied
    assert result.residual == (0, 0)


def test_balance_full_torus_always_true():
    cfg = _config(t_basis=((1, 0), (0, 1)))
    assert check_balance(cfg).satisfied


def test_balance_diagonal_span_frozen():
    # weights 1, power n-1 = 1: combination (1,1)
    good = _config(t_basis=((1, 1),))
    result = check_balance(good)
    assert result.satisfied
    assert result.combination == (1, 1)
    assert result.residual == (0, 0)
    bad = _config(t_basis=((1, 0),))
    result = check_balance(bad)
    assert not result.satisfied
    assert result.combination == (1, 1)
    assert result.projection == (1, 0)
    assert result.residual == (0, 1)


def test_balance_uses_weight_power():
    # n = 3: weights enter squared
    cfg = _config(
        n=3,
        points=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        weights=(Fraction(2), Fraction(1)),
        t_basis=((Fraction(4), Fraction(1)),),
    )
    result = check_balance(cfg)
    assert result.combination == (4, 1)
    assert result.satisfied


def test_balance_invariant_under_basis_change():
    a = _config(t_basis=((1, 1),))
    b = _config(t_basis=((2, 2),))
    c = _config(t_basis=((-3, -3),))
    assert check_balance(a).satisfied == check_balance(b).satisfied
    assert check_balance(b).satisfied == check_balance(c).satisfied


def test_genericity_cases():
    assert check_genericity(_config(t_basis=((1, 0), (0, 1))))
    # empty t: points must span
    assert check_genericity(_config(t_basis=()))
    assert not check_genericity(
        _config(
            points=((Fraction(1), Fraction(0), Fraction(0)),),
            weights=(Fraction(1),),
            t_basis=((Fraction(1), Fraction(0), Fraction(0)),),
        )
    )


def test_kernel_cases():
    injective = _config(eval_matrix=((1, 0), (0, 1)))
    assert check_kernel_condition(injective)
    zero_full_t = _config(
        t_basis=((1, 0), (0, 1)), eval_matrix=((0, 0),)
    )
    assert check_kernel_condition(zero_full_t)
    # null space span{(0,1)} not inside span{(1,0)}
    leaky = _config(t_basis=((1, 0),), eval_matrix=((1, 0),))
    assert not check_kernel_condition(leaky)


def test_kernel_3d_frozen():
    cfg = MomentConfiguration(
        n=2,
        points=((Fraction(1), Fraction(0), Fraction(0)),),
        weights=(Fraction(1),),
        t_basis=((Fraction(0), Fraction(0), Fraction(1)),),
        eval_matrix=((1, 0, 0), (0, 1, 0)),
    )
    assert check_kernel_condition(cfg)
    off = MomentConfiguration(
        n=2,
        points=((Fraction(1), Fraction(0), Fraction(0)),),
        weights=(Fraction(1),),
        t_basis=((Fraction(1), Fraction(0), Fraction(0)),),
        eval_matrix=((1, 0, 0), (0, 1, 0)),
    )
    assert not check_kernel_condition(off)


def _kernel_by_vectors(config):
    """The kernel condition as it was once taken: one rank per kernel vector."""
    kernel = nullspace(config.eval_matrix, ncols=config.dimension)
    base_rank = rank(config.t_basis)
    for vec in kernel:
        if rank(list(config.t_basis) + [vec]) != base_rank:
            return False
    return True


def _independent(vector, count, into=()):
    """``count`` vectors from ``vector()`` that are independent with ``into``."""
    out = list(into)
    while len(out) < len(into) + count:
        v = vector()
        if rank([*out, v]) == len(out) + 1:
            out.append(v)
    return out[len(into) :]


def _random_kernel_configuration(rng, case):
    # The evaluation matrix is the orthogonal complement of a chosen kernel,
    # so its null space is exactly that kernel.
    d = rng.randint(2, 5)

    def vector():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))

    k = 0 if case == "empty basis" else rng.randint(1, d - (case == "outside"))
    basis = _independent(vector, k)
    if case == "inside":

        def combination():
            coefficients = [rng.randint(-2, 2) for _ in basis]
            return tuple(sum(c * b[i] for c, b in zip(coefficients, basis)) for i in range(d))

        kernel = _independent(combination, rng.randint(1, k))
    elif case == "empty kernel":
        kernel = []
    else:
        first = _independent(vector, 1, basis)
        kernel = first + _independent(vector, rng.randint(0, d - 1), first)
    eval_matrix = nullspace(kernel, ncols=d) if kernel else _independent(vector, d)
    config = MomentConfiguration(
        n=2,
        points=(vector(),),
        weights=(Fraction(1),),
        t_basis=tuple(basis),
        eval_matrix=eval_matrix or ((Fraction(0),) * d,),
    )
    assert len(nullspace(config.eval_matrix, ncols=d)) == len(kernel)
    return config


@pytest.mark.parametrize(
    "case, expected",
    [("inside", True), ("outside", False), ("empty basis", False), ("empty kernel", True)],
)
def test_kernel_condition_matches_the_per_vector_ranks(case, expected):
    rng = random.Random(case)
    for _ in range(40):
        config = _random_kernel_configuration(rng, case)
        assert check_kernel_condition(config) is _kernel_by_vectors(config) is expected


def test_kernel_requires_eval_matrix():
    with pytest.raises(MissingEvaluationData):
        check_kernel_condition(_config(eval_matrix=None))


def test_check_hypotheses_aggregates():
    cfg = _config(t_basis=((1, 0), (0, 1)), eval_matrix=((1, 1),))
    report = check_hypotheses(cfg)
    assert report.balance.satisfied
    assert report.genericity
    assert report.kernel
    assert report.satisfied
    bad = _config(t_basis=((1, 0),), eval_matrix=((1, 0),))
    report = check_hypotheses(bad)
    assert not report.satisfied


def test_configuration_validation():
    with pytest.raises(ValueError):
        _config(weights=(Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        _config(weights=(Fraction(-1), Fraction(1)))
    with pytest.raises(ValueError):
        _config(n=0)
    with pytest.raises(ValueError):
        _config(points=())
    with pytest.raises((ValueError, DimensionMismatch)):
        _config(weights=(Fraction(1),))
    with pytest.raises(ValueError):
        _config(t_basis=((1, 0), (2, 0)))  # dependent columns
    with pytest.raises(DimensionMismatch):
        _config(t_basis=((1, 0, 0),))
    with pytest.raises(DimensionMismatch):
        _config(eval_matrix=((1, 0, 0),))


def test_configuration_from_data_round_trip():
    doc = {
        "n": 2,
        "points": [["1", "0"], ["0", "1"]],
        "weights": ["1", "1"],
        "t_basis": [["1", "1"]],
        "eval_matrix": [["1", "0"]],
    }
    cfg = MomentConfiguration.from_data(doc)
    assert cfg.n == 2
    assert cfg.points == ((1, 0), (0, 1))
    assert cfg.t_basis == ((1, 1),)


def test_configuration_from_data_pointer_errors():
    doc = {
        "n": "two",
        "points": [["1", "0"], ["0", "bad"]],
        "weights": ["1"],
        "t_basis": [],
        "nonsense": 1,
    }
    with pytest.raises(InputValidationError) as err:
        MomentConfiguration.from_data(doc)
    pointers = [p for p, _ in err.value.errors]
    assert "/n" in pointers
    assert any(p.startswith("/points/1") for p in pointers)
    assert "/nonsense" in pointers

    # zero-length vectors would make every check pass vacuously
    doc = {"n": 2, "points": [[]], "weights": [1], "t_basis": [[]], "eval_matrix": [[]]}
    with pytest.raises(InputValidationError) as err:
        MomentConfiguration.from_data(doc)
    assert [p for p, _ in err.value.errors] == ["/eval_matrix/0", "/points/0", "/t_basis/0"]
    with pytest.raises(ValueError, match="at least one coordinate"):
        _config(points=((),), weights=(1,), t_basis=(), eval_matrix=((),))


def test_configuration_with_oversized_weight_powers_refused():
    # check_balance raises each weight to the power n - 1; (3/2)**(10**7 - 1)
    # alone has about 1.6e7 bits, so the record refuses it up front.
    doc = {
        "n": 10**7,
        "points": [[1, 0], [0, 1]],
        "weights": ["3/2", "5/3"],
        "t_basis": [[1, 1]],
        "eval_matrix": [[1, -1]],
    }
    with pytest.raises(InputValidationError) as err:
        MomentConfiguration.from_data(doc)
    [(pointer, message)] = err.value.errors
    assert pointer == ""
    assert "limit of 65536 bits" in message
    # Weights equal to one have powers of one bit at any n.
    ones = MomentConfiguration.from_data({**doc, "n": 10**400, "weights": [1, 1]})
    assert check_balance(ones).satisfied


def test_configuration_dimension_over_the_limit_is_refused(monkeypatch):
    # Points longer than the polytopes' dimension limit are refused before
    # any rank or weight power is taken, also when the powers would be
    # over their own budget; a configuration at the limit is checked.
    def refuse(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(obstruction, "rank", refuse)
    for d, extra in ((9, {}), (160, {"n": 10**7, "weights": ["3/2"] * 160})):
        doc = {**spanning_configuration_document(d), **extra}
        with pytest.raises(InputValidationError) as err:
            MomentConfiguration.from_data(doc)
        assert err.value.errors == [("", f"dimension {d} exceeds the limit of 8")]
    monkeypatch.undo()
    config = MomentConfiguration.from_data(spanning_configuration_document(8))
    assert config.dimension == 8
    assert check_hypotheses(config).satisfied


def test_toric_configuration_auto_fill(triangle):
    cfg = toric_configuration(triangle, "hyp")
    assert cfg.n == 2
    assert cfg.points == (((Fraction(0), Fraction(0))),)
    assert cfg.t_basis == ((1, 0), (0, 1))
    report = check_hypotheses(cfg)
    assert report.satisfied


def test_toric_configuration_weights(triangle):
    quarter = blow_up_vertex(triangle, (0, 0), Fraction(1, 4))
    cfg = toric_configuration(
        quarter, "hyp", weights=(Fraction(1, 2), Fraction(1, 2))
    )
    assert cfg.weights == (Fraction(1, 2), Fraction(1, 2))
    assert len(cfg.points) == 2
    with pytest.raises(DimensionMismatch):
        toric_configuration(quarter, "hyp", weights=(Fraction(1),))


def test_toric_configuration_cube():
    cube = unit_cube(3)
    cfg = toric_configuration(cube, "top2")
    assert cfg.n == 3
    assert len(cfg.points) == 4
    assert check_hypotheses(cfg).satisfied
