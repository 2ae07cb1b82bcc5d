"""The sweep that integrates the body and the boundary, against the body fan.

The kernel integrates the body over the cones from vertex 0 on the facet
fans, in the same pass that sums the whole boundary, and the pair's Gram
system reads that boundary minus the excluded facets.  The oracle here
integrates each domain on its own, as the kernel did when the store kept
the body's fan: the body over ``moments._fan``'s triangulation with full
n x n determinants, each face over its own fan with its own mass rule
and minors, every simplex moment expanded on its own vertices, with no
per-vertex weights.  Raw sums and
scales must be equal, key order included.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tower_rounds
from cuspcheck import DelzantPolytope, check_facet_condition, extremal, moments
from cuspcheck.linalg import det_int
from cuspcheck.polytope import _ridge_facets
from test_moments import _body_fan, _pyramid, _skew_triangle, framed_chopped
from test_obstruction import _load_corpus, _tower


def _oracle(poly, domain):
    """Raw sums to degree 3 and scales of one domain, simplex by simplex."""
    n = poly.dim
    lcm, table = poly.scaled_vertices
    k = n - len(domain)
    if domain:
        face = frozenset.intersection(*[poly.facet_vertices[i] for i in domain])
        simplices = moments._fan(poly, face, k, {})
        # The mass rule of the module docstring, on its own: every r x r
        # minor of the normals, the least nonzero one by value and then by
        # columns, and their gcd.
        normals = [poly.facets[i].normal for i in domain]
        minors = {
            cols: abs(det_int([[u[c] for c in cols] for u in normals]))
            for cols in itertools.combinations(range(n), len(domain))
        }
        least, drop = min((m, cols) for cols, m in minors.items() if m)
        mass = least // math.gcd(*minors.values())
        keep = [c for c in range(n) if c not in drop]
        dets = [
            abs(det_int([[table[i][c] - table[s[0]][c] for c in keep] for i in s[1:]]))
            for s in simplices
        ]
    else:
        simplices, mass = _body_fan(poly), 1
        dets = [
            abs(det_int([[a - b for a, b in zip(table[i], table[s[0]])] for i in s[1:]]))
            for s in simplices
        ]
    monomials = [m for d in range(4) for m in itertools.combinations_with_replacement(range(n), d)]
    raw = dict.fromkeys(monomials, 0)
    for s, det in zip(simplices, dets):
        points = [table[i] for i in s]
        total = [sum(column) for column in zip(*points)]
        for m in monomials:
            if len(m) == 0:
                term = 1
            elif len(m) == 1:
                term = total[m[0]]
            elif len(m) == 2:
                i, j = m
                term = total[i] * total[j] + sum(p[i] * p[j] for p in points)
            else:
                i, j, l = m
                term = total[i] * total[j] * total[l] + sum(
                    total[i] * p[j] * p[l] + total[j] * p[i] * p[l] + total[l] * p[i] * p[j]
                    + 2 * p[i] * p[j] * p[l]
                    for p in points
                )
            raw[m] += det * term
    scale = tuple(
        math.factorial(k) * lcm**k * mass * math.prod(range(k + 1, k + d + 1)) * lcm**d
        for d in range(4)
    )
    return raw, scale


def _to_degree(sums, degree):
    raw, scale = sums
    return {m: x for m, x in raw.items() if len(m) <= degree}, scale[: degree + 1]


def _lifted(parts, facets):
    """Facet sums of degree <= 1 added over the lcm of the scales of all
    the facets, the whole boundary's."""
    top = math.lcm(*[scale[0] for _, scale in facets])
    raw = {m: sum(r[m] * (top // s[0]) for r, s in parts) for m in parts[0][0] if len(m) < 2}
    return raw, tuple(x * (top // facets[0][1][0]) for x in facets[0][1][:2])


def _assert_same(got, expected, what):
    assert got == expected, what
    assert list(got[0]) == list(expected[0]), what


def _assert_sweep_matches_oracle(poly, monkeypatch):
    facets = [(i,) for i in range(len(poly.facets))]
    ridges = sorted({(min(i, j), max(i, j)) for (i,) in facets for j in _ridge_facets(poly, i)})
    oracle = {d: _oracle(poly, d) for d in [(), *facets, *ridges]}
    every = [_to_degree(oracle[d], 1) for d in facets]
    for degree in range(4):
        swept = moments._integrate(poly, degree, [(), *facets])
        alone = moments._integrate(poly, degree, facets + ridges)
        assert set(swept) == {(), None, *facets} and set(alone) == {*facets, *ridges}
        _assert_same(swept[()], _to_degree(oracle[()], degree), ("body", degree))
        for d in facets:
            _assert_same(swept[d], _to_degree(oracle[d], degree), (d, degree, "in the sweep"))
        for d in facets + ridges:
            _assert_same(alone[d], _to_degree(oracle[d], degree), (d, degree))
        _assert_same(swept[None], _to_degree(_lifted(every, every), degree), ("boundary", degree))
    # The pair's boundary: every facet but F, one domain over the scale of
    # the whole boundary.
    seen = []
    solve = extremal._solve
    monkeypatch.setattr(
        extremal, "_solve", lambda body, boundary: seen.append(boundary) or solve(body, boundary)
    )
    for f in facets:
        moments._triangulate.cache_clear()
        extremal._affine(poly, list(f))
        ((got,),) = seen
        kept = [_to_degree(oracle[d], 1) for d in facets if d != f]
        _assert_same(got, _lifted(kept, every), ("boundary minus", f))
        seen.clear()
    monkeypatch.undo()


def _oracle_corpus():
    """The obstruction corpus, the benchmark's seeded inputs for seeds 1-3,
    2D tower rounds 1-7 and 3D rounds 1-4."""
    corpus = _load_corpus()
    polys = [DelzantPolytope.from_data(doc) for doc in corpus.standard_polytopes().values()]
    for seed in (1, 2, 3):
        polys += [DelzantPolytope.from_data(item["doc"]) for item in corpus.seeded_checks(seed)]
        for doc in corpus.seeded_tower_bases(seed).values():
            base = DelzantPolytope.from_data(doc)
            polys += _tower(base.dim, corpus.SEEDED_TOWER_ROUNDS[base.dim], base)
    return polys + list(tower_rounds()[:7]) + _tower(3, 4)


def test_sweep_matches_the_body_fan_oracle_on_the_corpus(monkeypatch, cold_store):
    for poly in _oracle_corpus():
        _assert_sweep_matches_oracle(poly, monkeypatch)


@pytest.mark.parametrize("build", [_pyramid, _skew_triangle])
def test_sweep_matches_the_body_fan_oracle_on_non_simple_and_non_unimodular(
    build, monkeypatch, cold_store
):
    _assert_sweep_matches_oracle(build(), monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_sweep_matches_the_body_fan_oracle_in_random_frames(n, data):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_sweep_matches_oracle(data.draw(framed_chopped(n)), monkeypatch)


def test_a_tower_round_solves_the_pair_once_over_one_boundary_domain(monkeypatch, cold_store):
    # Each round's pair side is one Gram solve whose boundary is one domain,
    # and no store entry holds a body simplex: its fans are the facets',
    # each simplex with n vertices, and the body is never triangulated.
    solves, faces = [], []
    solve, fan = extremal._solve, moments._fan
    monkeypatch.setattr(
        extremal, "_solve", lambda body, bd: solves.append(len(bd)) or solve(body, bd)
    )
    monkeypatch.setattr(
        moments,
        "_fan",
        lambda poly, face, d, memo: faces.append(d < poly.dim) or fan(poly, face, d, memo),
    )
    for n, rounds in ((2, 6), (3, 3)):
        for poly in _tower(n, rounds):
            solves.clear()
            check_facet_condition(poly, "hyp")
            assert solves == [1]
            fans, sums = moments._triangulate(poly)
            assert len(fans) == len(poly.facets)
            assert all(len(s) == n for facet in fans for s in facet)
            values = [x for raw, scale in sums.values() for x in (*raw.values(), *scale)]
            assert all(type(x) is int for x in values)
    assert faces and all(faces)
