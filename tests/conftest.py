"""Shared builders and exact matrix helpers for the test suite."""

import functools
import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from cuspcheck import (
    DelzantPolytope,
    Facet,
    NotUnimodular,
    moments,
    obstruction,
    start_tower,
    tower_step,
)
from cuspcheck.linalg import det_int, dot, inverse_unimodular, is_primitive, rank, solve_int
from cuspcheck.polytope import _height_rows


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def leading_principal_minors(m):
    """Determinants of the k x k upper-left blocks, k = 1..n, exact."""
    out = []
    for k in range(1, len(m) + 1):
        # Scale each row of the block to integers and divide the scale out.
        scale = 1
        block = []
        for row in m[:k]:
            fracs = [Fraction(x) for x in row[:k]]
            lcm = math.lcm(*(x.denominator for x in fracs))
            scale *= lcm
            block.append([int(x * lcm) for x in fracs])
        out.append(Fraction(det_int(block), scale))
    return tuple(out)


def is_positive_definite(m):
    """Exact Sylvester criterion for a symmetric rational matrix."""
    return all(minor > 0 for minor in leading_principal_minors(m))


def affine_rank(points):
    """Dimension of the affine span of the given points (-1 if none): the
    rank of the rows (1, p) less one, so no differences are formed."""
    return rank([(1, *p) for p in points]) - 1


def rref(m):
    """Reduced row echelon form over the rationals, with pivot columns:
    Fraction Gauss-Jordan, the oracle for the pivot columns, rank and null
    space of the package's fraction-free elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rref_nullspace(m, ncols):
    """Null space basis read off ``rref``: one vector per non-pivot column,
    1 there, 0 at the other non-pivot columns."""
    if not m:
        return tuple(tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols))
    reduced, pivots = rref(m)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
    return tuple(basis)


def hermite_normal_form(m):
    """Row-style Hermite normal form with transform: U @ m = H, det(U) = +-1.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows sink to the bottom.  Deterministic.  On one
    primitive column it is the oracle for ``complete_primitive``: U maps
    the column to e_1.
    """
    nrows = len(m)
    h = [list(row) for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ncols = len(h[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        while True:
            nonzero = [i for i in range(r, nrows) if h[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            finished = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        finished = False
            if finished:
                break
        if r < nrows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def unit_simplex(n: int) -> DelzantPolytope:
    """x_i >= 0, x_1 + ... + x_n <= 1, hypotenuse labelled 'hyp'."""
    facets = [
        Facet(tuple(1 if j == i else 0 for j in range(n)), 0, label=f"x{i}")
        for i in range(n)
    ]
    facets.append(Facet((-1,) * n, -1, label="hyp"))
    return DelzantPolytope(n, tuple(facets))


def unit_simplex_document(n: int) -> dict:
    """The document of ``unit_simplex(n)``, built without the constructor,
    so also in dimensions that it refuses."""
    facets = [
        {"normal": [1 if j == i else 0 for j in range(n)], "offset": "0", "label": f"x{i}"}
        for i in range(n)
    ]
    facets.append({"normal": [-1] * n, "offset": "-1", "label": "hyp"})
    return {"dim": n, "facets": facets}


def spanning_configuration_document(d: int) -> dict:
    """A d-dimensional moment configuration that satisfies every
    hypothesis: the unit points with weights 1, ..., d, the standard basis,
    and one evaluation row of ones."""
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    return {
        "n": 3,
        "points": unit,
        "weights": [str(k + 1) for k in range(d)],
        "t_basis": unit,
        "eval_matrix": [[1] * d],
    }


def unit_cube(n: int) -> DelzantPolytope:
    """0 <= x_i <= 1, top facets labelled 'top{i}'."""
    facets = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        facets.append(Facet(e, 0, label=f"bot{i}"))
        facets.append(Facet(tuple(-x for x in e), -1, label=f"top{i}"))
    return DelzantPolytope(n, tuple(facets))


@functools.cache
def tower_rounds() -> tuple[DelzantPolytope, ...]:
    """Rounds 1-8 of the 2D tower over the simplex's hyp facet, eps = 4^-r."""
    state = start_tower(unit_simplex(2), "hyp")
    rounds = []
    for r in range(1, 9):
        state = tower_step(state, Fraction(1, 4**r))
        rounds.append(state.polytope)
    return tuple(rounds)


def count_fractions(monkeypatch) -> list:
    """Patch ``Fraction`` so that every one built is logged in the list
    returned; ``monkeypatch.undo()`` stops the count.  Fraction arithmetic
    builds through ``__new__``, or through ``_from_coprime_ints`` on
    Python 3.12 and later."""
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
    return built


def row_claim(records):
    """The claim ``DelzantPolytope._from_claimed_vertices`` takes, from a
    list of ``Vertex`` records: one scale, the points' int rows over it,
    and their tight sets, in the records' order."""
    scale = math.lcm(*[Fraction(x).denominator for v in records for x in v.point])
    rows = [tuple(int(x * scale) for x in v.point) for v in records]
    return scale, rows, [v.active for v in records]


def vertex_scan(normals, offsets):
    """The vertices cut out by n independent facets, the C(m, n) scan, as
    the claim ``_set_vertices`` takes: a scale, int rows over it, tight
    sets; None when no n-subset cuts out a feasible point.  The oracle of
    the constructor's vertex walk.

    Each facet is its integer height row (q u, p) for c = p / q, and each
    n-subset is one fraction-free elimination (``solve_int``): it gives
    the point as y / d with d > 0, so the feasibility <q u, y> >= p d is
    tested in int, and the rows where it holds with equality are the
    point's tight set.  A point that several subsets cut out is recorded
    once, keyed on (y, d) in lowest terms, and every point is put over the
    lcm of the d.
    """
    heights = _height_rows(normals, offsets, 1)
    rows = [(*u, rhs) for u, rhs in heights]
    found = {}
    for subset in itertools.combinations(rows, len(normals[0])):
        solved = solve_int(subset)
        if solved is None:
            continue
        y, d = solved
        active = []
        for i, (u, rhs) in enumerate(heights):
            slack = sum(map(mul, u, y)) - rhs * d
            if slack < 0:
                break
            if not slack:
                active.append(i)
        else:
            g = math.gcd(d, *y)
            found.setdefault((tuple(x // g for x in y), d // g), tuple(active))
    if not found:
        return None
    scale = math.lcm(*[d for _, d in found])
    return scale, [tuple(x * (scale // d) for x in y) for y, d in found], list(found.values())


def cone_oracle(poly: DelzantPolytope) -> list:
    """Each vertex's edge generators by Delzant's rule, the oracle of
    ``DelzantPolytope.cones``: at a simple vertex with unimodular active
    normals N, the columns of N^-1 in the order of the active facets, so
    generator i leaves the i-th of them; None at any other vertex.  It
    reads the normals alone, neither the vertex table nor the edges."""
    generators = []
    for active in poly.vertex_facets:
        cone = None
        if len(active) == poly.dim:
            try:
                cone = tuple(zip(*inverse_unimodular([poly.facets[i].normal for i in active])))
            except NotUnimodular:
                pass
        generators.append(cone)
    return generators


def hostile_document(m: int) -> dict:
    """A 4D polytope document of m facets: distinct primitive normals with
    entries in [-3, 3], drawn by ``random.Random(m)``, each at offset -1.
    The origin is interior and most facets are redundant.  At m = 40 there
    are C(40, 4) = 91390 subsets of 4 facets, so a constructor that
    refuses it in bounded time must not visit them all."""
    rng = random.Random(m)
    normals = []
    while len(normals) < m:
        u = tuple(rng.randint(-3, 3) for _ in range(4))
        if is_primitive(u) and u not in normals:
            normals.append(u)
    return {"dim": 4, "facets": [{"normal": list(u), "offset": -1} for u in normals]}


def product_document(*factors: DelzantPolytope) -> dict:
    """The document of the product of these polytopes: each factor's
    facets, their normals padded with zeros on the other factors'
    coordinates, factor by factor.  A label l of factor k becomes "k.l".
    A product of Delzant polytopes is Delzant, and its moments follow from
    the factors' by Fubini."""
    dim = sum(p.dim for p in factors)
    facets, before = [], 0
    for k, p in enumerate(factors):
        for f in p.facets:
            entry = {
                "normal": [0] * before + list(f.normal) + [0] * (dim - before - p.dim),
                "offset": str(f.offset),
            }
            if f.label is not None:
                entry["label"] = f"{k}.{f.label}"
            facets.append(entry)
        before += p.dim
    return {"dim": dim, "facets": facets}


def hexagon() -> DelzantPolytope:
    """The Delzant hexagon 0 <= x, y <= 2, 1 <= x + y <= 3."""
    normals = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    offsets = (0, 1, 0, -2, -3, -2)
    return DelzantPolytope(2, tuple(Facet(u, c) for u, c in zip(normals, offsets)))


def interval(a, b) -> DelzantPolytope:
    return DelzantPolytope(
        1, (Facet((1,), Fraction(a), label="lo"), Facet((-1,), -Fraction(b), label="hi"))
    )


@pytest.fixture
def cold_store():
    """Empty both stores, the moment store's one polytope and the checks'
    one facet side, before the test, so no result depends on test order;
    the test calls the returned function for another cold start."""

    def clear():
        moments._triangulate.cache_clear()
        obstruction._facet_sides.clear()

    clear()
    return clear


@pytest.fixture
def triangle() -> DelzantPolytope:
    return unit_simplex(2)


@pytest.fixture
def square() -> DelzantPolytope:
    return unit_cube(2)


@pytest.fixture
def simplex3() -> DelzantPolytope:
    return unit_simplex(3)
