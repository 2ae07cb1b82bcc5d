"""Exact linear algebra against a symbolic oracle.

sympy recomputes determinants, solutions, ranks, and null spaces
independently; everything is compared as exact rationals.  The Fraction
Gauss-Jordan ``rref`` and the Hermite normal form in conftest are the
oracles for the fraction-free elimination and the column Euclid.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    affine_rank,
    hermite_normal_form,
    is_positive_definite,
    leading_principal_minors,
    mat_mul,
    rref,
    rref_nullspace,
)
from cuspcheck.errors import DimensionMismatch, NotUnimodular
from cuspcheck.linalg import (
    _eliminate,
    complete_primitive,
    det_int,
    dot,
    identity_int,
    inverse_unimodular,
    is_primitive,
    mat_vec,
    nullspace,
    pivot_columns,
    project_onto_columns,
    rank,
    row_basis,
    solve_linear,
)

_RNG = random.Random(20260818)


def _rand_int_matrix(n, m, lo=-6, hi=6):
    return tuple(tuple(_RNG.randint(lo, hi) for _ in range(m)) for _ in range(n))


def _to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_det_matches_sympy(n):
    for _ in range(25):
        m = _rand_int_matrix(n, n)
        assert det_int(m) == int(_to_sympy(m).det())
    # A zero first column has no pivot, so the elimination skips it.
    for _ in range(5):
        assert det_int(tuple((0, *row[1:]) for row in _rand_int_matrix(n, n))) == 0


def test_det_two_by_two_matches_the_elimination():
    # det_int takes 2 x 2 input in closed form, past _eliminate; the two
    # must agree, also where the matrix is singular: a zero row or column,
    # or one row a multiple of the other.
    singular = 0
    for _ in range(400):
        m = [list(row) for row in _rand_int_matrix(2, 2)]
        kind = _RNG.randrange(4)
        if kind == 1:
            m[1] = [_RNG.randint(-3, 3) * x for x in m[0]]
        elif kind == 2:
            m[_RNG.randrange(2)] = [0, 0]
        elif kind == 3:
            col = _RNG.randrange(2)
            m[0][col] = m[1][col] = 0
        pivots, d = _eliminate([row[:] for row in m], 2)
        expected = d if len(pivots) == 2 else 0
        assert det_int(m) == det_int(tuple(map(tuple, m))) == expected
        singular += expected == 0
    assert singular >= 100


def test_det_three_by_three_matches_the_elimination():
    # det_int takes 3 x 3 input in closed form too; singular kinds: a row a
    # combination of the other two, a zero row, a zero column.  Its own
    # generator leaves the draws of the other tests as they were.
    rng = random.Random(333)
    singular = 0
    for _ in range(400):
        m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        kind = rng.randrange(4)
        if kind == 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[2] = [a * x + b * y for x, y in zip(m[0], m[1])]
            rng.shuffle(m)
        elif kind == 2:
            m[rng.randrange(3)] = [0, 0, 0]
        elif kind == 3:
            col = rng.randrange(3)
            for row in m:
                row[col] = 0
        pivots, d = _eliminate([row[:] for row in m], 3)
        expected = d if len(pivots) == 3 else 0
        assert det_int(m) == det_int(tuple(map(tuple, m))) == expected
        singular += expected == 0
    assert singular >= 100


def test_det_four_by_four_matches_the_elimination():
    # The closed 4 x 4 form against _eliminate; singular kinds as for 3 x 3,
    # with the dependent row a combination of two or of all three others.
    rng = random.Random(444)
    singular = 0
    for _ in range(400):
        m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        kind = rng.randrange(5)
        if kind in (1, 2):
            coeffs = [rng.randint(-3, 3) for _ in range(kind + 1)]
            m[3] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(4)]
            rng.shuffle(m)
        elif kind == 3:
            m[rng.randrange(4)] = [0, 0, 0, 0]
        elif kind == 4:
            col = rng.randrange(4)
            for row in m:
                row[col] = 0
        pivots, d = _eliminate([row[:] for row in m], 4)
        expected = d if len(pivots) == 4 else 0
        assert det_int(m) == det_int(tuple(map(tuple, m))) == expected
        singular += expected == 0
    assert singular >= 100


def test_solve_matches_sympy():
    for n in (1, 2, 3, 4):
        for _ in range(15):
            a = _rand_int_matrix(n, n)
            b = tuple(Fraction(_RNG.randint(-6, 6)) for _ in range(n))
            got = solve_linear(a, b)
            sa, sb = _to_sympy(a), _to_sympy([b]).T
            if sa.det() == 0:
                # singular systems answer None whether or not a solution exists
                if got is not None:
                    assert mat_vec(a, got) == b
                continue
            expected = sa.LUsolve(sb)
            assert got is not None
            assert list(got) == [Fraction(str(x)) for x in expected]


def test_solve_singular_inconsistent_is_none():
    a = ((1, 1), (1, 1))
    assert solve_linear(a, (Fraction(0), Fraction(1))) is None


def test_solve_singular_with_zero_first_column_is_none():
    a = ((0, 1, 2), (0, 3, 1), (0, -1, 4))
    assert solve_linear(a, (Fraction(1), Fraction(2), Fraction(3))) is None
    assert solve_linear(a, (Fraction(0), Fraction(0), Fraction(0))) is None


def test_rank_and_rref_match_sympy():
    for shape in ((2, 3), (3, 3), (4, 2), (3, 5)):
        for _ in range(15):
            m = _rand_int_matrix(*shape)
            sm = _to_sympy(m)
            assert rank(m) == sm.rank()
            reduced, pivots = rref(m)
            s_reduced, s_pivots = sm.rref()
            assert pivots == tuple(s_pivots)
            assert [list(r) for r in reduced] == [
                [Fraction(str(x)) for x in s_reduced.row(i)]
                for i in range(s_reduced.rows)
            ]


# Denominators mix small primes with powers of 4, as chop towers with
# eps = 4^-r produce them.
_DENOMINATORS = (1, 2, 3, 5, 4**3, 4**6, 7 * 4**2)
_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENOMINATORS))


@st.composite
def _rational_rows(draw, count, width):
    """count rows of length width: random, zero, repeated, or a combination of earlier rows."""
    rows = []
    for _ in range(count):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero":
            row = (Fraction(0),) * width
        elif kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "combination" and rows:
            a, b = draw(_RATIONALS), draw(_RATIONALS)
            r, t = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = tuple(a * x + b * y for x, y in zip(r, t))
        else:
            row = tuple(draw(_RATIONALS) for _ in range(width))
        rows.append(row)
    return tuple(rows)


@st.composite
def _rational_matrices(draw):
    """Empty, 1 x n, wide and tall rational matrices with dependent rows."""
    return draw(_rational_rows(draw(st.integers(0, 7)), draw(st.integers(1, 6))))


@given(m=_rational_matrices())
@example(m=())
@example(m=((Fraction(0), Fraction(0), Fraction(0)),))
@example(m=((Fraction(1, 4**6), Fraction(-3, 5), Fraction(0), Fraction(7, 64)),))
@example(m=((Fraction(0), Fraction(2), Fraction(1)), (Fraction(0), Fraction(4), Fraction(2))))
@settings(max_examples=150, deadline=None)
def test_rank_matches_rref_and_sympy_on_rational_matrices(m):
    expected = len(rref(m)[1])
    assert rank(m) == expected
    assert expected == (_to_sympy(m).rank() if m else 0)
    # The fraction-free elimination against Fraction Gauss-Jordan: the
    # same pivot columns and, exactly, the same canonical null space.
    ncols = len(m[0]) if m else 3
    assert pivot_columns(m) == rref(m)[1]
    assert nullspace(m, ncols=ncols) == rref_nullspace(m, ncols)


def _affine_rank_by_differences(points):
    # The route affine_rank replaced: rref of the differences to the first point.
    if not points:
        return -1
    base = points[0]
    return len(rref([tuple(x - y for x, y in zip(p, base)) for p in points[1:]])[1])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_affine_rank_matches_differences_on_rational_points(data):
    n = data.draw(st.integers(1, 5))
    points = data.draw(_rational_rows(data.draw(st.integers(0, 7)), n))
    assert affine_rank(points) == _affine_rank_by_differences(points)


def test_nullspace_matches_sympy_span():
    for shape in ((2, 4), (3, 3), (1, 3)):
        for _ in range(15):
            m = _rand_int_matrix(*shape)
            basis = nullspace(m)
            assert len(basis) == shape[1] - rank(m)
            for v in basis:
                assert all(x == 0 for x in mat_vec(m, v))
            # spans: every sympy nullspace vector stays in the span
            for sv in _to_sympy(m).nullspace():
                vec = tuple(Fraction(str(x)) for x in sv)
                assert rank(list(basis) + [vec]) == len(basis)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_row_basis_and_nullspace_match_sympy(n):
    # Square matrices past det_int's closed forms, half regular and half of
    # rank n - 2, row 1 in the span of rows 0 and 2 and the last in that
    # of rows 2 and 3.  row_basis names the first independent rows, the
    # pivots of the transpose's rref, and on a regular matrix B gives
    # sympy's det d and columns C with B C = d I, so adj B; nullspace
    # spans sympy's null space.
    rng = random.Random(2026 + n)
    for k in range(6):
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if k % 2:
            m[1] = [2 * a - b for a, b in zip(m[0], m[2])]
            m[-1] = [a + 3 * b for a, b in zip(m[2], m[3])]
        s = _to_sympy(m)
        pivots, d, cols = row_basis(m)
        assert pivots == list(s.T.rref()[1])
        if len(pivots) == n:
            assert d == s.det() != 0
            assert s * sympy.Matrix(cols).T == d * sympy.eye(n)
        else:
            assert len(pivots) == n - 2 and (d, cols) == (0, None)
        basis = nullspace(m)
        assert len(basis) == n - len(pivots) == len(s.nullspace())
        for v in basis:
            assert not any(mat_vec(m, v))
        for sv in s.nullspace():
            vec = tuple(Fraction(str(x)) for x in sv)
            assert rank(list(basis) + [vec]) == len(basis)


def test_nullspace_of_zero_row_needs_ncols():
    basis = nullspace((), ncols=3)
    assert len(basis) == 3
    with pytest.raises(DimensionMismatch):
        nullspace(())


def test_affine_rank_cases():
    assert affine_rank(()) == -1
    one = ((Fraction(2), Fraction(5)),)
    assert affine_rank(one) == 0
    collinear = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    assert affine_rank(collinear) == 1
    plane = collinear + ((Fraction(0), Fraction(1)),)
    assert affine_rank(plane) == 2


def test_projection_splits_orthogonally():
    for _ in range(25):
        d = _RNG.randint(1, 4)
        k = _RNG.randint(0, d)
        basis = [tuple(Fraction(_RNG.randint(-4, 4)) for _ in range(d)) for _ in range(k)]
        basis = [v for v in basis if any(v)]
        if rank(basis) != len(basis):
            continue
        y = tuple(Fraction(_RNG.randint(-4, 4)) for _ in range(d))
        proj, res = project_onto_columns(basis, y)
        assert tuple(p + r for p, r in zip(proj, res)) == y
        for v in basis:
            assert dot(v, res) == 0
        # proj in the span
        assert rank(list(basis) + [proj]) == rank(basis)


def test_dot_is_an_exact_fraction():
    for a, b, expected in (
        ((1, 2, 3), (4, 5, 6), 32),
        ((0, 0), (0, 0), 0),
        ((1, -2, 3), (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6)), Fraction(-2, 3)),
        ((), (), 0),
    ):
        result = dot(a, b)
        assert type(result) is Fraction
        assert result == expected
    with pytest.raises(DimensionMismatch):
        dot((1, 2), (1,))


def test_projection_empty_basis():
    y = (Fraction(3), Fraction(-1))
    proj, res = project_onto_columns((), y)
    assert proj == (Fraction(0), Fraction(0))
    assert res == y


def test_hermite_normal_form_properties():
    for shape in ((1, 2), (2, 2), (3, 3), (2, 4)):
        for _ in range(20):
            m = _rand_int_matrix(*shape)
            h, u = hermite_normal_form(m)
            assert det_int(u) in (1, -1)
            assert mat_mul(u, m) == tuple(tuple(Fraction(x) for x in row) for row in h)


def test_complete_primitive_matches_hermite_form_oracle():
    # The column Euclid makes the Hermite form's row operations, so on every
    # primitive vector of a small box it returns its transform's rows.
    for n, bound in ((1, 6), (2, 6), (3, 4), (4, 2)):
        for u in itertools.product(range(-bound, bound + 1), repeat=n):
            if not is_primitive(u):
                continue
            h, t = hermite_normal_form(tuple((x,) for x in u))
            assert h == ((1,),) + ((0,),) * (n - 1)
            assert complete_primitive(u) == (t[0], t[1:])


def test_complete_primitive_gives_unimodular_chart():
    for n in (1, 2, 3, 4):
        for _ in range(25):
            u = tuple(_RNG.randint(-7, 7) for _ in range(n))
            if not any(u) or not is_primitive(u):
                continue
            w, basis = complete_primitive(u)
            assert dot(u, w) == 1
            assert len(basis) == n - 1
            for b in basis:
                assert dot(u, b) == 0
            assert det_int((w, *basis)) in (1, -1)


def test_inverse_unimodular():
    t = ((1, 1), (0, 1))
    inv = inverse_unimodular(t)
    assert mat_mul(t, inv) == tuple(tuple(Fraction(x) for x in row) for row in identity_int(2))
    with pytest.raises(NotUnimodular):
        inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(NotUnimodular, match=r"^determinant 0 is not \+-1$"):
        inverse_unimodular(((0, 1, 2), (0, 3, 1), (0, -1, 4)))


def _random_unimodular(rng, n):
    # A product of random elementary row operations, a swap and a sign.
    t = [list(row) for row in identity_int(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        t[i] = [a + q * b for a, b in zip(t[i], t[j])]
    i, j = rng.sample(range(n), 2)
    t[i], t[j] = t[j], t[i]
    t[0] = [-a for a in t[0]]
    return tuple(tuple(row) for row in t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inverse_unimodular_inverts_random_unimodular(n):
    rng = random.Random(1968 + n)
    identity = tuple(tuple(Fraction(x) for x in row) for row in identity_int(n))
    for _ in range(25):
        t = _random_unimodular(rng, n)
        inv = inverse_unimodular(t)
        assert all(type(x) is int for row in inv for x in row)
        assert mat_mul(t, inv) == identity
        assert mat_mul(inv, t) == identity


def test_positive_definite_matches_numpy():
    import numpy as np

    for _ in range(30):
        n = _RNG.randint(1, 4)
        a = _rand_int_matrix(n, n)
        sym = tuple(
            tuple(Fraction(a[i][j] + a[j][i]) for j in range(n)) for i in range(n)
        )
        got = is_positive_definite(sym)
        eigs = np.linalg.eigvalsh(np.array(sym, dtype=float))
        expected = bool(eigs.min() > 1e-9)
        if abs(eigs.min()) > 1e-9:
            assert got == expected


def test_leading_principal_minors():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
    assert leading_principal_minors(m) == (Fraction(2), Fraction(3))
    assert is_positive_definite(m)
    assert not is_positive_definite(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
