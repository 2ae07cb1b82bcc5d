"""Exact linear algebra over the integers and rationals.

Every elimination is one fraction-free (Bareiss) row echelon form on
integer rows, ``_eliminate``, with one integer back substitution beside
it: determinants, linear solves, ranks, pivot columns, null spaces,
adjugates and unimodular inverses all read its pivots.  Each entry it
makes is a minor of the input, so the arithmetic stays in int; rational
rows are scaled to integers first, and Fractions appear only in the
answers.
``complete_primitive`` runs Euclid on its one column instead.  Matrices
are tuples of row tuples.  A square one has at most 8 rows, the
dimension limit ``polytope._MAX_DIM``, but a tall one can have many: the
vertex walk's ``row_basis`` runs on all m facet rows, 1026 of them at
round 10 of the 2D tower, as n rows of its transpose.  Exactness comes
first; the elimination's cost grows with m n^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, NotUnimodular

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def gcd_vector(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def is_primitive(v: Sequence[int]) -> bool:
    """True iff v is a nonzero integer vector with coprime entries."""
    return gcd_vector(v) == 1


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of length {len(a)} with length {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(dot(row, v) for row in m)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*m))


def identity_int(n: int) -> tuple[IntVector, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Pivots are sought in the first ``ncols`` columns, skipping a column
    with none; the later columns are carried along.  Every entry stays an
    integer, a minor of the input.  Returns the pivot columns and d, the
    last pivot times the sign of the row swaps (1 with no pivot): the
    determinant of the pivot block, so of a square matrix of full rank.
    """
    nrows = len(rows)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if rows[r][c] == 0:
            k = next((i for i in range(r + 1, nrows) if rows[i][c] != 0), None)
            if k is None:
                continue
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for row in rows[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign * prev


def _back_substitute(
    rows: list[list[int]], pivots: list[int], d: int, y: list[int], target: list[int]
) -> None:
    """Fill y at the pivot columns with d x, where x solves the echelon rows
    rows[r] . x = target[r] over the first len(y) columns, given d x in y
    at the other columns for an x integral there.  d is as ``_eliminate``
    returns it, so d x is integral by Cramer's rule and each division is
    exact.
    """
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        y[c] = (d * target[r] - sum(map(mul, row[c + 1 :], y[c + 1 :]))) // row[c]


def _clear_denominators(row: Sequence[Fraction | int]) -> list[int]:
    lcm = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (lcm // x.denominator) for x in row]


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, 1 if it is empty; one up
    to 4 x 4 in closed form.  Its callers take minors, so up to n = 5
    every one is closed-form: ``moments._minors`` the (n-1) x (n-1)
    minors of facet simplices and the (n-2) x (n-2) ones of ridge
    simplices, ``polytope._kernel_line`` the n signed maximal minors of
    n - 1 rows, and ``is_delzant`` the n x n determinant of the active
    normals that its message prints.  The 4 x 4 form expands along the
    first row and then the second, over the six 2 x 2 minors of the last
    two rows."""
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if len(m) == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(m) == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        s01, s02, s03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
        s12, s13, s23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
        return (
            a0 * (b1 * s23 - b2 * s13 + b3 * s12)
            - a1 * (b0 * s23 - b2 * s03 + b3 * s02)
            + a2 * (b0 * s13 - b1 * s03 + b3 * s01)
            - a3 * (b0 * s12 - b1 * s02 + b2 * s01)
        )
    rows = [list(row) for row in m]
    pivots, d = _eliminate(rows, len(rows))
    return d if len(pivots) == len(rows) else 0


def solve_int(rows: Sequence[Sequence[int]]) -> tuple[IntVector, int] | None:
    """Solve the n integer rows [A | b], of length n + 1, as A x = b.

    Returns (y, d) with d > 0 and x = y / d, so a caller can test x in
    int before it builds a Fraction; None if A is singular.
    """
    n = len(rows)
    aug = [list(row) for row in rows]
    pivots, d = _eliminate(aug, n)
    if len(pivots) < n:
        return None
    y = [0] * n
    _back_substitute(aug, pivots, d, y, [row[n] for row in aug])
    if d < 0:
        return tuple(-v for v in y), -d
    return tuple(y), d


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector | None:
    """Solve the square system a x = b exactly; None if a is singular.
    The rows [a | b] are scaled to integers for ``solve_int``."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve_linear needs a square system")
    solved = solve_int([_clear_denominators([*row, rhs]) for row, rhs in zip(a, b)])
    if solved is None:
        return None
    y, d = solved
    return tuple(Fraction(v, d) for v in y)


def pivot_columns(m: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """The pivot columns of a row echelon form of m, in order."""
    rows = [_clear_denominators(row) for row in m]
    return tuple(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Row rank: the number of pivot columns."""
    return len(pivot_columns(m))


def nullspace(m: Sequence[Sequence[Fraction]], ncols: int | None = None) -> tuple[Vector, ...]:
    """Deterministic rational basis of the right null space: one vector per
    non-pivot column, 1 there and 0 at the other non-pivot columns."""
    if m:
        ncols = len(m[0])
    elif ncols is None:
        raise DimensionMismatch("nullspace of empty matrix needs ncols")
    rows = [_clear_denominators(row) for row in m]
    pivots, d = _eliminate(rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            y = [0] * ncols
            y[free] = d
            _back_substitute(rows, pivots, d, y, [0] * len(pivots))
            basis.append(tuple(Fraction(v, d) for v in y))
    return tuple(basis)


def project_onto_columns(basis: Sequence[Sequence[Fraction]], y: Sequence[Fraction]) -> tuple[Vector, Vector]:
    """Orthogonal projection of y onto span of the given column vectors.

    ``basis`` is a sequence of columns with full column rank.  Returns
    (projection, residual), both exact; residual is orthogonal to every
    column under the standard inner product.
    """
    yv = tuple(Fraction(v) for v in y)
    if not basis:
        return tuple(Fraction(0) for _ in yv), yv
    cols = [tuple(Fraction(v) for v in col) for col in basis]
    if any(len(c) != len(yv) for c in cols):
        raise DimensionMismatch("projection basis and vector lengths differ")
    gram = [[dot(ci, cj) for cj in cols] for ci in cols]
    rhs = [dot(ci, yv) for ci in cols]
    coeffs = solve_linear(gram, rhs)
    if coeffs is None:
        raise DimensionMismatch("projection basis is rank deficient")
    proj = [Fraction(0)] * len(yv)
    for c, col in zip(coeffs, cols):
        for i, v in enumerate(col):
            proj[i] += c * v
    residual = tuple(a - b for a, b in zip(yv, proj))
    return tuple(proj), residual


def complete_primitive(u: Sequence[int]) -> tuple[IntVector, tuple[IntVector, ...]]:
    """Complete a primitive vector to a unimodular lattice frame.

    Returns (w, basis) with <u, w> = 1 and basis a Z-basis of the
    sublattice {z in Z^n : <u, z> = 0}; together [w, basis...] form a
    unimodular matrix.  Euclid runs on u as a column, each row operation
    applied to the identity too: the least nonzero entry (by size, then
    index) moves to the top and reduces the others by floor division,
    until the top entry is gcd(u) = +-1, whose sign is fixed last.  The
    frame then maps u to e_1: row 0 pairs to 1 with u, the others to 0.
    """
    if not is_primitive(u):
        raise ValueError(f"vector {tuple(u)} is not primitive")
    column = list(u)
    frame = [list(row) for row in identity_int(len(column))]
    while any(column[1:]):
        k = min((i for i, x in enumerate(column) if x), key=lambda i: (abs(column[i]), i))
        column[0], column[k] = column[k], column[0]
        frame[0], frame[k] = frame[k], frame[0]
        for i in range(1, len(column)):
            q = column[i] // column[0]
            column[i] -= q * column[0]
            frame[i] = [a - q * b for a, b in zip(frame[i], frame[0])]
    if column[0] < 0:
        frame[0] = [-a for a in frame[0]]
    return tuple(frame[0]), tuple(tuple(row) for row in frame[1:])


def row_basis(m: Sequence[Sequence[int]]) -> tuple[list[int], int, list[IntVector] | None]:
    """The first rows of an integer matrix with n columns that are
    linearly independent, from one row echelon form of its transpose
    beside I_n.  When they number n, also the determinant d of the square
    matrix B they make and the columns of adj B, B adj B = d I; else 0
    and None.  Back substitution on the identity's column j, over the
    pivot columns only, gives d times B^-T e_j, row j of adj B, so each
    division stays exact in int."""
    n, k = len(m[0]), len(m)
    rows = [[*col, *unit] for col, unit in zip(zip(*m), identity_int(n))]
    pivots, d = _eliminate(rows, k)
    if len(pivots) < n:
        return pivots, 0, None
    adj = [[0] * n for _ in range(n)]
    for r in range(n - 1, -1, -1):
        row = rows[r]
        later = [(row[c], s) for s, c in enumerate(pivots[r + 1 :], r + 1) if row[c]]
        for j, out in enumerate(adj):
            out[r] = (d * row[k + j] - sum(x * out[s] for x, s in later)) // row[pivots[r]]
    return pivots, d, [tuple(col) for col in zip(*adj)]


def inverse_unimodular(t: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Exact integer inverse of a matrix with determinant +-1: the
    adjugate that ``row_basis`` gives, over the determinant, which is the
    adjugate times it."""
    n = len(t)
    if any(len(row) != n for row in t):
        raise DimensionMismatch("matrix is not square")
    _, d, cols = row_basis(t)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant {d} is not +-1")
    return tuple(zip(*(tuple(d * v for v in col) for col in cols)))
