"""Exact linear algebra over the integers and rationals.

Everything here is deterministic and division-free where it matters:
integer determinants and linear solves go through fraction-free Bareiss
elimination, ranks through fraction-free elimination on rows scaled to
integers, lattice computations through a schoolbook Hermite normal form
with a tracked unimodular transform; only ``rref`` (null spaces, pivot
columns) works in Fractions.  Matrices are tuples of row tuples; sizes
are tiny (n <= 5 plus a handful of constraints), so asymptotics are
irrelevant next to exactness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InvariantViolation, NotUnimodular

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


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix via fraction-free Bareiss."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _clear_denominators(row: Sequence[Fraction | int]) -> list[int]:
    lcm = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (lcm // x.denominator) for x in row]


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector | None:
    """Solve the square system a x = b exactly; None if a is singular.

    Rows are scaled to integers, the forward pass is fraction-free
    Bareiss, back substitution reintroduces fractions.
    """
    n = len(a)
    if n == 0:
        return ()
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve_linear needs a square system")
    aug = [_clear_denominators(list(row) + [rhs]) for row, rhs in zip(a, b)]
    prev = 1
    for k in range(n - 1):
        if aug[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if aug[i][k] != 0), None)
            if pivot_row is None:
                return None
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                aug[i][j] = (aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = aug[k][k]
    if aug[n - 1][n - 1] == 0:
        return None
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return tuple(x)


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals, with pivot columns."""
    rows = [[Fraction(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
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


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Row rank by fraction-free elimination: each pass clears one pivot's
    column from the other integer rows, divides them by their gcd and drops
    the zero rows; the rank is the number of passes."""
    rows = [row for row in map(_clear_denominators, m) if any(row)]
    count = 0
    while rows:
        pivot = rows.pop()
        c = next(j for j, x in enumerate(pivot) if x)
        reduced = ([pivot[c] * x - row[c] * y for x, y in zip(row, pivot)] for row in rows)
        rows = [[x // g for x in row] for row in reduced if (g := gcd_vector(row))]
        count += 1
    return count


def nullspace(m: Sequence[Sequence[Fraction]], ncols: int | None = None) -> tuple[Vector, ...]:
    """Deterministic rational basis of the right null space."""
    if not m:
        if ncols is None:
            raise DimensionMismatch("nullspace of empty matrix needs ncols")
        return tuple(tuple(Fraction(1 if i == j else 0) for j in range(ncols)) for i in range(ncols))
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(tuple(vec))
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


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[tuple[IntVector, ...], tuple[IntVector, ...]]:
    """Row-style Hermite normal form with transform: U @ m = H, det(U) = +-1.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows sink to the bottom.  Deterministic.
    """
    nrows = len(m)
    h = [list(row) for row in m]
    u = [list(row) for row in identity_int(nrows)]
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


def complete_primitive(u: Sequence[int]) -> tuple[IntVector, tuple[IntVector, ...]]:
    """Complete a primitive vector to a unimodular lattice frame.

    Returns (w, basis) with <u, w> = 1 and basis a Z-basis of the
    sublattice {z in Z^n : <u, z> = 0}; together [w, basis...] form a
    unimodular matrix.  Built from the Hermite normal form of u viewed
    as an n x 1 column.
    """
    if not is_primitive(u):
        raise ValueError(f"vector {tuple(u)} is not primitive")
    column = tuple((x,) for x in u)
    h, t = hermite_normal_form(column)
    if h[0] != (1,) or any(row != (0,) for row in h[1:]):
        raise InvariantViolation("HNF of a primitive column must be e_1")
    # t @ u = e_1, so row 0 of t pairs to 1 with u and the other rows to 0.
    return t[0], t[1:]


def inverse_unimodular(t: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Exact integer inverse of a matrix with determinant +-1."""
    n = len(t)
    if any(len(row) != n for row in t):
        raise DimensionMismatch("matrix is not square")
    d = det_int(t)
    if d not in (1, -1):
        raise NotUnimodular(f"determinant {d} is not +-1")
    cols = []
    frac_rows = [tuple(Fraction(x) for x in row) for row in t]
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        col = solve_linear(frac_rows, e)
        if col is None:
            raise InvariantViolation(f"matrix of determinant {d} has no inverse")
        cols.append(tuple(int(x) for x in col))
    return tuple(zip(*cols))

