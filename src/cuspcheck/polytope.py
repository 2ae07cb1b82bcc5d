"""Delzant polytopes in halfspace form, with exact rational arithmetic.

A polytope is stored as {x : <u_i, x> >= c_i} with primitive integer
inward normals u_i and rational offsets c_i.  Construction validates
everything: non-emptiness, boundedness, full dimension, and that every
listed halfspace supports an actual facet.  Vertices are found at
construction time, so downstream code can treat a DelzantPolytope as a
fully checked immutable value.  The cone table ``cones`` stores each
vertex's edge generators (Delzant's construction) and edge neighbours
once for every caller.  Every build path reads it by one rule off the
verified edge graph (``_vertex_cones``): a simple vertex's edges end at
its neighbours in the integer vertex table, and no normals are
inverted.  A claim builds it at once, from the ridge map that its
open-edge test takes; a walked polytope builds it on first use.

The vertex data is stored once, in int: the integer vertex table
``scaled_vertices`` holds D, the lcm of the vertex denominators, and the
points D * v, sorted; ``vertex_facets`` holds each row's tight facets and
``facet_vertices`` the rows tight on each facet.  The public records of
``vertices`` are read off these tables on first use, and an error
message derives only the point it prints, as Fraction(x, D).

Every build path hands ``_set_vertices`` one claim: a scale, int rows
over it and their tight sets.  User input (direct construction,
``from_data``) finds them by a walk along edges (``_vertex_walk``) on
the facets' integer rows.  Phase 1, an exact simplex method with
Bland's rule, finds a first vertex or proves the input empty, and
hands over the point alone, since a basic feasible solution with t = 0
is already a vertex; when the normals do not span R^n there is no
vertex, and phase 1 runs on their pivot columns, so an input that is
not empty is then unbounded.  An edge leaves a vertex along the kernel
line of n - 1 of its tight rows, oriented into the cone of them all
(``_edge_line``, the one edge rule, which the open-edge test reads
too); at a simple vertex these lines are the columns of its tableau,
built fresh from its own tight rows (``_tableau``) or one pivot away
from a simple neighbour's.  From each vertex, one integer ratio test
per edge over the m rows gives the edge's other end, as y / d in lowest
terms, and its tight set; all are put over the lcm of the d.  The walk
is complete because the vertices
and bounded edges of a pointed polyhedron form a connected graph
(Balinski), and its work, bounded by ``_MAX_WALK_STEPS``, grows with the
edges it follows rather than with the C(m, n) subsets of facets.  A
polytope derived from a verified parent claims its rows instead
(``_from_claimed_vertices``): a corner chop (``blowup``) hands its
parent's rows and the created ones, over one scale, and claims no edge
generators; ``facet_polytope`` maps the parent's rows on the facet
through the dual of its chart frame, each tight on the parent's ridge
facets there.  Each named tight facet is checked in int and no point is
swept against every facet, so a derived build costs O(V * n^2), against
O(E * m) ratio-test reads for the walk's E edges.  User input is
decided by the walk alone: it is empty, its normals do not span, or an
edge the walk follows meets no row, a ray, which the walk refuses as it
meets it.  Only a claim runs the open-edge test, for a ridge of a
vertex's active facets tight at no other vertex that ``_edge_line``
takes as an edge: over a claimed polytope's bounded polyhedron it ends
in an unclaimed vertex.

``_set_vertices`` divides the gcd of the scale and every entry out, so
each table is the same whichever path built it; a chop hands rows over
the child's own scale, whose gcd is 1, and nothing is divided.  Every exact test of
vertices against facets reads it in int: a height <u, v> >= c is
<r u, D v> >= r D c, r being whatever of c's denominator D does not
clear.  These height rows over D are worked out once per build, by
``_set_vertices``, which checks each claimed tight facet on them and
returns them for ``_check_faces`` to test the barycentre on, as
<r u, sum(X)> = V (r D c) over the V rows X of the table; the polytope
does not keep them.  The cone table reads the same int table: an edge
e = X_j - X_k joins two rows that ``_set_vertices`` checked tight on
the ridge's facets, so one product <u, e> and one gcd per edge decide
unimodularity.  ``_set_vertices`` also records, as ``simple``, whether
every vertex has exactly n tight facets (a smooth polytope's do).
On a simple polytope a face cut out by k facets tight at one of its
vertices has codimension k (Ziegler, Lectures on Polytopes, ch. 2), so
the facet test, the ridge rule that ``facet_polytope`` and the divisor
check share and the triangulation of ``moments`` read faces off the
tight sets alone.  Otherwise they ask ``face_dim``, which gives a face's
dimension from the facets tight on all of it.  No rank of vertex points
is taken.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from . import schema
from .errors import (
    ChartMismatch,
    DegenerateFacet,
    DegeneratePolytope,
    DimensionMismatch,
    EmptyPolytope,
    InputValidationError,
    InvalidPolytope,
    InvariantViolation,
    PolytopeTooLarge,
    UnboundedPolytope,
)
from .linalg import (
    IntVector,
    Vector,
    complete_primitive,
    det_int,
    dot,
    gcd_vector,
    inverse_unimodular,
    is_primitive,
    mat_vec,
    pivot_columns,
    rank,
    row_basis,
    solve_linear,
    transpose,
)
from .rational import format_rational, format_rational_vector, parse_rational
from .record import Record


def _as_int_vector(values: Iterable, what: str) -> IntVector:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"{what} entries must be integers, got {v!r}")
        out.append(v)
    return tuple(out)


class Facet(Record):
    """One halfspace <normal, x> >= offset with a primitive inward normal."""

    normal: IntVector
    offset: Fraction
    label: str | None = None

    def __post_init__(self) -> None:
        normal = _as_int_vector(self.normal, "facet normal")
        if all(x == 0 for x in normal):
            raise DegenerateFacet("facet normal is the zero vector")
        if not is_primitive(normal):
            raise DegenerateFacet(f"facet normal {normal} is not primitive")
        offset = parse_rational(self.offset)
        if self.label is not None and not isinstance(self.label, str):
            raise TypeError(f"facet label must be a string, got {self.label!r}")
        if self.label == "":
            raise ValueError("facet label must be non-empty")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)


class Vertex(Record):
    """A vertex point together with the indices of all facets tight there."""

    point: Vector
    active: tuple[int, ...]


class VertexCone(NamedTuple):
    """Edges at a vertex, in the order of its active facets.

    Generator i is the primitive edge direction that leaves the i-th
    active facet, e / gcd(e) for the edge e to neighbour i in the integer
    vertex table, None unless the vertex is simple and unimodular;
    neighbour i indexes the edge's other end, None unless it is simple.
    """

    generators: tuple[IntVector, ...] | None
    neighbours: tuple[int, ...] | None


class FacetChart(Record):
    """Lattice-adapted affine chart of a facet hyperplane.

    Maps y in R^{n-1} to origin + sum_k y_k basis[k], which parametrises
    {<normal, x> = offset} so that the chart's Lebesgue measure is the
    lattice boundary measure of the facet.
    """

    facet_index: int
    normal: IntVector
    offset: Fraction
    origin: Vector
    basis: tuple[IntVector, ...]

    def to_ambient(self, y: Sequence[Fraction]) -> Vector:
        if len(y) != len(self.basis):
            raise DimensionMismatch(
                f"chart takes {len(self.basis)} coordinates, got {len(y)}"
            )
        point = list(self.origin)
        for coord, vec in zip(y, self.basis):
            c = Fraction(coord)
            for i, v in enumerate(vec):
                point[i] += c * v
        return tuple(point)

    def from_ambient(self, x: Sequence[Fraction]) -> Vector:
        xv = tuple(Fraction(v) for v in x)
        if len(xv) != len(self.origin):
            raise DimensionMismatch(
                f"chart is for ambient dimension {len(self.origin)}, got {len(xv)}"
            )
        if dot(self.normal, xv) != self.offset:
            raise ChartMismatch("point does not lie on the facet hyperplane")
        diff = tuple(a - b for a, b in zip(xv, self.origin))
        gram = [[dot(bi, bj) for bj in self.basis] for bi in self.basis]
        rhs = [dot(bi, diff) for bi in self.basis]
        y = solve_linear(gram, rhs)
        if y is None:
            raise InvariantViolation("chart basis vectors are dependent")
        return y


class DelzantReport(Record):
    """Outcome of the vertexwise Delzant test; falsy when violated."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


# What ``_ridge_ends`` returns: each ridge's ends, and each vertex's lists
# of them.
_Ridges = tuple[dict[tuple[int, ...], list[int]], list[list[list[int]]]]


def _height_rows(
    normals: Sequence[IntVector], offsets: Sequence[Fraction], scale: int
) -> list[tuple[IntVector, int]]:
    """Each facet test <u, x> >= c as <r u, X> >= r scale c on X = scale x.

    r is the part of c's denominator that ``scale`` does not clear, 1 when
    it clears it all, so both sides are ints and the comparison is exact.
    """
    rows = []
    for u, c in zip(normals, offsets):
        g = math.gcd(scale, c.denominator)
        r = c.denominator // g
        rows.append((u if r == 1 else tuple(r * x for x in u), c.numerator * (scale // g)))
    return rows


# The vertex walk's work is bounded, in steps: one per facet row that a
# ratio test reads, and at a degenerate vertex with A tight facets,
# |A| + n^2 per (n-1)-subset its loop tries, for the kernel line's n minors
# and its sign test over the A rows.  A polytope may have exponentially
# many vertices (McMullen's upper bound), so a short document could
# otherwise ask for exponential work.
# Reading back round 10 of the 2D tower (1026 facets) takes 1.06e6 steps
# and about a second (2-CPU Linux machine); round 11 would take 2.1e6.
_MAX_WALK_STEPS = 1_500_000

# Dimensions past this are refused before any vertex is sought, and
# moment configurations with longer points before any rank is taken.  Cost
# grows steeply with n even on small polytopes: a check of the divisor
# condition on the unit cube, 2n facets, takes 0.03 s in 6D, 0.3 s in 7D,
# 2.7 s in 8D and 34 s in 9D, and on the 40-dimensional unit simplex, a
# 6 kB document, 1.2 s (2-CPU Linux machine).
_MAX_DIM = 8


def _kernel_line(mat: Sequence[IntVector], n: int) -> IntVector | None:
    """The kernel line of n - 1 integer rows in R^n, read off their n
    signed maximal minors and divided by their gcd; None when the rows are
    dependent, as all the minors then vanish."""
    minors = [(-1) ** j * det_int([u[:j] + u[j + 1 :] for u in mat]) for j in range(n)]
    g = gcd_vector(minors)
    if g == 0:
        return None
    return tuple(x // g for x in minors)


def _ratio_test(slacks: Sequence[int], rates: Sequence[int]) -> tuple[int | None, list[int]]:
    """The rows that a move with these rates meets first, those with the
    least s_i / -r_i over r_i < 0, and the least of them (Bland's rule);
    (None, []) if no rate is negative, a ray."""
    k, ties = None, []
    for i, r in enumerate(rates):
        if r < 0:
            if k is None:
                k, ties = i, [i]
                continue
            # s_i / -r_i against s_k / -r_k, cross-multiplied.
            c = slacks[i] * rates[k] - slacks[k] * r
            if c > 0:
                k, ties = i, [i]
            elif not c:
                ties.append(i)
    return k, ties


def _pivot(
    cols: Sequence[Sequence[int]], d: int, tk: Sequence[int], p: int
) -> tuple[list[Sequence[int]], int]:
    """The columns and scale of a basis after its row p gives way to a row
    k: one fraction-free (Bareiss) step, each division by d exact.

    A basis is kept as columns c_l with <a_j, c_l> = d delta_jl over its
    rows a_j, d > 0, so the columns are the adjugate's up to one sign;
    ``tk`` holds the products <a_k, c_l>, tk[p] nonzero.  The new scale
    is |tk[p]|.  The step is linear in the columns, so it carries any
    entries appended to them, such as their products with other rows.
    """
    q = tk[p]
    col_p = cols[p]
    if q < 0:
        # Taking -c_p keeps the new scale positive.
        q, col_p = -q, [-y for y in col_p]
    new = [
        [(q * x - t * y) // d for x, y in zip(col, col_p)]
        if t
        # A column whose product with row k is 0 is only rescaled.
        else col if q == d else [q * x // d for x in col]
        for col, t in zip(cols, tk)
    ]
    new[p] = col_p
    return new, q


def _first_vertex(
    rows: Sequence[IntVector],
    rhs: Sequence[int],
    basis: list[int],
    d: int,
    cols: Sequence[IntVector],
    spend: Callable[[int], None],
) -> tuple[list[int], int, list[int]] | None:
    """A vertex of {x : <a_i, x> >= b_i}, or None if the system is empty.

    ``basis`` names n independent rows, of determinant d and adjugate
    columns ``cols`` (``row_basis``).  Their common point y / d is the
    vertex if it is feasible.  Otherwise phase 1 runs on (x, t): the basis
    rows as they are, every other row as <a_i, x> + t >= b_i, and t >= 0,
    from the basis and the most violated row, minimising t by the simplex
    method with Bland's rule on columns that ``_pivot`` updates.  The
    system is empty iff the least t is positive.  Otherwise the final
    basis is a basic feasible solution with t = 0, and x is a vertex
    (Chvatal, Linear Programming, ch. 8): its n + 1 independent rows are
    all tight at (x, 0), so whether or not t >= 0 is among them, the
    normals of the others have rank n.  At t = 0 the lifted slacks are
    the true ones.  Returns (y, d, slacks), x = y / d and the slacks
    <a_i, y> - b_i d in int; the caller works out the vertex's own
    tableau, as no basis is handed over.
    """
    n, m = len(basis), len(rows)
    if d < 0:
        d, cols = -d, [tuple(-x for x in col) for col in cols]
    at = [rhs[i] for i in basis]
    y = [sum(map(mul, at, coords)) for coords in zip(*cols)]
    slacks = [sum(map(mul, u, y)) - c * d for u, c in zip(rows, rhs)]
    spend(m)
    worst = min(slacks)
    if worst >= 0:
        return y, d, slacks
    k = slacks.index(worst)
    relaxed = [1] * m
    for i in basis:
        relaxed[i] = 0
    lifted = [(*u, e) for u, e in zip(rows, relaxed)] + [(0,) * n + (1,)]
    order = [*basis, k]
    cols = [(*col, -sum(map(mul, rows[k], col))) for col in cols] + [(0,) * n + (d,)]
    y = [*y, -worst]
    slacks = [s - e * worst for s, e in zip(slacks, relaxed)] + [-worst]
    while True:
        # Moving along column p changes t by its last entry over d.
        improving = [p for p in range(n + 1) if cols[p][n] < 0]
        if not improving:
            break
        p = min(improving, key=order.__getitem__)
        rates = [sum(map(mul, row, cols[p])) for row in lifted]
        spend(m + 1)
        k = _ratio_test(slacks, rates)[0]
        sk, rk = slacks[k], rates[k]
        y = [(sk * z - rk * x) // d for x, z in zip(y, cols[p])]
        slacks = [(sk * r - rk * s) // d for s, r in zip(slacks, rates)]
        cols, d = _pivot(cols, d, [sum(map(mul, lifted[k], col)) for col in cols], p)
        order[p] = k
    if slacks[m]:
        return None
    return y[:n], d, slacks[:m]


def _tableau(rows: Sequence[IntVector], tight: Sequence[int]) -> tuple[list[list[int]] | None, int]:
    """A vertex's tableau, built fresh from its own tight rows: at a simple
    vertex, whose n tight rows a_j are a basis, their adjugate columns c
    (``row_basis``), <a_j, c_l> = d delta_jl, with d made positive, each
    extended to (<a_i, c> over every row a_i, c), so a ratio test along c
    reads its first m entries and ``_pivot`` carries them along; (None, 0)
    at a degenerate vertex, which has none."""
    if len(tight) != len(rows[0]):
        return None, 0
    _, d, cols = row_basis([rows[i] for i in tight])
    if d < 0:
        d, cols = -d, [[-x for x in col] for col in cols]
    return [[*[sum(map(mul, u, col)) for u in rows], *col] for col in cols], d


def _edge_line(
    rows: Sequence[IntVector], ridge: Sequence[int], tight: Sequence[int], n: int
) -> IntVector | None:
    """The line of the ridge's rows (``_kernel_line``) as an edge leaves
    a vertex along it, oriented into the cone of the vertex's tight rows,
    <a_i, z> >= 0 for each; None if the rows are dependent or the line
    enters that cone neither way.  Scaling a row by a positive number
    changes neither the line nor a sign, so height rows and normals give
    the same answer."""
    z = _kernel_line([rows[i] for i in ridge], n)
    if z is None:
        return None
    signs = [sum(map(mul, rows[i], z)) for i in tight]
    if min(signs) >= 0:
        return z
    if max(signs) <= 0:
        return tuple(-x for x in z)
    return None


def _vertex_walk(
    normals: Sequence[IntVector], offsets: Sequence[Fraction]
) -> tuple[int, list[IntVector], list[tuple[int, ...]]]:
    """The vertices, as the claim ``_set_vertices`` takes: a scale, int
    rows over it and tight sets, found by a walk along bounded edges.

    Each facet is its integer height row (q u, p) for c = p / q.  The
    first n independent rows (``row_basis``) start ``_first_vertex``;
    none found raises EmptyPolytope.  Normals that do not span are then
    UnboundedPolytope: phase 1 runs on their pivot columns, whose image is
    the same, so it decides emptiness first.  Phase 1 hands over the first
    vertex's point and slacks, no basis.  From each vertex popped, every
    (n-1)-subset of its tight set whose kernel line leaves into the
    tangent cone (``_edge_line``) is an edge, and one ratio test over the
    m rows gives its other end and the end's tight set, or no end: the
    edge is a ray, and UnboundedPolytope names its direction, divided by
    its gcd.  So an unbounded input is refused at the first ray met, and
    its other vertices are never sought.  At a simple vertex the kernel
    lines are the adjugate columns of its tight rows: one ``_pivot`` away
    from a simple neighbour's, the fast path, and otherwise, at the first
    vertex or one reached from a degenerate vertex, a fresh ``_tableau``;
    at a degenerate vertex ``_edge_line`` takes each subset's signed
    maximal minors (``_kernel_line``).  A ridge is walked once: after a
    ratio test every (n-1)-subset of the rows tight along the whole line
    is done, and a vertex whose ridges are all done is not expanded, so
    its slacks and columns are never worked out.  Vertices are keyed on
    their tight sets, which determine them.  The walk finds every vertex,
    since the vertices and bounded edges of a pointed polyhedron form a
    connected graph (Balinski), and its work grows with the edges it
    walks, as in Avis and Fukuda's pivoting enumeration, not with
    C(m, n).  Past ``_MAX_WALK_STEPS`` steps it raises PolytopeTooLarge.
    """
    n = len(normals[0])
    heights = _height_rows(normals, offsets, 1)
    rows = [u for u, _ in heights]
    rhs = [c for _, c in heights]
    m = len(rows)
    left = _MAX_WALK_STEPS

    def spend(steps: int) -> None:
        nonlocal left
        left -= steps
        if left < 0:
            raise PolytopeTooLarge(
                f"the vertex walk exceeds its limit of {_MAX_WALK_STEPS} steps"
            )

    basis, d, cols = row_basis(rows)
    if len(basis) < n:
        kept = pivot_columns([rows[i] for i in basis])
        restricted = [tuple(u[j] for j in kept) for u in rows]
        if _first_vertex(restricted, rhs, *row_basis(restricted), spend) is None:
            raise EmptyPolytope("no point satisfies all facet inequalities")
        raise UnboundedPolytope("facet normals do not span the ambient space")
    first = _first_vertex(rows, rhs, basis, d, cols, spend)
    if first is None:
        raise EmptyPolytope("no point satisfies all facet inequalities")
    y, d, slacks = first
    tight = tuple(i for i, s in enumerate(slacks) if not s)
    g = math.gcd(d, *y)
    found = {tight: ([x // g for x in y], d // g)}
    slacks = [s // g for s in slacks]
    done: set[tuple[int, ...]] = set()
    # An entry is an edge's end, not yet expanded: its tight set, the state
    # (tight set, slacks, tableau columns and their scale, the basis'
    # |det|; None and 0 at a degenerate vertex) of the vertex it was reached from,
    # the edge's rates, the row k it met, the tableau column p it left
    # along (None from a degenerate vertex), and the gcd the end's point
    # was divided by.
    stack: list[tuple] = []

    def kernel_lines(tight):
        for ridge in itertools.combinations(tight, n - 1):
            spend(len(tight) + n * n)
            if ridge not in done:
                z = _edge_line(rows, ridge, tight, n)
                if z is not None:
                    yield ridge, z, None

    def expand(state, todo):
        # From a simple vertex, the edges leave along the columns in todo.
        tight, slacks, cols, _ = state
        y, d = found[tight]
        if cols is None:
            lines = kernel_lines(tight)
        else:
            lines = [(tight[:p] + tight[p + 1 :], cols[p][m:], p) for p in todo]
        for ridge, z, p in lines:
            spend(m)
            if p is None:
                rates = [sum(map(mul, u, z)) for u in rows]
                common = [i for i in tight if not rates[i]]
                done.update(itertools.combinations(common, n - 1))
            else:
                rates = cols[p][:m]
                common = ridge
                done.add(ridge)
            k, ties = _ratio_test(slacks, rates)
            if k is None:
                g = gcd_vector(z)
                raise UnboundedPolytope(
                    f"recession direction {tuple(x // g for x in z)} is unbounded"
                )
            end = tuple(sorted((*common, *ties)))
            if end in found:
                continue
            # The end is (y + (sk / -rk) z) / d.
            sk, rk = slacks[k], rates[k]
            point = [sk * z_i - rk * x for x, z_i in zip(y, z)]
            g = math.gcd(-rk * d, *point)
            found[end] = ([x // g for x in point], -rk * d // g)
            stack.append((end, state, rates, k, p, g))

    expand((tight, slacks, *_tableau(rows, tight)), range(n))
    while stack:
        tight, (parent, pslacks, pcols, pdet), rates, k, p, g = stack.pop()
        todo = ()
        if len(tight) == n:
            todo = [j for j in range(n) if tight[:j] + tight[j + 1 :] not in done]
            if not todo:
                continue
        # Its slacks are sk r - rk s over -rk d, divided by the same gcd.
        sk, rk = pslacks[k], rates[k]
        slacks = [(sk * r - rk * s) // g for s, r in zip(pslacks, rates)]
        if p is None or len(tight) != n:
            cols, det = _tableau(rows, tight)
        else:
            # A simple neighbour of a simple vertex is one pivot away.
            cols, det = _pivot(pcols, pdet, [col[k] for col in pcols], p)
            order = [*parent[:p], k, *parent[p + 1 :]]
            cols = [cols[j] for j in sorted(range(n), key=order.__getitem__)]
        expand((tight, slacks, cols, det), todo)
    scale = math.lcm(*[d for _, d in found.values()])
    return scale, [tuple(x * (scale // d) for x in y) for y, d in found.values()], list(found)


class DelzantPolytope(Record):
    """Compact full-dimensional rational polytope in halfspace form.

    The constructor raises EmptyPolytope, UnboundedPolytope,
    DegeneratePolytope, or DegenerateFacet rather than ever producing an
    invalid instance. The checks run in that order, so an empty
    description is reported as empty even when its recession data also
    looks unbounded.  The vertex walk alone decides the first two: phase
    1 finds no point, so empty, or finds one where the normals do not
    span, so unbounded; or an edge it follows meets no facet, a ray, so
    unbounded.  No ridge map and no open-edge test is run on user input.
    An input whose walk passes ``_MAX_WALK_STEPS`` before it meets a ray
    raises PolytopeTooLarge instead, once the walk passes it; so does a
    dimension over ``_MAX_DIM``, before any vertex is sought, on both
    build paths.

    Equality is on (dim, facets), whose hash each instance computes once,
    as ``moments`` looks a polytope up on every integral; a pickle leaves
    it out, since a str hash differs between processes.
    """

    dim: int
    facets: tuple[Facet, ...]

    def __post_init__(self) -> None:
        normals, offsets = self._check_facets()
        if not normals:
            raise UnboundedPolytope("facet normals do not span the ambient space")
        self._check_faces(self._set_vertices(*_vertex_walk(normals, offsets)))

    @classmethod
    def _from_claimed_vertices(
        cls,
        dim: int,
        facets: Sequence[Facet],
        scale: int,
        rows: Sequence[IntVector],
        tight: Sequence[tuple[int, ...]],
    ) -> "DelzantPolytope":
        """Build from claimed vertices, verified.

        The claim is the one ``_set_vertices`` takes: the points rows /
        ``scale``, and parallel to them each one's tight facets, in
        increasing order, which the caller derived from verified parent
        data; no edge generators are claimed.  The caller guarantees
        boundedness: ``facets`` must include those of a polytope.
        ``_set_vertices`` checks each claimed tight facet in int,
        O(V * n^2) in all, against O(E * m) for the walk.  Completeness
        is the open-edge test, run on this path only, since an edge from
        a claimed vertex to an unclaimed one is open, and a vertex set
        closed under edges is the whole vertex set: the graph of a
        polytope is connected (Balinski).  The cone table is then built at
        once, from the same ridge map (``_vertex_cones``), which checks
        that every point is a vertex.  Any failure raises
        InvariantViolation; the face checks of the walk path follow.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "facets", facets)
        poly._check_facets()
        if not rows:
            raise InvariantViolation("no vertices claimed for the polytope")
        heights = poly._set_vertices(scale, rows, tight)
        table = poly.scaled_vertices[1]
        if any(a == b for a, b in zip(table, table[1:])):
            raise InvariantViolation("a claimed vertex is listed twice")
        ridges = poly._ridge_ends()
        ridge = poly._open_edge(ridges)
        if ridge is not None:
            raise InvariantViolation(
                f"the edge on facets {list(ridge)} has 1 claimed endpoints, expected 2"
            )
        object.__setattr__(poly, "cones", poly._vertex_cones(ridges))
        poly._check_faces(heights)
        return poly

    def _check_facets(self) -> tuple[list[IntVector], list[Fraction]]:
        """Dimension (at most ``_MAX_DIM``), normal lengths, distinct
        normals and unique labels."""
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise DimensionMismatch(f"dimension must be a positive integer, got {self.dim!r}")
        if self.dim > _MAX_DIM:
            raise PolytopeTooLarge(f"dimension {self.dim} exceeds the limit of {_MAX_DIM}")
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        n = self.dim
        for i, f in enumerate(facets):
            if len(f.normal) != n:
                raise DimensionMismatch(
                    f"facet {i} has normal of length {len(f.normal)}, expected {n}"
                )
        # Report the least pair i < j of equal normals.
        first: dict[IntVector, int] = {}
        shared = []
        for j, f in enumerate(facets):
            i = first.setdefault(f.normal, j)
            if i != j:
                shared.append((i, j))
        if shared:
            i, j = min(shared)
            raise DegenerateFacet(
                f"facets {i} and {j} share the normal {facets[i].normal}"
            )
        labels = [f.label for f in facets if f.label is not None]
        if len(labels) != len(set(labels)):
            raise ValueError("facet labels must be unique")
        return [f.normal for f in facets], [f.offset for f in facets]

    def _set_vertices(
        self, scale: int, rows: Sequence[IntVector], tight: Sequence[tuple[int, ...]]
    ) -> list[tuple[IntVector, int]]:
        """Store the vertices rows / ``scale``, each tight on the facets
        its entry of ``tight`` names, as the integer vertex table
        ``scaled_vertices``, the tight sets ``vertex_facets`` in table order,
        the incidence table ``facet_vertices``, the vertices tight on each
        facet, and ``simple``, whether every tight set has n facets.
        Returns the facets' height rows over the table's D
        (``_height_rows``), which the constructor hands to
        ``_check_faces``; they are not kept.

        This is the one vertex contract of every build path, and these
        tables are the only vertex data stored; the records of ``vertices``
        are read off them.  The table is D, ``scale`` with its gcd with
        every entry divided out, so the lcm of the vertex denominators, and
        the points D * v, sorted; the rows are divided only when that gcd
        is above 1.  Each facet a tight set names is checked
        tight in int on its height row, and InvariantViolation, a defect of
        the caller, is raised otherwise; no point is swept against every
        facet.
        """
        g = math.gcd(scale, *itertools.chain.from_iterable(rows))
        if g > 1:
            scale //= g
            rows = [tuple(x // g for x in row) for row in rows]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        table = tuple(tuple(rows[k]) for k in order)
        heights = _height_rows(
            [f.normal for f in self.facets], [f.offset for f in self.facets], scale
        )
        incidence: list[list[int]] = [[] for _ in heights]
        for k, (j, row) in enumerate(zip(order, table)):
            for i in tight[j]:
                u, rhs = heights[i]
                if sum(map(mul, u, row)) != rhs:
                    point = format_rational_vector(Fraction(x, scale) for x in row)
                    raise InvariantViolation(f"claimed vertex {point} is not tight on facet {i}")
                incidence[i].append(k)
        object.__setattr__(self, "scaled_vertices", (scale, table))
        object.__setattr__(self, "vertex_facets", tuple(tight[j] for j in order))
        object.__setattr__(self, "simple", all(len(t) == self.dim for t in tight))
        object.__setattr__(self, "facet_vertices", tuple(map(frozenset, incidence)))
        return heights

    def _vertex_cones(self, ridges: _Ridges) -> tuple[VertexCone, ...]:
        """One VertexCone per vertex, read off the edge graph of a verified
        vertex set (the walk's, which met no ray, or a claim with no open
        edge) and its ridge map ``_ridge_ends``.

        A simple vertex k has edge i on the ridge active - {a_i}, and
        neighbour i is that ridge's other end.  On a verified vertex set
        each such ridge has two ends; a claimed point that makes a third
        leaves the vertex unread, and the point's own rank test refuses
        it.  Both ends are tight on the ridge's facets, checked in int by
        ``_set_vertices``, so the edge e = X_j - X_k of the integer table
        has <u_a, e> = 0 for a != a_i: over the active normals N and the
        primitive edge directions G, N G is diagonal, with positive
        integers on it.  So N is unimodular iff each is 1, that is iff
        <u_{a_i}, e> = gcd(e) for every i, and then generator i is
        e / gcd(e), with no identity check.  A vertex that gets no
        generators must still have active normals of rank n.
        """
        n = self.dim
        normals = [f.normal for f in self.facets]
        table = self.scaled_vertices[1]
        cones = []
        for k, (active, side) in enumerate(zip(self.vertex_facets, ridges[1])):
            generators = neighbours = None
            if len(active) == n and all(len(ends) == 2 for ends in side):
                # combinations drop the last active facet first.
                neighbours = tuple(sum(ends) - k for ends in reversed(side))
                edges = []
                for a, j in zip(active, neighbours):
                    e = tuple(map(sub, table[j], table[k]))
                    t = sum(map(mul, normals[a], e))
                    if t != math.gcd(*e):
                        break
                    edges.append(tuple(x // t for x in e))
                else:
                    generators = tuple(edges)
            if generators is None and rank([normals[i] for i in active]) != n:
                raise InvariantViolation(
                    f"claimed point {format_rational_vector(self._point(k))} is not a vertex"
                )
            cones.append(VertexCone(generators, neighbours))
        return tuple(cones)

    def _check_faces(self, heights: Sequence[tuple[IntVector, int]]) -> None:
        """Full dimension, and an (n-1)-dimensional face on every facet.

        ``heights`` are the facets' height rows over the table's D that
        ``_set_vertices`` returned, (r u, r D c) for <u, x> >= c.  The
        barycentre sum(X) / (V D) of the integer table lies on a facet iff
        <r u, sum(X)> = V (r D c), read on those rows; once it lies on
        none, each facet's face must have dimension n - 1: on a simple
        polytope, any facet tight at a vertex has it, else ``face_dim`` of
        the facet's vertices in the incidence table must be n - 1.  Both
        constructors call this last, after the walk, or a claim's open-edge
        test and cone table, have verified the vertex set that ``face_dim``
        relies on; a facet polytope's vertices come verified from its
        parent.
        """
        table = self.scaled_vertices[1]
        total = [sum(column) for column in zip(*table)]
        count = len(table)
        for u, rhs in heights:
            if sum(map(mul, u, total)) == count * rhs:
                raise DegeneratePolytope(
                    "polytope is not full-dimensional: it lies in a facet hyperplane"
                )
        for i, face in enumerate(self.facet_vertices):
            full = bool(face) if self.simple else self.face_dim(face) == self.dim - 1
            if not full:
                raise DegenerateFacet(
                    f"facet {i} does not support an (n-1)-dimensional face"
                )

    def face_dim(self, face: Iterable[int]) -> int:
        """Dimension of the face with these vertex indices, -1 if empty:
        n minus the rank of the normals of the facets tight on all of it,
        which cut out its affine hull (Ziegler, Lectures on Polytopes,
        ch. 2), or minus their number if a vertex of the face is simple.
        Valid only on the verified vertex set of a full-dimensional
        polytope, so ``_check_faces`` runs last in both constructors.  The
        package's own callers ask it only on a polytope that is not
        ``simple``: on a simple one every face they test is cut out at a
        vertex by the facets they name.
        """
        active = [self.vertex_facets[k] for k in face]
        if not active:
            return -1
        common = set(active[0]).intersection(*active[1:])
        if any(len(a) == self.dim for a in active):
            return self.dim - len(common)
        return self.dim - rank([self.facets[i].normal for i in common])

    def _ridge_ends(self) -> _Ridges:
        """Each (n-1)-subset of a vertex's active facets, mapped to the
        indices of the vertices tight on all of it; and, per vertex, those
        lists of its subsets, in ``itertools.combinations`` order, made in
        the same pass."""
        ends: dict[tuple[int, ...], list[int]] = {}
        sides = []
        for k, active in enumerate(self.vertex_facets):
            side = []
            for ridge in itertools.combinations(active, self.dim - 1):
                tight = ends.setdefault(ridge, [])
                tight.append(k)
                side.append(tight)
            sides.append(side)
        return ends, sides

    def _open_edge(self, ridges: _Ridges) -> tuple[int, ...] | None:
        """The first ridge tight at one vertex only whose kernel line z
        leaves it into the polytope, <u, z> of one sign over the vertex's
        active normals u; None if there is none.  The test is the walk's
        own, ``_edge_line``, here on the normals rather than the height
        rows, which are positive multiples of them.

        The completeness test of a claim: over a bounded polyhedron the
        edge along that line has an end that is not claimed.  User input
        never runs it, as the walk meets each ray itself.  Only one-ended
        ridges pay for the kernel line, which dependent normals do not
        have.
        """
        n = self.dim
        normals = [f.normal for f in self.facets]
        for ridge, tight in ridges[0].items():
            if len(tight) != 1:
                continue
            if _edge_line(normals, ridge, self.vertex_facets[tight[0]], n) is not None:
                return ridge
        return None

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.facets))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @functools.cached_property
    def cones(self) -> tuple[VertexCone, ...]:
        """The cone table, parallel to the vertex table: set by a claimed
        build, built on first use after a walk."""
        return self._vertex_cones(self._ridge_ends())

    @functools.cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertex records, lexicographic by point, read off the tables
        on first use."""
        return tuple(
            Vertex(self._point(k), active) for k, active in enumerate(self.vertex_facets)
        )

    def _point(self, k: int) -> Vector:
        """Vertex k of the table as a point, for a record or a message."""
        scale, table = self.scaled_vertices
        return tuple(Fraction(x, scale) for x in table[k])

    def contains(self, point: Sequence[Fraction], strict: bool = False) -> bool:
        p = tuple(Fraction(x) for x in point)
        if len(p) != self.dim:
            raise DimensionMismatch(
                f"point has length {len(p)}, polytope dimension is {self.dim}"
            )
        if strict:
            return all(dot(f.normal, p) > f.offset for f in self.facets)
        return all(dot(f.normal, p) >= f.offset for f in self.facets)

    def resolve_facet(self, key: int | str) -> int:
        """Map a facet index or label to the facet's index."""
        if isinstance(key, bool):
            raise TypeError("facet key must be an index or a label")
        if isinstance(key, int):
            if not 0 <= key < len(self.facets):
                raise IndexError(f"facet index {key} out of range")
            return key
        for i, f in enumerate(self.facets):
            if f.label == key:
                return i
        raise KeyError(f"no facet labelled {key!r}")

    def to_data(self) -> dict:
        facets = []
        for f in self.facets:
            entry: dict = {"normal": list(f.normal), "offset": format_rational(f.offset)}
            if f.label is not None:
                entry["label"] = f.label
            facets.append(entry)
        return {"dim": self.dim, "facets": facets}

    @classmethod
    def from_data(cls, data: object) -> "DelzantPolytope":
        """Build from the JSON wire format, with pointer-tagged errors.

        Every rejection is an InputValidationError: malformed fields are
        reported at their own pointer, and a well-formed description that
        is not a polytope (empty, unbounded, degenerate, repeated normal
        or label) at the document root.
        """
        doc, errors = schema.load(
            "polytope-v1", data, lambda p, v: parse_rational(v) if p.endswith("/offset") else v
        )
        if doc is None:
            raise InputValidationError(errors)
        dim, facets = doc.get("dim"), []
        for i, entry in enumerate(doc.get("facets") or ()):
            normal = None if entry is None else entry.get("normal")
            if normal is None or None in normal:
                continue
            if dim is not None and len(normal) != dim:
                errors.append(
                    (f"/facets/{i}/normal", f"length {len(normal)} does not match dim {dim}")
                )
            elif "offset" in entry and None not in entry.values():
                try:
                    facets.append(Facet(**entry))
                except DegenerateFacet as exc:
                    errors.append((f"/facets/{i}", str(exc)))
        if errors:
            raise InputValidationError(errors)
        try:
            return cls(dim=dim, facets=tuple(facets))
        except (InvalidPolytope, DegenerateFacet, ValueError) as exc:
            raise InputValidationError([("", str(exc))]) from exc


def enumerate_vertices(poly: DelzantPolytope) -> tuple[Vertex, ...]:
    """All vertices with their active facet sets, lexicographic by point."""
    return poly.vertices


def is_delzant(poly: DelzantPolytope) -> DelzantReport:
    """Vertexwise smoothness test: every vertex has edge generators, that
    is, it is simple with unimodular active normals."""
    violations = []
    for k, (active, cone) in enumerate(zip(poly.vertex_facets, poly.cones)):
        if cone.generators is not None:
            continue
        point = tuple(format_rational_vector(poly._point(k)))
        if len(active) != poly.dim:
            violations.append(f"vertex {point} lies on {len(active)} facets, expected {poly.dim}")
            continue
        d = det_int([poly.facets[i].normal for i in active])
        violations.append(
            f"vertex {point} has active normal determinant {d}, expected +-1"
        )
    return DelzantReport(ok=not violations, violations=tuple(violations))


def apply_unimodular(
    poly: DelzantPolytope,
    matrix: Sequence[Sequence[int]],
    translation: Sequence[Fraction] | None = None,
) -> DelzantPolytope:
    """Image of the polytope under x -> matrix @ x + translation.

    The matrix must be integer with determinant +-1, so the transformed
    normals stay primitive and the Delzant property is preserved.
    """
    n = poly.dim
    rows = [_as_int_vector(row, "transform") for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"transform must be a {n}x{n} integer matrix")
    inv = inverse_unimodular(rows)
    shift = (
        tuple(Fraction(0) for _ in range(n))
        if translation is None
        else tuple(parse_rational(t) for t in translation)
    )
    if len(shift) != n:
        raise DimensionMismatch("translation length does not match dimension")
    inv_t = transpose(inv)
    new_facets = []
    for f in poly.facets:
        new_normal = tuple(int(x) for x in mat_vec(inv_t, f.normal))
        new_offset = f.offset + dot(new_normal, shift)
        new_facets.append(Facet(normal=new_normal, offset=new_offset, label=f.label))
    return DelzantPolytope(dim=n, facets=tuple(new_facets))


def _facet_chart(poly: DelzantPolytope, index: int) -> tuple[FacetChart, IntVector]:
    """The lattice chart of facet ``index`` and the frame vector w with
    <u, w> = 1 for its normal u: the frame [w, basis] is unimodular, and
    the chart's origin is c w on the facet <u, x> = c."""
    chosen = poly.facets[index]
    w, basis = complete_primitive(chosen.normal)
    chart = FacetChart(
        facet_index=index,
        normal=chosen.normal,
        offset=chosen.offset,
        origin=tuple(chosen.offset * x for x in w),
        basis=basis,
    )
    return chart, w


def _ridge_facets(poly: DelzantPolytope, index: int) -> list[int]:
    """The facets that meet facet ``index`` in a ridge, in increasing
    order.  Only a facet G tight at a vertex of F can; on a simple
    polytope each does, since F and G cut out a face of codimension 2 at
    that vertex, and otherwise G does when ``face_dim`` of F and G's
    common vertices is n - 2."""
    on_facet = poly.facet_vertices[index]
    near = sorted({j for k in on_facet for j in poly.vertex_facets[k]} - {index})
    if poly.simple:
        return near
    return [j for j in near if poly.face_dim(on_facet & poly.facet_vertices[j]) == poly.dim - 2]


def facet_polytope(
    poly: DelzantPolytope, facet: int | str
) -> tuple[DelzantPolytope, FacetChart]:
    """The facet as a polytope in its own lattice chart.

    The chart basis spans the facet hyperplane's lattice, so rational
    data transported through it keeps exact lattice normalisation. Only
    facets sharing a ridge with the chosen one contribute inequalities.

    The face is derived from the parent, not walked: its vertices are
    the parent's vertices on the facet, read in the chart from the integer
    vertex table.  On the facet <u, x> = c, x = c w + sum_k y_k basis[k],
    so y_k = <d_k, x> for the columns d_k, k >= 1, of the inverse of the
    unimodular frame [w, basis]: one inverse, in int, taken here only, as
    no other caller reads chart coordinates of points.  Each vertex's
    tight set is its parent's, less the facet, kept to the ridge facets
    and renumbered.  ``_from_claimed_vertices`` checks these claims in
    O(V * n^2) int work and builds the face's cone table from its own
    ridge map, so the chart frame is the one matrix inverted; the
    parent's cone table is not read.
    """
    n = poly.dim
    if n < 2:
        raise DimensionMismatch("facet polytopes need ambient dimension >= 2")
    index = poly.resolve_facet(facet)
    chosen = poly.facets[index]
    chart, w = _facet_chart(poly, index)
    duals = transpose(inverse_unimodular((w, *chart.basis)))[1:]
    induced = []
    ridges: dict[int, int] = {}
    for j in _ridge_facets(poly, index):
        other = poly.facets[j]
        ridges[j] = len(induced)
        coeffs = tuple(sum(map(mul, other.normal, b)) for b in chart.basis)
        # origin = c_F w, so <u_j, origin> = c_F <u_j, w>, in int.
        offset = other.offset - chosen.offset * sum(map(mul, other.normal, w))
        g = gcd_vector(coeffs)
        if g == 0:
            raise InvariantViolation(f"ridge facet {j} is parallel to the chart")
        induced.append(
            Facet(
                normal=tuple(x // g for x in coeffs),
                offset=offset / g,
                label=other.label,
            )
        )
    scale, table = poly.scaled_vertices
    on_facet = poly.facet_vertices[index]
    rows = [tuple(sum(map(mul, d, table[k])) for d in duals) for k in on_facet]
    tight = [tuple(ridges[j] for j in poly.vertex_facets[k] if j in ridges) for k in on_facet]
    return DelzantPolytope._from_claimed_vertices(n - 1, tuple(induced), scale, rows, tight), chart
