"""Delzant polytopes in halfspace form, with exact rational arithmetic.

A polytope is stored as {x : <u_i, x> >= c_i} with primitive integer
inward normals u_i and rational offsets c_i.  Construction validates
everything: non-emptiness, boundedness, full dimension, and that every
listed halfspace supports an actual facet.  Vertices are found at
construction time, so downstream code can treat a DelzantPolytope as a
fully checked immutable value.  The cone table ``cones``, built on first
use, stores each vertex's edge generators (Delzant's construction) and
edge neighbours once for every caller.

The vertex data is stored once, in int: the integer vertex table
``scaled_vertices`` holds D, the lcm of the vertex denominators, and the
points D * v, sorted; ``vertex_facets`` holds each row's tight facets and
``facet_vertices`` the rows tight on each facet.  The public records of
``vertices`` are read off these tables on first use, and an error
message derives only the point it prints, as Fraction(x, D).

Every build path hands ``_set_vertices`` one claim: a scale, int rows
over it and their tight sets.  User input (direct construction,
``from_data``) finds them by the C(m, n) scan over n-subsets of the m
facets: each point is y / d in lowest terms from a fraction-free
elimination, its tight set read off the integer heights its feasibility
test compares, and all are put over the lcm of the d.  When the normals
span R^n the polyhedron is pointed, so it is empty iff the scan finds no
vertex; when they do not, it is unbounded unless empty, and the same
scan over the normals' pivot columns decides which.  A polytope derived
from a verified parent claims its rows instead
(``_from_claimed_vertices``): a corner chop (``blowup``) hands its
parent's rows and the created ones, over one scale, with edge
generators; ``facet_polytope`` maps the parent's rows on the facet
through the dual of its chart frame, each tight on the parent's ridge
facets there.  Each named tight facet is checked in int and no point is
swept against every facet, so a derived build costs O(V * n^2), against
O(C(m, n) * m) for the scan.  Both paths run one open-edge test, for a
ridge of a vertex's active facets tight at no other vertex whose line
leaves the vertex into the polytope: over the scan's complete vertex set
it is a ray, and over a claimed polytope's bounded polyhedron it ends in
an unclaimed vertex.

``_set_vertices`` divides the gcd of the scale and every entry out, so
each table is the same whichever path built it.  Every exact test of
vertices against facets reads it in int: a height <u, v> >= c is
<r u, D v> >= r D c, r being whatever of c's denominator D does not
clear.  These height rows over D are worked out once per build, by
``_set_vertices``, which checks each claimed tight facet on them and
returns them for ``_check_faces`` to test the barycentre on, as
<r u, sum(X)> = V (r D c) over the V rows X of the table; the polytope
does not keep them.  A chop's claimed edge generators g_b are checked
in int too, as one flat list of the products <u_a, g_b> over a vertex's
tight normals u_a against the identity.  ``_set_vertices`` also
records, as ``simple``, whether every vertex has exactly n tight facets
(a smooth polytope's do).
On a simple polytope a face cut out by k facets tight at one of its
vertices has codimension k (Ziegler, Lectures on Polytopes, ch. 2), so
the facet test, the ridge rule that ``facet_polytope`` and the divisor
check share and the triangulation of ``moments`` read faces off the
tight sets alone.  Otherwise they ask ``face_dim``, which gives a face's
dimension from the facets tight on all of it.  No rank of vertex points
is taken.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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
    NotUnimodular,
    UnboundedPolytope,
)
from .linalg import (
    IntVector,
    Vector,
    complete_primitive,
    det_int,
    dot,
    gcd_vector,
    identity_int,
    inverse_unimodular,
    is_primitive,
    mat_vec,
    pivot_columns,
    rank,
    solve_int,
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
    active facet, None unless the vertex is simple and unimodular;
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


def _vertex_candidates(
    normals: Sequence[IntVector], offsets: Sequence[Fraction]
) -> tuple[int, list[IntVector], list[tuple[int, ...]]]:
    """The vertices cut out by n independent facets, the C(m, n) scan, as
    the claim ``_set_vertices`` takes: a scale, int rows over it, tight sets.

    Each facet is its integer height row (q u, p) for c = p / q, built
    once, and each n-subset is one fraction-free elimination
    (``solve_int``): it gives the point as y / d with d > 0, so the
    feasibility <q u, y> >= p d is tested in int, and the rows where it
    holds with equality are the point's tight set.  A point that several
    subsets cut out is recorded once, keyed on (y, d) in lowest terms, and
    every point is put over the lcm of the d.
    """
    heights = _height_rows(normals, offsets, 1)
    rows = [(*u, rhs) for u, rhs in heights]
    found: dict[tuple[IntVector, int], tuple[int, ...]] = {}
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
    scale = math.lcm(*[d for _, d in found])
    return scale, [tuple(x * (scale // d) for x in y) for y, d in found], list(found.values())


class DelzantPolytope(Record):
    """Compact full-dimensional rational polytope in halfspace form.

    The constructor raises EmptyPolytope, UnboundedPolytope,
    DegeneratePolytope, or DegenerateFacet rather than ever producing an
    invalid instance. The checks run in that order, so an empty
    description is reported as empty even when its recession data also
    looks unbounded.  One vertex scan decides the first two: no vertex
    means empty (or, for normals that do not span, a second scan over
    their pivot columns tells empty from unbounded), and an open edge at
    a vertex of the complete vertex set is a ray, so unbounded.

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
        claim = _vertex_candidates(normals, offsets)
        if not claim[1]:
            # Normals of full rank make the polyhedron pointed, so it is
            # empty exactly when it has no vertex.  Otherwise Ux ranges
            # over the same set as the pivot columns' U'y, a system of
            # full column rank, and the same scan decides it.
            pivots = pivot_columns(normals)
            restricted = [tuple(u[j] for j in pivots) for u in normals]
            if len(pivots) == self.dim or not _vertex_candidates(restricted, offsets)[1]:
                raise EmptyPolytope("no point satisfies all facet inequalities")
            raise UnboundedPolytope("facet normals do not span the ambient space")
        heights = self._set_vertices(*claim)[1]
        edge = self._open_edge(self._ridge_ends())
        if edge is not None:
            raise UnboundedPolytope(f"recession direction {edge[1]} is unbounded")
        self._check_faces(heights)

    @classmethod
    def _from_claimed_vertices(
        cls,
        dim: int,
        facets: Sequence[Facet],
        scale: int,
        rows: Sequence[IntVector],
        tight: Sequence[tuple[int, ...]],
        generators: Sequence[tuple[IntVector, ...] | None] | None = None,
    ) -> "DelzantPolytope":
        """Build from claimed vertices, verified.

        The claim is the one ``_set_vertices`` takes: the points rows /
        ``scale``, and parallel to them each one's tight facets, in
        increasing order, which the caller derived from verified parent
        data; ``generators``, parallel too, claims edge generators, None
        where there are none.  The caller guarantees boundedness:
        ``facets`` must include those of a polytope.  ``_set_vertices``
        checks each claimed tight facet in int, O(V * n^2) in all, against
        O(C(m, n) * m) for the scan.  Completeness is the open-edge test,
        since an edge from a claimed vertex to an unclaimed one is open, and
        a vertex set closed under edges is the whole vertex set: the graph
        of a polytope is connected (Balinski).  With ``generators`` the cone
        table is built at once, which checks them and that every point is a
        vertex; without, as for a facet polytope, whose vertices are its
        parent's, it waits for first use, as on the scan path.  Any failure
        raises InvariantViolation; the face checks of the scan path follow.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "facets", facets)
        poly._check_facets()
        if not rows:
            raise InvariantViolation("no vertices claimed for the polytope")
        order, heights = poly._set_vertices(scale, rows, tight)
        table = poly.scaled_vertices[1]
        if any(a == b for a, b in zip(table, table[1:])):
            raise InvariantViolation("a claimed vertex is listed twice")
        ends = poly._ridge_ends()
        edge = poly._open_edge(ends)
        if edge is not None:
            raise InvariantViolation(
                f"the edge on facets {list(edge[0])} has 1 claimed endpoints, expected 2"
            )
        if generators is not None:
            cones = poly._vertex_cones([generators[k] for k in order], ends)
            object.__setattr__(poly, "cones", cones)
        poly._check_faces(heights)
        return poly

    def _check_facets(self) -> tuple[list[IntVector], list[Fraction]]:
        """Dimension, normal lengths, distinct normals and unique labels."""
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise DimensionMismatch(f"dimension must be a positive integer, got {self.dim!r}")
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
    ) -> tuple[list[int], list[tuple[IntVector, int]]]:
        """Store the vertices rows / ``scale``, each tight on the facets
        its entry of ``tight`` names, as the integer vertex table
        ``scaled_vertices``, the tight sets ``vertex_facets`` in table order,
        the incidence table ``facet_vertices``, the vertices tight on each
        facet, and ``simple``, whether every tight set has n facets.
        Returns the index in ``rows`` of each table row, and the facets'
        height rows over the table's D (``_height_rows``), which the
        constructor hands to ``_check_faces``; they are not kept.

        This is the one vertex contract of every build path, and these
        tables are the only vertex data stored; the records of ``vertices``
        are read off them.  The table is D, ``scale`` with its gcd with
        every entry divided out, so the lcm of the vertex denominators, and
        the points D * v, sorted.  Each facet a tight set names is checked
        tight in int on its height row, and InvariantViolation, a defect of
        the caller, is raised otherwise; no point is swept against every
        facet.
        """
        g = math.gcd(scale, *itertools.chain.from_iterable(rows))
        scale //= g
        order = sorted(range(len(rows)), key=rows.__getitem__)
        table = tuple(tuple(x // g for x in rows[k]) for k in order)
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
        return order, heights

    def _vertex_cones(
        self,
        claimed: Sequence[tuple[IntVector, ...] | None],
        ends: dict[tuple[int, ...], list[int]],
    ) -> tuple[VertexCone, ...]:
        """One VertexCone per vertex, from claimed generators parallel to
        the table (None where none are claimed) and the ridge ends.

        A claim must satisfy <u_a, g_b> = delta_ab over the active normals,
        which holds only at a simple vertex with unimodular normals.  It is
        checked as one flat list of products, over the active facets a and
        then the generators b, against the identity flattened row by row;
        a claim of n generators gives n^2 products only at a vertex with n
        tight facets, so the list's length checks the shape that a nested
        comparison would.  Other generators are inverted from the normals,
        and normals that are not inverted must still have rank n.  With no
        open edge, a simple vertex's ridge active - {i} ends at it and at
        its neighbour only.
        """
        n = self.dim
        identity = list(itertools.chain.from_iterable(identity_int(n)))
        normals = [f.normal for f in self.facets]
        generators = []
        for k, (active, cone) in enumerate(zip(self.vertex_facets, claimed)):
            if cone is None and len(active) == n:
                with contextlib.suppress(NotUnimodular):
                    cone = transpose(inverse_unimodular([normals[i] for i in active]))
            elif cone is not None and (
                len(cone) != n
                or identity != [sum(map(mul, normals[i], g)) for i in active for g in cone]
            ):
                raise InvariantViolation(
                    "claimed vertex set fails the vertex test: edge generators "
                    f"{list(cone)} do not invert the normals of facets "
                    f"{list(active)} at {format_rational_vector(self._point(k))}"
                )
            if cone is None and rank([normals[i] for i in active]) != n:
                raise InvariantViolation(
                    f"claimed point {format_rational_vector(self._point(k))} is not a vertex"
                )
            generators.append(cone)
        cones = []
        for k, (active, cone) in enumerate(zip(self.vertex_facets, generators)):
            neighbours = None
            if len(active) == n:
                neighbours = tuple(sum(ends[active[:i] + active[i + 1 :]]) - k for i in range(n))
            cones.append(VertexCone(generators=cone, neighbours=neighbours))
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
        constructors call this last, after the open-edge test and the cone
        table have verified the vertex set that ``face_dim`` relies on; a
        facet polytope's vertices come verified from its parent.
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

    def _ridge_ends(self) -> dict[tuple[int, ...], list[int]]:
        """Each (n-1)-subset of a vertex's active facets, mapped to the
        indices of the vertices tight on all of it."""
        ends: dict[tuple[int, ...], list[int]] = {}
        for k, active in enumerate(self.vertex_facets):
            for ridge in itertools.combinations(active, self.dim - 1):
                ends.setdefault(ridge, []).append(k)
        return ends

    def _open_edge(
        self, ends: dict[tuple[int, ...], list[int]]
    ) -> tuple[tuple[int, ...], IntVector] | None:
        """The first ridge tight at one vertex only whose kernel line
        leaves it into the polytope, <u, z> >= 0 over the vertex's active
        normals, as (ridge, z); None if there is none.

        The edge along z then has no other vertex, so over a complete
        vertex set it is a ray, and over a bounded polyhedron its other end
        is missing.  Only one-ended ridges pay for the kernel line, read
        off the n signed maximal minors of the ridge's n - 1 normals and
        divided by their gcd; all minors vanish when the normals are
        dependent.  At a vertex the active normals span R^n, so only one
        of z and -z can leave it, and z needs no sign convention.
        """
        n = self.dim
        normals = [f.normal for f in self.facets]
        for ridge, tight in ends.items():
            if len(tight) != 1:
                continue
            mat = [normals[i] for i in ridge]
            minors = [
                (-1) ** j * det_int([u[:j] + u[j + 1 :] for u in mat]) for j in range(n)
            ]
            g = gcd_vector(minors)
            if g == 0:
                continue
            z = tuple(x // g for x in minors)
            active = [normals[i] for i in self.vertex_facets[tight[0]]]
            for candidate in (z, tuple(-x for x in z)):
                if all(sum(map(mul, u, candidate)) >= 0 for u in active):
                    return ridge, candidate
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
        """The cone table, parallel to the vertex table, built on first use."""
        return self._vertex_cones([None] * len(self.vertex_facets), self._ridge_ends())

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

    The face is derived from the parent, not scanned: its vertices are
    the parent's vertices on the facet, read in the chart from the integer
    vertex table.  On the facet <u, x> = c, x = c w + sum_k y_k basis[k],
    so y_k = <d_k, x> for the columns d_k, k >= 1, of the inverse of the
    unimodular frame [w, basis]: one inverse, in int, taken here only, as
    no other caller reads chart coordinates of points.  Each vertex's
    tight set is its parent's, less the facet, kept to the ridge facets
    and renumbered.  ``_from_claimed_vertices`` checks these claims in
    O(V * n^2) int work.  No generators are claimed, so neither the
    parent's cone table nor the face's is built.
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
