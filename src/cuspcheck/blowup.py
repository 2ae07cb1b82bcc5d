"""Corner chops of Delzant polytopes and iterated chop towers.

Chopping a smooth corner replaces the vertex by a facet whose normal is
the sum of the corner's normals; for chop parameter t the lost volume
is exactly t^n/n!.  A tower repeats this along a distinguished facet:
each round chops every fixed point created by the previous round while
leaving the distinguished facet untouched.

Everything here reads the polytope's cone table: the edge generators
w_i of a corner v and the neighbour at the end of each edge.  Since
<new normal, w_i> = 1, the lattice length of edge i is the new facet's
functional at neighbour i minus the base offset; the depth bound is the
shortest such edge, and two chops interact exactly when an edge of
length <= 2 * eps joins their corners.  The chop removes v and adds the
vertices v + eps * w_i, tight on the new facet and on the corner's
facets but the i-th.  No edge generators are claimed: the child reads
its own cone table off its edge graph, as every build does.

Everything is read off the integer vertex table (D, X) and the tight
sets, in int: edge lengths and the base offset are ints over D, and with
eps = p / q the interaction test t <= 2 * eps is q t <= 2 p D.  Every chop
hands the polytope one row claim over the child's own scale q D / g,
g = gcd(q, D): the rows (q / g) X_k it keeps, with the parent's tight
sets, and (q / g) X_k + (p D / g) w_i for each created vertex; the new
facets are appended, so kept tight sets are unchanged.  So
``_set_vertices`` finds gcd 1 and divides nothing out: over q D, any
common divisor G of the scale and the rows divides gcd(q, D).  The
differences p D (w_i - w_1) of a corner's created rows have entries
with gcd p D, since w_1 and the w_i - w_1 form a basis of the lattice
(n >= 2), so G divides p D, and then q X_c; it divides every q X_k and
q D, so q gcd(D, X) = q, the parent's table being reduced; and
gcd(q, p D) = gcd(q, D), as gcd(p, q) = 1.  Per chopped corner only
n + 2 Fractions are built: the corner's point and depth bound for its
``BlowupSpec``, and the new facet's offset.  A point asked for is found by scaling it by D and
looking it up in the table.

Both tight sets follow from the two checks that stay explicit.  Below
the depth bound v + eps * w_i lies inside its edge, so it is tight on
that edge's facets only.  Every vertex but a corner c lies above the
facet of the chop at c by at least the shortest edge at c, less eps, so
a kept vertex is tight on no new facet; with no interacting pair,
neither is a vertex created at another corner.  The construction checks
each claimed tight facet in int and reads each vertex's edges off the
child's table, with no sweep of every vertex against every facet, no
re-enumeration and no inverted normals: O(V * n^2) int work in all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Sequence

from .errors import (
    ChopTooDeep,
    DimensionMismatch,
    InteractingChops,
    InvariantViolation,
    NotAVertex,
    NotUnimodular,
)
from .linalg import IntVector, Vector
from .polytope import DelzantPolytope, Facet, Vertex, is_delzant
from .rational import format_rational, format_rational_vector, parse_rational
from .record import Record


def _find_vertex(poly: DelzantPolytope, point: Sequence[Fraction]) -> int:
    """Index of the vertex at ``point``: the point scaled by the table's D,
    looked up in the table, which holds it only if D clears it."""
    p = tuple(Fraction(x) for x in point)
    scale, table = poly.scaled_vertices
    if len(p) == poly.dim and not any(scale % x.denominator for x in p):
        row = tuple(x.numerator * (scale // x.denominator) for x in p)
        if row in table:
            return table.index(row)
    raise NotAVertex(f"{format_rational_vector(p)} is not a vertex of the polytope")


def _corner(
    poly: DelzantPolytope, k: int
) -> tuple[IntVector, int, tuple[IntVector, ...], tuple[int, ...], Fraction]:
    """New facet normal, base offset, edge generators, edge lengths and
    the depth bound.

    The base offset and the lengths are ints over the table's scale D.
    The generators and lengths follow the order of the corner's active
    facets: generator i leaves the i-th active facet, and length i is
    the lattice length of the edge along it.  The bound is the least
    length, as a Fraction.
    """
    if poly.dim < 2:
        raise DimensionMismatch("chops need a polytope of dimension >= 2")
    active, cone = poly.vertex_facets[k], poly.cones[k]
    if len(active) != poly.dim:
        raise NotUnimodular(
            f"vertex {format_rational_vector(poly._point(k))} lies on "
            f"{len(active)} facets; chops need a simple corner"
        )
    if cone.generators is None:
        raise NotUnimodular(
            f"corner at {format_rational_vector(poly._point(k))} has active "
            "normal determinant other than +-1"
        )
    new_normal = tuple(map(sum, zip(*(poly.facets[i].normal for i in active))))
    # The corner is tight on its active facets, so D * base = <N, X_k>.
    scale, table = poly.scaled_vertices
    base = sum(map(mul, new_normal, table[k]))
    lengths = tuple(sum(map(mul, new_normal, table[j])) - base for j in cone.neighbours)
    return new_normal, base, cone.generators, lengths, Fraction(min(lengths), scale)


def max_chop_parameter(poly: DelzantPolytope, vertex: Sequence[Fraction]) -> Fraction:
    """Largest bound t* so chops with parameter < t* stay inside the corner.

    t* is the lattice length of the shortest edge at the corner, whose
    other end the chop hyperplane reaches at t*.  No other vertex comes
    first: the second-lowest vertex of the new facet's functional has a
    descending edge, which can only lead to the corner.
    """
    return _corner(poly, _find_vertex(poly, vertex))[4]


def _chop(
    poly: DelzantPolytope,
    corners: Sequence[
        tuple[int, IntVector, int, tuple[IntVector, ...], tuple[int, ...], Fraction]
    ],
    eps: Fraction,
    labels: Sequence[str | None],
) -> DelzantPolytope:
    """Chop every corner at parameter eps, appending one facet per corner.

    Each entry of ``corners`` is a vertex index with its ``_corner`` data,
    and each chop must already be below its depth bound.  Two chops share
    boundary (InteractingChops) exactly when an edge of length t <= 2 * eps
    joins their corners, since the new vertex on it lies t - eps above the
    other chop's base; with eps = p / q and t over D, q t <= 2 p D in int.
    The first such pair in corner order is reported.  The claim is the
    child's rows and tight sets alone: the corner's generators w_i place
    the created rows and are not handed on.
    """
    order = {k: pos for pos, (k, *_) in enumerate(corners)}
    scale, table = poly.scaled_vertices
    p, q = eps.numerator, eps.denominator
    for k, _, _, _, lengths, _ in corners:
        partners = [
            j
            for j, t in zip(poly.cones[k].neighbours, lengths)
            if j in order and q * t <= 2 * p * scale
        ]
        if partners:
            other = min(partners, key=order.__getitem__)
            raise InteractingChops(
                f"chops at {format_rational_vector(poly._point(k))} and "
                f"{format_rational_vector(poly._point(other))} overlap at "
                f"parameter {format_rational(eps)}"
            )
    facets = list(poly.facets)
    kept = [k for k in range(len(table)) if k not in order]
    # Over q D / g, X_k / D is (q / g) X_k, and X_k / D + eps * w is
    # (q / g) X_k + (p D / g) w; g = gcd(q, D) is the gcd of q D and every
    # entry of these rows over q D (module docstring).
    g = math.gcd(q, scale)
    lift, step = (q // g).__mul__, (p * scale // g).__mul__
    rows = [tuple(map(lift, table[k])) for k in kept]
    tight = [poly.vertex_facets[k] for k in kept]
    for (k, normal, base, cone, *_), label in zip(corners, labels):
        active = poly.vertex_facets[k]
        new = (len(facets),)
        offset = Fraction(q * base + p * scale, q * scale)
        facets.append(Facet(normal=normal, offset=offset, label=label))
        corner = tuple(map(lift, table[k]))
        for i, w in enumerate(cone):
            rows.append(tuple(map(add, corner, map(step, w))))
            tight.append(active[:i] + active[i + 1 :] + new)
    return DelzantPolytope._from_claimed_vertices(
        poly.dim, tuple(facets), q * scale // g, rows, tight
    )


def blow_up_vertex(
    poly: DelzantPolytope,
    vertex: Sequence[Fraction],
    eps: Fraction,
    label: str | None = None,
) -> DelzantPolytope:
    """Chop the given corner with parameter eps, appending one facet.

    The new facet's normal is the sum of the corner's normals, its
    offset the corner's offset sum plus eps.  Requires 0 < eps <
    max_chop_parameter; at or beyond the bound the chop is rejected as
    ChopTooDeep because it would swallow a neighbouring vertex.  The
    result's vertices come from the closed form and are verified, also
    when other vertices of the polytope are singular or not simple.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError(f"chop parameter must be positive, got {format_rational(eps)}")
    k = _find_vertex(poly, vertex)
    corner = _corner(poly, k)
    bound = corner[4]
    if eps >= bound:
        raise ChopTooDeep(
            f"chop parameter {format_rational(eps)} at "
            f"{format_rational_vector(poly._point(k))} reaches the bound "
            f"{format_rational(bound)}"
        )
    return _chop(poly, [(k, *corner)], eps, [label])


def free_fixed_points(
    poly: DelzantPolytope, divisor_facet: int | str
) -> tuple[Vertex, ...]:
    """Vertices that do not lie on the distinguished facet."""
    index = poly.resolve_facet(divisor_facet)
    return tuple(v for v in poly.vertices if index not in v.active)


class BlowupSpec(Record):
    """One executed chop: the corner, its depth, bound, label, and round."""

    vertex: Vector
    parameter: Fraction
    bound: Fraction
    label: str
    round: int


class TowerState(Record):
    """Snapshot of an iterated chop construction.

    ``history`` lists every executed chop; each entry records the round
    it belongs to, so the vertices designated for the next round (those
    on the newest chop facets) stay recoverable from the state alone.
    """

    polytope: DelzantPolytope
    divisor_facet: int
    round: int
    history: tuple[BlowupSpec, ...]

    def designated_vertices(self) -> tuple[Vertex, ...]:
        """Vertices the next round will chop.

        Before the first round these are the fixed points off the
        distinguished facet; afterwards, the vertices created by the
        newest round's facets (none of which can touch that facet).
        """
        return tuple(self.polytope.vertices[k] for k in self._designated())

    def _designated(self) -> list[int]:
        """Indices of ``designated_vertices`` in the polytope's vertices."""
        faces = self.polytope.facet_vertices
        if not self.history:
            return sorted(set(range(len(self.polytope.vertex_facets))) - faces[self.divisor_facet])
        last = {record.label for record in self.history if record.round == self.round}
        out = set().union(
            *(faces[i] for i, f in enumerate(self.polytope.facets) if f.label in last)
        )
        if not out.isdisjoint(faces[self.divisor_facet]):
            raise InvariantViolation(
                "a vertex on the newest chop facets lies on the distinguished facet"
            )
        return sorted(out)


def start_tower(poly: DelzantPolytope, divisor_facet: int | str) -> TowerState:
    """Begin a tower over a Delzant polytope with a distinguished facet."""
    report = is_delzant(poly)
    if not report:
        raise NotUnimodular(
            f"tower base must satisfy the vertex test: {report.violations[0]}"
        )
    index = poly.resolve_facet(divisor_facet)
    return TowerState(polytope=poly, divisor_facet=index, round=0, history=())


def _fresh_labels(poly: DelzantPolytope, start: int, count: int) -> list[str]:
    used = {f.label for f in poly.facets if f.label is not None}
    labels = []
    k = start
    while len(labels) < count:
        candidate = f"E{k}"
        if candidate not in used:
            labels.append(candidate)
            used.add(candidate)
        k += 1
    return labels


# A chop trades one vertex for n, so a round over the designated set D
# makes V + (n - 1) |D| vertices, and a 2D tower doubles V each round.  A
# round past this many is refused before any chop, so a short command line
# cannot ask for exponential work.  The benchmark's towers stay below 70
# vertices.  Round 12 of the 2D tower (4098 vertices) stepped in 0.14 s
# and checked in 0.10 s (2-CPU Linux machine); doubling from there, the
# last round allowed, 14 (16386 vertices), takes about a second.
_MAX_TOWER_VERTICES = 1 << 15


def tower_step(state: TowerState, eps: Fraction) -> TowerState:
    """Chop every designated vertex with the common parameter eps.

    A round that would make more than ``_MAX_TOWER_VERTICES`` vertices is
    refused first (ValueError).  Each chop is validated against its own
    depth bound (ChopTooDeep), then pairwise: two designated corners
    joined by an edge of length at most 2 * eps would share boundary
    (InteractingChops).  The chopped polytope is built from the
    closed-form int vertex rows and tight sets and verified, not
    re-enumerated; its cone table is read off its own edge graph.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError(f"chop parameter must be positive, got {format_rational(eps)}")
    targets = state._designated()
    if not targets:
        raise InvariantViolation("a validated tower state always designates vertices")
    poly = state.polytope
    count = len(poly.vertex_facets) + (poly.dim - 1) * len(targets)
    if count > _MAX_TOWER_VERTICES:
        raise ValueError(
            f"round {state.round + 1} would make {count} vertices, over the limit "
            f"of {_MAX_TOWER_VERTICES}"
        )

    corners = []
    records = []
    labels = _fresh_labels(poly, len(state.history) + 1, len(targets))
    for k, label in zip(targets, labels):
        point = poly._point(k)
        corner = _corner(poly, k)
        bound = corner[4]
        if eps >= bound:
            raise ChopTooDeep(
                f"round {state.round + 1} chop at "
                f"{format_rational_vector(point)} needs eps < {format_rational(bound)}, "
                f"got {format_rational(eps)}"
            )
        corners.append((k, *corner))
        records.append(
            BlowupSpec(
                vertex=point,
                parameter=eps,
                bound=bound,
                label=label,
                round=state.round + 1,
            )
        )
    return TowerState(
        polytope=_chop(poly, corners, eps, labels),
        divisor_facet=state.divisor_facet,
        round=state.round + 1,
        history=state.history + tuple(records),
    )
