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
facets but the i-th, with edge generators w_k - w_i (k != i) and w_i.

Every chop hands the polytope the ``Vertex`` records it keeps, the
parent's own, and one per created vertex, with edge generators; the
new facets are appended, so kept tight sets are unchanged.  Both tight
sets follow from the two checks that stay explicit.  Below the depth
bound v + eps * w_i lies inside its edge, so it is tight on that edge's
facets only.  Every vertex but a corner c lies above the facet of the
chop at c by at least the shortest edge at c, less eps, so a kept vertex
is tight on no new facet; with no interacting pair, neither is a vertex
created at another corner.  The construction checks each claimed tight
facet and the generators in int, with no sweep of every vertex against
every facet and no re-enumeration: O(V * n^3) int work in all.  Edge
lengths and created points are read off the integer vertex table.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
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
    p = tuple(Fraction(x) for x in point)
    for k, v in enumerate(poly.vertices):
        if v.point == p:
            return k
    raise NotAVertex(f"{format_rational_vector(p)} is not a vertex of the polytope")


def _corner(
    poly: DelzantPolytope, k: int
) -> tuple[IntVector, Fraction, tuple[IntVector, ...], tuple[Fraction, ...]]:
    """New facet normal, base offset, edge generators and edge lengths.

    The generators and lengths follow the order of the corner's active
    facets: generator i leaves the i-th active facet, and length i is
    the lattice length of the edge along it.
    """
    if poly.dim < 2:
        raise DimensionMismatch("chops need a polytope of dimension >= 2")
    vertex, cone = poly.vertices[k], poly.cones[k]
    if len(vertex.active) != poly.dim:
        raise NotUnimodular(
            f"vertex {format_rational_vector(vertex.point)} lies on "
            f"{len(vertex.active)} facets; chops need a simple corner"
        )
    if cone.generators is None:
        raise NotUnimodular(
            f"corner at {format_rational_vector(vertex.point)} has active "
            "normal determinant other than +-1"
        )
    new_normal = tuple(map(sum, zip(*(poly.facets[i].normal for i in vertex.active))))
    # The corner is tight on its active facets, so D * base = <N, X_k>.
    scale, table = poly.scaled_vertices
    base = sum(map(mul, new_normal, table[k]))
    lengths = tuple(
        Fraction(sum(map(mul, new_normal, table[j])) - base, scale) for j in cone.neighbours
    )
    return new_normal, Fraction(base, scale), cone.generators, lengths


def max_chop_parameter(poly: DelzantPolytope, vertex: Sequence[Fraction]) -> Fraction:
    """Largest bound t* so chops with parameter < t* stay inside the corner.

    t* is the lattice length of the shortest edge at the corner, whose
    other end the chop hyperplane reaches at t*.  No other vertex comes
    first: the second-lowest vertex of the new facet's functional has a
    descending edge, which can only lead to the corner.
    """
    return min(_corner(poly, _find_vertex(poly, vertex))[3])


def _chop(
    poly: DelzantPolytope,
    corners: Sequence[
        tuple[int, IntVector, Fraction, tuple[IntVector, ...], tuple[Fraction, ...]]
    ],
    eps: Fraction,
    labels: Sequence[str | None],
) -> DelzantPolytope:
    """Chop every corner at parameter eps, appending one facet per corner.

    Each entry of ``corners`` is a vertex index with its ``_corner`` data,
    and each chop must already be below its depth bound.  Two chops share
    boundary (InteractingChops) exactly when an edge of length t <= 2 * eps
    joins their corners, since the new vertex on it lies t - eps above the
    other chop's base.  The first such pair in corner order is reported.
    """
    order = {k: pos for pos, (k, *_) in enumerate(corners)}
    for k, _, _, _, lengths in corners:
        partners = [
            j
            for j, t in zip(poly.cones[k].neighbours, lengths)
            if j in order and t <= 2 * eps
        ]
        if partners:
            other = poly.vertices[min(partners, key=order.__getitem__)]
            raise InteractingChops(
                f"chops at {format_rational_vector(poly.vertices[k].point)} and "
                f"{format_rational_vector(other.point)} overlap at "
                f"parameter {format_rational(eps)}"
            )
    facets = list(poly.facets)
    kept = [k for k in range(len(poly.vertices)) if k not in order]
    claimed = [poly.vertices[k] for k in kept]
    generators = [poly.cones[k].generators for k in kept]
    # With eps = p / q, X_k / D + eps * w = (q X_k + p D w) / (q D).
    scale, table = poly.scaled_vertices
    p, q = eps.numerator, eps.denominator
    for (k, normal, base, cone, _), label in zip(corners, labels):
        active = poly.vertices[k].active
        new = (len(facets),)
        facets.append(Facet(normal=normal, offset=base + eps, label=label))
        for i, w in enumerate(cone):
            point = tuple(Fraction(q * x + p * scale * d, q * scale) for x, d in zip(table[k], w))
            others = cone[:i] + cone[i + 1 :]
            generators.append(tuple(tuple(a - b for a, b in zip(g, w)) for g in others) + (w,))
            claimed.append(Vertex(point=point, active=active[:i] + active[i + 1 :] + new))
    return DelzantPolytope._from_claimed_vertices(poly.dim, tuple(facets), claimed, generators)


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
    bound = min(corner[3])
    if eps >= bound:
        raise ChopTooDeep(
            f"chop parameter {format_rational(eps)} at "
            f"{format_rational_vector(poly.vertices[k].point)} reaches the bound "
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
            return sorted(set(range(len(self.polytope.vertices))) - faces[self.divisor_facet])
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
    closed-form vertex points, tight sets and edge generators and
    verified, not re-enumerated.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError(f"chop parameter must be positive, got {format_rational(eps)}")
    targets = state._designated()
    if not targets:
        raise InvariantViolation("a validated tower state always designates vertices")
    poly = state.polytope
    count = len(poly.vertices) + (poly.dim - 1) * len(targets)
    if count > _MAX_TOWER_VERTICES:
        raise ValueError(
            f"round {state.round + 1} would make {count} vertices, over the limit "
            f"of {_MAX_TOWER_VERTICES}"
        )

    corners = []
    records = []
    labels = _fresh_labels(state.polytope, len(state.history) + 1, len(targets))
    for k, label in zip(targets, labels):
        point = state.polytope.vertices[k].point
        corner = _corner(state.polytope, k)
        bound = min(corner[3])
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
        polytope=_chop(state.polytope, corners, eps, labels),
        divisor_facet=state.divisor_facet,
        round=state.round + 1,
        history=state.history + tuple(records),
    )
