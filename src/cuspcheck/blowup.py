"""Corner chops of Delzant polytopes and iterated chop towers.

Chopping a smooth corner replaces the vertex by a facet whose normal is
the sum of the corner's normals; for chop parameter t the lost volume
is exactly t^n/n!.  A tower repeats this along a distinguished facet:
each round chops every fixed point created by the previous round while
leaving the distinguished facet untouched.

The chopped polytope is built in closed form.  At a unimodular corner v
the edge generators w_i are the columns of the inverse of the active
normal matrix (Delzant's construction), so the chop at parameter eps
removes v and adds the vertices v + eps * w_i, each tight on the
corner's facets but the i-th and on the new facet.  The construction
verifies the claimed vertex set (feasible, tight exactly where claimed,
simple, unimodular, closed under edges) rather than re-enumerating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ChopTooDeep,
    InteractingChops,
    InvariantViolation,
    NotAVertex,
    NotUnimodular,
)
from .linalg import IntVector, Vector, dot, inverse_unimodular, transpose
from .polytope import DelzantPolytope, Facet, Vertex, is_delzant
from .rational import format_rational, format_rational_vector, parse_rational


def _find_vertex(poly: DelzantPolytope, point: Sequence[Fraction]) -> Vertex:
    p = tuple(Fraction(x) for x in point)
    for v in poly.vertices:
        if v.point == p:
            return v
    raise NotAVertex(f"{format_rational_vector(p)} is not a vertex of the polytope")


def _corner(
    poly: DelzantPolytope, vertex: Vertex
) -> tuple[IntVector, Fraction, tuple[IntVector, ...]]:
    """New facet normal, base offset and edge generators of a smooth corner.

    The generators are the columns of the inverse of the active normal
    matrix, in the order of ``vertex.active``: generator i leaves the
    i-th active facet and stays on the others.
    """
    n = poly.dim
    if len(vertex.active) != n:
        raise NotUnimodular(
            f"vertex {format_rational_vector(vertex.point)} lies on "
            f"{len(vertex.active)} facets; chops need a simple corner"
        )
    normals = [poly.facets[i].normal for i in vertex.active]
    try:
        generators = transpose(inverse_unimodular(normals))
    except NotUnimodular:
        raise NotUnimodular(
            f"corner at {format_rational_vector(vertex.point)} has active "
            "normal determinant other than +-1"
        ) from None
    new_normal = tuple(sum(u[k] for u in normals) for k in range(n))
    base_offset = sum((poly.facets[i].offset for i in vertex.active), Fraction(0))
    return new_normal, base_offset, generators


def _bound(
    poly: DelzantPolytope, vertex: Vertex, new_normal: IntVector, base_offset: Fraction
) -> Fraction:
    others = [w for w in poly.vertices if w.point != vertex.point]
    if not others:
        raise InvariantViolation("validated polytopes have at least n+1 vertices")
    return min(dot(new_normal, w.point) - base_offset for w in others)


def max_chop_parameter(poly: DelzantPolytope, vertex: Sequence[Fraction]) -> Fraction:
    """Largest bound t* so chops with parameter < t* stay inside the corner.

    Equals the minimum over the other vertices of the new facet's
    functional minus its base offset; the chop hyperplane reaches the
    nearest competing vertex exactly at t*.
    """
    v = _find_vertex(poly, vertex)
    new_normal, base_offset, _ = _corner(poly, v)
    return _bound(poly, v, new_normal, base_offset)


def _chop(
    poly: DelzantPolytope,
    corners: Sequence[tuple[Vertex, IntVector, Fraction, tuple[IntVector, ...]]],
    eps: Fraction,
    labels: Sequence[str | None],
) -> DelzantPolytope:
    """Chop every corner at parameter eps, appending one facet per corner.

    Each entry of ``corners`` is a vertex with its ``_corner`` data, and
    each chop must already be below its depth bound.  The vertices one
    chop creates must strictly satisfy every other chop's inequality,
    otherwise the chops would share boundary (InteractingChops).
    """
    m = len(poly.facets)
    chopped = {v.point for v, _, _, _ in corners}
    facets = list(poly.facets)
    claimed = [v for v in poly.vertices if v.point not in chopped]
    created = []
    for k, ((v, normal, base, generators), label) in enumerate(zip(corners, labels)):
        facets.append(Facet(normal=normal, offset=base + eps, label=label))
        points = [tuple(x + eps * d for x, d in zip(v.point, w)) for w in generators]
        for i, point in enumerate(points):
            active = v.active[:i] + v.active[i + 1 :] + (m + k,)
            claimed.append(Vertex(point=point, active=active))
        created.append(points)

    for (v, _, _, _), points in zip(corners, created):
        for w, normal_w, base_w, _ in corners:
            if w.point == v.point:
                continue
            if any(dot(normal_w, point) <= base_w + eps for point in points):
                raise InteractingChops(
                    f"chops at {format_rational_vector(v.point)} and "
                    f"{format_rational_vector(w.point)} overlap at "
                    f"parameter {format_rational(eps)}"
                )
    return DelzantPolytope._from_claimed_vertices(poly.dim, tuple(facets), claimed)


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
    result's vertices come from the closed form when the polytope
    passes the vertex test; otherwise, where the completeness check
    does not apply, the chopped description is enumerated from scratch.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError(f"chop parameter must be positive, got {format_rational(eps)}")
    v = _find_vertex(poly, vertex)
    new_normal, base_offset, generators = _corner(poly, v)
    bound = _bound(poly, v, new_normal, base_offset)
    if eps >= bound:
        raise ChopTooDeep(
            f"chop parameter {format_rational(eps)} at "
            f"{format_rational_vector(v.point)} reaches the bound {format_rational(bound)}"
        )
    if not is_delzant(poly):
        new_facet = Facet(normal=new_normal, offset=base_offset + eps, label=label)
        return DelzantPolytope(dim=poly.dim, facets=poly.facets + (new_facet,))
    return _chop(poly, [(v, new_normal, base_offset, generators)], eps, [label])


def free_fixed_points(
    poly: DelzantPolytope, divisor_facet: int | str
) -> tuple[Vertex, ...]:
    """Vertices that do not lie on the distinguished facet."""
    index = poly.resolve_facet(divisor_facet)
    return tuple(v for v in poly.vertices if index not in v.active)


@dataclass(frozen=True)
class BlowupSpec:
    """One executed chop: the corner, its depth, bound, label, and round."""

    vertex: Vector
    parameter: Fraction
    bound: Fraction
    label: str
    round: int


@dataclass(frozen=True)
class TowerState:
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
        if not self.history:
            return free_fixed_points(self.polytope, self.divisor_facet)
        last_labels = {
            record.label for record in self.history if record.round == self.round
        }
        newest = tuple(
            i
            for i, f in enumerate(self.polytope.facets)
            if f.label in last_labels
        )
        out = []
        for v in self.polytope.vertices:
            if any(i in v.active for i in newest):
                if self.divisor_facet in v.active:
                    raise InvariantViolation(
                        "a vertex on the newest chop facets lies on the "
                        "distinguished facet"
                    )
                out.append(v)
        return tuple(out)


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


def tower_step(state: TowerState, eps: Fraction) -> TowerState:
    """Chop every designated vertex with the common parameter eps.

    Each chop is validated against its own depth bound (ChopTooDeep),
    then pairwise: the vertices a single chop creates, v + eps * w_i in
    closed form, must strictly satisfy every other chop's inequality,
    otherwise the chops would share boundary and the result is rejected
    as InteractingChops.  The chopped polytope is built from those
    closed-form vertices and verified, not re-enumerated; the
    verification includes the vertex test.
    """
    eps = parse_rational(eps)
    if eps <= 0:
        raise ValueError(f"chop parameter must be positive, got {format_rational(eps)}")
    targets = state.designated_vertices()
    if not targets:
        raise InvariantViolation("a validated tower state always designates vertices")

    corners = []
    records = []
    labels = _fresh_labels(state.polytope, len(state.history) + 1, len(targets))
    for v, label in zip(targets, labels):
        normal, base, generators = _corner(state.polytope, v)
        bound = _bound(state.polytope, v, normal, base)
        if eps >= bound:
            raise ChopTooDeep(
                f"round {state.round + 1} chop at "
                f"{format_rational_vector(v.point)} needs eps < {format_rational(bound)}, "
                f"got {format_rational(eps)}"
            )
        corners.append((v, normal, base, generators))
        records.append(
            BlowupSpec(
                vertex=v.point,
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
