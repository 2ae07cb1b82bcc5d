"""Divisor compatibility and the linear-algebra hypotheses of the glueing setup.

Two families of checks live here.  The first compares the affine
function of a polytope-with-facet pair against the one the facet
carries as a polytope in its own right: compatibility means the two
differ by a constant on the facet, checked exactly in the facet chart.
The facet's own function is solved from the parent's moment store, its
facet and ridges integrated on the parent's vertex table, on the
ambient columns the facet's mass rule keeps; only the integer answer is
mapped into the chart, so no facet polytope is built for the check.  It
depends only on the face, so it is kept for the last face checked,
keyed on the facet and the facets that meet it in a ridge: each round of
a chop tower after the first leaves the divisor's face as it was and
solves only the pair's side.
The second treats the abstract hypotheses on a configuration of fixed
points: a weighted moment balance relative to a subspace, a genericity
condition, and a kernel condition tied to evaluation data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import schema
from .blowup import free_fixed_points
from .errors import (
    DimensionMismatch,
    InputValidationError,
    MissingEvaluationData,
)
from .extremal import AffineFunction, _affine, _chart_image, _solve, restrict_affine
from .linalg import Matrix, Vector, nullspace, project_onto_columns, rank
from .moments import _mass_rule, _sums
from .polytope import _MAX_DIM, DelzantPolytope, FacetChart, _facet_chart, _ridge_facets
from .rational import parse_rational
from .record import Record


class ObstructionReport(Record):
    """Comparison of the pair's affine function with the facet's own.

    ``satisfied`` is the exact gradient equality in the facet chart;
    ``offset`` is the constant by which the two functions differ when
    they do (and the constant-term difference regardless).
    """

    a_pair: AffineFunction
    a_restricted: AffineFunction
    a_facet: AffineFunction
    difference_gradient: Vector
    offset: Fraction
    satisfied: bool

    def __bool__(self) -> bool:
        return self.satisfied


# The facet's own side of the check, its chart and solved affine function,
# for the last face checked only, keyed on what cuts the face out of its
# hyperplane: F's normal and offset and the sorted (normal, offset) pairs of
# its ridge facets.  A tower chops only off F, so every round after the
# first finds F's side here; a chop at a vertex on F adds a ridge facet and
# so a new key.
_facet_sides: dict[tuple, tuple[FacetChart, AffineFunction]] = {}


def _facet_side(poly: DelzantPolytope, index: int) -> tuple[FacetChart, AffineFunction]:
    """The chart of facet ``index`` and the facet's own affine function.

    F's system reads F at degree 2 and each ridge F & G at degree 1, for
    the facets G of ``facet_polytope``'s ridge rule, each in its lattice
    measure, which is the facet polytope's volume and boundary measure in
    F's chart.  It is solved on the ambient columns that F's mass rule
    keeps, all but one column c with u_c != 0, straight from the stored
    int sums: dropping x_c maps F's hyperplane onto R^(n-1) by an affine
    isomorphism, and the measures are the faces' own, so the solved
    function is the facet polytope's, written in those columns.  Only the
    integer answer is mapped into F's chart.  Both answers depend only on
    the key, so the next check of an equal face, also of another polytope,
    reads them from ``_facet_sides``, which keeps the last face only; a
    stored chart may name the facet index of that other polytope, but only
    its origin and basis are read.
    """
    facet = poly.facets[index]
    ridges = _ridge_facets(poly, index)
    key = (
        facet.normal,
        facet.offset,
        tuple(sorted((poly.facets[j].normal, poly.facets[j].offset) for j in ridges)),
    )
    side = _facet_sides.get(key)
    if side is None:
        n = poly.dim
        chart, _ = _facet_chart(poly, index)
        keep = _mass_rule([facet.normal], n)[1]
        dropped = set(range(n)).difference(keep)
        ((raw, scale),) = _sums(poly, 2, [(index,)])
        face = {m: x for m, x in raw.items() if dropped.isdisjoint(m)}
        edges = _sums(poly, 1, [tuple(sorted((index, j))) for j in ridges])
        y, d = _solve((face, scale), edges)
        gradient = [0] * n
        for c, v in zip(keep, y[1:]):
            gradient[c] = v
        side = chart, _chart_image((y[0], *gradient), d, chart)
        _facet_sides.clear()
        _facet_sides[key] = side
    return side


def check_facet_condition(
    poly: DelzantPolytope, divisor_facet: int | str
) -> ObstructionReport:
    """Exact test that the pair's affine function restricts compatibly.

    Both affine functions are solved from the parent's own store, and no
    facet polytope is built.  The pair's Gram system reads the body at
    degree 2 and the whole boundary less F at degree 1; the facet's own
    side comes from ``_facet_side``, solved once per face on F's ambient
    columns and mapped into its chart in int.
    """
    if poly.dim < 2:
        raise DimensionMismatch(
            "the facet condition needs a polytope of dimension >= 2"
        )
    index = poly.resolve_facet(divisor_facet)
    a_pair = _affine(poly, [index])
    chart, a_facet = _facet_side(poly, index)
    a_restricted = restrict_affine(a_pair, chart)
    difference = tuple(
        a - b for a, b in zip(a_restricted.gradient, a_facet.gradient)
    )
    return ObstructionReport(
        a_pair=a_pair,
        a_restricted=a_restricted,
        a_facet=a_facet,
        difference_gradient=difference,
        offset=a_restricted.constant - a_facet.constant,
        satisfied=all(x == 0 for x in difference),
    )


# check_balance raises each weight to the power n - 1.  A weight other
# than one whose numerator or denominator has b bits gives a power of
# about (n - 1) * b bits; a configuration past this budget is refused
# before any power is computed, so a short document cannot ask for
# unbounded work.  At the budget, check_hypotheses on three weights in
# the plane takes about 0.1 s (2-CPU Linux machine).
_MAX_POWER_BITS = 1 << 16


class MomentConfiguration(Record):
    """Weighted fixed-point data against a distinguished subspace.

    ``n`` is the complex dimension entering the weight exponent,
    ``points`` are the moment images of the fixed points, ``weights``
    the positive coefficients, ``t_basis`` a tuple of vectors spanning
    the distinguished subspace (possibly empty), and ``eval_matrix``
    optionally carries evaluation data for the kernel condition.  Points
    longer than the polytopes' dimension limit, ``polytope._MAX_DIM``, are
    refused (ValueError) before any power or rank is taken.
    """

    n: int
    points: tuple[Vector, ...]
    weights: tuple[Fraction, ...]
    t_basis: tuple[Vector, ...]
    eval_matrix: Matrix | None = None

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"complex dimension must be a positive integer, got {self.n!r}")
        points = tuple(tuple(Fraction(x) for x in p) for p in self.points)
        if not points:
            raise ValueError("a moment configuration needs at least one point")
        dim = len(points[0])
        if dim == 0:
            raise ValueError("points must have at least one coordinate")
        if dim > _MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the limit of {_MAX_DIM}")
        if any(len(p) != dim for p in points):
            raise DimensionMismatch("all points must have the same length")
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != len(points):
            raise DimensionMismatch(
                f"{len(points)} points but {len(weights)} weights"
            )
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        bits = max(
            (max(w.numerator, w.denominator).bit_length() for w in weights if w != 1), default=0
        )
        if (self.n - 1) * bits > _MAX_POWER_BITS:
            raise ValueError(
                f"weight powers w**(n - 1) exceed the limit of {_MAX_POWER_BITS} bits"
            )
        basis = tuple(tuple(Fraction(x) for x in col) for col in self.t_basis)
        if any(len(col) != dim for col in basis):
            raise DimensionMismatch("subspace basis columns must match point length")
        if rank(basis) != len(basis):
            raise ValueError("subspace basis columns must be linearly independent")
        eval_matrix = self.eval_matrix
        if eval_matrix is not None:
            eval_matrix = tuple(
                tuple(Fraction(x) for x in row) for row in eval_matrix
            )
            if any(len(row) != dim for row in eval_matrix):
                raise DimensionMismatch(
                    "evaluation matrix rows must match point length"
                )
            if not eval_matrix:
                raise ValueError("evaluation matrix must have at least one row")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "t_basis", basis)
        object.__setattr__(self, "eval_matrix", eval_matrix)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    @classmethod
    def from_data(cls, data: object) -> "MomentConfiguration":
        """Build from the JSON wire format, with pointer-tagged errors."""
        doc, errors = schema.load(
            "moment-configuration-v1", data, lambda p, v: v if p == "/n" else parse_rational(v)
        )
        if errors:
            raise InputValidationError(errors)
        try:
            return cls(**doc)
        except (ValueError, DimensionMismatch) as exc:
            raise InputValidationError([("", str(exc))]) from exc


class BalanceResult(Record):
    """Weighted point sum, its part in the subspace, and what is left over."""

    combination: Vector
    projection: Vector
    residual: Vector
    satisfied: bool

    def __bool__(self) -> bool:
        return self.satisfied


def check_balance(config: MomentConfiguration) -> BalanceResult:
    """Does the weighted point sum land in the distinguished subspace?

    The weights enter with exponent n - 1.  The sum is projected
    orthogonally onto the subspace; the condition holds exactly when
    the residual vanishes.
    """
    power = config.n - 1
    combination = tuple(
        sum(
            (w**power * p[i] for w, p in zip(config.weights, config.points)),
            Fraction(0),
        )
        for i in range(config.dimension)
    )
    projection, residual = project_onto_columns(config.t_basis, combination)
    return BalanceResult(
        combination=combination,
        projection=projection,
        residual=residual,
        satisfied=all(x == 0 for x in residual),
    )


def check_genericity(config: MomentConfiguration) -> bool:
    """Do the subspace and the points together span the whole space?"""
    vectors = list(config.t_basis) + list(config.points)
    return rank(vectors) == config.dimension


def check_kernel_condition(config: MomentConfiguration) -> bool:
    """Is the kernel of the evaluation matrix inside the subspace?

    The subspace's basis is independent, so the kernel lies in its span
    exactly when the basis and the kernel together still have rank equal
    to the basis size.  Requires evaluation data; raises
    MissingEvaluationData without it.
    """
    if config.eval_matrix is None:
        raise MissingEvaluationData(
            "the kernel condition needs an evaluation matrix"
        )
    kernel = nullspace(config.eval_matrix, ncols=config.dimension)
    return rank([*config.t_basis, *kernel]) == len(config.t_basis)


class HypothesesReport(Record):
    """Joint outcome of the balance, genericity, and kernel checks."""

    balance: BalanceResult
    genericity: bool
    kernel: bool

    @property
    def satisfied(self) -> bool:
        return bool(self.balance) and self.genericity and self.kernel

    def __bool__(self) -> bool:
        return self.satisfied


def check_hypotheses(config: MomentConfiguration) -> HypothesesReport:
    """Run all three configuration checks; needs evaluation data present."""
    return HypothesesReport(
        balance=check_balance(config),
        genericity=check_genericity(config),
        kernel=check_kernel_condition(config),
    )


def toric_configuration(
    poly: DelzantPolytope,
    divisor_facet: int | str,
    weights: Sequence[Fraction] | None = None,
) -> MomentConfiguration:
    """Configuration induced by a polytope with a distinguished facet.

    Points are the fixed points off the distinguished facet; weights
    default to one each.  The torus itself supplies the distinguished
    subspace, so the basis is the full standard basis, and the induced
    evaluation data is trivial: invariant functions place no constraint
    beyond the subspace.
    """
    points = tuple(v.point for v in free_fixed_points(poly, divisor_facet))
    if weights is None:
        weight_tuple = tuple(Fraction(1) for _ in points)
    else:
        weight_tuple = tuple(parse_rational(w) for w in weights)
        if len(weight_tuple) != len(points):
            raise DimensionMismatch(
                f"{len(points)} free fixed points but {len(weight_tuple)} weights"
            )
    n = poly.dim
    basis = tuple(
        tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)
    )
    zero_row = (tuple(Fraction(0) for _ in range(n)),)
    return MomentConfiguration(
        n=n,
        points=points,
        weights=weight_tuple,
        t_basis=basis,
        eval_matrix=zero_row,
    )
