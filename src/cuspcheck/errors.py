"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class CuspcheckError(Exception):
    """Base class for every error raised by this package."""


class InvalidPolytope(CuspcheckError):
    """Halfspace data violates a construction invariant."""


class EmptyPolytope(InvalidPolytope):
    """The halfspaces have no common point."""


class UnboundedPolytope(InvalidPolytope):
    """The feasible region contains a ray."""


class DegeneratePolytope(InvalidPolytope):
    """The feasible region is not full-dimensional."""


class PolytopeTooLarge(InvalidPolytope):
    """The input asks for more work than allowed: its dimension is over
    the limit, finding its vertices passes the vertex walk's budget, or
    triangulating its faces passes the fan's."""


class DegenerateFacet(CuspcheckError):
    """The requested facet does not support a face of dimension n - 1."""


class NotUnimodular(CuspcheckError):
    """Integer matrix whose determinant is not +1 or -1."""


class UnsupportedDegree(CuspcheckError):
    """Polynomial degree outside the supported range (at most 2)."""


class SingularGram(CuspcheckError):
    """Moment Gram matrix was not invertible.

    Cannot occur for a full-dimensional polytope; raised defensively.
    """


class DimensionMismatch(CuspcheckError):
    """Vectors or matrices of incompatible dimensions were combined."""


class NotAVertex(CuspcheckError):
    """The given point is not a vertex of the polytope."""


class ChopTooDeep(CuspcheckError):
    """Chop parameter at or beyond the Seshadri-type bound of the vertex."""


class InteractingChops(CuspcheckError):
    """Two simultaneous chops would share or cut each other's new vertices."""


class InvariantViolation(CuspcheckError):
    """An internal consistency check failed: a defect, not bad input."""


class MissingEvaluationData(CuspcheckError):
    """Kernel condition requested but no evaluation matrix was supplied."""


class EmptySpectrum(CuspcheckError):
    """A spectral operation was invoked with no eigenvalue pairs."""


class ChartMismatch(CuspcheckError):
    """Affine data and facet chart belong to different ambient spaces."""


class InputValidationError(CuspcheckError):
    """Every problem found while validating one input document.

    ``errors`` is a list of ``(json_pointer, message)`` pairs; the pointer
    names the offending value, or ``""`` for the document as a whole.  They
    are sorted by pointer, token by token, array indices as integers and
    keys as strings; messages at one pointer keep their given order.
    """

    def __init__(self, errors):
        # An array index is a canonical decimal: it sorts by length, then text.
        self.errors = sorted(errors, key=lambda error: [
            (0, len(t), t) if t.isascii() and t.isdigit() else (1, 0, t)
            for t in error[0].split("/")[1:]
        ])
        super().__init__("; ".join(f"{ptr}: {msg}" for ptr, msg in self.errors))


class FormalExtensionWarning(UserWarning):
    """The requested computation extends beyond the established criterion.

    Emitted, not raised: the result is well defined as linear algebra but its
    geometric interpretation has not been pinned down (e.g. excluding more
    than one facet from the boundary functional).
    """
