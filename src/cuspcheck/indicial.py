"""Indicial roots of the model operator on the half-cylinder end.

Separating variables reduces the model operator, per spectral pair of
the cross-section, to a polynomial in s = delta^2 - delta:

    c2 * s^2 - (c1 * lambda + c0) * s + mu = 0,

with coefficients (c2, c1, c0) = (1/2, 1, 1/2) for the unit-scale model
metric.  Here lambda is a Laplace eigenvalue and mu an eigenvalue of
the fourth-order divisor operator, both nonnegative (spectral
geometer's sign).  Each s-root yields delta = (1 +- sqrt(1 + 4s))/2,
and the partner of delta is reported as exactly 1 - delta, so the
delta <-> 1 - delta symmetry of the root set holds to the bit.

For a rescaled model metric the separated coefficients change; no
scaling rule is assumed, so they must then be supplied explicitly.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from . import schema
from .errors import EmptySpectrum, InputValidationError, InvariantViolation
from .record import Record

SIGN_CONVENTION = (
    "spectral pairs (lambda, mu) use nonnegative eigenvalues; roots solve "
    "c2*s^2 - (c1*lambda + c0)*s + mu = 0 with s = delta^2 - delta"
)

_RESIDUAL_TOL = 1e-12
_CERTIFY_TOL = 1e-9


def _as_real(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond float range") from None
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


class SpectralPair(Record):
    """One cross-section eigenvalue pair (lambda, mu), with multiplicity."""

    lam: float
    mu: float
    multiplicity: int = 1
    scale: float = 1.0

    def __post_init__(self) -> None:
        lam = _as_real(self.lam, "lambda")
        mu = _as_real(self.mu, "mu")
        scale = _as_real(self.scale, "scale")
        if lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        if mu < 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if isinstance(self.multiplicity, bool) or not isinstance(self.multiplicity, int):
            raise TypeError("multiplicity must be an integer")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least one")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "scale", scale)


class ModelCoefficients(Record):
    """Separated-operator coefficients (c2, c1, c0); unit-scale defaults."""

    square: float = 0.5
    mixed: float = 1.0
    linear: float = 0.5

    def __post_init__(self) -> None:
        square = _as_real(self.square, "square coefficient")
        mixed = _as_real(self.mixed, "mixed coefficient")
        linear = _as_real(self.linear, "linear coefficient")
        if square == 0:
            raise ValueError("the s^2 coefficient must be nonzero")
        object.__setattr__(self, "square", square)
        object.__setattr__(self, "mixed", mixed)
        object.__setattr__(self, "linear", linear)


class IndicialRoot(Record):
    """A root delta, the s-value it came from, and its source pair."""

    delta: complex
    s_value: complex
    source: SpectralPair


def _resolve_coefficients(
    pair: SpectralPair, coefficients: ModelCoefficients | None
) -> ModelCoefficients:
    if coefficients is not None:
        return coefficients
    if pair.scale != 1.0:
        raise ValueError(
            f"pair with scale {pair.scale} needs explicit model coefficients; "
            "no rescaling rule is built in"
        )
    return ModelCoefficients()


def indicial_roots(
    pair: SpectralPair,
    coefficients: ModelCoefficients | None = None,
) -> tuple[IndicialRoot, ...]:
    """All four indicial roots of one spectral pair, sorted by real part.

    Two s-roots of the separated polynomial, then two delta per s-root;
    coincidences are kept so the count is always four.
    """
    coeff = _resolve_coefficients(pair, coefficients)
    a = coeff.square
    b = -(coeff.mixed * pair.lam + coeff.linear)
    c = pair.mu
    disc = cmath.sqrt(complex(b * b - 4 * a * c))
    tol = _RESIDUAL_TOL * (1 + abs(a) + abs(b) + abs(c))
    roots: list[IndicialRoot] = []
    for s in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)):
        plus = (1 + cmath.sqrt(1 + 4 * s)) / 2
        for delta in (plus, 1 - plus):
            s_check = delta * delta - delta
            residual = abs(a * s_check * s_check + b * s_check + c)
            if residual > tol:
                raise InvariantViolation(
                    f"indicial root {delta} fails its defining equation by {residual}"
                )
            roots.append(IndicialRoot(delta=delta, s_value=s, source=pair))
    roots.sort(key=lambda r: (r.delta.real, r.delta.imag))
    return tuple(roots)


def roots_in_window(
    pairs: Sequence[SpectralPair],
    lo: float,
    hi: float,
    coefficients: ModelCoefficients | None = None,
) -> tuple[IndicialRoot, ...]:
    """Roots over all pairs whose real part lies strictly inside (lo, hi)."""
    lo = _as_real(lo, "window lower endpoint")
    hi = _as_real(hi, "window upper endpoint")
    if lo >= hi:
        raise ValueError(f"window ({lo}, {hi}) is empty")
    if not pairs:
        raise EmptySpectrum("cannot locate indicial roots of an empty spectrum")
    found = [
        r
        for pair in pairs
        for r in indicial_roots(pair, coefficients)
        if lo < r.delta.real < hi
    ]
    found.sort(key=lambda r: (r.delta.real, r.delta.imag))
    return tuple(found)


class WeightCertificate(Record):
    """Distance from a candidate weight to the nearest root's real part."""

    eta: float
    distance: float
    nearest: IndicialRoot
    certified: bool

    def __bool__(self) -> bool:
        return self.certified


def certify_weight(
    pairs: Sequence[SpectralPair],
    eta: float,
    coefficients: ModelCoefficients | None = None,
) -> WeightCertificate:
    """Certify that a weight stays away from every root's real part.

    Certified means the distance to the nearest real part exceeds the
    fixed margin below which no mapping-theory control is claimed.
    """
    eta = _as_real(eta, "weight")
    if not pairs:
        raise EmptySpectrum("cannot certify a weight against an empty spectrum")
    roots = [r for pair in pairs for r in indicial_roots(pair, coefficients)]
    nearest = min(roots, key=lambda r: (abs(r.delta.real - eta), abs(r.delta.imag)))
    distance = abs(nearest.delta.real - eta)
    return WeightCertificate(
        eta=eta,
        distance=distance,
        nearest=nearest,
        certified=distance > _CERTIFY_TOL,
    )


def spectra_from_data(
    data: object,
) -> tuple[tuple[SpectralPair, ...], ModelCoefficients | None]:
    """Parse the spectra wire format, ``schemas/spectra-v1.json``, with
    pointer-tagged errors; every number must also be a finite float."""
    doc, errors = schema.load(
        "spectra-v1",
        data,
        lambda p, v: v if p.endswith("/mult") else _as_real(v, p.split("/")[-1]),
    )
    if errors:
        raise InputValidationError(errors)
    raw = doc.get("coefficients")
    try:
        coefficients = None if raw is None else ModelCoefficients(**raw)
    except ValueError as exc:
        raise InputValidationError([("/coefficients", str(exc))]) from exc
    scale = doc.get("scale", 1.0)
    pairs = tuple(
        SpectralPair(pair["lambda"], pair["mu"], pair.get("mult", 1), scale)
        for pair in doc["pairs"]
    )
    return pairs, coefficients
