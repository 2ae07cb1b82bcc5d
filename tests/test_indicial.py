"""Indicial roots against a quartic-solver oracle.

numpy.roots independently solves the expanded quartic in delta for each
spectral pair; root multisets are compared to 1e-10.
"""

import math
import random

import numpy as np
import pytest

from cuspcheck import (
    EmptySpectrum,
    IndicialRoot,
    InputValidationError,
    ModelCoefficients,
    SpectralPair,
    certify_weight,
    indicial_roots,
    roots_in_window,
    spectra_from_data,
)
from cuspcheck.indicial import SIGN_CONVENTION

_RNG = random.Random(314159)
_PHI = (1 + math.sqrt(5)) / 2


def _numpy_roots(pair, coefficients=None):
    c = coefficients or ModelCoefficients()
    k = c.mixed * pair.lam + c.linear
    # c2 (d^2-d)^2 - k (d^2-d) + mu expanded in powers of d
    poly = [c.square, -2 * c.square, c.square - k, k, pair.mu]
    return sorted(np.roots(poly), key=lambda z: (z.real, z.imag))


def _assert_same_roots(mine, oracle, tol=1e-10):
    assert len(mine) == len(oracle) == 4
    for root, expected in zip(mine, oracle):
        assert abs(root.delta - complex(expected)) < tol


def test_trivial_pair_frozen():
    roots = indicial_roots(SpectralPair(0, 0))
    values = [r.delta for r in roots]
    expected = [(1 - math.sqrt(5)) / 2, 0.0, 1.0, _PHI]
    for got, want in zip(values, expected):
        assert abs(got - want) < 1e-12
    assert values[1] == 0.0 and values[2] == 1.0


def test_pair_one_half_frozen():
    # s-roots solve s^2 - 3s + 1 = 0
    roots = indicial_roots(SpectralPair(1, 0.5))
    s_values = sorted({round(r.s_value.real, 12) for r in roots})
    expected = sorted({(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2})
    for got, want in zip(s_values, expected):
        assert abs(got - want) < 1e-12


def test_roots_match_numpy_random():
    for _ in range(300):
        pair = SpectralPair(
            lam=_RNG.uniform(0, 50), mu=_RNG.uniform(0, 50), multiplicity=1
        )
        _assert_same_roots(indicial_roots(pair), _numpy_roots(pair))


def test_roots_match_numpy_with_explicit_coefficients():
    for _ in range(100):
        coeff = ModelCoefficients(
            square=_RNG.uniform(0.2, 3.0),
            mixed=_RNG.uniform(0.1, 2.0),
            linear=_RNG.uniform(0.0, 2.0),
        )
        pair = SpectralPair(
            lam=_RNG.uniform(0, 20),
            mu=_RNG.uniform(0, 20),
            scale=coeff.square * 2,
        )
        _assert_same_roots(
            indicial_roots(pair, coeff), _numpy_roots(pair, coeff)
        )


def test_root_symmetry_exact():
    for _ in range(100):
        pair = SpectralPair(lam=_RNG.uniform(0, 30), mu=_RNG.uniform(0, 30))
        deltas = [r.delta for r in indicial_roots(pair)]
        # construction pairs each root with its reflection through 1/2
        remaining = list(deltas)
        while remaining:
            d = remaining.pop()
            mirror = 1 - d
            match = min(remaining, key=lambda z: abs(z - mirror))
            assert abs(match - mirror) < 1e-12
            remaining.remove(match)


def test_roots_sorted_and_sourced():
    pair = SpectralPair(2, 3, multiplicity=5)
    roots = indicial_roots(pair)
    keys = [(r.delta.real, r.delta.imag) for r in roots]
    assert keys == sorted(keys)
    assert all(r.source is pair for r in roots)
    assert all(isinstance(r, IndicialRoot) for r in roots)
    assert roots[0].source.multiplicity == 5


def test_scale_needs_explicit_coefficients():
    with pytest.raises(ValueError, match="scale"):
        indicial_roots(SpectralPair(1, 1, scale=2.0))
    # scale 1 works without coefficients
    indicial_roots(SpectralPair(1, 1, scale=1.0))


def test_spectral_pair_validation():
    with pytest.raises(ValueError):
        SpectralPair(-1, 0)
    with pytest.raises(ValueError):
        SpectralPair(0, -0.5)
    with pytest.raises(ValueError):
        SpectralPair(0, 0, multiplicity=0)
    with pytest.raises(ValueError):
        SpectralPair(0, 0, scale=0)
    with pytest.raises(ValueError):
        SpectralPair(float("nan"), 0)
    with pytest.raises(ValueError):
        ModelCoefficients(square=0)


def test_window_frozen_cases():
    pairs = [SpectralPair(0, 0)]
    assert roots_in_window(pairs, 0, 1) == ()
    got = [r.delta.real for r in roots_in_window(pairs, -1, 0.5)]
    assert len(got) == 2
    assert abs(got[0] - (1 - _PHI)) < 1e-12
    assert got[1] == 0.0


def test_window_is_open():
    pairs = [SpectralPair(0, 0)]
    # 0 and 1 sit on the boundary of (0,1); (-0.7, 0.1) catches both low roots
    inside = roots_in_window(pairs, -0.7, 0.1)
    assert [round(r.delta.real, 6) for r in inside] == [-0.618034, 0.0]


def test_window_validation():
    with pytest.raises(ValueError):
        roots_in_window([SpectralPair(0, 0)], 1, 0)
    with pytest.raises(ValueError):
        roots_in_window([SpectralPair(0, 0)], 1, 1)
    with pytest.raises(EmptySpectrum):
        roots_in_window([], 0, 1)


def test_no_roots_in_unit_window_for_admissible_spectra():
    for _ in range(500):
        pair = SpectralPair(lam=_RNG.uniform(0, 100), mu=_RNG.uniform(0, 100))
        assert roots_in_window([pair], 0, 1) == ()


def test_certify_weight_frozen():
    cert = certify_weight([SpectralPair(0, 0)], -0.3)
    assert cert.certified
    assert bool(cert)
    # nearest root is 0, not 1-phi
    assert abs(cert.distance - 0.3) < 1e-12
    assert cert.nearest.delta.real == 0.0


def test_certify_weight_on_root_fails():
    cert = certify_weight([SpectralPair(0, 0)], 0.0)
    assert not cert.certified
    assert cert.distance == 0.0
    half = certify_weight([SpectralPair(0, 0)], 0.5)
    assert half.certified
    assert abs(half.distance - 0.5) < 1e-12


def test_certify_weight_half_always_safe():
    for _ in range(200):
        pair = SpectralPair(lam=_RNG.uniform(0, 60), mu=_RNG.uniform(0, 60))
        assert certify_weight([pair], 0.5).certified


def test_certify_weight_complex_roots_use_real_part():
    # lam=0, mu=1: s-roots complex, all four deltas off the real axis
    pair = SpectralPair(0, 1)
    roots = indicial_roots(pair)
    assert all(abs(r.delta.imag) > 1e-9 for r in roots)
    cert = certify_weight([pair], 0.5)
    expected = min(abs(r.delta.real - 0.5) for r in roots)
    assert abs(cert.distance - expected) < 1e-12


def test_certify_weight_empty():
    with pytest.raises(EmptySpectrum):
        certify_weight([], 0.3)


def test_sign_convention_is_documented():
    assert isinstance(SIGN_CONVENTION, str) and SIGN_CONVENTION


def test_spectra_from_data_round_trip():
    doc = {
        "pairs": [
            {"lambda": 0, "mu": 0},
            {"lambda": 2.5, "mu": 1.25, "mult": 3},
        ],
        "scale": 1,
    }
    pairs, coefficients = spectra_from_data(doc)
    assert coefficients is None
    assert len(pairs) == 2
    assert pairs[1].lam == 2.5
    assert pairs[1].multiplicity == 3
    assert pairs[0].scale == 1.0


def test_spectra_from_data_with_coefficients():
    doc = {
        "pairs": [{"lambda": 1, "mu": 1}],
        "scale": 2,
        "coefficients": {"square": 1.0, "mixed": 2.0, "linear": 1.0},
    }
    pairs, coefficients = spectra_from_data(doc)
    assert coefficients is not None
    assert coefficients.square == 1.0
    _assert_same_roots(
        indicial_roots(pairs[0], coefficients), _numpy_roots(pairs[0], coefficients)
    )


def test_spectra_from_data_pointer_errors():
    with pytest.raises(InputValidationError) as err:
        spectra_from_data(
            {
                "pairs": [{"lambda": -1, "mu": 0}, {"mu": 1}],
                "scale": 0,
                "bogus": True,
            }
        )
    pointers = [p for p, _ in err.value.errors]
    assert "/pairs/0/lambda" in pointers
    assert any(p.startswith("/pairs/1") for p in pointers)
    assert "/scale" in pointers
    assert "/bogus" in pointers

    # a JSON integer too large for a float is an input error, not a crash
    with pytest.raises(InputValidationError) as err:
        spectra_from_data({"pairs": [{"lambda": 10**400, "mu": 0}]})
    assert [p for p, _ in err.value.errors] == ["/pairs/0/lambda"]


def test_spectra_from_data_requires_pairs():
    with pytest.raises(InputValidationError):
        spectra_from_data({})
    with pytest.raises(InputValidationError):
        spectra_from_data({"pairs": []})
    with pytest.raises(InputValidationError):
        spectra_from_data([1])
