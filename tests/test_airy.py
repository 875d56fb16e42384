import math

import numpy as np
import pytest

from tacnode.airy import _CENTRES, airy_ai, airy_ai_pair, airy_ai_prime
from tacnode.errors import UnsupportedRangeError

from conftest import oracle_airy

# frozen from the Maclaurin-series oracle (60+ terms, 60-digit arithmetic)
AI_AT_ZERO = 0.3550280538878172
AIP_AT_ZERO = -0.2588194037928068

# Taylor-branch centres -7.5, -7.25, ..., 7.5 and the midpoints between them,
# where the step |x - c| = 0.125 is largest
CENTRES = -7.5 + 0.25 * np.arange(61)
MIDPOINTS = CENTRES[:-1] + 0.125


def test_value_at_zero_matches_series_oracle():
    oracle, _ = oracle_airy(0.0, terms=60)
    assert oracle == pytest.approx(AI_AT_ZERO, rel=1e-15)
    assert airy_ai(0.0) == pytest.approx(AI_AT_ZERO, rel=5e-16)


def test_prime_at_zero_matches_series_oracle():
    _, oracle = oracle_airy(0.0, terms=60)
    assert oracle == pytest.approx(AIP_AT_ZERO, rel=1e-15)
    assert airy_ai_prime(0.0) == pytest.approx(AIP_AT_ZERO, rel=5e-16)


def test_right_tail_matches_leading_asymptotics():
    x = 20.0
    leading = math.exp(-2.0 / 3.0 * x**1.5) / (2.0 * math.sqrt(math.pi) * x**0.25)
    assert airy_ai(x) == pytest.approx(leading, rel=1e-2)


def test_monotone_decay_on_right_half_line():
    values = airy_ai(np.arange(0.0, 11.0))
    assert np.all(values > 0)
    assert np.all(np.diff(values) < 0)


def test_prime_consistent_with_central_difference():
    h = 1e-5
    fd = (airy_ai(1.0 + h) - airy_ai(1.0 - h)) / (2 * h)
    assert abs(fd - airy_ai_prime(1.0)) < 1e-9


def test_prime_negative_on_right_half_line():
    assert np.all(airy_ai_prime(np.linspace(0.0, 12.0, 25)) < 0)


def test_logarithmic_derivative_approaches_minus_sqrt():
    x = 25.0
    ratio = airy_ai_prime(x) / airy_ai(x)
    assert abs(ratio / (-math.sqrt(x)) - 1.0) < 0.02


@pytest.mark.parametrize("x", [-15.0, -9.4, -7.5, -3.2, -0.7, 0.0, 0.9, 4.8, 7.5, 7.6, 11.0, 15.0])
def test_pointwise_against_oracle(x):
    ai, aip = airy_ai_pair(x)
    ai_ref, aip_ref = oracle_airy(x)
    if x >= 0:
        assert ai == pytest.approx(ai_ref, rel=1e-12)
        assert aip == pytest.approx(aip_ref, rel=1e-12)
    else:
        assert ai == pytest.approx(ai_ref, abs=1e-12)
        assert aip == pytest.approx(aip_ref, abs=1e-12)


def test_centre_literals_equal_oracle():
    assert [c for c, _, _ in _CENTRES] == list(CENTRES)
    for c, ai, aip in _CENTRES:
        assert (ai, aip) == oracle_airy(c)


def test_dense_grid_against_oracle():
    xs = np.concatenate([np.linspace(-15.0, 15.0, 301), CENTRES, MIDPOINTS])
    ai, aip = airy_ai_pair(xs)
    for x, a, ap in zip(xs, ai, aip):
        ref, refp = oracle_airy(x)
        if x >= 0:
            assert abs(a - ref) <= 1e-12 * abs(ref)
            assert abs(ap - refp) <= 1e-12 * abs(refp)
        else:
            assert abs(a - ref) <= 1e-12
            assert abs(ap - refp) <= 1e-12


def test_airy_differential_equation_by_finite_differences():
    # five-point second derivative of Ai matches x*Ai to 1e-6 on [-10, 10]
    h = 1e-2
    xs = np.linspace(-10.0, 10.0, 81)
    stencil = airy_ai(xs[:, None] + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[None, :])
    second = (-stencil[:, 0] + 16 * stencil[:, 1] - 30 * stencil[:, 2] + 16 * stencil[:, 3] - stencil[:, 4]) / (12 * h * h)
    assert np.max(np.abs(second - xs * airy_ai(xs))) < 1e-6


def test_scalar_and_array_paths_agree():
    xs = np.array([-8.0, -1.0, 0.0, 3.0, 9.0])
    ai_arr, aip_arr = airy_ai_pair(xs)
    for i, x in enumerate(xs):
        assert airy_ai(float(x)) == ai_arr[i]
        assert airy_ai_prime(float(x)) == aip_arr[i]
    shaped = airy_ai(xs.reshape(1, 5))
    assert shaped.shape == (1, 5)


@pytest.mark.filterwarnings("error")
def test_non_finite_inputs():
    ai, aip = airy_ai_pair(np.array([np.nan, np.inf, -np.inf, 1.0]))
    assert np.isnan(ai[0]) and np.isnan(aip[0])
    assert (ai[1], aip[1]) == (0.0, 0.0)
    assert ai[2] == 0.0 and np.isnan(aip[2])
    assert (ai[3], aip[3]) == airy_ai_pair(1.0)
    assert math.isnan(airy_ai(math.nan))
    assert airy_ai_prime(math.inf) == 0.0
    assert math.isnan(airy_ai_prime(-math.inf))


@pytest.mark.filterwarnings("error")
def test_huge_arguments_underflow_to_zero():
    # x**1.5 overflows past about 3.2e205; Ai and Ai' underflowed to 0 long before
    xs = np.array([1e3, 1e200, 1e300, np.finfo(float).max])
    ai, aip = airy_ai_pair(xs)
    assert np.all(ai == 0.0) and np.all(aip == 0.0)
    for x in xs:
        assert airy_ai_pair(float(x)) == (0.0, 0.0)


def test_left_branch_ends_at_minus_1e3():
    # the modulus/phase expansion loses absolute digits with its growing phase;
    # below -1e3 it would leave the error budget without a warning
    ai, aip = airy_ai_pair(np.array([-1e3, -500.0, -20.0]))
    assert np.all(np.isfinite(ai)) and np.all(np.isfinite(aip))
    for bad in (-1000.5, -1e4, np.array([-3.0, -2e3, 1.0])):
        with pytest.raises(UnsupportedRangeError):
            airy_ai_pair(bad)
    ai, aip = airy_ai_pair(np.array([-np.inf, np.nan, -1e3]))
    assert ai[0] == 0.0 and np.isnan(aip[0]) and np.isnan(ai[1]) and np.isnan(aip[1])
    assert (ai[2], aip[2]) == airy_ai_pair(-1e3)
