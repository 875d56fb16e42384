import math

import pytest

from tacnode.airy_operator import nystrom_determinant
from tacnode.errors import MultiTimeUnsupportedError
from tacnode.gap import gap_probability
from tacnode.quadrature import affine_map_rule, gauss_legendre_rule
from tacnode.resolvent_form import ResolventParams, kernel, kernel_grid


@pytest.fixture(scope="module")
def params():
    return ResolventParams.create(1.0, Sigma=1.0, tau=0.0)


def test_rejects_empty_interval(params):
    with pytest.raises(ValueError):
        gap_probability(params, 1.0, 1.0)


@pytest.mark.parametrize("a1, a2", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0, math.nan)])
def test_rejects_non_finite_endpoints(params, a1, a2):
    with pytest.raises(ValueError, match="finite"):
        gap_probability(params, a1, a2)


def test_vanishing_interval_limit(params):
    width = 1e-6
    value = gap_probability(params, -width / 2, width / 2, 20)
    assert abs(value - 1.0) <= 1e-6 * max(1.0, abs(kernel(params, 0.0, 0.0)))


def test_monotone_under_interval_inclusion(params):
    inner = gap_probability(params, -1.0, 1.0)
    outer = gap_probability(params, -2.0, 2.0)
    assert 0.0 < outer <= inner < 1.0


def test_self_convergence_under_order_doubling(params):
    coarse = gap_probability(params, -1.0, 1.0, 60)
    fine = gap_probability(params, -1.0, 1.0, 120)
    assert abs(coarse - fine) <= 1e-7


def test_multi_time_interval_rejected(params):
    # the two-time kernel restricted to one interval is no gap probability
    multi = ResolventParams.create(1.0, Sigma=1.0, tau1=0.0, tau2=0.3)
    with pytest.raises(MultiTimeUnsupportedError):
        gap_probability(multi, -1.0, 1.0)


def test_gap_uses_the_shared_nystrom_determinant(params):
    m = 24
    rule = affine_map_rule(gauss_legendre_rule(m), -1.0, 0.5)
    kmat = kernel_grid(params, rule.nodes, rule.nodes)
    assert gap_probability(params, -1.0, 0.5, m) == nystrom_determinant(kmat, rule.weights)
