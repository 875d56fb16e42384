import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tacnode.quadrature import affine_map_rule, gauss_legendre_rule


def test_single_node_rule():
    rule = gauss_legendre_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_node_rule_matches_exactness_conditions():
    # derived by solving the degree-3 exactness conditions: nodes +/- 1/sqrt(3)
    rule = gauss_legendre_rule(2)
    assert rule.nodes == pytest.approx([-0.5773502691896257, 0.5773502691896257], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_high_degree_monomial():
    rule = gauss_legendre_rule(16)
    value = rule.integrate(lambda x: x**30)
    assert value == pytest.approx(2.0 / 31.0, rel=1e-13)


def test_matches_independent_construction():
    # numpy builds the same rule through the companion-matrix eigenproblem
    for m in (3, 16, 81, 200):
        rule = gauss_legendre_rule(m)
        nodes, weights = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
        assert np.max(np.abs(rule.weights - weights)) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 5, 40, 80, 321, 2000])
def test_rule_invariants(m):
    rule = gauss_legendre_rule(m)
    assert rule.order == m
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 2.0) < 1e-13 * 2.0


@pytest.mark.parametrize("m", [2, 7, 64])
def test_exact_node_weight_symmetry(m):
    rule = gauss_legendre_rule(m)
    for i in range(m):
        assert rule.nodes[i] == -rule.nodes[m - 1 - i]
        assert rule.weights[i] == rule.weights[m - 1 - i]


@pytest.mark.parametrize("bad", [0, -3, 2001])
def test_invalid_order_rejected(bad):
    with pytest.raises(ValueError):
        gauss_legendre_rule(bad)


def test_non_integer_order_rejected():
    with pytest.raises(ValueError):
        gauss_legendre_rule(2.5)


def test_memoized_rule_still_rejects_equal_non_integers():
    assert gauss_legendre_rule(40) is gauss_legendre_rule(40)
    gauss_legendre_rule(1)
    for bad in (1.0, True, 40.0):
        with pytest.raises(ValueError):
            gauss_legendre_rule(bad)


def test_affine_map_single_node():
    rule = affine_map_rule(gauss_legendre_rule(1), 0.0, 2.0)
    assert rule.nodes.tolist() == [1.0]
    assert rule.weights.tolist() == [2.0]
    assert rule.interval == (0.0, 2.0)


def test_affine_map_weight_sum():
    rule = affine_map_rule(gauss_legendre_rule(37), 0.0, 16.0)
    assert rule.weights.sum() == pytest.approx(16.0, rel=1e-14)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 16.0)


def test_affine_map_rejects_empty_interval():
    rule = gauss_legendre_rule(4)
    for a, b in ((1.0, 1.0), (2.0, -1.0)):
        with pytest.raises(ValueError):
            affine_map_rule(rule, a, b)


def test_exponential_integral():
    rule = affine_map_rule(gauss_legendre_rule(40), 0.0, 16.0)
    value = rule.integrate(lambda x: np.exp(-x))
    assert value == pytest.approx(1.0 - math.exp(-16.0), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_polynomial_exactness_property(m, data):
    coeffs = data.draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=2 * m)
    )
    rule = gauss_legendre_rule(m)
    value = rule.integrate(np.polynomial.polynomial.polyval(rule.nodes, np.array(coeffs)))
    exact = sum(c * (2.0 / (k + 1)) for k, c in enumerate(coeffs) if k % 2 == 0)
    assert abs(value - exact) < 1e-12 * max(1.0, np.abs(coeffs).sum())
