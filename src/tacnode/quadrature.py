"""Gauss-Legendre quadrature rules on finite intervals.

Nodes are found by Newton iteration on the Legendre polynomial from the
classical cosine initial guesses and mirrored about the midpoint, so the
node/weight symmetry is exact in floating point.

``TailSpec`` and ``_check_tail_mass`` set and guard the truncated shift
integrals of both kernel forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficientError

_MAX_ORDER = 2000
_NEWTON_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating on the open interval ``(a, b)``.

    A rule of order ``m`` integrates polynomials up to degree ``2m - 1``
    exactly (up to roundoff).
    """

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f) -> float:
        """Apply the rule to a callable or to an array of node values."""
        values = f(self.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(self.weights @ values)


def _legendre_and_derivative(m: int, t: np.ndarray):
    p_prev = np.ones_like(t)
    p = t.copy()
    for k in range(2, m + 1):
        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
    dp = m * (t * p - p_prev) / (t * t - 1.0)
    return p, dp


# typed, so that 1.0 or True is rejected even once the rule of order 1 is cached
@functools.lru_cache(maxsize=8, typed=True)
def gauss_legendre_rule(m: int) -> QuadratureRule:
    """Gauss-Legendre rule of order ``m`` on ``(-1, 1)``, memoized; its arrays are read-only."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"quadrature order must be an integer, got {m!r}")
    if not 1 <= m <= _MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {_MAX_ORDER}], got {m}")
    if m == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]), (-1.0, 1.0), 1)

    half = m // 2
    k = np.arange(1, half + 1)
    t = np.cos(np.pi * (k - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(m, t)
        dt = p / dp
        t = t - dt
        if np.max(np.abs(dt)) < _NEWTON_TOL:
            break
    _, dp = _legendre_and_derivative(m, t)
    w_half = 2.0 / ((1.0 - t * t) * dp * dp)

    nodes = np.empty(m)
    weights = np.empty(m)
    nodes[:half] = -t  # t is decreasing, so -t is increasing from the left end
    nodes[m - half:] = t[::-1]
    weights[:half] = w_half
    weights[m - half:] = w_half[::-1]
    if m % 2 == 1:
        nodes[half] = 0.0
        p0, dp0 = _legendre_and_derivative(m, np.array([0.0]))
        weights[half] = 2.0 / (dp0[0] * dp0[0])
    return QuadratureRule(nodes, weights, (-1.0, 1.0), int(m))


def affine_map_rule(rule: QuadratureRule, a: float, b: float) -> QuadratureRule:
    """Map a rule affinely onto the interval ``(a, b)``."""
    if not a < b:
        raise ValueError(f"interval endpoints must satisfy a < b, got a={a}, b={b}")
    scale = 0.5 * (b - a)
    shift = 0.5 * (a + b)
    return QuadratureRule(scale * rule.nodes + shift, scale * rule.weights, (float(a), float(b)), rule.order)


@dataclass(frozen=True)
class TailSpec:
    """Quadrature for tail-integrated kernels: ``m`` nodes on a span of ``S``.

    A span of 8 trips the last-node guard of :func:`kernel_tail` at small
    ``Sigma`` and large ``lam`` (``lam = 1.96, Sigma = 0.027, tau = 0.28``);
    10 clears it there, with the tail within 1.4e-7 of the kernel.
    """

    S: float = 10.0
    m: int = 40

    def __post_init__(self):
        if not self.S > 0:
            raise ValueError(f"tail span must be positive, got {self.S}")
        if self.m < 2:
            raise ValueError(f"tail quadrature needs at least 2 nodes, got {self.m}")


def _check_tail_mass(last_contribution: float, total: float, where: float) -> None:
    """Guard a truncated shift integral: its last node must carry no real mass.

    The integrands decay superexponentially and ever faster, so the mass
    beyond the cutoff is of the order of the final node's contribution.  A
    final node above 1e-6 of the accumulated integral (the documented
    agreement tolerance of the tail routes) marks the span as insufficient;
    adequate spans sit orders of magnitude below it.
    """
    if abs(last_contribution) > 1e-6 * max(abs(total), 1e-30):
        raise TruncationInsufficientError(
            f"tail contribution {last_contribution:.3e} at shift {where:.3f} "
            f"is not negligible against the integral {total:.3e}; increase the tail span"
        )
