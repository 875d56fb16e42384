"""Gap probabilities of the tacnode process on finite intervals.

The probability of seeing no points in ``(a1, a2)`` is the Fredholm
determinant of the kernel restricted to that interval.  The restricted
kernel is not symmetric (the process is not time-reversible for nonzero
times), so the determinant is taken by ``np.linalg.det``, a pivoted LU
factorization.
Only finite intervals are supported: toward minus infinity the kernel
enters the oscillatory regime and does not decay.  Only equal times are
supported: the two-time kernel restricted to one interval is not the
kernel of any gap event.
"""

from __future__ import annotations

import numpy as np

from .airy_operator import Resolution
from .errors import MultiTimeUnsupportedError
from .quadrature import affine_map_rule, gauss_legendre_rule
from .resolvent_form import ResolventParams, kernel_grid


def gap_probability(params: ResolventParams, a1: float, a2: float, res2: Resolution = Resolution(m=60)) -> float:
    """``det(I - L)`` with the tacnode kernel restricted to ``(a1, a2)``.

    ``res2.m`` sets the order of the fresh quadrature rule on the interval
    (its truncation field is not used here).  Raises
    ``MultiTimeUnsupportedError`` when ``params`` carries two distinct times.
    """
    if not params.single_time:
        raise MultiTimeUnsupportedError(
            f"gap probability is defined at one time only, got tau1={params.tau1}, tau2={params.tau2}"
        )
    if not a1 < a2:
        raise ValueError(f"interval endpoints must satisfy a1 < a2, got {a1}, {a2}")
    rule = affine_map_rule(gauss_legendre_rule(res2.m), a1, a2)
    kmat = kernel_grid(params, rule.nodes, rule.nodes)
    return float(np.linalg.det(np.eye(res2.m) - kmat * rule.weights[None, :]))
