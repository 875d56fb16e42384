"""Gap probabilities of the tacnode process on finite intervals.

The probability of seeing no points in ``(a1, a2)`` is the Fredholm
determinant of the kernel restricted to that interval.  It is taken on a
Gauss-Legendre rule by the operator layer's one Nystrom determinant,
``airy_operator.nystrom_determinant``: ``np.linalg.det`` of ``I - K W``,
a pivoted LU that needs no symmetry (the process is not time-reversible).
Only finite intervals are supported: toward minus infinity the kernel
enters the oscillatory regime and does not decay.  Only equal times are
supported: the two-time kernel restricted to one interval is not the
kernel of any gap event.
"""

from __future__ import annotations

import math

from .airy_operator import nystrom_determinant
from .errors import MultiTimeUnsupportedError
from .quadrature import affine_map_rule, gauss_legendre_rule
from .resolvent_form import ResolventParams, kernel_grid


def gap_probability(params: ResolventParams, a1: float, a2: float, m: int = 60) -> float:
    """``det(I - L)`` with the tacnode kernel restricted to ``(a1, a2)``.

    ``m`` is the order of the Gauss-Legendre rule on the interval, whose
    endpoints must be finite.  Raises ``MultiTimeUnsupportedError`` when
    ``params`` carries two distinct times.
    """
    if not params.single_time:
        raise MultiTimeUnsupportedError(
            f"gap probability is defined at one time only, got tau1={params.tau1}, tau2={params.tau2}"
        )
    if not -math.inf < a1 < a2 < math.inf:
        raise ValueError(f"interval endpoints must be finite with a1 < a2, got {a1}, {a2}")
    rule = affine_map_rule(gauss_legendre_rule(m), a1, a2)
    kmat = kernel_grid(params, rule.nodes, rule.nodes)
    return nystrom_determinant(kmat, rule.weights)
