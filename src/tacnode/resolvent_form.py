"""Tacnode kernel in its Airy-resolvent form.

The kernel of the tacnode process is assembled from two Airy-type profile
functions ``b`` and ``b_tilde``, their resolvent-smoothed combinations
``script A``, and the boundary functionals ``phat``.  Parameters are the
asymmetry ``lam`` between the two groups of paths, the interaction strength
``Sigma`` (equivalently the operator shift ``sigma``; the two are a fixed
bijection at given ``lam``), and one or two times.

The compact two-term kernel, the historical six-term kernel, the rank-2
shift derivative, and the tail-integrated reconstruction are all provided;
they agree up to discretization error, which is what the verification
suite certifies.

One Airy call serves each profile set: ``_b_pair`` gives ``b_tilde`` and
``b`` together, and ``kernel_grid`` makes one for its v side and one for
all its rows.  ``script_a`` returns a smoothed profile as a function on
the grid: one array of its values at 0 and at the nodes, the value at 0
first, the layout of ``AiryResolvent.smooth`` and ``AiryResolvent.apply_r0``.

The boundary functionals ``phat`` need no smoothing matrix: the smoothed
boundary row of the resolvent is ``Q`` (see ``AiryResolvent``), so they are
integrals of the profiles against ``r0`` and ``qvec``.  ``kernel_tail``
does all shifts of its rule at once, with one Airy call per side, against
the stacked boundary rows of the rule's shifts, built in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import airy_ai_pair
from .airy_operator import AiryResolvent, Resolution, get_boundary_rows, get_resolvent
from .errors import MultiTimeUnsupportedError
from .quadrature import TailSpec, _check_tail_mass, affine_map_rule, gauss_legendre_rule

_EQUAL_TIME_EPS = 1e-12


def sigma_from_interaction(lam: float, Sigma: float) -> float:
    """Operator shift corresponding to interaction strength ``Sigma``."""
    return math.sqrt(lam) * (1.0 + lam ** -0.5) ** (2.0 / 3.0) * Sigma


def interaction_from_sigma(lam: float, sigma: float) -> float:
    """Inverse of :func:`sigma_from_interaction`."""
    return sigma / (math.sqrt(lam) * (1.0 + lam ** -0.5) ** (2.0 / 3.0))


@dataclass(frozen=True)
class ResolventParams:
    """Parameter bundle of the Airy-resolvent kernel form.

    ``sigma`` is the canonical internal parameter (the resolvent is built
    at it); ``Sigma`` is kept alongside because the profile functions are
    written in terms of it.  ``C = (1 + lam^{-1/2})^{1/3}``.
    """

    lam: float
    Sigma: float
    sigma: float
    tau1: float
    tau2: float
    C: float
    resolution: Resolution
    resolvent: AiryResolvent

    @classmethod
    def create(
        cls,
        lam: float = 1.0,
        *,
        Sigma: float | None = None,
        sigma: float | None = None,
        tau: float | None = None,
        tau1: float | None = None,
        tau2: float | None = None,
        resolution: Resolution = Resolution(),
    ) -> "ResolventParams":
        if not 0 < lam < math.inf:
            raise ValueError(f"asymmetry parameter must be positive and finite, got {lam}")
        if (Sigma is None) == (sigma is None):
            raise ValueError("exactly one of Sigma and sigma must be given")
        if sigma is None:
            sigma = sigma_from_interaction(lam, Sigma)
        else:
            Sigma = interaction_from_sigma(lam, sigma)
        if tau is not None:
            if tau1 is not None or tau2 is not None:
                raise ValueError("give either tau or the pair (tau1, tau2), not both")
            tau1 = tau2 = tau
        else:
            tau1 = 0.0 if tau1 is None else tau1
            tau2 = 0.0 if tau2 is None else tau2
        return cls(
            lam=float(lam),
            Sigma=float(Sigma),
            sigma=float(sigma),
            tau1=float(tau1),
            tau2=float(tau2),
            C=(1.0 + float(lam) ** -0.5) ** (1.0 / 3.0),
            resolution=resolution,
            resolvent=get_resolvent(sigma, resolution),
        )

    @property
    def single_time(self) -> bool:
        return abs(self.tau2 - self.tau1) < _EQUAL_TIME_EPS

    def at_sigma(self, sigma: float) -> "ResolventParams":
        """Same asymmetry and times, rebuilt at another shift."""
        return ResolventParams.create(
            self.lam, sigma=sigma, tau1=self.tau1, tau2=self.tau2, resolution=self.resolution
        )


def _b_pair(params: ResolventParams, tau: float, z, x, Sigma=None):
    """``(b_tilde, b)`` at the points ``x`` for the shift ``z``, from one Airy call.

    ``z``, ``x`` and ``Sigma`` (``params.Sigma`` unless given) broadcast, so
    a row of shifts against a column of points gives one profile per
    column, and a column of ``Sigma`` against a row of points one profile
    per row.
    """
    lam, C = params.lam, params.C
    Sigma = params.Sigma if Sigma is None else Sigma
    cx = C * x
    yt = -z + cx + math.sqrt(lam) * (Sigma + tau * tau)
    y = z + cx + Sigma + tau * tau
    ai, _ = airy_ai_pair(np.stack((lam ** (1.0 / 6.0) * yt, y)))
    bt = np.exp(-math.sqrt(lam) * tau * yt + lam * tau**3 / 3.0) * ai[0]
    b = np.exp(-tau * y + tau**3 / 3.0) * ai[1]
    return bt, b


def b_values(params: ResolventParams, tau: float, z: float, x, tilde: bool = False):
    """Airy profile ``b`` (or ``b_tilde``) at spatial points ``x >= 0``."""
    return _b_pair(params, tau, z, np.asarray(x, dtype=float))[0 if tilde else 1]


def script_a(params: ResolventParams, tau: float, z: float, tilde: bool = False) -> np.ndarray:
    """Smoothed profile ``A`` (or ``A_tilde``) at 0 and the nodes: length ``m + 1``, the value at 0 first.

    ``A`` is ``b`` minus the Airy smoothing of ``b_tilde``, and ``A_tilde``
    is ``b_tilde`` minus that of ``b``.  Both profiles on the nodes are
    smoothed in one product with the smoothing matrix, whichever is asked
    for: a one-column product can round differently.
    """
    ar = params.resolvent
    bt, b = _b_pair(params, tau, z, np.concatenate(([0.0], ar.nodes)))
    sm = ar.smooth(np.column_stack((b[1:], bt[1:])))
    if tilde:
        return bt - params.lam ** (-1.0 / 6.0) * sm[:, 0]
    return b - params.lam ** (1.0 / 6.0) * sm[:, 1]


def script_a_at(params: ResolventParams, tau: float, z: float, x):
    """Smoothed profile ``A`` evaluated at arbitrary points ``x >= 0`` off the grid."""
    ar = params.resolvent
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bt, b = _b_pair(params, tau, z, np.concatenate((x, ar.nodes)))
    rows, _ = airy_ai_pair(x[:, None] + ar.nodes[None, :] + params.sigma)
    return b[: len(x)] - params.lam ** (1.0 / 6.0) * (rows @ (ar.weights * bt[len(x):]))


def _phat_pair(lam: float, w: np.ndarray, r0, qvec, bt, b):
    """``(phat_1, phat_2)`` from the profiles at 0 and the nodes, without smoothing them.

    The smoothed boundary row of the resolvent is ``Q`` (see
    ``AiryResolvent``), so each smoothing term is an integral against
    ``qvec``.  The profiles' last axis runs over 0 and the nodes; ``r0``
    and ``qvec`` broadcast against the nodes, so stacked rows give one pair
    per row.
    """
    bt0, btn, b0, bn = bt[..., 0], bt[..., 1:], b[..., 0], b[..., 1:]
    p1 = bt0 + (r0 * btn) @ w - lam ** (-1.0 / 6.0) * ((qvec * bn) @ w)
    p2 = b0 + (r0 * bn) @ w - lam ** (1.0 / 6.0) * ((qvec * btn) @ w)
    return p1, p2


def phat(params: ResolventParams, tau: float, z: float) -> tuple[float, float]:
    """Boundary functionals ``(phat_1, phat_2)`` driving the rank-2 derivative."""
    ar = params.resolvent
    bt, b = _b_pair(params, tau, z, np.concatenate(([0.0], ar.nodes)))
    p1, p2 = _phat_pair(params.lam, ar.weights, ar.r0, ar.qvec, bt, b)
    return float(p1), float(p2)


def _heat_term(tau1: float, tau2: float, u, v):
    """Backward heat kernel present only for strictly ordered times."""
    dt = tau2 - tau1
    if dt < _EQUAL_TIME_EPS:
        return np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape)
    du = np.asarray(v, dtype=float) - np.asarray(u, dtype=float)
    return -np.exp(-du * du / (4.0 * dt)) / math.sqrt(4.0 * math.pi * dt)


def _smoothed(params: ResolventParams, bt: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A`` at the nodes from node-value columns of ``b_tilde`` and ``b``, one product with the smoothing matrix."""
    ar = params.resolvent
    return b - params.lam ** (1.0 / 6.0) * (ar.smoothing @ (ar.weights[:, None] * bt))


def kernel_grid(params: ResolventParams, us, vs) -> np.ndarray:
    """Tacnode kernel on a cartesian grid: the matrix ``L[i, j] = kernel(params, us[i], vs[j])``.

    The v side (profiles, smoothing and solve) is done once for all
    columns, from one Airy call.  The u-side profiles of all rows come from
    one more Airy call on the ``(us, nodes)`` grid; that call is
    elementwise, so each row's profiles are bit-identical to a one-row
    call's.  The three products of a row (its smoothing, ``bt.T @ wbt`` and
    ``a.T @ wsolved``) keep the shapes of a one-row call, because BLAS
    rounds a batched product (gemm) differently from a one-column one: each
    row is therefore bit-identical to ``kernel_grid(params, [u], vs)[0]``,
    whatever the number of rows.
    """
    ar = params.resolvent
    us = np.atleast_1d(np.asarray(us, dtype=float))
    vs = np.atleast_1d(np.asarray(vs, dtype=float))
    bt, b = _b_pair(params, -params.tau2, vs[None, :], ar.nodes[:, None])
    w = ar.weights[:, None]
    wbt, wsolved = w * bt, w * ar.solve(_smoothed(params, bt, b))
    del bt, b  # free the v-side profiles before the rows' Airy call, the grid's peak of memory
    bts, bs = _b_pair(params, params.tau1, us[:, None], ar.nodes[None, :])
    scale = params.C * params.lam ** (1.0 / 3.0)
    rows = np.empty((len(us), len(vs)))
    for i, (bt, b) in enumerate(zip(bts, bs)):
        # (m, 1) C-contiguous columns, the layout of a one-row call
        bt, b = bt.reshape(-1, 1), b.reshape(-1, 1)
        a = _smoothed(params, bt, b)
        rows[i] = scale * (bt.T @ wbt) + params.C * (a.T @ wsolved)
    return rows + _heat_term(params.tau1, params.tau2, us[:, None], vs[None, :])


def kernel(params: ResolventParams, u: float, v: float) -> float:
    """Tacnode kernel value; reduces to the single-time kernel at tau1 == tau2."""
    return float(kernel_grid(params, [u], [v])[0, 0])


def kernel_six_term(params: ResolventParams, u: float, v: float) -> float:
    """The original six-term expression of the single-time kernel.

    Kept alongside the compact form so their agreement can be certified;
    raises ``MultiTimeUnsupportedError`` for distinct times.
    """
    if not params.single_time:
        raise MultiTimeUnsupportedError("six-term kernel form is defined for equal times only")
    ar = params.resolvent
    w = ar.weights
    C, lam, tau = params.C, params.lam, params.tau1

    btu, bu = _b_pair(params, tau, u, ar.nodes)
    btv, bv = _b_pair(params, -tau, v, ar.nodes)
    s_bu, s_bv, s_btu, s_btv = (ar.smoothing @ (w[:, None] * np.column_stack((bu, bv, btu, btv)))).T

    def dots(f, g):
        # double integral of (I - K)^{-1} against f(x) g(y)
        return float(w @ (f * ar.solve(g)))

    lam6 = lam ** (1.0 / 6.0)
    total = (
        float(w @ (bu * bv))
        + dots(s_bu, s_bv)
        - lam6 * dots(s_bu, btv)
        + lam ** (1.0 / 3.0) * float(w @ (btu * btv))
        + lam ** (1.0 / 3.0) * dots(s_btu, s_btv)
        - lam6 * dots(s_btu, bv)
    )
    return C * total


def kernel_dsigma(params: ResolventParams, u: float, v: float) -> float:
    """Shift derivative of the kernel: an explicit rank-2 bilinear form."""
    p1u, p2u = phat(params, params.tau1, u)
    p1v, p2v = phat(params, -params.tau2, v)
    lam = params.lam
    return -params.C ** -2.0 * (lam ** (1.0 / 3.0) * p1u * p1v + lam**-0.5 * p2u * p2v)


def kernel_tail(params: ResolventParams, u: float, v: float, tail: TailSpec = TailSpec()) -> float:
    """Kernel reconstructed by integrating the rank-2 derivative over the shift.

    The integral over ``[sigma, infinity)`` is truncated to a span of
    ``tail.S``; superexponential decay of the integrand makes that span
    generous, and a last-node mass check raises
    ``TruncationInsufficientError`` if it ever is not.  All shifts of the
    rule are done at once: ``Sigma`` is a column over the shifts, each side's
    profiles come from one Airy call, and the boundary functionals contract
    them with the stacked ``r0`` and ``qvec`` rows that
    :func:`~tacnode.airy_operator.get_boundary_rows` builds for the whole
    rule in one pass.
    """
    rule = affine_map_rule(gauss_legendre_rule(tail.m), params.sigma, params.sigma + tail.S)
    lam = params.lam
    grid, r0, qvec = get_boundary_rows(rule.nodes, params.resolution)
    w = grid.weights
    x = np.concatenate(([0.0], grid.nodes))
    Sigma = interaction_from_sigma(lam, rule.nodes)[:, None]
    p1u, p2u = _phat_pair(lam, w, r0, qvec, *_b_pair(params, params.tau1, u, x, Sigma))
    p1v, p2v = _phat_pair(lam, w, r0, qvec, *_b_pair(params, -params.tau2, v, x, Sigma))
    values = params.C ** -2.0 * (lam ** (1.0 / 3.0) * p1u * p1v + lam**-0.5 * p2u * p2v)
    total = float(rule.weights @ values)
    _check_tail_mass(rule.weights[-1] * values[-1], total, rule.nodes[-1])
    heat = float(np.atleast_1d(_heat_term(params.tau1, params.tau2, u, v))[0])
    return heat + total
