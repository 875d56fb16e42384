"""Tacnode kernel in its Riemann-Hilbert form.

The 4x4 matrix-valued object behind this form is never solved as a
boundary-value problem here.  Instead, its top-left 2x2 block and the
column-sum vector ``p(z)`` are evaluated through Airy-resolvent formulas,
the third and fourth entries of ``p`` through the first-order relations of
the column ODE system, and the residue ("1/z") matrix through closed-form
Painleve II expressions.  Entries three and four of ``p`` are purely
imaginary for real data, so ``i p_3`` and ``i p_4`` are stored as reals and
the imaginary units are folded into the kernel formula analytically.

One Airy call serves each profile set: ``_profiles`` gives the tilde
and plain profiles with their z-derivatives together, and one product by
the smoothing matrix smooths them all where a smoothed profile is needed.
The ``p`` vector needs none: the smoothed boundary row of the resolvent is
``Q`` (see ``AiryResolvent``), so ``p1`` and ``p2`` are integrals of the
profiles against ``r0`` and ``qvec``.  ``kernel_tail`` does all shifts of
its rule at once, with one Airy call per side, against the stacked boundary
rows of the rule's shifts, built in one pass.

``script_a`` returns the smoothed profile and its z-derivatives as rows of
one array, each row a function on the grid (its value at 0 first, then the
nodes, as ``AiryResolvent.apply_r0`` takes it), and ``m_top_left`` the 2x2
block and its z-derivatives stacked along the first axis.

Parameters: scale factors ``r1, r2 > 0``, endpoint parameters ``s1, s2``,
time ``tau``; derived constants::

    C     = (r1^{-2} + r2^{-2})^{1/3}
    D     = sqrt(r1/r2) exp((r1^4 - r2^4) tau^3 / 3 + 2 (r2 s2 - r1 s1) tau)
    sigma = (2 (s1/r1 + s2/r2) - (r1^2 + r2^2) tau^2) / C
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import airy_ai_pair
from .airy_operator import AiryResolvent, Resolution, get_boundary_rows, get_resolvent
from .errors import MismatchedParamsError
from .quadrature import TailSpec, _check_tail_mass, affine_map_rule, gauss_legendre_rule

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_DIAGONAL_EPS = 1e-6


def _constants(r1: float, r2: float, s1: float, s2: float, tau: float) -> tuple[float, float, float]:
    """The derived constants ``(C, D, sigma)`` of the module docstring, for finite positive scale factors."""
    if not (0 < r1 < math.inf and 0 < r2 < math.inf):
        raise ValueError(f"scale factors must be positive and finite, got r1={r1}, r2={r2}")
    C = (r1**-2.0 + r2**-2.0) ** (1.0 / 3.0)
    D = math.sqrt(r1 / r2) * math.exp((r1**4 - r2**4) * tau**3 / 3.0 + 2.0 * (r2 * s2 - r1 * s1) * tau)
    sigma = (2.0 * (s1 / r1 + s2 / r2) - (r1**2 + r2**2) * tau**2) / C
    return C, D, sigma


@dataclass(frozen=True)
class RHParams:
    """Parameter bundle of the Riemann-Hilbert kernel form."""

    r1: float
    r2: float
    s1: float
    s2: float
    tau: float
    C: float
    D: float
    sigma: float
    resolution: Resolution
    resolvent: AiryResolvent

    @classmethod
    def create(
        cls,
        r1: float,
        r2: float,
        s1: float,
        s2: float,
        tau: float = 0.0,
        resolution: Resolution = Resolution(),
    ) -> "RHParams":
        C, D, sigma = _constants(r1, r2, s1, s2, tau)
        return cls(
            r1=float(r1),
            r2=float(r2),
            s1=float(s1),
            s2=float(s2),
            tau=float(tau),
            C=C,
            D=D,
            sigma=sigma,
            resolution=resolution,
            resolvent=get_resolvent(sigma, resolution),
        )

    def with_tau(self, tau: float) -> "RHParams":
        return RHParams.create(self.r1, self.r2, self.s1, self.s2, tau, self.resolution)


@dataclass(frozen=True)
class SParam:
    """Endpoint parameters on the ray ``s1 = sigma1 s``, ``s2 = sigma2 s``."""

    sigma1: float
    sigma2: float
    s: float

    def rh_params(self, r1: float, r2: float, tau: float, resolution: Resolution = Resolution()) -> RHParams:
        return RHParams.create(r1, r2, self.sigma1 * self.s, self.sigma2 * self.s, tau, resolution)

    def at(self, s: float) -> "SParam":
        return SParam(self.sigma1, self.sigma2, float(s))


def from_resolvent_params(lam: float, Sigma: float, tau: float, resolution: Resolution = Resolution()) -> RHParams:
    """RH parameters matching the Airy-resolvent form at ``(lam, Sigma, tau)``.

    The map is ``r1 = lam^{1/4}``, ``r2 = 1``,
    ``s1 = lam^{3/4}(Sigma + tau^2)/2``, ``s2 = (Sigma + tau^2)/2``; the two
    forms then share the same ``C`` and shift ``sigma``.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"asymmetry parameter must be positive and finite, got {lam}")
    half = 0.5 * (Sigma + tau * tau)
    return RHParams.create(lam**0.25, 1.0, lam**0.75 * half, half, tau, resolution)


def _z_derivs(r: float, zsign: float, tau: float, env, arg, ai, aip, order: int):
    """The profile ``env * Ai(arg)`` and its first ``order`` z-derivatives; Ai'' = x Ai gives the second."""
    tau_fac = -zsign * r**2 * tau
    b = env * ai
    if order == 0:
        return (b,)
    db = tau_fac * b + zsign * env * r ** (2.0 / 3.0) * aip
    if order == 1:
        return b, db
    d2b = tau_fac * tau_fac * b + 2.0 * tau_fac * zsign * env * r ** (2.0 / 3.0) * aip + env * r ** (4.0 / 3.0) * arg * ai
    return b, db, d2b


def _profile_pair(params: RHParams, z: float, x, order: int):
    """Tilde and plain profiles of ``params`` at ``x``: :func:`_profiles` with its constants."""
    return _profiles(params.r1, params.r2, params.s1, params.s2, params.tau, params.C, z, x, order)


def _profiles(r1: float, r2: float, s1, s2, tau: float, C: float, z: float, x, order: int):
    """Tilde and plain profiles at ``x`` with ``order`` z-derivatives, from one Airy call.

    Returns two tuples of ``order + 1`` arrays, tilde first.  Columns of
    endpoints ``s1``, ``s2`` against a row of points give one profile per row.
    """
    cx = C * x
    arg_t = r1 ** (2.0 / 3.0) * (-z + cx + 2.0 * s1 / r1)
    arg_p = r2 ** (2.0 / 3.0) * (z + cx + 2.0 * s2 / r2)
    ai, aip = airy_ai_pair(np.stack((arg_t, arg_p)))
    env_t = _SQRT_2PI * r1 ** (1.0 / 6.0) * np.exp(r1**2 * tau * (z - cx))
    env_p = _SQRT_2PI * r2 ** (1.0 / 6.0) * np.exp(-(r2**2) * tau * (z + cx))
    return (
        _z_derivs(r1, -1.0, tau, env_t, arg_t, ai[0], aip[0], order),
        _z_derivs(r2, 1.0, tau, env_p, arg_p, ai[1], aip[1], order),
    )


def b_with_derivs(params: RHParams, z: float, x, tilde: bool = False, order: int = 0):
    """Profile ``b_z`` (or its tilde partner) with analytic z-derivatives.

    Returns a tuple of ``order + 1`` arrays: the values and, if requested,
    first and second derivatives with respect to ``z``.  One Airy
    evaluation serves all of them (the second derivative uses Ai'' = x Ai).
    """
    return _profile_pair(params, z, np.asarray(x, dtype=float), order)[0 if tilde else 1]


def b_values(params: RHParams, z: float, x, tilde: bool = False):
    """Profile values only."""
    return b_with_derivs(params, z, x, tilde=tilde, order=0)[0]


def _smoothed_pair(params: RHParams, z: float, order: int):
    """Both profiles and their Airy smoothings at 0 and the nodes, with ``order`` z-derivatives.

    Returns ``(bt, b, sm_t, sm)``, each an ``(order + 1, m + 1)`` array
    whose rows are functions on the grid; ``sm_t`` smooths ``bt`` and
    ``sm`` smooths ``b``.  One Airy call and one product with the smoothing
    matrix serve them all.
    """
    ar = params.resolvent
    bt, b = (np.array(f) for f in _profile_pair(params, z, np.concatenate(([0.0], ar.nodes)), order))
    sm = ar.smooth(np.column_stack((*bt[:, 1:], *b[:, 1:])))
    return bt, b, sm[:, : order + 1].T, sm[:, order + 1 :].T


def script_a(params: RHParams, z: float, tilde: bool = False, order: int = 0) -> np.ndarray:
    """Resolvent-side smoothed profile and its analytic z-derivatives at 0 and the nodes.

    ``A_z = b_z - D * (Airy smoothing of the tilde profile)`` and the tilde
    variant with ``1/D`` and the roles of the profiles swapped.  Returns an
    ``(order + 1, m + 1)`` array: row ``k`` is the ``k``-th z-derivative.
    """
    bt, b, sm_t, sm = _smoothed_pair(params, z, order)
    return bt - sm / params.D if tilde else b - params.D * sm_t


@dataclass(frozen=True)
class PVector:
    """Column-sum vector of the RH matrix at one point, in real bookkeeping.

    ``ip3``/``ip4`` hold ``i p_3`` and ``i p_4`` (real numbers).  First
    z-derivatives of the leading entries come for free; the derivatives of
    the imaginary entries are filled in when requested.
    """

    p1: float
    p2: float
    ip3: float
    ip4: float
    dp1: float
    dp2: float
    dip3: float | None = None
    dip4: float | None = None


def _ip34(params: RHParams, p1: float, p2: float, dp1: float, dp2: float) -> tuple[float, float]:
    ar = params.resolvent
    C, D = params.C, params.D
    coef1 = ar.u / C - params.s1**2 + params.r1**2 * params.tau
    coef2 = ar.u / C - params.s2**2 + params.r2**2 * params.tau
    ip3 = (dp1 - coef1 * p1 - ar.q / (C * D) * p2) / params.r1
    ip4 = (dp2 + ar.q * D / C * p1 + coef2 * p2) / params.r2
    return ip3, ip4


def _boundary_pair(w: np.ndarray, r0, qvec, D, bt, b):
    """``(p1, p2)``: ``(I - K)^{-1}(., 0)`` applied to the smoothed profiles, without smoothing them.

    The smoothed boundary row of the resolvent is ``Q`` (see
    ``AiryResolvent``), so each smoothing term is an integral against
    ``qvec``.  The profiles' last axis runs over 0 and the nodes; ``r0``
    and ``qvec`` broadcast against the nodes and ``D`` against the rest, so
    stacked rows give one pair per row.
    """
    bt0, btn, b0, bn = bt[..., 0], bt[..., 1:], b[..., 0], b[..., 1:]
    p1 = bt0 + (r0 * btn) @ w - ((qvec * bn) @ w) / D
    p2 = b0 + (r0 * bn) @ w - D * ((qvec * btn) @ w)
    return p1, p2


def p_vector(params: RHParams, z: float, derivs: bool = False) -> PVector:
    """Entries of ``p(z)``: boundary functionals of the smoothed profiles.

    ``p1``/``p2`` apply ``(I - K)^{-1}(., 0)`` to the tilde/plain smoothed
    profiles; the imaginary entries come from the first-order relations of
    the column ODE system, with all derivatives taken analytically.
    """
    ar = params.resolvent
    bt, b = _profile_pair(params, z, np.concatenate(([0.0], ar.nodes)), 2 if derivs else 1)
    p1s, p2s = _boundary_pair(ar.weights, ar.r0, ar.qvec, params.D, np.array(bt), np.array(b))
    (p1, dp1, *ddp1), (p2, dp2, *ddp2) = p1s.tolist(), p2s.tolist()
    ip3, ip4 = _ip34(params, p1, p2, dp1, dp2)
    if not derivs:
        return PVector(p1, p2, ip3, ip4, dp1, dp2)
    dip3, dip4 = _ip34(params, dp1, dp2, ddp1[0], ddp2[0])
    return PVector(p1, p2, ip3, ip4, dp1, dp2, dip3, dip4)


def m_top_left(params: RHParams, z: float, order: int = 0) -> np.ndarray:
    """Top-left 2x2 block of the RH matrix via Airy-resolvent formulas, with analytic z-derivatives.

    Returns an ``(order + 1, 2, 2)`` array: the block, then its first
    ``order`` z-derivatives.  Each entry applies ``(I - K)^{-1}(., 0)`` to
    a profile or a smoothed profile, and one smoothing product serves all
    of them; a wider ``order`` widens that product, so its ``[0]`` can
    differ from the ``order=0`` block in the last bits.
    """
    ar = params.resolvent
    D = params.D
    r0 = ar.apply_r0
    return np.array([[[r0(ft), -1.0 / D * r0(s)], [-D * r0(st), r0(f)]]
                     for ft, f, st, s in zip(*_smoothed_pair(params, z, order))])


def _check_pair(plus: RHParams, minus: RHParams) -> None:
    same = (
        plus.r1 == minus.r1
        and plus.r2 == minus.r2
        and plus.s1 == minus.s1
        and plus.s2 == minus.s2
        and plus.resolution == minus.resolution
    )
    if not same or minus.tau != -plus.tau:
        raise MismatchedParamsError("kernel needs the same parameters with opposite times")


def kernel_direct(params_plus: RHParams, params_minus: RHParams, u: float, v: float) -> float:
    """RH-form tacnode kernel from the ``p`` vectors at ``+tau`` and ``-tau``.

    Within 1e-6 of the diagonal the 0/0 limit is taken analytically at the
    midpoint (the numerator vanishes identically there).
    """
    _check_pair(params_plus, params_minus)
    if abs(u - v) < _DIAGONAL_EPS:
        mid = 0.5 * (u + v)
        gp = p_vector(params_plus, mid, derivs=True)
        gm = p_vector(params_minus, mid)
        return (gm.ip3 * gp.dp1 + gm.ip4 * gp.dp2 - gm.p1 * gp.dip3 - gm.p2 * gp.dip4) / (2.0 * math.pi)
    gu = p_vector(params_plus, u)
    gv = p_vector(params_minus, v)
    num = gv.ip3 * gu.p1 + gv.ip4 * gu.p2 - gv.p1 * gu.ip3 - gv.p2 * gu.ip4
    return num / (2.0 * math.pi * (u - v))


def kernel_tail(
    sp: SParam,
    r1: float,
    r2: float,
    tau: float,
    u: float,
    v: float,
    tail: TailSpec = TailSpec(),
    resolution: Resolution = Resolution(),
) -> float:
    """RH-form kernel reconstructed by integrating its rank-2 s-derivative.

    All shifts of the rule are done at once, with no parameter bundle per
    shift: ``s1``, ``s2``, ``D`` at ``+tau`` and ``-tau`` and the shift
    ``sigma`` are columns over the rule, from the formulas that
    :class:`RHParams` uses.  Each side's profiles come from one Airy call,
    and the boundary functionals contract them with the stacked ``r0`` and
    ``qvec`` rows that :func:`~tacnode.airy_operator.get_boundary_rows`
    builds for all shifts in one pass; ``sigma`` does not depend on the
    sign of ``tau``, so both sides share them.
    """
    if not (sp.sigma1 > 0 and sp.sigma2 > 0):
        raise ValueError("tail integration requires positive endpoint multipliers")
    rule = affine_map_rule(gauss_legendre_rule(tail.m), sp.s, sp.s + tail.S)
    s1, s2 = sp.sigma1 * rule.nodes, sp.sigma2 * rule.nodes
    # one row (C, D, sigma) per shift; C is one constant, and sigma does not see the sign of tau
    plus, minus = (np.array([_constants(r1, r2, a, b, t) for a, b in zip(s1, s2)]) for t in (tau, -tau))
    C, sigma = plus[0, 0], plus[:, 2]
    grid, r0, qvec = get_boundary_rows(sigma, resolution)
    x = np.concatenate(([0.0], grid.nodes))
    (btu,), (bu,) = _profiles(r1, r2, s1[:, None], s2[:, None], tau, C, u, x, 0)
    (btv,), (bv,) = _profiles(r1, r2, s1[:, None], s2[:, None], -tau, C, v, x, 0)
    p1u, p2u = _boundary_pair(grid.weights, r0, qvec, plus[:, 1], btu, bu)
    p1v, p2v = _boundary_pair(grid.weights, r0, qvec, minus[:, 1], btv, bv)
    values = (sp.sigma1 * p1u * p1v + sp.sigma2 * p2u * p2v) / math.pi
    total = float(rule.weights @ values)
    _check_tail_mass(rule.weights[-1] * values[-1], total, rule.nodes[-1])
    return total


@dataclass(frozen=True)
class ResidueEntries:
    """Closed-form entries of the residue matrix, all Painleve II data.

    The naming mirrors the block structure: ``d``-type entries carry
    ``q(sigma)``, ``c``-type the Hamiltonian ``u(sigma)``, the ``b``/``beta``
    group ``q'(sigma)``, and ``f``-type the time derivative of ``d``.
    """

    d: float
    d_tilde: float
    c: float
    c_tilde: float
    b: float
    b_tilde: float
    beta: float
    beta_tilde: float
    f: float
    f_tilde: float


def residue_matrix(params: RHParams) -> ResidueEntries:
    """Evaluate the residue-matrix entries from one resolvent build."""
    ar = params.resolvent
    r1, r2, s1, s2, tau = params.r1, params.r2, params.s1, params.s2, params.tau
    C, D = params.C, params.D
    q = ar.q
    u = ar.u
    dq = ar.p - ar.q * ar.u  # q'(sigma)

    d = q / (r2 * C * D)
    d_tilde = D * q / (r1 * C)
    c = (s1**2 - u / C) / r1
    c_tilde = (s2**2 - u / C) / r2
    b = (c_tilde + tau * r2) * d - dq / (r2**2 * C**2 * D)
    b_tilde = (c + tau * r1) * d_tilde - D * dq / (r1**2 * C**2)
    beta = (c_tilde - tau * r2) * d_tilde - D * dq / (r1 * r2 * C**2)
    beta_tilde = (c - tau * r1) * d - dq / (r1 * r2 * C**2 * D)

    # time derivatives of d and d_tilde at fixed endpoints, by the chain rule
    dsigma_dtau = -2.0 * (r1**2 + r2**2) * tau / C
    dlogD_dtau = (r1**4 - r2**4) * tau**2 + 2.0 * (r2 * s2 - r1 * s1)
    dd_dtau = (dq * dsigma_dtau - q * dlogD_dtau) / (r2 * C * D)
    ddt_dtau = D * (dq * dsigma_dtau + q * dlogD_dtau) / (r1 * C)

    rr = r1**2 + r2**2
    shared = (-r1 * c - r2 * c_tilde + rr * tau)
    f = (-r2 / rr * dd_dtau + shared * b - r1 * d**2 * d_tilde + r2 * c_tilde**2 * d - 2.0 * s2 * d) / r1
    f_tilde = (-r1 / rr * ddt_dtau + shared * b_tilde - r2 * d_tilde**2 * d + r1 * c**2 * d_tilde - 2.0 * s1 * d_tilde) / r2
    return ResidueEntries(d, d_tilde, c, c_tilde, b, b_tilde, beta, beta_tilde, f, f_tilde)
