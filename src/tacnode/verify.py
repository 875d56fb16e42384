"""Executable certification suite.

Every identity the library relies on (Painleve II structure of the
Tracy-Widom scalars, resolvent differential relations, rank-2 kernel
derivatives, the equivalence of the two kernel forms, residue-matrix
compatibility) is turned into a numeric residual with an explicit
tolerance.  Checks use fixed evaluation points and no randomness, so a
report is reproducible bit for bit; order is the canonical listing below,
never completion order.

Tolerances follow the dominant error source: 1e-9 when only quadrature is
involved, 1e-5 or 1e-6 with one finite difference, 1e-4 with two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import resolvent_form as rf
from . import rh_form as rh
from .airy import airy_ai, airy_ai_pair, airy_ai_prime
from .airy_operator import Resolution, get_resolvent
from .quadrature import TailSpec, gauss_legendre_rule
from .resolvent_form import ResolventParams
from .rh_form import RHParams, SParam


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one certified identity."""

    name: str
    statement: str
    max_residual: float
    tolerance: float
    points: tuple

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @staticmethod
    def build(name: str, statement: str, residuals, tolerance: float, points=()) -> "CheckReport":
        worst = float(np.max(np.abs(np.atleast_1d(np.asarray(residuals, dtype=float)))))
        return CheckReport(name, statement, worst, float(tolerance), tuple(points))


DEFAULT_TW_SIGMAS = (-2.0, -1.0, 0.0, 1.0, 2.0)
DEFAULT_POINTS = (-1.0, 0.0, 1.0)
DEFAULT_RESOLVENT_SETS = ((1.0, 1.0, 0.0, 0.0), (2.0, 0.5, 0.3, 0.3), (1.0, 1.0, 0.1, 0.4))
DEFAULT_RH_SETS = ((1.0, 1.0, 0.5, 0.5, 0.0), (1.2, 0.9, 0.4, 0.7, 0.3))
_H1 = 1e-3  # first derivatives, central
_H2 = 1e-2  # second derivatives, five-point


def _five_point_second(f, x: float, h: float) -> float:
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def _central(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2 * h)


def _richardson(f, x: float, h: float) -> float:
    return (4 * _central(f, x, h / 2) - _central(f, x, h)) / 3


def painleve_residual(sigma: float, res: Resolution, q_func=None) -> float:
    """|q'' - sigma q - 2 q^3| with a five-point second difference.

    ``q_func`` may replace the Hastings-McLeod evaluation (used by the
    sensitivity tests); the default is the resolvent route.
    """
    q = q_func if q_func is not None else (lambda s: get_resolvent(s, res).q)
    qpp = _five_point_second(q, sigma, _H2)
    q0 = q(sigma)
    return abs(qpp - sigma * q0 - 2.0 * q0**3)


def _node_pairs(m: int):
    base = ((5, 10), (10, 20), (15, 30), (20, 40), (25, 50), (30, 15), (40, 25), (50, 35), (60, 45), (70, 55))
    return tuple((i % m, j % m) for i, j in base)


def check_tw(sigmas=DEFAULT_TW_SIGMAS, res: Resolution = Resolution()) -> list[CheckReport]:
    """Tracy-Widom scalar relations and the resolvent differential identities."""
    reports = []
    scal = {s: get_resolvent(s, res) for s in sigmas}

    reports.append(CheckReport.build(
        "tw_painleve_ii", "q'' = sigma*q + 2*q^3 (Hastings-McLeod branch)",
        [painleve_residual(s, res) for s in sigmas], 1e-5, sigmas))

    def scalars(s):
        ar = get_resolvent(s, res)
        return ar.q, ar.p, ar.u, ar.v

    sys_resid = {"q": [], "p": [], "u": [], "v": []}
    for s in sigmas:
        q, p, u, v = scalars(s)
        sys_resid["q"].append(_central(lambda t: scalars(t)[0], s, _H1) - (p - q * u))
        sys_resid["p"].append(_central(lambda t: scalars(t)[1], s, _H1) - (s * q + p * u - 2 * q * v))
        sys_resid["u"].append(_central(lambda t: scalars(t)[2], s, _H1) - (-q * q))
        sys_resid["v"].append(_central(lambda t: scalars(t)[3], s, _H1) - (-p * q))
    for key, statement in (
        ("q", "q' = p - q*u"),
        ("p", "p' = sigma*q + p*u - 2*q*v"),
        ("u", "u' = -q^2"),
        ("v", "v' = -p*q"),
    ):
        reports.append(CheckReport.build(f"tw_system_{key}", statement, sys_resid[key], 1e-6, sigmas))

    reports.append(CheckReport.build(
        "tw_algebraic", "2*v = u^2 - q^2",
        [2 * ar.v - (ar.u**2 - ar.q**2) for ar in scal.values()], 1e-9, sigmas))
    ham = []
    for s, ar in scal.items():
        dq = ar.p - ar.q * ar.u
        ham.append(ar.u - (dq * dq - s * ar.q**2 - ar.q**4))
    reports.append(CheckReport.build(
        "tw_hamiltonian", "u = (q')^2 - sigma*q^2 - q^4", ham, 1e-8, sigmas))
    reports.append(CheckReport.build(
        "tw_v_two_ways", "int Q*Ai' = int P*Ai",
        [ar.weights @ (ar.qvec * ar.aip_nodes) - ar.weights @ (ar.pvec * ar.ai_nodes) for ar in scal.values()],
        1e-9, sigmas))

    # resolvent differential identities on fixed node pairs, at each shift
    pairs = _node_pairs(res.m)
    rxy, rsig, qx, px = [], [], [], []
    exch_q, exch_r = [], []
    for s in sigmas:
        ar = scal[s]
        x = ar.nodes
        arp = get_resolvent(s + _H1, res)
        arm = get_resolvent(s - _H1, res)
        for i, j in pairs:
            dx = _central(lambda t: ar.resolvent_at(t, j), x[i], _H1)
            dy = _central(lambda t: ar.resolvent_at(t, i), x[j], _H1)
            rxy.append(dx + dy - (ar.r0[i] * ar.r0[j] - ar.qvec[i] * ar.qvec[j]))
            ds = (arp.resolvent_matrix[i, j] - arm.resolvent_matrix[i, j]) / (2 * _H1)
            rsig.append(ds + ar.qvec[i] * ar.qvec[j])
            dq_i = _central(lambda t: ar.extend(ar.qvec, lambda y: airy_ai(y + ar.sigma), t), x[i], _H1)
            qx.append(dq_i - (ar.pvec[i] + ar.q * ar.r0[i] - ar.u * ar.qvec[i]))
            dp_i = _central(lambda t: ar.extend(ar.pvec, lambda y: airy_ai_prime(y + ar.sigma), t), x[i], _H1)
            px.append(dp_i - ((x[i] + ar.sigma - 2 * ar.v) * ar.qvec[i] + ar.p * ar.r0[i] + ar.u * ar.pvec[i]))

        # boundary-functional exchange identities with the probe b(x) = exp(-x)
        probe = np.exp(-x)
        sm = ar.smooth(probe)
        exch_q.append(ar.weights @ (ar.qvec * probe) - ar.apply_r0(sm))
        exch_r.append(float((ar.weights * ar.qvec) @ ar.smoothing @ (ar.weights * probe))
                      - float(ar.weights @ (ar.r0 * probe)))
    for name, statement, resid in (
        ("resolvent_pde_xy", "(d/dx + d/dy) R(x,y) = R(x,0) R(0,y) - Q(x) Q(y)", rxy),
        ("resolvent_pde_sigma", "d/dsigma R(x,y) = -Q(x) Q(y)", rsig),
        ("resolvent_pde_q", "Q'(x) = P(x) + q R(x,0) - u Q(x)", qx),
        ("resolvent_pde_p", "P'(x) = (x + sigma - 2v) Q(x) + p R(x,0) + u P(x)", px),
    ):
        reports.append(CheckReport.build(name, statement, resid, 1e-5, pairs))
    reports.append(CheckReport.build(
        "exchange_q_form", "int Q b = (I + R)(., 0) applied to the Airy smoothing of b",
        exch_q, 1e-9, sigmas))
    reports.append(CheckReport.build(
        "exchange_r_form", "int int Q(x) Ai(x+y+sigma) b(y) = int R(x,0) b(x)",
        exch_r, 1e-9, sigmas))
    return reports


def _resolvent_params(spec, res: Resolution) -> ResolventParams:
    lam, Sigma, tau1, tau2 = spec
    return ResolventParams.create(lam, Sigma=Sigma, tau1=tau1, tau2=tau2, resolution=res)


def check_resolvent_kernel(res: Resolution = Resolution()) -> list[CheckReport]:
    """Identities of the Airy-resolvent kernel form."""
    reports = []
    params = [_resolvent_params(spec, res) for spec in DEFAULT_RESOLVENT_SETS]
    single = [p for p in params if p.single_time]
    pts = [(u, v) for u in DEFAULT_POINTS for v in DEFAULT_POINTS]

    resid = []
    for p in params:
        for u, v in ((0.0, 0.0), (1.0, -1.0)):
            an = rf.kernel_dsigma(p, u, v)
            fd = (rf.kernel(p.at_sigma(p.sigma + _H1), u, v) - rf.kernel(p.at_sigma(p.sigma - _H1), u, v)) / (2 * _H1)
            resid.append((an - fd) / an)
    reports.append(CheckReport.build(
        "rank2_derivative_fd", "d/dsigma kernel = -C^-2 (lam^(1/3) phat1 phat1 + lam^(-1/2) phat2 phat2)",
        resid, 1e-5, DEFAULT_RESOLVENT_SETS))

    resid = []
    for p in params:
        ar = p.resolvent
        for z in DEFAULT_POINTS:
            for tau in (p.tau1, -p.tau2):
                a_plain = rf.script_a(p, tau, z)
                a_tilde = rf.script_a(p, tau, z, tilde=True)
                p1, p2 = rf.phat(p, tau, z)
                bt0 = rf.b_values(p, tau, z, np.array([0.0]), tilde=True)[0]
                b0 = rf.b_values(p, tau, z, np.array([0.0]))[0]
                p1q = bt0 - p.lam ** (-1.0 / 6.0) * float(ar.weights @ (ar.qvec * a_plain[1:]))
                p2q = b0 - p.lam ** (1.0 / 6.0) * float(ar.weights @ (ar.qvec * a_tilde[1:]))
                resid.extend([p1 - p1q, p2 - p2q])
    reports.append(CheckReport.build(
        "phat_equivalent_forms", "resolvent and Q-integral expressions of phat agree",
        resid, 1e-9, DEFAULT_POINTS))

    sym = next(p for p in single if p.lam == 1.0)
    resid = [rf.phat(sym, sym.tau1, z)[0] - rf.phat(sym, sym.tau1, -z)[1] for z in DEFAULT_POINTS]
    reports.append(CheckReport.build(
        "phat_symmetric_swap", "lam = 1: phat1(z) = phat2(-z)", resid, 1e-12, DEFAULT_POINTS))
    resid = []
    for tau, z in ((sym.tau1, 0.3), (0.2, -0.7)):
        bt = rf.b_values(sym, tau, z, sym.resolvent.nodes, tilde=True)
        bm = rf.b_values(sym, tau, -z, sym.resolvent.nodes)
        resid.append(np.max(np.abs(bt - bm)))
    reports.append(CheckReport.build(
        "profile_symmetric_swap", "lam = 1: b_tilde(tau, z) = b(tau, -z)", resid, 1e-13, DEFAULT_POINTS))
    resid = [rf.kernel(sym, u, v) - rf.kernel(sym, -u, -v) for u, v in pts]
    reports.append(CheckReport.build(
        "kernel_reflection", "lam = 1: kernel(u, v) = kernel(-u, -v)", resid, 1e-9, pts))

    resid = [rf.kernel_six_term(p, u, v) - rf.kernel(p, u, v) for p in single for u, v in pts]
    reports.append(CheckReport.build(
        "six_term_vs_compact", "six-term kernel expression equals the compact two-term form",
        resid, 1e-8, pts))

    resid = []
    for p in single:
        ar = p.resolvent
        w = ar.weights
        for (u, v) in ((0.0, 0.0), (1.0, -1.0)):
            bu = rf.b_values(p, p.tau1, u, ar.nodes)
            bv = rf.b_values(p, -p.tau2, v, ar.nodes)
            s_bu = ar.smooth(bu)[1:]
            s_bv = ar.smooth(bv)[1:]
            lhs = float(w @ (s_bu * ar.solve(s_bv)))
            rhs = float(w @ (bu * ar.solve(bv))) - float(w @ (bu * bv))
            resid.append(lhs - rhs)
    reports.append(CheckReport.build(
        "smoothing_square_rewrite",
        "(I-K)^-1 against smoothed profiles equals its unsmoothed form minus the plain overlap",
        resid, 1e-9, DEFAULT_RESOLVENT_SETS))

    resid = []
    pts5 = [(u, v) for u in np.linspace(-1, 1, 5) for v in np.linspace(-1, 1, 5)]
    for p in params:
        mirrored = ResolventParams.create(p.lam, sigma=p.sigma, tau1=-p.tau2, tau2=-p.tau1, resolution=res)
        resid.extend(rf.kernel(p, u, v) - rf.kernel(mirrored, v, u) for u, v in pts5)
    reports.append(CheckReport.build(
        "kernel_time_symmetry", "kernel(u, v; tau1, tau2) = kernel(v, u; -tau2, -tau1)",
        resid, 1e-10, DEFAULT_RESOLVENT_SETS))

    multi = [p for p in params if not p.single_time]
    resid = []
    for p in multi + single[:1]:
        for u, v in ((0.3, -0.2), (0.0, 0.0)):
            ar = p.resolvent
            w = ar.weights
            btu = rf.b_values(p, p.tau1, u, ar.nodes, tilde=True)
            btv = rf.b_values(p, -p.tau2, v, ar.nodes, tilde=True)
            au = rf.script_a(p, p.tau1, u)
            av = rf.script_a(p, -p.tau2, v)
            smooth_part = p.C * p.lam ** (1.0 / 3.0) * float(w @ (btu * btv)) + p.C * float(w @ (au[1:] * ar.solve(av[1:])))
            dt = p.tau2 - p.tau1
            heat = -math.exp(-((v - u) ** 2) / (4 * dt)) / math.sqrt(4 * math.pi * dt) if dt > 1e-12 else 0.0
            resid.append(rf.kernel(p, u, v) - smooth_part - heat)
    reports.append(CheckReport.build(
        "heat_term_presence", "backward heat term enters exactly when tau1 < tau2",
        resid, 1e-12, DEFAULT_RESOLVENT_SETS))

    resid = []
    for p in params:
        grid = np.array([[rf.kernel_dsigma(p, u, v) for v in DEFAULT_POINTS] for u in DEFAULT_POINTS])
        sv = np.linalg.svd(grid, compute_uv=False)
        resid.append(sv[2] / sv[0])
    reports.append(CheckReport.build(
        "rank2_structure", "sampled kernel shift-derivative has numerical rank 2",
        resid, 1e-8, DEFAULT_POINTS))

    resid = [rf.kernel_tail(p, 0.5, -0.5) - rf.kernel(p, 0.5, -0.5) for p in params]
    reports.append(CheckReport.build(
        "tail_integral_vs_kernel", "integrating the rank-2 derivative over the shift recovers the kernel",
        resid, 1e-6, DEFAULT_RESOLVENT_SETS))

    # shift/space differential identity of the smoothed profile, by finite differences
    resid = []
    p = single[0]
    lam = p.lam
    xs = np.array([0.4, 1.3])
    for z in (-0.5, 0.8):
        tau = p.tau1
        ds = (rf.script_a_at(p.at_sigma(p.sigma + _H1), tau, z, xs) - rf.script_a_at(p.at_sigma(p.sigma - _H1), tau, z, xs)) / (2 * _H1)
        dx = (rf.script_a_at(p, tau, z, xs + _H1) - rf.script_a_at(p, tau, z, xs - _H1)) / (2 * _H1)
        bt0 = rf.b_values(p, tau, z, np.array([0.0]), tilde=True)[0]
        ai_term = lam ** (1.0 / 6.0) * airy_ai(xs + p.sigma) * bt0
        resid.extend((1 + lam**-0.5) * ds - lam**-0.5 * dx - ai_term)
    reports.append(CheckReport.build(
        "smoothed_profile_shift_identity",
        "(1 + lam^-1/2) d/dsigma A = lam^-1/2 d/dx A + lam^(1/6) Ai(x+sigma) b_tilde(0)",
        resid, 1e-5, (0.4, 1.3)))

    decay = ResolventParams.create(1.0, Sigma=20.0, tau=0.0, resolution=res)
    a_dec = rf.script_a(decay, 0.0, 0.3)
    b_dec = rf.b_values(decay, 0.0, 0.3, decay.resolvent.nodes)
    reports.append(CheckReport.build(
        "strong_interaction_decay",
        "Sigma = 20: kernel, its derivative, and the smoothing correction all vanish",
        [rf.kernel(decay, 0.0, 0.0), rf.kernel_dsigma(decay, 0.0, 0.0), np.max(np.abs(a_dec[1:] - b_dec))],
        1e-10, ((0.0, 0.0),)))
    return reports


def _rh_params(spec, res: Resolution) -> RHParams:
    r1, r2, s1, s2, tau = spec
    return RHParams.create(r1, r2, s1, s2, tau, res)


def check_rh_kernel(paramsets=DEFAULT_RH_SETS, res: Resolution = Resolution()) -> list[CheckReport]:
    """Identities of the Riemann-Hilbert kernel form."""
    reports = []
    params = [_rh_params(spec, res) for spec in paramsets]

    resid = []
    for p in params:
        for z in DEFAULT_POINTS:
            g = rh.p_vector(p, z)
            m = rh.m_top_left(p, z)[0]
            resid.extend([g.p1 - (m[0, 0] + m[0, 1]), g.p2 - (m[1, 0] + m[1, 1])])
    reports.append(CheckReport.build(
        "p_column_sum", "p equals the sum of the first two columns of the RH block",
        resid, 1e-12, DEFAULT_POINTS))

    r1_resid, r2_resid = [], []
    for p in params:
        ar = p.resolvent
        q = ar.q
        dq = ar.p - q * ar.u
        for z in DEFAULT_POINTS:
            g = rh.p_vector(p, z)
            ddp1 = _richardson(lambda t: rh.p_vector(p, t).dp1, z, _H1)
            ddp2 = _richardson(lambda t: rh.p_vector(p, t).dp2, z, _H1)
            lhs1 = p.r1**-2 * ddp1
            rhs1 = (2 * p.tau * g.dp1 + p.C**2 / p.D * q * g.dp2
                    + (p.C * q * q - z + 2 * p.s1 / p.r1 - p.r1**2 * p.tau**2) * g.p1
                    - p.C / p.D * dq * g.p2)
            r1_resid.append(lhs1 - rhs1)
            lhs2 = p.r2**-2 * ddp2
            rhs2 = (-p.C**2 * p.D * q * g.dp1 - 2 * p.tau * g.dp2
                    + (p.C * q * q + z + 2 * p.s2 / p.r2 - p.r2**2 * p.tau**2) * g.p2
                    - p.C * p.D * dq * g.p1)
            r2_resid.append(lhs2 - rhs2)
    reports.append(CheckReport.build(
        "p_ode_first", "r1^-2 p1'' = 2 tau p1' + C^2 D^-1 q p2' + [C q^2 - z + 2 s1/r1 - r1^2 tau^2] p1 - C D^-1 q' p2",
        r1_resid, 1e-5, DEFAULT_POINTS))
    reports.append(CheckReport.build(
        "p_ode_second", "r2^-2 p2'' = -C^2 D q p1' - 2 tau p2' + [C q^2 + z + 2 s2/r2 - r2^2 tau^2] p2 - C D q' p1",
        r2_resid, 1e-5, DEFAULT_POINTS))

    resid = []
    for p in params:
        ar = p.resolvent
        q, u = ar.q, ar.u
        dq = ar.p - q * u
        for z in DEFAULT_POINTS:
            (m1, m2), (dm1, dm2) = rh.m_top_left(p, z, order=1)[:, :, 0]
            ddm1 = _richardson(lambda t: rh.m_top_left(p, t, order=1)[1, 0, 0], z, _H1)
            lhs = p.r1**-2 * ddm1
            rhs = (2 * p.tau * dm1 + p.C**2 / p.D * q * dm2
                   + (p.C * q * q - z + 2 * p.s1 / p.r1 - p.r1**2 * p.tau**2) * m1
                   - p.C / p.D * dq * m2)
            resid.append(lhs - rhs)
    reports.append(CheckReport.build(
        "m_column_ode", "the first RH column satisfies the same second-order system as p",
        resid, 1e-5, DEFAULT_POINTS))

    xs = np.array([0.2, 0.9, 2.1])
    plain_resid, tilde_resid, cross_resid = [], [], []
    for p in params:
        for z in DEFAULT_POINTS:
            b, db, d2b = rh.b_with_derivs(p, z, xs, order=2)
            plain_resid.extend(p.r2**-2 * d2b + 2 * p.tau * db - (z + p.C * xs + 2 * p.s2 / p.r2 - p.r2**2 * p.tau**2) * b)
            bt, dbt, d2bt = rh.b_with_derivs(p, z, xs, tilde=True, order=2)
            tilde_resid.extend(p.r1**-2 * d2bt - 2 * p.tau * dbt - (-z + p.C * xs + 2 * p.s1 / p.r1 - p.r1**2 * p.tau**2) * bt)
            fd_x = _richardson(lambda h: rh.b_values(p, z, xs + h), 0.0, _H1)
            fd_z = _richardson(lambda h: rh.b_values(p, z + h, xs), 0.0, _H1)
            cross_resid.extend(fd_x - p.C * fd_z)
    reports.append(CheckReport.build(
        "profile_ode_plain", "r2^-2 b'' + 2 tau b' = (z + C x + 2 s2/r2 - r2^2 tau^2) b in z",
        plain_resid, 1e-6, DEFAULT_POINTS))
    reports.append(CheckReport.build(
        "profile_ode_tilde", "r1^-2 bt'' - 2 tau bt' = (-z + C x + 2 s1/r1 - r1^2 tau^2) bt in z",
        tilde_resid, 1e-6, DEFAULT_POINTS))
    reports.append(CheckReport.build(
        "profile_x_vs_z", "d/dx b = C d/dz b", cross_resid, 1e-8, DEFAULT_POINTS))

    dz_resid, dzz_resid = [], []
    for p in params:
        ar = p.resolvent
        nodes = ar.nodes
        for z in DEFAULT_POINTS:
            a0, a1, a2 = rh.script_a(p, z, order=2)
            bt = rh.b_with_derivs(p, z, np.array([0.0]), tilde=True, order=1)
            bt0, dbt0 = bt[0][0], bt[1][0]
            btp0 = -p.C * dbt0  # x-derivative of the tilde profile at 0
            # x-derivative of A: C d/dz b - D * (Ai' smoothing of b_tilde)
            _, db_plain = rh.b_with_derivs(p, z, nodes, order=1)
            bt_nodes = rh.b_values(p, z, nodes, tilde=True)
            smp = ar.smoothing_prime @ (ar.weights * bt_nodes)
            a_x = p.C * db_plain - p.D * smp
            dz_resid.extend(a1[1:] - (a_x - p.D * ar.ai_nodes * bt0) / p.C)
            rhs = ((z + p.C * nodes + 2 * p.s2 / p.r2 - p.r2**2 * p.tau**2) * a0[1:]
                   + p.C * p.D * (ar.ai_nodes * btp0 - ar.aip_nodes * bt0))
            dzz_resid.extend(p.r2**-2 * a2[1:] + 2 * p.tau * a1[1:] - rhs)
    reports.append(CheckReport.build(
        "smoothed_profile_dz", "d/dz A = C^-1 (d/dx A - D Ai(x+sigma) b_tilde(0))",
        dz_resid, 1e-6, DEFAULT_POINTS))
    reports.append(CheckReport.build(
        "smoothed_profile_dzz",
        "r2^-2 d2/dz2 A + 2 tau d/dz A = (z + C x + 2 s2/r2 - r2^2 tau^2) A + C D (Ai bt'(0) - Ai' bt(0))",
        dzz_resid, 1e-5, DEFAULT_POINTS))

    resid = []
    for p in params:
        ar = p.resolvent
        for z in DEFAULT_POINTS:
            g = rh.p_vector(p, z)
            a_plain = rh.script_a(p, z)[0]
            a_tilde = rh.script_a(p, z, tilde=True)[0]
            b0 = rh.b_values(p, z, np.array([0.0]))[0]
            bt0 = rh.b_values(p, z, np.array([0.0]), tilde=True)[0]
            p1q = bt0 - float(ar.weights @ (ar.qvec * a_plain[1:])) / p.D
            p2q = b0 - p.D * float(ar.weights @ (ar.qvec * a_tilde[1:]))
            resid.extend([g.p1 - p1q, g.p2 - p2q])
    reports.append(CheckReport.build(
        "p_equivalent_forms", "resolvent and Q-integral expressions of p agree",
        resid, 1e-9, DEFAULT_POINTS))

    resid = []
    for lam, Sigma, tau in ((1.0, 1.0, 0.0), (2.0, 0.5, 0.3)):
        pf = ResolventParams.create(lam, Sigma=Sigma, tau=tau, resolution=res)
        pr = rh.from_resolvent_params(lam, Sigma, tau, res)
        for z in DEFAULT_POINTS:
            g = rh.p_vector(pr, z)
            h1, h2 = rf.phat(pf, tau, z)
            c1 = math.sqrt(2 * math.pi) * pr.r1 ** (1.0 / 6.0) * math.exp(pr.r1**4 * tau * (Sigma + 2.0 / 3.0 * tau**2))
            c2 = math.sqrt(2 * math.pi) * pr.r2 ** (1.0 / 6.0) * math.exp(pr.r2**4 * tau * (Sigma + 2.0 / 3.0 * tau**2))
            resid.extend([g.p1 / (c1 * h1) - 1.0, g.p2 / (c2 * h2) - 1.0])
    reports.append(CheckReport.build(
        "p_phat_scaling", "p_j = sqrt(2 pi) r_j^(1/6) exp(r_j^4 tau (Sigma + 2 tau^2/3)) phat_j",
        resid, 1e-9, DEFAULT_POINTS))

    sym = params[0]
    if sym.r1 == sym.r2 and sym.s1 == sym.s2 and sym.tau == 0.0:
        m = rh.m_top_left(sym, 0.0)[0]
        b = rh.b_values(sym, 0.0, np.array([0.0, 0.7]))
        bt = rh.b_values(sym, 0.0, np.array([0.0, 0.7]), tilde=True)
        reports.append(CheckReport.build(
            "symmetric_degeneracy", "symmetric case at z = 0: M11 = M22, M12 = M21, b = b_tilde",
            [m[0, 0] - m[1, 1], m[0, 1] - m[1, 0], *(b - bt)], 1e-12, (0.0,)))
        minus = sym.with_tau(-sym.tau)
        resid = [rh.kernel_direct(sym, minus, u, v) - rh.kernel_direct(sym, minus, v, u)
                 for u in (0.0, 1.0) for v in (-1.0, 0.5)]
        reports.append(CheckReport.build(
            "rh_kernel_symmetry", "tau = 0 symmetric case: K(u, v) = K(v, u)",
            resid, 1e-9, (0.0, 1.0)))

    resid = []
    for p in params:
        minus = p.with_tau(-p.tau)
        gus = [rh.p_vector(p, u) for u in DEFAULT_POINTS]
        gvs = [rh.p_vector(minus, v) for v in DEFAULT_POINTS]
        mat = np.array([[-(gu.p1 * gv.p1 + gu.p2 * gv.p2) / math.pi for gv in gvs] for gu in gus])
        sv = np.linalg.svd(mat, compute_uv=False)
        resid.append(sv[2] / sv[0])
    reports.append(CheckReport.build(
        "rh_rank2_structure", "sampled s-derivative of the RH kernel has numerical rank 2",
        resid, 1e-8, DEFAULT_POINTS))

    sp = SParam(1.0, 1.0, 0.5)
    pp = sp.rh_params(1.0, 1.0, 0.0, res)
    pm = pp.with_tau(-0.0)
    tail_val = rh.kernel_tail(sp, 1.0, 1.0, 0.0, 0.0, 1.0, resolution=res)
    direct_val = rh.kernel_direct(pp, pm, 0.0, 1.0)
    reports.append(CheckReport.build(
        "rh_tail_vs_direct", "integrated rank-2 derivative recovers the RH kernel",
        [tail_val - direct_val], 1e-5, ((0.0, 1.0),)))

    def tail_of_s(s):
        return rh.kernel_tail(sp.at(s), 1.0, 1.0, 0.0, 0.0, 1.0, resolution=res)

    gu = rh.p_vector(pp, 0.0)
    gv = rh.p_vector(pm, 1.0)
    expected = -(gu.p1 * gv.p1 + gu.p2 * gv.p2) / math.pi
    reports.append(CheckReport.build(
        "rh_tail_lower_limit_derivative", "d/ds of the tail integral at its lower limit is the rank-2 integrand",
        [_central(tail_of_s, 0.5, _H1) - expected], 1e-6, (0.5,)))
    return reports


def check_equivalence(
    lambdas=(1.0, 2.0),
    Sigmas=(1.0, 0.5),
    taus=(0.0, 0.3),
    points=DEFAULT_POINTS,
    res: Resolution = Resolution(),
    tail: TailSpec = TailSpec(),
) -> list[CheckReport]:
    """The central claim: both kernel forms give the same function."""
    reports = []
    for lam, Sigma, tau in zip(lambdas, Sigmas, taus, strict=True):
        pf = ResolventParams.create(lam, Sigma=Sigma, tau=tau, resolution=res)
        pp = rh.from_resolvent_params(lam, Sigma, tau, res)
        pm = pp.with_tau(-tau)
        direct_resid, tail_resid = [], []
        for u in points:
            for v in points:
                lval = rf.kernel(pf, u, v)
                kval = rh.kernel_direct(pp, pm, u, v)
                direct_resid.append((lval - kval) / max(1.0, abs(lval)))
                tval = rf.kernel_tail(pf, u, v, tail)
                tail_resid.append(lval - tval)
        tag = f"lam={lam:g}_Sigma={Sigma:g}_tau={tau:g}"
        reports.append(CheckReport.build(
            f"kernel_equivalence_{tag}", "resolvent-form kernel equals the RH-form kernel",
            direct_resid, 1e-5, tuple((u, v) for u in points for v in points)))
        reports.append(CheckReport.build(
            f"kernel_tail_equivalence_{tag}", "resolvent-form kernel equals its tail-integrated reconstruction",
            tail_resid, 1e-5, tuple((u, v) for u in points for v in points)))

    pf = ResolventParams.create(1.0, Sigma=20.0, tau=0.0, resolution=res)
    pp = rh.from_resolvent_params(1.0, 20.0, 0.0, res)
    pm = pp.with_tau(-0.0)
    lval = rf.kernel(pf, 0.0, 0.0)
    kval = rh.kernel_direct(pp, pm, 0.0, 0.0)
    reports.append(CheckReport.build(
        "kernel_mutual_decay", "Sigma = 20: both kernel forms vanish together",
        [lval / 1e-10, kval / 1e-10, (lval - kval) / 1e-12], 1.0, ((0.0, 0.0),)))
    return reports


def check_compat(
    r1: float = 1.2,
    r2: float = 0.9,
    sp: SParam = SParam(1.3, 0.8, 0.4),
    tau: float = 0.3,
    res: Resolution = Resolution(),
) -> list[CheckReport]:
    """Residue-matrix identities: exact algebra, flow equations, swap symmetry."""
    reports = []

    def entries(s: float, tau_val: float = tau):
        return rh.residue_matrix(sp.at(s).rh_params(r1, r2, tau_val, res))

    e = entries(sp.s)
    rr = r1**2 + r2**2
    reports.append(CheckReport.build(
        "residue_exact_relation", "r2 (ct d - b) - r1 (c d - betat) + (r1^2 + r2^2) tau d = 0",
        [r2 * (e.c_tilde * e.d - e.b) - r1 * (e.c * e.d - e.beta_tilde) + rr * tau * e.d],
        1e-10, (sp.s,)))

    s = sp.s
    mix = sp.sigma1 * r2 + sp.sigma2 * r1
    d_s = _central(lambda t: entries(t).d, s, _H1)
    dt_s = _central(lambda t: entries(t).d_tilde, s, _H1)
    c_s = _central(lambda t: entries(t).c, s, _H1)
    ct_s = _central(lambda t: entries(t).c_tilde, s, _H1)
    s_resid = [
        r1 * d_s - (2 * mix * (e.c_tilde * e.d - e.b) + 2 * rr * sp.sigma1 * tau * e.d),
        r2 * dt_s - (2 * mix * (e.c * e.d_tilde - e.b_tilde) + 2 * rr * sp.sigma2 * tau * e.d_tilde),
        r1 * c_s - (2 * mix * e.d * e.d_tilde + 2 * sp.sigma1**2 * s),
        r2 * ct_s - (2 * mix * e.d * e.d_tilde + 2 * sp.sigma2**2 * s),
    ]
    reports.append(CheckReport.build(
        "residue_s_flow", "endpoint-flow equations for d, d_tilde, c, c_tilde",
        s_resid, 1e-5, (s,)))

    c_t = _central(lambda t: entries(s, t).c, tau, _H1)
    d_t = _central(lambda t: entries(s, t).d, tau, _H1)
    s1 = sp.sigma1 * s
    tau_resid = [
        c_t - rr * (e.d * e.beta - e.d_tilde * e.b),
        r1 * d_t - rr * (rr * tau * e.beta_tilde + (r1 * e.c + r2 * e.c_tilde) * e.beta_tilde
                         + r2 * e.d**2 * e.d_tilde - r1 * e.c**2 * e.d + 2 * s1 * e.d + r2 * e.f),
    ]
    reports.append(CheckReport.build(
        "residue_tau_flow", "time-flow equations for c and d",
        tau_resid, 1e-5, (tau,)))

    dd = _five_point_second(lambda t: entries(t).d, s, _H2)
    ddt = _five_point_second(lambda t: entries(t).d_tilde, s, _H2)
    drift = 4 * tau * (r1 * sp.sigma1 - r2 * sp.sigma2)
    quad = -4 * rr * (sp.sigma1**2 + sp.sigma2**2) * tau**2
    cube = 8 * mix**2 / (r1 * r2)
    lin = 8 * mix**3 / (r1 * r2 * rr)
    pii_resid = [
        dd - (drift * d_s + quad * e.d + cube * e.d**2 * e.d_tilde + lin * s * e.d),
        ddt - (-drift * dt_s + quad * e.d_tilde + cube * e.d_tilde**2 * e.d + lin * s * e.d_tilde),
    ]
    reports.append(CheckReport.build(
        "residue_coupled_second_order", "d and d_tilde solve the coupled Painleve-II-type system in s",
        pii_resid, 1e-4, (s,)))

    mixed = d_t - (-r1 * r2 * rr / mix * tau * d_s
                   + rr**2 * (sp.sigma1 * r2 - sp.sigma2 * r1) / mix * tau**2 * e.d
                   + 2 * (r1 * s1 - r2 * sp.sigma2 * s) * e.d)
    reports.append(CheckReport.build(
        "residue_mixed_flow", "time derivative of d expressed through its endpoint derivative",
        [mixed], 1e-5, (s, tau)))

    swapped = rh.residue_matrix(RHParams.create(r2, r1, sp.sigma2 * s, sp.sigma1 * s, tau, res))
    swap_resid = [
        e.d - swapped.d_tilde, e.d_tilde - swapped.d,
        e.c - swapped.c_tilde, e.c_tilde - swapped.c,
        e.b - swapped.b_tilde, e.b_tilde - swapped.b,
        e.beta - swapped.beta_tilde, e.beta_tilde - swapped.beta,
        e.f - swapped.f_tilde, e.f_tilde - swapped.f,
    ]
    reports.append(CheckReport.build(
        "residue_swap_symmetry", "every entry swaps with its tilde partner under (r1, s1) <-> (r2, s2)",
        swap_resid, 1e-12, (s, tau)))
    return reports


SUITES = ("tw", "resolvent", "rh", "equivalence", "compat")


def run_suite(name: str = "all", res: Resolution = Resolution(), tol_scale: float = 1.0) -> list[CheckReport]:
    """Run one named suite (or all of them) with the default parameter sets, each tolerance times ``tol_scale``."""
    if name not in SUITES and name != "all":
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    reports, sym = [], []
    if name in ("tw", "all"):
        reports.extend(check_tw(res=res))
    if name in ("resolvent", "all"):
        reports.extend(check_resolvent_kernel(res=res))
    if name in ("rh", "all"):
        reports.extend(check_rh_kernel(res=res))
    if name in ("equivalence", "all"):
        reports.extend(check_equivalence(res=res))
    if name in ("compat", "all"):
        reports.extend(check_compat(res=res))
        sym = check_compat(1.0, 1.0, SParam(1.0, 1.0, 0.5), 0.0, res)  # second compat instance: symmetric baseline
    return [replace(r, name=prefix + r.name, tolerance=r.tolerance * tol_scale)
            for prefix, batch in (("", reports), ("sym_", sym)) for r in batch]


def coverage_manifest(reports: list[CheckReport] | None = None) -> dict[str, str]:
    """Map check name -> the identity it certifies, for the default suites."""
    if reports is None:
        reports = run_suite("all")
    return {r.name: r.statement for r in reports}
