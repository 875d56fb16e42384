import ast
import math
from pathlib import Path

import numpy as np
import pytest

import tacnode.resolvent_form as rf
import tacnode.rh_form as rh
from tacnode import airy_operator
from tacnode.airy_operator import Resolution
from tacnode.errors import MismatchedParamsError
from tacnode.quadrature import affine_map_rule, gauss_legendre_rule
from tacnode.resolvent_form import ResolventParams, TailSpec, kernel as fv_kernel, phat
from tacnode.rh_form import (
    RHParams,
    SParam,
    b_values,
    b_with_derivs,
    from_resolvent_params,
    kernel_direct,
    kernel_tail,
    m_top_left,
    p_vector,
    residue_matrix,
    script_a,
)


@pytest.fixture(scope="module")
def sym():
    return RHParams.create(1.0, 1.0, 0.5, 0.5, 0.0)


@pytest.fixture(scope="module")
def skew():
    return RHParams.create(1.2, 0.9, 0.4, 0.7, 0.3)


def test_symmetric_case_constants(sym):
    assert sym.C == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert sym.D == 1.0
    assert sym.sigma == pytest.approx(2.0 ** (5.0 / 3.0) * 0.5, rel=1e-14)
    tau_case = RHParams.create(1.0, 1.0, 0.5, 0.5, 0.4)
    assert tau_case.sigma == pytest.approx(2.0 ** (5.0 / 3.0) * 0.5 - 2.0 ** (2.0 / 3.0) * 0.16, rel=1e-13)
    assert RHParams.create(0.7, 2.0, -1.0, 3.0, -0.8).D > 0


def test_parameter_validation():
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            RHParams.create(bad, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RHParams.create(1.0, bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            from_resolvent_params(bad, 1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_tail(SParam(1.0, 1.0, 0.5), bad, 1.0, 0.0, 0.0, 1.0)


def test_map_from_resolvent_parameters():
    p = from_resolvent_params(1.0, 1.0, 0.0)
    assert (p.r1, p.r2) == (1.0, 1.0)
    assert p.s1 == pytest.approx(0.5) and p.s2 == pytest.approx(0.5)
    for lam in (1.0, 2.0, 5.0):
        rp = from_resolvent_params(lam, 0.7, 0.2)
        fv = ResolventParams.create(lam, Sigma=0.7, tau=0.2)
        assert rp.sigma == pytest.approx(fv.sigma, rel=1e-13)
        assert rp.C == pytest.approx((1.0 + lam**-0.5) ** (1.0 / 3.0), rel=1e-14)


def test_profiles_coincide_in_symmetric_case(sym):
    x = np.linspace(0.0, 6.0, 13)
    assert np.array_equal(b_values(sym, 0.0, x), b_values(sym, 0.0, x, tilde=True))


def test_profile_ode_residuals(skew):
    x = np.array([0.2, 1.1, 3.4])
    for z in (-0.8, 0.0, 1.3):
        b, db, d2b = b_with_derivs(skew, z, x, order=2)
        resid = skew.r2**-2 * d2b + 2 * skew.tau * db - (z + skew.C * x + 2 * skew.s2 / skew.r2 - skew.r2**2 * skew.tau**2) * b
        assert np.max(np.abs(resid)) < 1e-6
        bt, dbt, d2bt = b_with_derivs(skew, z, x, tilde=True, order=2)
        resid = skew.r1**-2 * d2bt - 2 * skew.tau * dbt - (-z + skew.C * x + 2 * skew.s1 / skew.r1 - skew.r1**2 * skew.tau**2) * bt
        assert np.max(np.abs(resid)) < 1e-6


def test_profile_x_and_z_derivatives_proportional(skew):
    h = 1e-3
    xs = np.array([0.5, 2.0])
    z = 0.4

    def rich(f):
        return (4 * (f(h / 2) - f(-h / 2)) / h - (f(h) - f(-h)) / (2 * h)) / 3

    fd_x = rich(lambda d: b_values(skew, z, xs + d))
    fd_z = rich(lambda d: b_values(skew, z + d, xs))
    assert np.max(np.abs(fd_x - skew.C * fd_z)) < 1e-8


def test_smoothed_profile_limits():
    big = RHParams.create(1.0, 1.0, 10.0, 10.0, 0.0)
    a = script_a(big, 0.4)
    b = b_values(big, 0.4, np.concatenate(([0.0], big.resolvent.nodes)))
    assert a.shape == (1, big.resolution.m + 1)
    assert abs(a[0, 0] - b[0]) <= 1e-12
    assert np.max(np.abs(a[0, 1:] - b[1:])) <= 1e-12


def test_p_matches_column_sums(sym, skew):
    for p in (sym, skew):
        for z in (-1.0, 0.0, 1.0):
            g = p_vector(p, z)
            m = m_top_left(p, z)[0]
            assert g.p1 == pytest.approx(m[0, 0] + m[0, 1], abs=1e-12)
            assert g.p2 == pytest.approx(m[1, 0] + m[1, 1], abs=1e-12)


@pytest.mark.parametrize("derivs", [False, True])
def test_p_vector_makes_one_airy_call(skew, monkeypatch, derivs):
    calls = []
    airy = rh.airy_ai_pair

    def counted(x):
        calls.append(x)
        return airy(x)

    monkeypatch.setattr(rh, "airy_ai_pair", counted)
    p_vector(skew, 0.4, derivs=derivs)
    assert len(calls) == 1
    for order in (0, 1):
        calls.clear()
        m_top_left(skew, 0.4, order=order)
        assert len(calls) == 1


def test_p_equivalent_forms(skew):
    ar = skew.resolvent
    for z in (-0.5, 0.7):
        g = p_vector(skew, z)
        a_plain = script_a(skew, z)[0]
        a_tilde = script_a(skew, z, tilde=True)[0]
        b0 = b_values(skew, z, np.array([0.0]))[0]
        bt0 = b_values(skew, z, np.array([0.0]), tilde=True)[0]
        assert g.p1 == pytest.approx(bt0 - float(ar.weights @ (ar.qvec * a_plain[1:])) / skew.D, abs=1e-9)
        assert g.p2 == pytest.approx(b0 - skew.D * float(ar.weights @ (ar.qvec * a_tilde[1:])), abs=1e-9)


def _at_shift(sigma, tau, r1=1.2, r2=0.9):
    """RH parameters with equal endpoints ``s1 = s2`` placed so that the shift is ``sigma``."""
    C = (r1**-2.0 + r2**-2.0) ** (1.0 / 3.0)
    s = (sigma * C + (r1**2 + r2**2) * tau**2) / (2.0 * (1.0 / r1 + 1.0 / r2))
    return RHParams.create(r1, r2, s, s, tau)


@pytest.mark.parametrize("sigma, tol", [(-5.5, 1e-11), (-4.0, 1e-13), (-2.0, 1e-13), (0.0, 1e-13),
                                        (3.0, 1e-13), (8.0, 1e-13), (14.0, 1e-13)])
def test_p_vector_equals_boundary_row_of_script_a(sigma, tol):
    # p1, p2 contract the profiles with r0 and Q; the long route applies r0 to the
    # smoothed profiles.  The tolerance is relative to the size of the summands of
    # that application, which the entries can cancel to far below.
    for tau in (0.3, -0.3, 0.1, -0.1):
        p = _at_shift(sigma, tau)
        assert p.sigma == pytest.approx(sigma, abs=1e-12)
        ar = p.resolvent
        for z in (-1.0, 0.0, 0.7, 1.5):
            g = p_vector(p, z, derivs=True)
            a_tilde = script_a(p, z, tilde=True, order=1)
            a_plain = script_a(p, z, order=1)
            for new, a in zip((g.p1, g.dp1, g.p2, g.dp2), (*a_tilde, *a_plain)):
                scale = abs(a[0]) + ar.weights @ np.abs(ar.r0 * a[1:])
                assert abs(new - ar.apply_r0(a)) <= tol * scale


def test_tail_makes_one_airy_call_per_side_and_no_smoothing(fresh_resolvent_cache, monkeypatch):
    resolvents, rows = fresh_resolvent_cache
    sp, tau = SParam(0.9, 1.2, 0.45), 0.2
    profile_calls, batched_calls = [], []

    def counting(airy, calls):
        def counted(x):
            calls.append(np.shape(x))
            return airy(x)
        return counted

    def no_smoothing(ar, part):
        raise AssertionError("the tail built a smoothing matrix")

    monkeypatch.setattr(rh, "airy_ai_pair", counting(rh.airy_ai_pair, profile_calls))
    monkeypatch.setattr(airy_operator, "airy_ai_pair", counting(airy_operator.airy_ai_pair, batched_calls))
    monkeypatch.setattr(airy_operator.AiryResolvent, "_node_sum_matrix", no_smoothing)
    kernel_tail(sp, 1.1, 0.95, tau, 0.3, -0.4)
    assert len(profile_calls) == 2  # the u side and the v side, all shifts in each
    # one build pass serves both signs of tau, whose shifts coincide
    assert batched_calls == [(TailSpec().m, Resolution().m + 1)]
    kernel_tail(sp, 1.1, 0.95, tau, -0.6, 0.1)  # the rows cache is warm now
    assert len(profile_calls) == 4 and len(batched_calls) == 1
    assert rows.cache_info().misses == 1 and rows.cache_info().hits == 1
    assert resolvents.cache_info().currsize == 0  # no parameter bundle, so no get_resolvent lookup, per shift


@pytest.mark.parametrize("tau", [0.0, 0.2, -0.15])
def test_tail_equals_shift_by_shift_sum(tau):
    sp, r1, r2, u, v = SParam(0.9, 1.2, 0.45), 1.1, 0.95, 0.3, -0.4
    tail = TailSpec()
    rule = affine_map_rule(gauss_legendre_rule(tail.m), sp.s, sp.s + tail.S)
    terms = []
    for s in rule.nodes:
        pp = sp.at(s).rh_params(r1, r2, tau)
        gu = p_vector(pp, u)
        gv = p_vector(pp.with_tau(-tau), v)
        terms.append((sp.sigma1 * gu.p1 * gv.p1 + sp.sigma2 * gu.p2 * gv.p2) / math.pi)
    reference = float(rule.weights @ np.array(terms))
    assert kernel_tail(sp, r1, r2, tau, u, v) == pytest.approx(reference, rel=1e-13)


def test_m_block_limits_and_symmetry(sym):
    big = RHParams.create(1.0, 1.0, 10.0, 10.0, 0.0)
    m = m_top_left(big, 0.3)[0]
    bt0 = b_values(big, 0.3, np.array([0.0]), tilde=True)[0]
    assert m[0, 0] == pytest.approx(bt0, abs=1e-10)
    assert abs(m[0, 1]) <= 1e-10 and abs(m[1, 0]) <= 1e-10
    m0 = m_top_left(sym, 0.0)[0]
    assert m0[0, 0] == pytest.approx(m0[1, 1], abs=1e-12)
    assert m0[0, 1] == pytest.approx(m0[1, 0], abs=1e-12)


@pytest.mark.parametrize("z", [-1.0, 0.0, 1.0])
def test_m_block_z_derivative_matches_richardson(sym, skew, z):
    h = 1e-3

    def central(p, step):
        return (m_top_left(p, z + step)[0] - m_top_left(p, z - step)[0]) / (2 * step)

    for p in (sym, skew):
        m = m_top_left(p, z, order=1)
        assert m.shape == (2, 2, 2)
        rich = (4 * central(p, h / 2) - central(p, h)) / 3
        assert np.max(np.abs(m[1] - rich)) <= 1e-10  # all four entries, M12 and M22 too
        # the wider smoothing product may round the block itself differently
        assert np.max(np.abs(m[0] - m_top_left(p, z)[0])) <= 1e-14


def test_p_phat_scaling():
    for lam in (1.0, 2.0):
        Sigma, tau = 1.0, 0.25
        fv = ResolventParams.create(lam, Sigma=Sigma, tau=tau)
        rp = from_resolvent_params(lam, Sigma, tau)
        for z in (-0.6, 0.4):
            g = p_vector(rp, z)
            h1, h2 = phat(fv, tau, z)
            scale = lambda r: math.sqrt(2 * math.pi) * r ** (1.0 / 6.0) * math.exp(r**4 * tau * (Sigma + 2.0 / 3.0 * tau**2))
            assert g.p1 / (scale(rp.r1) * h1) == pytest.approx(1.0, abs=1e-9)
            assert g.p2 / (scale(rp.r2) * h2) == pytest.approx(1.0, abs=1e-9)


def test_kernel_requires_matched_pair(sym):
    other = RHParams.create(1.0, 1.0, 0.4, 0.5, 0.0)
    with pytest.raises(MismatchedParamsError):
        kernel_direct(sym, other, 0.0, 1.0)
    shifted_tau = RHParams.create(1.0, 1.0, 0.5, 0.5, 0.2)
    with pytest.raises(MismatchedParamsError):
        kernel_direct(shifted_tau, shifted_tau, 0.0, 1.0)


def test_kernel_symmetry_at_zero_time(sym):
    minus = sym.with_tau(-0.0)
    for u, v in ((0.3, -0.8), (1.0, 0.1)):
        assert kernel_direct(sym, minus, u, v) == pytest.approx(kernel_direct(sym, minus, v, u), abs=1e-9)


def test_kernel_diagonal_continuous():
    p = from_resolvent_params(2.0, 0.5, 0.3)
    m = p.with_tau(-0.3)
    diag = kernel_direct(p, m, 0.4, 0.4)
    assert math.isfinite(diag)
    # generic branch just above the analytic-limit threshold agrees to O(|u - v|)
    near = kernel_direct(p, m, 0.4 + 6e-6, 0.4 - 6e-6)
    assert diag == pytest.approx(near, abs=1e-5)


def test_kernel_equals_resolvent_form():
    for lam, Sigma, tau, tol in ((1.0, 1.0, 0.0, 1e-6), (2.0, 0.5, 0.3, 1e-5)):
        fv = ResolventParams.create(lam, Sigma=Sigma, tau=tau)
        pp = from_resolvent_params(lam, Sigma, tau)
        pm = pp.with_tau(-tau)
        for u, v in ((0.7, -0.2), (0.0, 0.0), (1.0, -1.0)):
            assert kernel_direct(pp, pm, u, v) == pytest.approx(fv_kernel(fv, u, v), abs=tol)


def test_tail_matches_direct_and_converges():
    sp = SParam(1.0, 1.0, 0.5)
    pp = sp.rh_params(1.0, 1.0, 0.0)
    pm = pp.with_tau(-0.0)
    tail = kernel_tail(sp, 1.0, 1.0, 0.0, 0.0, 1.0)
    assert tail == pytest.approx(kernel_direct(pp, pm, 0.0, 1.0), abs=1e-5)
    doubled = kernel_tail(sp, 1.0, 1.0, 0.0, 0.0, 1.0, TailSpec(S=16.0, m=80))
    assert abs(doubled - tail) < 1e-9


def test_tail_requires_positive_multipliers():
    with pytest.raises(ValueError):
        kernel_tail(SParam(-1.0, 1.0, 0.5), 1.0, 1.0, 0.0, 0.0, 1.0)


def test_tail_lower_limit_derivative():
    sp = SParam(1.0, 1.0, 0.5)
    h = 1e-3
    fd = (kernel_tail(sp.at(0.5 + h), 1.0, 1.0, 0.0, 0.0, 1.0)
          - kernel_tail(sp.at(0.5 - h), 1.0, 1.0, 0.0, 0.0, 1.0)) / (2 * h)
    pp = sp.rh_params(1.0, 1.0, 0.0)
    pm = pp.with_tau(-0.0)
    gu = p_vector(pp, 0.0)
    gv = p_vector(pm, 1.0)
    assert fd == pytest.approx(-(gu.p1 * gv.p1 + gu.p2 * gv.p2) / math.pi, abs=1e-6)


def test_residue_entries_symmetric_zero_time(sym):
    e = residue_matrix(sym)
    ar = sym.resolvent
    assert e.d == pytest.approx(2.0 ** (-1.0 / 3.0) * ar.q, rel=1e-13)
    assert e.d == pytest.approx(e.d_tilde, rel=1e-13)
    assert e.c == pytest.approx(e.c_tilde, rel=1e-13)


def test_residue_exact_relation(skew):
    e = residue_matrix(skew)
    r1, r2, tau = skew.r1, skew.r2, skew.tau
    value = r2 * (e.c_tilde * e.d - e.b) - r1 * (e.c * e.d - e.beta_tilde) + (r1**2 + r2**2) * tau * e.d
    assert abs(value) <= 1e-10


def test_residue_swap_symmetry(skew):
    swapped = residue_matrix(RHParams.create(skew.r2, skew.r1, skew.s2, skew.s1, skew.tau))
    e = residue_matrix(skew)
    assert e.d == pytest.approx(swapped.d_tilde, abs=1e-12)
    assert e.c == pytest.approx(swapped.c_tilde, abs=1e-12)
    assert e.b == pytest.approx(swapped.b_tilde, abs=1e-12)
    assert e.beta == pytest.approx(swapped.beta_tilde, abs=1e-12)
    assert e.f == pytest.approx(swapped.f_tilde, abs=1e-12)


@pytest.mark.parametrize("module, other", [(rh, "resolvent_form"), (rf, "rh_form")])
def test_the_two_forms_import_nothing_from_each_other(module, other):
    # the equivalence checks certify two independent codes, so neither form may use the other's
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)  # catches "from . import <module>"
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert other not in {name.rsplit(".", 1)[-1] for name in imported}
