import math

import numpy as np
import pytest

import tacnode.resolvent_form as rf
from tacnode import airy_operator
from tacnode.airy import airy_ai
from tacnode.airy_operator import Resolution
from tacnode.errors import MultiTimeUnsupportedError, TruncationInsufficientError
from tacnode.quadrature import affine_map_rule, gauss_legendre_rule
from tacnode.resolvent_form import (
    ResolventParams,
    TailSpec,
    b_values,
    interaction_from_sigma,
    kernel,
    kernel_dsigma,
    kernel_grid,
    kernel_six_term,
    kernel_tail,
    phat,
    script_a,
    sigma_from_interaction,
)


@pytest.fixture(scope="module")
def sym():
    return ResolventParams.create(1.0, Sigma=1.0, tau=0.0)


@pytest.fixture(scope="module")
def skew():
    return ResolventParams.create(2.0, Sigma=0.5, tau=0.3)


def test_parameter_invariants(sym, skew):
    for p in (sym, skew):
        assert p.C**3 == pytest.approx(1.0 + p.lam**-0.5, rel=1e-14)
        assert p.sigma == pytest.approx(sigma_from_interaction(p.lam, p.Sigma), rel=1e-14)
    assert sym.C == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    assert interaction_from_sigma(2.0, sigma_from_interaction(2.0, 0.5)) == pytest.approx(0.5, rel=1e-14)


def test_parameter_validation():
    for lam in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ResolventParams.create(lam, Sigma=1.0)
    with pytest.raises(ValueError):
        ResolventParams.create(1.0)
    with pytest.raises(ValueError):
        ResolventParams.create(1.0, Sigma=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        ResolventParams.create(1.0, Sigma=1.0, tau=0.1, tau1=0.2)


def test_profile_symmetric_case_swap(sym):
    rng = np.random.default_rng(5)
    for tau, z in ((0.0, 0.4), (0.3, -1.2), (-0.2, 0.8)):
        x = rng.uniform(0.0, 8.0, 12)
        tilde = b_values(sym, tau, z, x, tilde=True)
        plain = b_values(sym, tau, -z, x)
        assert np.max(np.abs(tilde - plain)) < 1e-13


def test_profile_special_value():
    p = ResolventParams.create(1.0, Sigma=0.0, tau=0.0)
    x = np.array([0.0, 0.7, 2.3])
    assert b_values(p, 0.0, 0.0, x) == pytest.approx(airy_ai(2.0 ** (1.0 / 3.0) * x), rel=1e-14)


def test_profile_decay_in_z():
    p = ResolventParams.create(1.5, Sigma=1.0, tau=0.0)
    assert abs(b_values(p, 0.0, 40.0, np.array([0.0]))[0]) <= 1e-15


def test_smoothing_negligible_at_strong_interaction():
    p = ResolventParams.create(1.0, Sigma=20.0, tau=0.0)
    a = script_a(p, 0.0, 0.5)
    b = b_values(p, 0.0, 0.5, np.concatenate(([0.0], p.resolvent.nodes)))
    assert a.shape == b.shape == (p.resolution.m + 1,)
    assert abs(a[0] - b[0]) <= 1e-12
    assert np.max(np.abs(a[1:] - b[1:])) <= 1e-12


def test_script_a_symmetric_swap(sym):
    for tau, z in ((0.0, 0.6), (0.25, -0.4)):
        tilde = script_a(sym, tau, z, tilde=True)
        plain = script_a(sym, tau, -z)
        assert abs(tilde[0] - plain[0]) <= 1e-13
        assert np.max(np.abs(tilde[1:] - plain[1:])) <= 1e-13


def test_phat_alternative_forms(sym, skew):
    for p in (sym, skew):
        ar = p.resolvent
        for tau, z in ((p.tau1, 0.3), (-p.tau2, -0.8)):
            p1, p2 = phat(p, tau, z)
            a_plain = script_a(p, tau, z)
            a_tilde = script_a(p, tau, z, tilde=True)
            bt0 = b_values(p, tau, z, np.array([0.0]), tilde=True)[0]
            b0 = b_values(p, tau, z, np.array([0.0]))[0]
            alt1 = bt0 - p.lam ** (-1.0 / 6.0) * float(ar.weights @ (ar.qvec * a_plain[1:]))
            alt2 = b0 - p.lam ** (1.0 / 6.0) * float(ar.weights @ (ar.qvec * a_tilde[1:]))
            assert p1 == pytest.approx(alt1, abs=1e-9)
            assert p2 == pytest.approx(alt2, abs=1e-9)


def test_phat_decay_limit():
    p = ResolventParams.create(1.0, Sigma=20.0, tau=0.1)
    p1, p2 = phat(p, 0.1, 0.4)
    b0 = b_values(p, 0.1, 0.4, np.array([0.0]))[0]
    assert p2 == pytest.approx(b0, abs=1e-10)


def test_profile_sets_make_one_airy_call(skew, monkeypatch):
    calls = []
    airy = rf.airy_ai_pair

    def counted(x):
        calls.append(x)
        return airy(x)

    monkeypatch.setattr(rf, "airy_ai_pair", counted)
    phat(skew, skew.tau1, 0.3)
    assert len(calls) == 1
    calls.clear()
    kernel_grid(skew, [-0.5, 0.5], [-1.0, 0.0, 1.0])
    assert len(calls) == 2  # the u side and the v side


@pytest.mark.parametrize("sigma, tol", [(-5.5, 1e-11), (-4.0, 1e-13), (-2.0, 1e-13), (0.0, 1e-13),
                                        (3.0, 1e-13), (8.0, 1e-13), (14.0, 1e-13)])
def test_phat_equals_boundary_row_of_script_a(sigma, tol):
    # phat contracts the profiles with r0 and Q; the long route applies r0 to the
    # smoothed profiles.  The tolerance is relative to the size of the summands of
    # that application, which the pair can cancel to far below.
    for lam, tau in ((1.0, 0.3), (2.0, -0.3), (0.7, 0.2), (0.7, -0.2)):
        p = ResolventParams.create(lam, sigma=sigma, tau=tau)
        ar = p.resolvent
        for z in (-1.0, 0.0, 0.7, 1.5):
            for new, tilde in zip(phat(p, tau, z), (True, False)):
                a = script_a(p, tau, z, tilde=tilde)
                scale = abs(a[0]) + ar.weights @ np.abs(ar.r0 * a[1:])
                assert abs(new - ar.apply_r0(a)) <= tol * scale


def test_tail_makes_one_airy_call_per_side_and_no_smoothing(fresh_resolvent_cache, monkeypatch):
    resolvents, rows = fresh_resolvent_cache
    p = ResolventParams.create(1.4, Sigma=0.6, tau1=0.1, tau2=0.35)
    profile_calls, batched_calls = [], []

    def counting(airy, calls):
        def counted(x):
            calls.append(np.shape(x))
            return airy(x)
        return counted

    def no_smoothing(ar, part):
        raise AssertionError("the tail built a smoothing matrix")

    monkeypatch.setattr(rf, "airy_ai_pair", counting(rf.airy_ai_pair, profile_calls))
    monkeypatch.setattr(airy_operator, "airy_ai_pair", counting(airy_operator.airy_ai_pair, batched_calls))
    monkeypatch.setattr(airy_operator.AiryResolvent, "_node_sum_matrix", no_smoothing)
    lookups = resolvents.cache_info()
    kernel_tail(p, 0.4, -0.3)
    assert len(profile_calls) == 2  # the u side and the v side, all shifts in each
    assert batched_calls == [(TailSpec().m, p.resolution.m + 1)]  # every shift's build from one Airy call
    kernel_tail(p, -0.2, 0.7)  # the rows cache is warm now
    assert len(profile_calls) == 4 and len(batched_calls) == 1
    assert rows.cache_info().misses == 1 and rows.cache_info().hits == 1
    assert resolvents.cache_info() == lookups  # no get_resolvent lookup per shift


@pytest.mark.parametrize("tau1, tau2", [(0.0, 0.0), (0.3, 0.3), (0.1, 0.35), (0.35, -0.1)])
def test_tail_equals_shift_by_shift_sum(tau1, tau2):
    p = ResolventParams.create(1.4, Sigma=0.6, tau1=tau1, tau2=tau2)
    u, v = 0.4, -0.3
    tail = TailSpec()
    rule = affine_map_rule(gauss_legendre_rule(tail.m), p.sigma, p.sigma + tail.S)
    terms = []
    for s in rule.nodes:
        ps = p.at_sigma(s)
        p1u, p2u = phat(ps, ps.tau1, u)
        p1v, p2v = phat(ps, -ps.tau2, v)
        terms.append(p.C ** -2.0 * (p.lam ** (1.0 / 3.0) * p1u * p1v + p.lam**-0.5 * p2u * p2v))
    reference = float(rule.weights @ np.array(terms)) + float(np.atleast_1d(rf._heat_term(tau1, tau2, u, v))[0])
    assert kernel_tail(p, u, v) == pytest.approx(reference, rel=1e-13)


def test_phat_symmetric_swap(sym):
    for z in (-0.7, 0.0, 1.1):
        assert phat(sym, 0.0, z)[0] == pytest.approx(phat(sym, 0.0, -z)[1], abs=1e-12)


def test_kernel_single_time_equals_multi_at_equal_times():
    single = ResolventParams.create(1.3, Sigma=0.8, tau=0.2)
    multi = ResolventParams.create(1.3, Sigma=0.8, tau1=0.2, tau2=0.2)
    assert kernel(single, 0.4, -0.6) == kernel(multi, 0.4, -0.6)


def test_kernel_time_reflection():
    p = ResolventParams.create(2.0, Sigma=0.5, tau=0.3)
    m = ResolventParams.create(2.0, Sigma=0.5, tau=-0.3)
    rng = np.random.default_rng(2)
    for u, v in rng.uniform(-1.5, 1.5, (6, 2)):
        assert kernel(p, u, v) == pytest.approx(kernel(m, v, u), abs=1e-10)


def test_kernel_self_convergence(sym):
    hi = ResolventParams.create(1.0, Sigma=1.0, tau=0.0, resolution=Resolution(160, 16.0))
    assert kernel(sym, 0.0, 0.0) == pytest.approx(kernel(hi, 0.0, 0.0), abs=1e-8)


def test_six_term_matches_compact(sym, skew):
    for p in (sym, skew):
        for u, v in ((0.0, 0.0), (1.0, -1.0)):
            assert kernel_six_term(p, u, v) == pytest.approx(kernel(p, u, v), abs=1e-8)


def test_six_term_decay_limit():
    p = ResolventParams.create(1.0, Sigma=20.0, tau=0.0)
    ar = p.resolvent
    w = ar.weights
    for u, v in ((0.0, 0.0), (0.5, -0.5)):
        bt_u = b_values(p, 0.0, u, ar.nodes, tilde=True)
        bt_v = b_values(p, 0.0, v, ar.nodes, tilde=True)
        a_u = script_a(p, 0.0, u)
        a_v = script_a(p, 0.0, v)
        bare = p.C * p.lam ** (1.0 / 3.0) * float(w @ (bt_u * bt_v)) + p.C * float(w @ (a_u[1:] * a_v[1:]))
        assert kernel_six_term(p, u, v) == pytest.approx(bare, abs=1e-10)
        assert kernel(p, u, v) == pytest.approx(bare, abs=1e-10)


def test_six_term_rejects_distinct_times():
    p = ResolventParams.create(1.0, Sigma=1.0, tau1=0.0, tau2=0.5)
    with pytest.raises(MultiTimeUnsupportedError):
        kernel_six_term(p, 0.0, 0.0)


def test_derivative_matches_shift_difference(sym):
    h = 1e-3
    for p in (sym, ResolventParams.create(2.0, Sigma=1.0, tau=0.4)):
        for u, v in ((0.0, 0.0), (1.0, -1.0)):
            an = kernel_dsigma(p, u, v)
            fd = (kernel(p.at_sigma(p.sigma + h), u, v) - kernel(p.at_sigma(p.sigma - h), u, v)) / (2 * h)
            assert an == pytest.approx(fd, rel=1e-5)


def test_derivative_nonpositive_on_diagonal(sym):
    for u in (-1.0, 0.0, 1.0):
        assert kernel_dsigma(sym, u, u) <= 0.0


def test_derivative_decays():
    p = ResolventParams.create(1.0, Sigma=20.0, tau=0.0)
    assert abs(kernel_dsigma(p, 0.0, 0.0)) <= 1e-10


def test_rank_two_structure(skew):
    pts = (-1.0, 0.0, 1.0)
    mat = np.array([[kernel_dsigma(skew, u, v) for v in pts] for u in pts])
    sv = np.linalg.svd(mat, compute_uv=False)
    assert sv[2] <= 1e-8 * sv[0]


def test_kernel_reflection_symmetric_case(sym):
    for u, v in ((0.3, -0.9), (1.0, 0.2)):
        assert kernel(sym, u, v) == pytest.approx(kernel(sym, -u, -v), abs=1e-9)


def test_tail_matches_kernel(sym):
    value = kernel_tail(sym, 0.5, -0.5, TailSpec(S=8.0, m=40))
    assert value == pytest.approx(kernel(sym, 0.5, -0.5), abs=1e-6)
    doubled = kernel_tail(sym, 0.5, -0.5, TailSpec(S=16.0, m=80))
    assert abs(doubled - value) < 1e-10


def test_tail_multi_time_heat_term():
    p = ResolventParams.create(1.0, Sigma=1.0, tau1=0.1, tau2=0.4)
    assert kernel_tail(p, 0.3, -0.2) == pytest.approx(kernel(p, 0.3, -0.2), abs=1e-6)
    single = ResolventParams.create(1.0, Sigma=1.0, tau=0.25)
    assert kernel_tail(single, 0.3, -0.2) == pytest.approx(kernel(single, 0.3, -0.2), abs=1e-6)


def test_default_tail_span_clears_the_guard_at_small_Sigma():
    # a certification input at which a span of 8 leaves 2.8e-7 of the integral on the last node
    p = ResolventParams.create(1.9587395422010823, Sigma=0.02748281101003508, tau=0.28164875464022787)
    u = -0.9993594445437464
    with pytest.raises(TruncationInsufficientError):
        kernel_tail(p, u, u, TailSpec(S=8.0, m=40))
    for v in (u, 0.6871749052311507):
        assert abs(kernel_tail(p, u, v) - kernel(p, u, v)) < 1e-6


def test_tail_guard_raises_for_short_span(sym):
    with pytest.raises(TruncationInsufficientError):
        kernel_tail(sym, 0.5, -0.5, TailSpec(S=2.0, m=20))


def test_heat_term_enters_only_for_ordered_times():
    forward = ResolventParams.create(1.0, Sigma=1.0, tau1=0.1, tau2=0.4)
    backward = ResolventParams.create(1.0, Sigma=1.0, tau1=0.4, tau2=0.1)
    u, v = 0.3, -0.2
    dt = 0.3
    heat = -math.exp(-((v - u) ** 2) / (4 * dt)) / math.sqrt(4 * math.pi * dt)
    ar = forward.resolvent
    w = ar.weights

    def smooth_part(p):
        bt_u = b_values(p, p.tau1, u, ar.nodes, tilde=True)
        bt_v = b_values(p, -p.tau2, v, ar.nodes, tilde=True)
        a_u = script_a(p, p.tau1, u)
        a_v = script_a(p, -p.tau2, v)
        return p.C * p.lam ** (1.0 / 3.0) * float(w @ (bt_u * bt_v)) + p.C * float(w @ (a_u[1:] * ar.solve(a_v[1:])))

    assert kernel(forward, u, v) - smooth_part(forward) == pytest.approx(heat, abs=1e-12)
    assert kernel(backward, u, v) - smooth_part(backward) == pytest.approx(0.0, abs=1e-12)


def test_kernel_grid_matches_pointwise(skew):
    us = np.array([-0.5, 0.5])
    vs = np.array([-1.0, 0.0, 1.0])
    grid = kernel_grid(skew, us, vs)
    assert grid.shape == (2, 3)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert grid[i, j] == pytest.approx(kernel(skew, u, v), rel=1e-13)


@pytest.mark.parametrize("times", [{"tau": 0.15}, {"tau1": 0.1, "tau2": 0.35}, {"tau1": 0.35, "tau2": 0.1}])
@pytest.mark.parametrize("n_rows", [1, 7, 41])
def test_kernel_rows_equal_stacked_one_row_grids(times, n_rows):
    # one Airy call for all rows, one-row products per row: bit-identical to one-row calls
    params = ResolventParams.create(1.3, Sigma=0.7, **times)
    us = np.linspace(-2.0, 2.0, n_rows)
    vs = np.linspace(-2.5, 1.5, 23)
    rows = kernel_grid(params, us, vs)
    assert np.array_equal(rows, np.vstack([kernel_grid(params, [u], vs)[0] for u in us]))
