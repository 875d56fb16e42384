import functools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import tacnode
from tacnode import airy_operator, verify
from tacnode.airy import airy_ai, airy_ai_pair, airy_ai_prime
from tacnode.airy_operator import (
    Resolution,
    airy_kernel_shifted,
    build_airy_resolvent,
    build_airy_resolvents,
    check_truncation,
    get_boundary_rows,
    get_resolvent,
    nystrom_determinant,
)
from tacnode.errors import SingularResolventError, TruncationInsufficientError, UnsupportedRangeError
from tacnode.quadrature import TailSpec, affine_map_rule, gauss_legendre_rule
from tacnode.resolvent_form import sigma_from_interaction
from tacnode.rh_form import SParam

# frozen oracle values: rebuild at (m, T) = (160, 24), cross-checked at (220, 28)
Q_AT_ZERO = 0.367061551548078
DET_AT_ZERO = 0.969372828355264


def test_resolution_validation():
    with pytest.raises(ValueError):
        Resolution(m=3)
    with pytest.raises(ValueError):
        Resolution(T=0.0)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Resolution(T=T)


def test_kernel_diagonal_formula():
    for sigma, x in ((0.0, 0.4), (1.5, 2.0)):
        expected = airy_ai_prime(x + sigma) ** 2 - (x + sigma) * airy_ai(x + sigma) ** 2
        assert airy_kernel_shifted(sigma, x, x) == pytest.approx(expected, rel=1e-14)


def test_kernel_symmetry():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 10.0, 20)
    ys = rng.uniform(0.0, 10.0, 20)
    assert np.array_equal(airy_kernel_shifted(0.5, xs, ys), airy_kernel_shifted(0.5, ys, xs))


def test_kernel_matches_quadrature_of_defining_integral():
    # oracle: direct quadrature of int_0^inf Ai(x+z) Ai(y+z) dz with m=120, T=20
    rule = affine_map_rule(gauss_legendre_rule(120), 0.0, 20.0)
    direct = rule.integrate(airy_ai(0.3 + rule.nodes) * airy_ai(1.1 + rule.nodes))
    assert airy_kernel_shifted(0.0, 0.3, 1.1) == pytest.approx(direct, abs=1e-10)


def test_kernel_matrix_exactly_symmetric():
    ar = get_resolvent(0.0)
    assert np.array_equal(ar.kmat, ar.kmat.T)


@pytest.mark.parametrize("sigma", [-5.5, -2.0, 0.3, 3.0, 9.0])
def test_kernel_matrix_matches_per_pair_reference(sigma):
    ar = get_resolvent(sigma)
    x, ai, aip = ar.nodes, ar.ai_nodes, ar.aip_nodes
    m = len(x)
    ref = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                ref[i, j] = aip[i] * aip[i] - (x[i] + sigma) * ai[i] * ai[i]
            else:
                ref[i, j] = (ai[i] * aip[j] - aip[i] * ai[j]) / (x[i] - x[j])
    assert np.array_equal(airy_operator._kernel_matrix(x, sigma, ai, aip), ref)


def test_build_against_high_resolution_oracle():
    oracle = build_airy_resolvent(0.0, Resolution(160, 24.0))
    cross = build_airy_resolvent(0.0, Resolution(220, 28.0))
    assert abs(oracle.q - cross.q) < 1e-12
    assert abs(oracle.det - cross.det) < 1e-12
    assert oracle.q == pytest.approx(Q_AT_ZERO, abs=1e-12)
    assert oracle.det == pytest.approx(DET_AT_ZERO, abs=1e-12)
    main = build_airy_resolvent(0.0)
    assert abs(main.q - oracle.q) < 1e-9
    assert abs(main.det - oracle.det) < 1e-10


def test_vanishing_kernel_limit():
    ar = build_airy_resolvent(30.0)
    assert abs(ar.det - 1.0) <= 1e-10
    assert np.max(np.abs(ar.r0)) <= 1e-10
    g = np.sin(ar.nodes)
    assert np.max(np.abs(ar.solve(g) - g)) <= 1e-9
    assert ar.apply_r0(np.cos(np.concatenate(([0.0], ar.nodes)))) == pytest.approx(1.0, abs=1e-9)


def test_tail_shift_matches_airy_function():
    ar = build_airy_resolvent(8.0)
    assert ar.q == pytest.approx(airy_ai(8.0), rel=1e-8)


def test_solve_zero_and_residual():
    ar = get_resolvent(0.0)
    assert np.all(ar.solve(np.zeros(ar.resolution.m)) == 0.0)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(ar.resolution.m)
    f = ar.solve(g)
    residual = f - ar.kmat @ (ar.weights * f) - g
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(g))


@pytest.mark.parametrize("sigma", [-2.0, 0.0, 1.0])
def test_resolvent_identity_roundtrip(sigma):
    ar = get_resolvent(sigma)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(ar.resolution.m)
    f = ar.solve(g)
    back = f - ar.kmat @ (ar.weights * f)
    assert np.max(np.abs(back - g)) <= 1e-12 * np.max(np.abs(g))


def test_apply_r0():
    ar = get_resolvent(0.0)
    assert ar.apply_r0(np.zeros(ar.resolution.m + 1)) == 0.0
    # (I + R) applied to Ai(. + sigma) recovers q through the boundary identity
    value = ar.apply_r0(airy_ai(np.concatenate(([0.0], ar.nodes)) + ar.sigma))
    assert value == pytest.approx(ar.q, abs=1e-10)


def test_nystrom_extension_consistency():
    ar = get_resolvent(-1.0)
    g = lambda x: airy_ai(x + ar.sigma)
    i = 17
    assert ar.extend(ar.qvec, g, float(ar.nodes[i])) == pytest.approx(ar.qvec[i], abs=1e-12)
    assert ar.extend(ar.qvec, g, 0.0) == ar.q  # same composition, bit for bit


def _counted_airy(monkeypatch):
    """Record the number of points of every ``airy_operator`` Airy call."""
    calls = []
    airy = airy_operator.airy_ai_pair

    def counted(x):
        calls.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(airy_operator, "airy_ai_pair", counted)
    return calls


def _broadcast_kernel(sigma, x, y):
    """Reference ``K_sigma``: Airy at every broadcast point, and the midpoint form at every point where any is near."""
    x, y = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float)))
    ai_x, aip_x = airy_ai_pair(x + sigma)
    ai_y, aip_y = airy_ai_pair(y + sigma)
    diff = x - y
    near = np.abs(diff) < 1e-5
    k = (ai_x * aip_y - aip_x * ai_y) / np.where(near, 1.0, diff)
    if near.any():
        mid = 0.5 * (x + y) + sigma
        ai_m, aip_m = airy_ai_pair(mid)
        k = np.where(near, aip_m * aip_m - mid * ai_m * ai_m, k)
    return k


def test_off_grid_rows_evaluate_airy_at_x_only(monkeypatch):
    ar = get_resolvent(-1.0)
    ar.resolvent_matrix  # solved from the stored node values, with no Airy call
    calls = _counted_airy(monkeypatch)
    t = 0.5 * float(ar.nodes[10] + ar.nodes[11])
    ar.resolvent_at(t, 3)
    assert calls == [1]
    calls.clear()
    ar.extend(ar.qvec, lambda y: airy_ai(y + ar.sigma), t)
    assert calls == [1]
    calls.clear()
    ar.extend(ar.qvec, lambda y: airy_ai(y + ar.sigma), np.array([0.3, t, 2.0]))
    assert calls == [3]


@pytest.mark.parametrize("j", [17, 40])
def test_off_grid_rows_near_a_node_match_the_broadcast_kernel(monkeypatch, j):
    ar = get_resolvent(-1.0)
    t = float(ar.nodes[17]) + 1e-7
    column = ar.resolvent_matrix[:, j]
    ref = _broadcast_kernel(ar.sigma, t, ar.nodes[j]) + _broadcast_kernel(ar.sigma, [[t]], ar.nodes[None, :]) @ (
        ar.weights * column)
    calls = _counted_airy(monkeypatch)
    assert ar.resolvent_at(t, j) == float(ref[0])  # bit for bit
    assert calls == [1, 1]  # x, then the midpoint form at the one near node
    krows = airy_kernel_shifted(ar.sigma, np.array([t, 0.4])[:, None], ar.nodes[None, :])
    assert np.array_equal(krows, _broadcast_kernel(ar.sigma, np.array([t, 0.4])[:, None], ar.nodes[None, :]))


def test_smooth_stacked_columns_match_vector_calls():
    ar = get_resolvent(0.3)
    fvals = np.column_stack((np.exp(-ar.nodes), np.cos(ar.nodes), ar.ai_nodes))
    stacked = ar.smooth(fvals)
    assert stacked.shape == (ar.resolution.m + 1, 3)
    for k in range(3):
        column = ar.smooth(fvals[:, k])
        wf = ar.weights * fvals[:, k]
        # a vector: the value at 0 first, then the nodes, bit for bit as the two products
        assert column[0] == ar.ai_nodes @ wf
        assert np.array_equal(column[1:], ar.smoothing @ wf)
        # a matrix-matrix product may sum in another order than a matrix-vector one,
        # so stacked columns agree with the vector calls to rounding
        np.testing.assert_allclose(stacked[:, k], column, rtol=0, atol=1e-14)


def test_rank_one_determinant_oracle():
    # with kernel phi(x) phi(y), det(I - K) = 1 - int_0^T phi^2 analytically
    rule = affine_map_rule(gauss_legendre_rule(80), 0.0, 16.0)
    phi = np.exp(-rule.nodes)
    kmat = np.outer(phi, phi)
    det = nystrom_determinant(kmat, rule.weights)
    exact = 1.0 - (1.0 - math.exp(-32.0)) / 2.0
    assert det == pytest.approx(exact, abs=1e-12)


def test_determinant_self_convergence():
    d80 = build_airy_resolvent(0.0, Resolution(80, 16.0)).det
    d160 = build_airy_resolvent(0.0, Resolution(160, 16.0)).det
    assert abs(d80 - d160) <= 1e-11
    dm1 = build_airy_resolvent(-1.0).det
    dm1_hi = build_airy_resolvent(-1.0, Resolution(160, 16.0)).det
    assert 0.0 < dm1 < 1.0
    assert abs(dm1 - dm1_hi) <= 1e-10


def test_unsupported_and_singular_ranges():
    with pytest.raises(UnsupportedRangeError):
        build_airy_resolvent(-8.5)
    with pytest.raises(UnsupportedRangeError):
        build_airy_resolvent(math.nan)
    with pytest.raises(SingularResolventError):
        build_airy_resolvent(-6.5)
    # under-resolved builds: at m <= 8 the discrete determinant goes negative inside the range SIGMA_MIN admits
    for sigma, resolution in ((-5.0, Resolution(4, 16.0)), (-4.0, Resolution(8, 16.0))):
        with pytest.raises(SingularResolventError):
            build_airy_resolvent(sigma, resolution)


def test_nan_determinant_is_singular(monkeypatch):
    monkeypatch.setattr(np.linalg, "det", lambda a: math.nan)
    with pytest.raises(SingularResolventError):
        build_airy_resolvent(0.3)


def test_strict_mode_passes_at_default_truncation(fresh_resolvent_cache):
    resolvents, _ = fresh_resolvent_cache
    ar = get_resolvent(0.5)
    check_truncation(0.5, ar.q, ar.det)
    # the wide build does not enter the resolvent cache
    assert resolvents.cache_info().currsize == 1
    assert 0.0 < get_resolvent(0.5).det < 1.0
    assert resolvents.cache_info().hits == 1


def test_strict_mode_flags_short_truncation():
    short = Resolution(80, 6.0)
    ar = build_airy_resolvent(-4.0, short)
    with pytest.raises(TruncationInsufficientError, match="truncates visible mass"):
        check_truncation(-4.0, ar.q, ar.det, short)


def test_scalar_invariants_from_shared_build():
    for sigma in (-1.0, 0.0, 1.0, 2.0):
        ar = get_resolvent(sigma)
        assert abs(2 * ar.v - (ar.u**2 - ar.q**2)) <= 1e-9
        v_alt = float(ar.weights @ (ar.pvec * ar.ai_nodes))
        assert abs(ar.v - v_alt) <= 1e-9


_THREADED_SOLVES = textwrap.dedent("""
    import sys
    import threading
    import numpy as np
    from tacnode.airy_operator import build_airy_resolvent

    ar = build_airy_resolvent(-1.0)
    rng = np.random.default_rng(5)
    m = ar.resolution.m
    rhs = [rng.standard_normal(m) for _ in range(4)] + [rng.standard_normal((m, 3)), ar.kmat]
    serial = [ar.solve(g) for g in rhs]
    barrier = threading.Barrier(4)
    mismatches = []

    def worker():
        barrier.wait()
        bad = 0
        for _ in range(100):
            for g, ref in zip(rhs, serial):
                bad += not np.array_equal(ar.solve(g), ref)
        mismatches.append(bad)

    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    print(f"workers={len(mismatches)} mismatches={sum(mismatches)}")
""")


def test_concurrent_solves_match_serial_bit_for_bit():
    # one resolvent shared by 4 threads, as the lru_cache shares it with every thread of a caller;
    # a subprocess, because a race in the solve can abort the interpreter outright
    src = os.path.dirname(os.path.dirname(tacnode.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _THREADED_SOLVES], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "workers=4 mismatches=0"


def test_resolvent_cache_cap_holds_the_verify_working_set(monkeypatch):
    # each cap is the measured working set of the full suite: one entry less costs builds
    shared = (airy_operator._cached_build, airy_operator._cached_rows)
    caps = tuple(cache.cache_info().maxsize for cache in shared)

    def misses(*sizes):
        """Resolvent builds and boundary-row builds of the full suite, from empty caches of the given sizes."""
        caches = [functools.lru_cache(maxsize=size)(cache.__wrapped__) for cache, size in zip(shared, sizes)]
        for name, cache in zip(("_cached_build", "_cached_rows"), caches):
            monkeypatch.setattr(airy_operator, name, cache)
        verify.run_suite("all")
        return tuple(cache.cache_info().misses for cache in caches)

    capped = misses(*caps)
    assert capped == misses(None, None)
    smaller = misses(caps[0] - 1, caps[1] - 1)
    assert smaller[0] > capped[0] and smaller[1] > capped[1]


@pytest.mark.parametrize("form", ["resolvent", "rh"])
def test_batched_rows_equal_single_builds(fresh_resolvent_cache, form):
    # the 40 shifts of a tail of each form: a rule over sigma, and sigma(s) over a rule in s
    tail = TailSpec()
    if form == "resolvent":
        sigma = sigma_from_interaction(1.4, 0.6)
        shifts = affine_map_rule(gauss_legendre_rule(tail.m), sigma, sigma + tail.S).nodes
    else:
        sp = SParam(0.9, 1.2, 0.45)
        s_nodes = affine_map_rule(gauss_legendre_rule(tail.m), sp.s, sp.s + tail.S).nodes
        shifts = np.array([sp.at(s).rh_params(1.1, 0.95, 0.2).sigma for s in s_nodes])
    rule, r0, qvec = get_boundary_rows(shifts)
    assert r0.shape == qvec.shape == (len(shifts), Resolution().m)
    assert not r0.flags.writeable and not qvec.flags.writeable
    for k, (s, ar) in enumerate(zip(shifts, build_airy_resolvents(shifts))):
        single = build_airy_resolvent(s)
        assert ar.sigma == single.sigma == s and rule is single.rule
        assert np.array_equal(r0[k], single.r0) and np.array_equal(qvec[k], single.qvec)
        assert np.array_equal(ar.r0, single.r0) and np.array_equal(ar.pvec, single.pvec)
        assert (ar.det, ar.q, ar.p, ar.u, ar.v) == (single.det, single.q, single.p, single.u, single.v)


@pytest.mark.parametrize("bad", [airy_operator.SIGMA_MIN - 0.5, math.nan])
def test_batched_build_checks_every_shift_before_any_airy_call(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(airy_operator, "airy_ai_pair", calls.append)
    for build in (build_airy_resolvents, get_boundary_rows):
        with pytest.raises(UnsupportedRangeError):
            build([0.0, 1.5, bad, 2.0])
    assert calls == []


def test_batched_build_stops_at_the_first_singular_shift(fresh_resolvent_cache):
    res = Resolution(8, 16.0)  # under-resolved: det(I - K) < 0 on [-5, -3.75]
    built = build_airy_resolvents([0.0, -4.0, -4.5], res)
    assert next(built).sigma == 0.0
    with pytest.raises(SingularResolventError, match=r"at sigma = -4\.0 "):
        next(built)
    with pytest.raises(SingularResolventError, match=r"at sigma = -4\.0 "):
        get_boundary_rows([0.0, -4.0, -4.5], res)
    assert fresh_resolvent_cache[1].cache_info().currsize == 0


def test_batched_build_makes_one_airy_call_per_block(monkeypatch):
    shifts = np.linspace(-2.0, 12.0, 120)  # 50 + 50 + 20 shifts in blocks of at most 4,096 points at m = 80
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return airy_ai_pair(x)

    monkeypatch.setattr(airy_operator, "airy_ai_pair", counted)
    built = build_airy_resolvents(shifts)
    assert shapes == []  # Airy runs as the pass reaches each block
    resolvents = []
    for k, ar in enumerate(built):
        assert len(shapes) == k // 50 + 1
        resolvents.append(ar)
    assert shapes == [(50, 81), (50, 81), (20, 81)]
    assert all(rows * cols <= airy_operator._AIRY_BLOCK for rows, cols in shapes)
    monkeypatch.undo()
    for s, ar in zip(shifts, resolvents):
        single = build_airy_resolvent(s)
        assert ar.sigma == single.sigma == s
        assert (ar.det, ar.q, ar.p, ar.u, ar.v) == (single.det, single.q, single.p, single.u, single.v)
        for name in ("r0", "qvec", "pvec", "ai_nodes", "aip_nodes"):
            assert np.array_equal(getattr(ar, name), getattr(single, name))


def test_batched_build_memory_stays_flat():
    shifts = np.linspace(-3.0, 14.0, 2000)
    grid = np.concatenate(([0.0], airy_operator._ray_rule(80, 16.0).nodes))
    tracemalloc.start()
    try:
        for _ in build_airy_resolvents(shifts):
            pass
        blocked = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        airy_ai_pair(grid + shifts[:, None])  # the same Airy points in one call
        one_call = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked < 4 * 2**20
    assert blocked < one_call / 10


_NUMPY_ONLY = textwrap.dedent("""
    import sys
    import tacnode, tacnode.cli
    from tacnode.airy_operator import build_airy_resolvent
    from tacnode.gap import gap_probability
    from tacnode.resolvent_form import ResolventParams

    build_airy_resolvent(-1.0)
    gap_probability(ResolventParams.create(1.0, Sigma=1.0, tau=0.0), -0.5, 0.5)
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
""")


def test_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(tacnode.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
