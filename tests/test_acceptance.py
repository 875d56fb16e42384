"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Stated tolerances and runtime budgets are asserted, never loosened.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from tacnode.airy import airy_ai
from tacnode.airy_operator import Resolution, build_airy_resolvent, get_resolvent
from tacnode.cli import run_cli
from tacnode.gap import gap_probability
from tacnode.resolvent_form import ResolventParams, kernel, kernel_dsigma, kernel_six_term
from tacnode.rh_form import SParam
from tacnode.tracy_widom import hamiltonian, hastings_mcleod, hm_derivative
from tacnode.verify import (
    check_compat,
    check_equivalence,
    check_resolvent_kernel,
    check_rh_kernel,
    check_tw,
)

RES = Resolution(m=80, T=16.0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {description}")
        raise
    print(f"[criterion {number:02d}] PASS {description}")


def _failures(reports, names=None):
    selected = [r for r in reports if names is None or r.name in names]
    assert selected, f"no reports matched {names}"
    return [(r.name, r.max_residual, r.tolerance) for r in selected if not r.passed]


def test_criterion_01_hastings_mcleod_tail():
    with criterion(1, "Hastings-McLeod tail |q(6)/Ai(6) - 1| <= 1e-8 in under 1 s"):
        start = time.perf_counter()
        ar = build_airy_resolvent(6.0, RES)
        elapsed = time.perf_counter() - start
        assert abs(ar.q / airy_ai(6.0) - 1.0) <= 1e-8
        assert elapsed < 1.0, f"build took {elapsed:.2f} s"


def test_criterion_02_painleve_residual_grid():
    with criterion(2, "Painleve II residual <= 1e-5 on [-2, 2] (5-point FD, h = 1e-2) in under 10 s"):
        start = time.perf_counter()
        h = 1e-2
        lattice = np.round(np.arange(-2.0 - 2 * h, 2.0 + 2 * h + h / 2, h), 10)
        q = np.array([hastings_mcleod(s, RES) for s in lattice])
        qpp = (-q[4:] + 16 * q[3:-1] - 30 * q[2:-2] + 16 * q[1:-3] - q[:-4]) / (12 * h * h)
        residual = qpp - lattice[2:-2] * q[2:-2] - 2 * q[2:-2] ** 3
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(residual)) <= 1e-5
        assert elapsed < 10.0, f"grid took {elapsed:.2f} s"


def test_criterion_03_scalar_relations():
    with criterion(3, "2v = u^2 - q^2 to 1e-9 and the Hamiltonian identity to 1e-8"):
        for sigma in (-1.0, 0.0, 1.0, 2.0):
            ar = get_resolvent(sigma, RES)
            assert abs(2 * ar.v - (ar.u**2 - ar.q**2)) <= 1e-9
            dq = hm_derivative(sigma, RES)
            q = ar.q
            assert abs(hamiltonian(sigma, RES) - (dq * dq - sigma * q * q - q**4)) <= 1e-8


def test_criterion_04_resolvent_pde_suite():
    with criterion(4, "resolvent differential identities <= 1e-5 at sigma = 0 on 10 node pairs"):
        reports = check_tw(sigmas=(0.0,), res=RES)
        pde = ("resolvent_pde_xy", "resolvent_pde_sigma", "resolvent_pde_q", "resolvent_pde_p")
        assert _failures(reports, pde) == []
        for r in reports:
            if r.name in pde:
                assert len(r.points) == 10


def test_criterion_05_rank_two_derivative():
    with criterion(5, "rank-2 shift derivative matches finite differences to 1e-5 relative"):
        h = 1e-3
        for lam, tau in ((1.0, 0.0), (2.0, 0.4)):
            params = ResolventParams.create(lam, Sigma=1.0, tau=tau, resolution=RES)
            for u, v in ((0.0, 0.0), (1.0, -1.0)):
                an = kernel_dsigma(params, u, v)
                fd = (kernel(params.at_sigma(params.sigma + h), u, v)
                      - kernel(params.at_sigma(params.sigma - h), u, v)) / (2 * h)
                assert abs(an - fd) <= 1e-5 * abs(an)
            pts = (-1.0, 0.0, 1.0)
            mat = np.array([[kernel_dsigma(params, u, v) for v in pts] for u in pts])
            sv = np.linalg.svd(mat, compute_uv=False)
            assert sv[2] <= 1e-8 * sv[0]


def test_criterion_06_kernel_equivalence():
    with criterion(6, "both kernel forms agree to 1e-5 on a 3x3 grid for two parameter sets in under 2 min"):
        start = time.perf_counter()
        reports = check_equivalence(
            lambdas=(1.0, 2.0), Sigmas=(1.0, 0.5), taus=(0.0, 0.3), res=RES,
        )
        elapsed = time.perf_counter() - start
        names = [
            "kernel_equivalence_lam=1_Sigma=1_tau=0",
            "kernel_tail_equivalence_lam=1_Sigma=1_tau=0",
            "kernel_equivalence_lam=2_Sigma=0.5_tau=0.3",
            "kernel_tail_equivalence_lam=2_Sigma=0.5_tau=0.3",
        ]
        assert _failures(reports, names) == []
        assert elapsed < 120.0, f"equivalence suite took {elapsed:.1f} s"


def test_criterion_07_six_term_form():
    with criterion(7, "six-term and compact kernel expressions agree to 1e-8"):
        for lam, Sigma, tau in ((1.0, 1.0, 0.0), (2.0, 0.5, 0.3)):
            params = ResolventParams.create(lam, Sigma=Sigma, tau=tau, resolution=RES)
            for u, v in ((0.0, 0.0), (1.0, -1.0), (0.7, -0.2)):
                assert abs(kernel_six_term(params, u, v) - kernel(params, u, v)) <= 1e-8


def test_criterion_08_multi_time_structure():
    with criterion(8, "equal-time reduction exact, heat term iff ordered times, time-reflection to 1e-10"):
        single = ResolventParams.create(1.0, Sigma=1.0, tau=0.2, resolution=RES)
        multi = ResolventParams.create(1.0, Sigma=1.0, tau1=0.2, tau2=0.2, resolution=RES)
        assert kernel(single, 0.4, -0.6) == kernel(multi, 0.4, -0.6)
        reports = check_resolvent_kernel(res=RES)
        assert _failures(reports, ("heat_term_presence", "kernel_time_symmetry")) == []


def test_criterion_09_rh_column_odes():
    with criterion(9, "RH column ODE residuals <= 1e-5 and column-sum consistency to 1e-12"):
        reports = check_rh_kernel(res=RES)
        assert _failures(reports, ("p_ode_first", "p_ode_second", "m_column_ode", "p_column_sum")) == []


def test_criterion_10_residue_matrix():
    with criterion(10, "residue-matrix identities: exact to 1e-10, flows to 1e-5, coupled system to 1e-4, swaps to 1e-12"):
        for args in ((1.2, 0.9, SParam(1.3, 0.8, 0.4), 0.3), (1.0, 1.0, SParam(1.0, 1.0, 0.5), 0.0)):
            reports = check_compat(*args, res=RES)
            assert _failures(reports) == []


def test_criterion_11_p_phat_scaling():
    with criterion(11, "p and phat related by the stated scale factor to 1e-9 at lam in {1, 2}"):
        reports = check_rh_kernel(res=RES)
        assert _failures(reports, ("p_phat_scaling",)) == []


def test_criterion_12_gap_probabilities():
    with criterion(12, "gap: width-zero limit, inclusion monotonicity, order-doubling self-convergence"):
        params = ResolventParams.create(1.0, Sigma=1.0, tau=0.0, resolution=RES)
        narrow = gap_probability(params, -5e-7, 5e-7, 20)
        assert abs(narrow - 1.0) <= 1e-6
        inner = gap_probability(params, -1.0, 1.0)
        outer = gap_probability(params, -2.0, 2.0)
        assert outer <= inner
        fine = gap_probability(params, -1.0, 1.0, 120)
        assert abs(inner - fine) <= 1e-7


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "verify twice and kernel twice are byte-identical"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify", "--suite", "all", "--out"]
        assert run_cli(args + [str(a)]) == 0
        assert run_cli(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        ka, kb = tmp_path / "ka.csv", tmp_path / "kb.csv"
        kernel_args = ["kernel", "--lambda", "1", "--Sigma", "1", "--tau", "0.1", "--grid", "-1:1:4", "--out"]
        assert run_cli(kernel_args + [str(ka)]) == 0
        assert run_cli(kernel_args + [str(kb)]) == 0
        assert ka.read_bytes() == kb.read_bytes()
