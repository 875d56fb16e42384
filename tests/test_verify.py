import numpy as np
import pytest

from tacnode.airy_operator import Resolution, get_resolvent
from tacnode.rh_form import SParam
from tacnode.verify import (
    CheckReport,
    check_compat,
    check_equivalence,
    check_resolvent_kernel,
    check_rh_kernel,
    check_tw,
    coverage_manifest,
    painleve_residual,
    run_suite,
)

RES = Resolution()


@pytest.fixture(scope="module")
def tw_reports():
    return check_tw(res=RES)


def test_tw_default_grid_passes(tw_reports):
    assert all(r.passed for r in tw_reports), [r.name for r in tw_reports if not r.passed]


def test_tw_reports_carry_metadata(tw_reports):
    names = [r.name for r in tw_reports]
    assert names == sorted(set(names), key=names.index)  # unique, stable order
    for r in tw_reports:
        assert r.statement
        assert r.passed == (r.max_residual <= r.tolerance)
        assert len(r.points) > 0


def test_tw_trivial_at_large_shift():
    reports = check_tw(sigmas=(30.0,), res=RES)
    assert all(r.max_residual < 1e-9 for r in reports), [
        (r.name, r.max_residual) for r in reports if r.max_residual >= 1e-9
    ]


def test_corrupted_scalar_fails_painleve_check():
    clean = painleve_residual(0.0, RES)
    assert clean <= 1e-5
    corrupted = painleve_residual(0.0, RES, q_func=lambda s: get_resolvent(s, RES).q + 1e-3)
    assert corrupted > 1e-5


def test_resolvent_kernel_suite_passes():
    reports = check_resolvent_kernel(res=RES)
    assert all(r.passed for r in reports), [(r.name, r.max_residual) for r in reports if not r.passed]


def test_rh_kernel_suite_passes():
    reports = check_rh_kernel(res=RES)
    assert all(r.passed for r in reports), [(r.name, r.max_residual) for r in reports if not r.passed]


def test_equivalence_suite_passes():
    reports = check_equivalence(res=RES)
    assert all(r.passed for r in reports), [(r.name, r.max_residual) for r in reports if not r.passed]
    tight = [r for r in reports if r.name == "kernel_equivalence_lam=1_Sigma=1_tau=0"]
    assert tight and tight[0].max_residual <= 1e-6


def test_equivalence_certifies_the_sets_it_is_given():
    reports = check_equivalence([1.5], [0.3], [0.1], points=(0.0,), res=RES)
    assert [r.name for r in reports[:2]] == [
        "kernel_equivalence_lam=1.5_Sigma=0.3_tau=0.1",
        "kernel_tail_equivalence_lam=1.5_Sigma=0.3_tau=0.1",
    ]
    # sets of unequal length are an error, not a silent truncation
    with pytest.raises(ValueError):
        check_equivalence([1.0, 2.0], [0.3], [0.1], points=(0.0,), res=RES)


def test_compat_suite_passes_on_both_instances():
    for args in ((1.2, 0.9, SParam(1.3, 0.8, 0.4), 0.3), (1.0, 1.0, SParam(1.0, 1.0, 0.5), 0.0)):
        reports = check_compat(*args, res=RES)
        assert all(r.passed for r in reports), [(r.name, r.max_residual) for r in reports if not r.passed]


def test_reports_are_reproducible():
    a = check_compat(res=RES)
    b = check_compat(res=RES)
    assert [(r.name, r.max_residual, r.passed) for r in a] == [(r.name, r.max_residual, r.passed) for r in b]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_coverage_manifest_spans_every_check():
    reports = run_suite("all", res=RES)
    manifest = coverage_manifest(reports)
    assert set(manifest) == {r.name for r in reports}
    assert all(manifest.values())
    # every family of certified identities appears
    for prefix in ("tw_", "resolvent_pde", "rank2", "six_term", "p_ode", "kernel_equivalence", "residue_"):
        assert any(name.startswith(prefix) for name in manifest), prefix
