"""Every benchmark check must fail on a perturbed output.

Run from the root of the checkout:

    python3 -m pytest tacbench/test_checks.py

Each test first shows that a check passes on real tacnode output, then
feeds it the same output with one small perturbation and asserts that it
reports a failure, so a check that cannot fail is caught.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from tacnode import get_resolvent, verify  # noqa: E402
from tacnode import resolvent_form as rf  # noqa: E402
from tacnode import rh_form as rh  # noqa: E402
from tacnode.gap import gap_probability  # noqa: E402
from tacnode.io import Table, read_csv_table, write_table  # noqa: E402


def tw_rows(sigmas):
    return [(s, ar.q, ar.p, ar.u, ar.v, ar.det) for s, ar in ((s, get_resolvent(s)) for s in sigmas)]


def scale_q(rows, index, factor):
    rows = list(rows)
    sigma, q, *rest = rows[index]
    rows[index] = (sigma, q * factor, *rest)
    return rows


def test_tw_identities_catch_perturbed_q():
    rows = tw_rows([-3.0, 0.0, 2.0])
    assert checks.check_tw_identities(rows) == []
    assert checks.check_tw_identities(scale_q(rows, 1, 1 + 1e-6))


def test_tw_distribution_catches_order_and_range():
    rows = tw_rows([-3.0, 0.0, 2.0])
    assert checks.check_tw_distribution(rows) == []
    assert checks.check_tw_distribution(rows[:2] + [rows[2][:5] + (rows[1][5] * (1 - 1e-6),)])
    assert checks.check_tw_distribution(rows[:2] + [rows[2][:5] + (1.0,)])


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_right_tail_catches_perturbed_q(factor):
    rows = tw_rows([4.6, 5.0])
    assert checks.check_right_tail(rows, workloads.mp_airy_ai) == []
    assert checks.check_right_tail(scale_q(rows, 0, factor), workloads.mp_airy_ai)


def test_tail_ratio_catches_perturbed_q():
    rows = tw_rows([8.0, 11.0, 14.0])
    assert checks.check_tail_ratio(rows, workloads.mp_airy_ai) == []
    assert checks.check_tail_ratio(scale_q(rows, 2, 1 + 1e-6), workloads.mp_airy_ai)


def test_csv_roundtrip_catches_one_ulp(tmp_path):
    path = tmp_path / "tw.csv"
    write_table(Table(("sigma", "q", "p", "u", "v", "det"), tw_rows([0.0, 1.0]), {"m": 80}), "csv", path)
    _, cells = checks.read_csv_cells(path)
    parsed = read_csv_table(path).rows
    assert checks.check_csv_roundtrip(cells, parsed) == []
    bumped = [parsed[0], (parsed[1][0], np.nextafter(parsed[1][1], 1.0), *parsed[1][2:])]
    assert checks.check_csv_roundtrip(cells, bumped)
    short = [[format(float(c), ".15e") for c in row] for row in cells]
    assert checks.check_csv_roundtrip(short, parsed)


def test_rows_equal_and_bytes_catch_one_change():
    assert checks.check_rows_equal("row", [1.0, 2.0], [1.0, 2.0]) == []
    assert checks.check_rows_equal("row", [1.0, np.nextafter(2.0, 3.0)], [1.0, 2.0])
    assert checks.check_same_bytes("file", b"abc", b"abc") == []
    assert checks.check_same_bytes("file", b"abc", b"abd")


def test_equivalence_catches_changed_kernel_value():
    lam, Sigma, tau = 1.3, 0.6, 0.2
    params = rf.ResolventParams.create(lam, Sigma=Sigma, tau=tau)
    plus = rh.from_resolvent_params(lam, Sigma, tau)
    u, v = 0.4, -0.7
    direct = rh.kernel_direct(plus, plus.with_tau(-tau), u, v)
    value = rf.kernel(params, u, v)
    assert checks.check_equivalence([(u, v, value, direct)]) == []
    assert checks.check_equivalence([(u, v, value + 1e-4, direct)])


def test_time_symmetry_catches_changed_kernel_value():
    params = rf.ResolventParams.create(1.3, Sigma=0.6, tau1=0.05, tau2=0.25)
    mirrored = rf.ResolventParams.create(1.3, sigma=params.sigma, tau1=-0.25, tau2=-0.05)
    u, v = 0.4, -0.7
    k, km = rf.kernel(params, u, v), rf.kernel(mirrored, v, u)
    assert checks.check_time_symmetry([(u, v, k, km)]) == []
    assert checks.check_time_symmetry([(u, v, k * (1 + 1e-6), km)])


def test_gap_catches_range_and_monotonicity():
    params = rf.ResolventParams.create(1.3, Sigma=0.6, tau=0.1)
    gap = gap_probability(params, -1.0, 1.0)
    wider = gap_probability(params, -1.5, 1.5)
    assert checks.check_gap(gap, wider) == []
    assert checks.check_gap(gap, gap * (1 + 1e-6))
    assert checks.check_gap(1.0 + gap, wider)


def test_reports_catch_a_failed_check_and_a_missing_one():
    reports = verify.check_compat()
    assert checks.check_reports(reports, len(reports)) == []
    worse = replace(reports[0], max_residual=reports[0].tolerance * 2)
    assert checks.check_reports([worse, *reports[1:]], len(reports))
    assert checks.check_reports(reports[1:], len(reports))


def _rewrite_cell(path, row, col, transform):
    """Rewrite one data cell of a tacnode CSV (row 0 is the first data row)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    first = 1 + (lines[0].startswith("#"))
    cells = lines[first + row].rstrip("\n").split(",")
    cells[col] = format(transform(float(cells[col])), ".16e")
    lines[first + row] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")


def test_tw_bulk_check_catches_perturbed_q_in_file(tmp_path):
    wl = workloads.TwBulk(tmp_path)
    inp = (-4.8, 4.9)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    _rewrite_cell(out, 24, 1, lambda q: q * (1 + 1e-6))
    assert wl.check(inp, out)


def test_tw_tail_cache_check_catches_changed_read_pass_and_q(tmp_path):
    wl = workloads.TwTailCache(tmp_path)
    inp = (8.2, 13.7)
    wl.prepare(inp)
    written, read = wl.run(inp)
    assert wl.check(inp, (written, read)) == []
    original = read.read_bytes()
    _rewrite_cell(read, 3, 1, lambda q: q * (1 + 1e-6))
    assert wl.check(inp, (written, read))
    read.write_bytes(original)
    _rewrite_cell(written, 3, 1, lambda q: q * (1 + 1e-6))
    read.write_bytes(written.read_bytes())
    assert wl.check(inp, (written, read))


@pytest.mark.parametrize("kind", ["single", "two-time"])
def test_kernel_grid_check_catches_one_changed_value(tmp_path, kind):
    wl = workloads.KernelGrid(tmp_path)
    inp = wl.make_input(np.random.default_rng(7), kind)
    path, probability = wl.run(inp)
    assert wl.check(inp, (path, probability)) == []
    original = path.read_bytes()
    for (i, j), delta in ((inp["picks"][0], 1e-12), (inp["picks"][1], 1e-4)):
        path.write_bytes(original)
        _rewrite_cell(path, 41 * i + j, 2, lambda k: k + delta)
        assert wl.check(inp, (path, probability))
    if probability is not None:
        path.write_bytes(original)
        assert wl.check(inp, (path, 1.0 + probability))
