import json

import numpy as np
import pytest

from tacnode.cli import run_cli
from tacnode.io import read_csv_table


def test_tw_sweep_writes_expected_csv(tmp_path):
    out = tmp_path / "tw.csv"
    rc = run_cli(["tw", "--sigma-grid", "-2:2:41", "--m", "80", "--T", "16", "--out", str(out)])
    assert rc == 0
    table = read_csv_table(out)
    assert table.header == ("sigma", "q", "p", "u", "v", "det")
    assert len(table.rows) == 41
    sigmas = [row[0] for row in table.rows]
    assert sigmas[0] == -2.0 and sigmas[-1] == 2.0
    dets = [row[5] for row in table.rows]
    assert all(b > a for a, b in zip(dets, dets[1:]))


def test_kernel_json_grid(tmp_path):
    out = tmp_path / "k.json"
    rc = run_cli([
        "kernel", "--lambda", "1", "--Sigma", "1", "--tau", "0",
        "--grid", "-2:2:21", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["data"]["u"]) == 21
    assert len(payload["data"]["values"]) == 21
    for key in ("lambda", "Sigma", "sigma", "tau1", "tau2", "m", "T"):
        assert key in payload["meta"]


def test_kernel_parallel_matches_serial(tmp_path):
    args = ["kernel", "--lambda", "1.5", "--Sigma", "0.8", "--tau", "0.2", "--grid", "-1:1:5", "--no-banner"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(args + ["--workers", "1", "--out", str(serial)]) == 0
    assert run_cli(args + ["--workers", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_identical_invocations_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["tw", "--sigma-grid", "0:1:5", "--out"]
    assert run_cli(args + [str(a)]) == 0
    assert run_cli(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gap_command_prints_value(tmp_path, capsys):
    rc = run_cli(["gap", "--lambda", "1", "--Sigma", "1", "--tau", "0",
                  "--a1", "-1", "--a2", "1", "--gap-m", "40"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 < value < 1.0


def test_residue_table(tmp_path):
    out = tmp_path / "res.csv"
    rc = run_cli(["residue", "--r1", "1.2", "--r2", "0.9", "--s1", "0.4",
                  "--s2", "0.7", "--tau", "0.3", "--out", str(out)])
    assert rc == 0
    table = read_csv_table(out)
    assert table.header == ("entry", "value")
    assert [row[0] for row in table.rows][:2] == ["d", "d_tilde"]


def test_argument_errors_exit_2():
    assert run_cli(["kernel", "--lambda", "1", "--Sigma", "1", "--sigma", "2", "--grid", "0:1:2"]) == 2
    assert run_cli(["tw"]) == 2
    assert run_cli(["tw", "--sigma-grid", "0:1:3", "--bogus"]) == 2
    assert run_cli(["kernel", "--lambda", "1", "--Sigma", "1"]) == 2
    assert run_cli(["gap", "--lambda", "1", "--Sigma", "1", "--a1", "1", "--a2", "-1"]) == 2


def test_numerical_failures_exit_3(tmp_path):
    # below the supported shift range
    assert run_cli(["tw", "--sigma-grid", "-8.5:-8.4:2", "--out", str(tmp_path / "x.csv")]) == 3
    # unwritable output path
    assert run_cli(["tw", "--sigma-grid", "0:1:2", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
    # a gap probability at two distinct times
    assert run_cli(["gap", "--lambda", "0.8", "--Sigma", "1.2", "--tau1", "0.1", "--tau2", "0.35",
                    "--a1", "-1", "--a2", "1"]) == 3


def test_strict_flag_rejects_short_truncation(tmp_path):
    rc = run_cli(["tw", "--sigma-grid", "-4:-4:1", "--T", "6", "--strict",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_verify_suite_exit_codes(tmp_path):
    out = tmp_path / "report.csv"
    rc = run_cli(["verify", "--suite", "compat", "--tol-scale", "1", "--out", str(out)])
    assert rc == 0
    table = read_csv_table(out)
    assert table.header == ("name", "statement", "max_residual", "tolerance", "passed")
    assert all(row[4] == "true" for row in table.rows)
    # an absurd tolerance scale forces failures and exit code 4
    rc = run_cli(["verify", "--suite", "compat", "--tol-scale", "1e-12"])
    assert rc == 4
