import argparse
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tacnode.cli
import tacnode.resolvent_form as rf
from tacnode import airy_operator
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


@pytest.mark.parametrize("times", [{"tau": 0.15}, {"tau1": 0.1, "tau2": 0.35}])
def test_kernel_csv_rows_equal_kernel_grid_rows(tmp_path, times):
    out = tmp_path / "k.csv"
    argv = ["kernel", "--lambda", "1.3", "--Sigma", "0.7", "--grid", "-2:2:41", "--out", str(out)]
    for key, value in times.items():
        argv += [f"--{key}", repr(value)]
    assert run_cli(argv) == 0
    values = np.array([row[2] for row in read_csv_table(out).rows]).reshape(41, 41)
    params = rf.ResolventParams.create(1.3, Sigma=0.7, **times)
    grid = np.linspace(-2.0, 2.0, 41)
    for i, u in enumerate(grid):
        assert np.array_equal(values[i], rf.kernel_grid(params, [u], grid)[0])


def test_kernel_grid_evaluates_v_side_once(tmp_path, monkeypatch):
    counts = {"grid": 0, "airy": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tacnode.cli, "kernel_grid", counting("grid", rf.kernel_grid))
    monkeypatch.setattr(rf, "airy_ai_pair", counting("airy", rf.airy_ai_pair))
    argv = ["kernel", "--lambda", "1.5", "--Sigma", "0.8", "--tau", "0.2", "--grid", "-1:1:7",
            "--out", str(tmp_path / "k.csv")]
    assert run_cli(argv) == 0
    # one grid; in it one Airy call for the v side, one for all rows
    assert counts == {"grid": 1, "airy": 1 + 1}


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


def test_argument_errors_exit_2(capsys):
    assert run_cli(["kernel", "--lambda", "1", "--Sigma", "1", "--sigma", "2", "--grid", "0:1:2"]) == 2
    assert run_cli(["tw"]) == 2
    assert run_cli(["tw", "--sigma-grid", "0:1:3", "--bogus"]) == 2
    capsys.readouterr()
    assert run_cli(["kernel", "--lambda", "1", "--Sigma", "1"]) == 2
    assert capsys.readouterr().err.startswith("tacnode kernel: provide --grid")
    assert run_cli(["gap", "--lambda", "1", "--Sigma", "1", "--a1", "1", "--a2", "-1"]) == 2
    # removed options
    assert run_cli(["kernel", "--lambda", "1", "--Sigma", "1", "--grid", "0:1:2", "--workers", "1"]) == 2
    assert run_cli(["verify", "--suite", "compat", "--strict"]) == 2


def test_numerical_failures_exit_3(tmp_path):
    # below the supported shift range
    assert run_cli(["tw", "--sigma-grid", "-8.5:-8.4:2", "--out", str(tmp_path / "x.csv")]) == 3
    # unwritable output path
    assert run_cli(["tw", "--sigma-grid", "0:1:2", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
    # a gap probability at two distinct times
    assert run_cli(["gap", "--lambda", "0.8", "--Sigma", "1.2", "--tau1", "0.1", "--tau2", "0.35",
                    "--a1", "-1", "--a2", "1"]) == 3


def test_strict_flag_rejects_short_truncation(tmp_path, capsys):
    for argv in (
        ["tw", "--sigma-grid", "-4:-4:1", "--out", str(tmp_path / "x.csv")],
        ["kernel", "--lambda", "1", "--sigma", "-4", "--tau", "0", "--grid", "0:1:2"],
        ["gap", "--lambda", "1", "--sigma", "-4", "--tau", "0", "--a1", "-1", "--a2", "1"],
        # sigma = 2 (s1 + s2) / 2^(1/3) = -4.0002
        ["residue", "--r1", "1", "--r2", "1", "--s1", "-1.26", "--s2", "-1.26"],
    ):
        assert run_cli(argv + ["--T", "6"]) == 0
        capsys.readouterr()
        assert run_cli(argv + ["--T", "6", "--strict"]) == 3
        assert capsys.readouterr().err.startswith(f"tacnode {argv[0]}: T = 6.0 truncates visible mass")


# a run of each command that --strict can check, at the default truncation T = 16
_STRICT_RUNS = {
    "tw": ["tw", "--sigma-grid", "-1:1:3"],
    "kernel": ["kernel", "--lambda", "1.3", "--Sigma", "0.7", "--tau1", "0.1", "--tau2", "0.35", "--grid", "-1:1:5"],
    "gap": ["gap", "--lambda", "1", "--Sigma", "1", "--tau", "0", "--a1", "-1", "--a2", "1", "--gap-m", "20"],
    "residue": ["residue", "--r1", "1.2", "--r2", "0.9", "--s1", "0.4", "--s2", "0.7", "--tau", "0.3"],
}


@pytest.mark.parametrize("command", sorted(_STRICT_RUNS))
def test_strict_run_writes_the_bytes_of_its_plain_twin(tmp_path, capsys, command):
    outputs = []
    for extra in ([], ["--strict"]):
        out = tmp_path / f"{command}{len(extra)}.csv"
        assert run_cli(_STRICT_RUNS[command] + extra + ["--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_strict_kernel_run_makes_two_builds(tmp_path, monkeypatch, fresh_resolvent_cache):
    truncations = []
    build = airy_operator.build_airy_resolvents

    def counting(sigmas, resolution):
        truncations.append(resolution.T)
        return build(sigmas, resolution)

    # every resolvent build goes through build_airy_resolvents
    monkeypatch.setattr(airy_operator, "build_airy_resolvents", counting)
    argv = _STRICT_RUNS["kernel"] + ["--strict", "--out", str(tmp_path / "k.csv")]
    assert run_cli(argv) == 0
    # the checked build serves the kernel from the cache; only the wide one is extra
    assert sorted(truncations) == [16.0, 20.0]


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_strict_tw_run_builds_each_miss_once_and_one_wide(tmp_path, monkeypatch, count_calls, cached):
    if cached:
        monkeypatch.setenv("TACNODE_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("TACNODE_CACHE_DIR", raising=False)
    # every resolvent build goes through build_airy_resolvents
    calls = count_calls("build_airy_resolvents")
    argv = _STRICT_RUNS["tw"] + ["--strict", "--out", str(tmp_path / "tw.csv")]
    builds = []
    for _ in range(2):
        assert run_cli(argv) == 0
        builds.append(sorted((res.T, s) for sigmas, res in calls for s in sigmas))
        calls.clear()
    # one build at T = 16 per miss and one at T + 4 for the lowest shift; a warm cache has no misses
    assert builds[0] == [(16.0, -1.0), (16.0, 0.0), (16.0, 1.0), (20.0, -1.0)]
    assert builds[1] == ([(20.0, -1.0)] if cached else builds[0])


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_tw_grid_failures_exit_3_without_output(tmp_path, monkeypatch, capsys, count_calls, cached):
    cache = tmp_path / "cache"
    if cached:
        monkeypatch.setenv("TACNODE_CACHE_DIR", str(cache))
    else:
        monkeypatch.delenv("TACNODE_CACHE_DIR", raising=False)
    airy = count_calls("airy_ai_pair")
    out = tmp_path / "tw.csv"
    # a shift below SIGMA_MIN fails before any build
    assert run_cli(["tw", "--sigma-grid", "0:-8.5:3", "--out", str(out)]) == 3
    assert "supported minimum" in capsys.readouterr().err
    assert airy == [] and not out.exists() and not cache.exists()
    # the pass stops at the first singular shift, after writing the files of the shifts before it
    assert run_cli(["tw", "--sigma-grid", "-5:-6.5:4", "--out", str(out)]) == 3
    assert "at sigma = -6.5 " in capsys.readouterr().err
    assert not out.exists()
    assert len(list(cache.glob("resolvent_*.txt"))) == (3 if cached else 0)
    # a failing --strict check runs after the pass: it leaves the files of the grid's misses at T, none at T + 4
    assert run_cli(["tw", "--sigma-grid", "-4:-3:2", "--T", "6", "--strict", "--out", str(out)]) == 3
    assert "truncates visible mass" in capsys.readouterr().err
    assert not out.exists()
    assert len(list(cache.glob("resolvent_*.txt"))) == (5 if cached else 0)
    assert len(list(cache.glob(f"resolvent_*_80_{6.0.hex()}.txt"))) == (2 if cached else 0)


def test_runs_leave_no_option_behind(monkeypatch):
    seen = []

    def record(args):
        seen.append(args)
        return 0

    monkeypatch.setitem(tacnode.cli._COMMANDS, "kernel", record)
    base = ["kernel", "--lambda", "1.3", "--Sigma", "0.7", "--grid", "-1:1:3"]
    assert run_cli(base + ["--tau1", "0.1", "--tau2", "0.35", "--strict"]) == 0
    assert run_cli(base + ["--tau", "0.2"]) == 0
    first, second = seen
    assert (first.tau, first.tau1, first.tau2, first.strict) == (None, 0.1, 0.35, True)
    assert (second.tau, second.tau1, second.tau2, second.strict) == (0.2, None, None, False)
    assert first is not second


_PARSED = [
    ["tw", "--sigma-grid", "-1:1:3", "--strict"],
    ["tw", "--sigma-grid", "8:14:7", "--format", "json", "--m", "60"],
    ["kernel", "--lambda", "1.3", "--Sigma", "0.7", "--tau1", "0.1", "--tau2", "0.35", "--grid", "-2:2:41"],
    ["kernel", "--lambda", "2", "--sigma", "-1", "--tau", "0.2", "--u-grid", "0:1:2", "--v-grid", "-.5:.5:3"],
    ["gap", "--lambda", "1", "--Sigma", "1", "--tau", "0", "--a1", "-1", "--a2", "1", "--gap-m", "20"],
    ["verify", "--suite", "compat", "--tol-scale", "2"],
]


def _parsed(argv):
    args = tacnode.cli._build_parser().parse_args(tacnode.cli._normalize_argv(argv))
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in vars(args).items()}


def test_parses_from_threads_equal_serial_parses():
    # the parser is built once and shared: four threads (more than the cores of a small machine) parse at once
    serial = [_parsed(argv) for argv in _PARSED]
    start = threading.Barrier(4)

    def parse_all(shift):
        start.wait(timeout=60)
        order = [(k + shift) % len(_PARSED) for k in range(len(_PARSED))]
        return [(k, _parsed(_PARSED[k])) for _ in range(30) for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(parse_all, shift) for shift in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for parsed in results:
        assert len(parsed) == 30 * len(_PARSED)
        assert all(value == serial[k] for k, value in parsed)


def test_parser_is_built_once_per_process(tmp_path):
    tacnode.cli._build_parser.cache_clear()
    assert run_cli(["tw", "--sigma-grid", "0:1:2", "--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli(["residue", "--r1", "1.2", "--r2", "0.9", "--s1", "0.4", "--s2", "0.7"]) == 0
    assert run_cli(["tw"]) == 2
    info = tacnode.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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


@pytest.mark.parametrize("argv", [
    ["tw", "--sigma-grid", "0:1:2"],
    ["kernel", "--lambda", "1.2", "--Sigma", "0.5", "--tau", "0.1", "--grid", "-1:1:3"],
    ["gap", "--lambda", "1", "--Sigma", "1", "--tau", "0", "--a1", "-1", "--a2", "1", "--gap-m", "8"],
    ["residue", "--r1", "1.2", "--r2", "0.9", "--s1", "0.4", "--s2", "0.7"],
    ["verify", "--suite", "compat"],
], ids=lambda argv: argv[0])
def test_every_option_is_read(tmp_path, argv):
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    argv = argv + ["--out", str(tmp_path / "out.csv")]
    args = tacnode.cli._build_parser().parse_args(tacnode.cli._normalize_argv(argv), namespace=Recording())
    read.clear()
    assert tacnode.cli._COMMANDS[args.command](args) == 0
    assert set(vars(args)) - {"command"} - read == set()


@pytest.mark.parametrize("argv", [
    ["tw", "--sigma-grid", "nan:0:2"],
    ["tw", "--sigma-grid", "0:inf:2"],
    ["tw", "--sigma-grid", "0:1:2", "--T", "inf"],
    ["gap", "--lambda", "1", "--Sigma", "1", "--a1", "-inf", "--a2", "1"],
    ["gap", "--lambda", "1", "--Sigma", "1", "--a1=-inf", "--a2", "1"],
    ["kernel", "--lambda", "nan", "--Sigma", "1", "--grid", "0:1:2"],
    ["residue", "--r1", "1.2", "--r2", "0.9", "--s1", "nan", "--s2", "0.7"],
    ["verify", "--suite", "compat", "--tol-scale", "nan"],
], ids=lambda argv: " ".join(argv[1:]))
def test_non_finite_values_are_argument_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert "error: argument" in capsys.readouterr().err  # rejected by the parser, before any computation


def test_negative_values_glue_onto_their_flag():
    glued = tacnode.cli._normalize_argv(["tw", "--sigma-grid", "-4.7:4.8:25", "--tau", "-.5", "--out", "-x.csv"])
    assert glued == ["tw", "--sigma-grid=-4.7:4.8:25", "--tau=-.5", "--out", "-x.csv"]
    # a glued flag takes no second value
    assert tacnode.cli._normalize_argv(["--grid", "-1:1:3", "-2"]) == ["--grid=-1:1:3", "-2"]
