"""The four benchmark workloads: seeded inputs, one operation, its checks.

Every workload calls tacnode from outside, through its public functions,
in one process with one caller in a closed loop.  The program only sees
the inputs generated here from the benchmark's seed.

A workload provides:

* ``kinds``: the operation kinds of one round; ``op_s`` is the mean over
  kinds of the median time of each kind;
* ``make_input(rng, kind)``: the seeded input of one operation;
* ``prepare(inp)``: untimed work before an operation (clearing state);
* ``run(inp)``: the timed operation; returns its output;
* ``check(inp, out)``: failure messages for the output (untimed);
* ``warm_up(rng)``: untimed calls that let lazy set-up finish;
* ``setup_argv(rng)``: a fresh-interpreter command for ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import mpmath

# modules, not functions: attributes looked up at call time pick up the tracer's wrappers
import tacnode.io as tacio
from tacnode import airy_operator, cli, gap, verify
from tacnode import resolvent_form as rf
from tacnode import rh_form as rh

import checks

mpmath.mp.dps = 30


def mp_airy_ai(x: float) -> float:
    """Ai(x) from mpmath, independent of tacnode's own Airy branches."""
    return float(mpmath.airyai(x))


def clear_tacnode_caches() -> None:
    """Empty every functools cache held at module level in tacnode."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("tacnode"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _cli(argv: list[str]) -> str:
    """``tacnode.cli.run_cli``; returns its standard output, raises on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_cli(argv)
    if code != 0:
        raise RuntimeError(f"tacnode {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _tw_rows(path) -> tuple[list, list[str]]:
    """Rows of a ``tacnode tw`` CSV and the read-back failures."""
    header, cells = checks.read_csv_cells(path)
    table = tacio.read_csv_table(path)
    errors = [] if header == ["sigma", "q", "p", "u", "v", "det"] else [f"tw header {header}"]
    errors += checks.check_csv_roundtrip(cells, table.rows)
    return [tuple(float(c) for c in row) for row in cells], errors


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


class Workload:
    name = ""
    kinds = ("op",)

    def __init__(self, work: Path):
        self.work = work  # run-private directory for output files

    def prepare(self, inp) -> None:
        pass


class TwBulk(Workload):
    """``tacnode tw`` over fresh 25-shift grids in [-5, 5]: every shift is a cold build."""

    name = "tw-bulk"
    size = 25

    def make_input(self, rng, kind):
        return (-5.0 + 0.5 * rng.random(), 5.0 - 0.5 * rng.random())

    def run(self, inp):
        a, b = inp
        out = self.work / "tw.csv"
        _cli(["tw", "--sigma-grid", f"{a!r}:{b!r}:{self.size}", "--out", str(out)])
        return out

    def check(self, inp, out):
        rows, errors = _tw_rows(out)
        if len(rows) != self.size:
            return errors + [f"{len(rows)} rows, expected {self.size}"]
        errors += checks.check_tw_identities(rows)
        errors += checks.check_tw_distribution(rows)
        errors += checks.check_right_tail(rows, mp_airy_ai)
        # the file holds exactly what a fresh build computes
        sigma = rows[len(rows) // 2][0]
        ar = airy_operator.build_airy_resolvent(sigma)
        errors += checks.check_rows_equal("tw row vs fresh build", rows[len(rows) // 2],
                                          (sigma, ar.q, ar.p, ar.u, ar.v, ar.det))
        return errors

    def warm_up(self, rng):
        for _ in range(2):
            self.run(self.make_input(rng, "op"))

    def setup_argv(self, rng):
        s = float(rng.uniform(-5.0, 5.0))
        return python_argv("-m", "tacnode.cli", "tw", "--sigma-grid", f"{s!r}:{s!r}:1",
                           "--out", str(self.work / "setup.csv")), {}


class TwTailCache(Workload):
    """``tacnode tw`` on right-tail grids in [8, 14] through the disk cache:
    one pass builds and writes it, a second pass reads it back."""

    name = "tw-tail-cache"
    size = 25

    @property
    def cache_dir(self) -> Path:
        return self.work / "cache"

    def make_input(self, rng, kind):
        return (8.0 + 0.5 * rng.random(), 14.0 - 0.5 * rng.random())

    def prepare(self, inp):
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def run(self, inp):
        a, b = inp
        grid = f"{a!r}:{b!r}:{self.size}"
        written, read = self.work / "tail-write.csv", self.work / "tail-read.csv"
        os.environ["TACNODE_CACHE_DIR"] = str(self.cache_dir)
        try:
            _cli(["tw", "--sigma-grid", grid, "--out", str(written)])
            _cli(["tw", "--sigma-grid", grid, "--out", str(read)])
        finally:
            del os.environ["TACNODE_CACHE_DIR"]
        return written, read

    def check(self, inp, out):
        written, read = out
        rows, errors = _tw_rows(written)
        if len(rows) != self.size:
            return errors + [f"{len(rows)} rows, expected {self.size}"]
        cached = len(list(self.cache_dir.iterdir()))
        if cached != self.size:
            errors.append(f"{cached} cache files, expected {self.size}")
        errors += checks.check_same_bytes("cache read pass vs write pass", written.read_bytes(), read.read_bytes())
        errors += checks.check_tail_ratio(rows, mp_airy_ai)
        return errors

    def warm_up(self, rng):
        inp = self.make_input(rng, "op")
        self.prepare(inp)
        self.run(inp)

    def setup_argv(self, rng):
        s = float(rng.uniform(8.0, 14.0))
        cache = self.work / f"setup-cache-{rng.integers(1 << 30)}"
        argv = python_argv("-m", "tacnode.cli", "tw", "--sigma-grid", f"{s!r}:{s!r}:1",
                           "--out", str(self.work / "setup.csv"))
        return argv, {"TACNODE_CACHE_DIR": str(cache)}


class KernelGrid(Workload):
    """``tacnode kernel`` on a 41 x 41 grid at fresh (lambda, Sigma, tau); single-time
    operations add ``tacnode gap`` (two-time gaps are not well defined, see README)."""

    name = "kernel-grid"
    kinds = ("single", "two-time")
    grid = "-2:2:41"
    samples = 3

    def make_input(self, rng, kind):
        lam, Sigma = float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.0, 1.5))
        if kind == "single":
            times = {"tau": float(rng.uniform(0.0, 0.3))}
            interval = (float(rng.uniform(-1.5, -0.5)), float(rng.uniform(0.5, 1.5)))
        else:
            t1, t2 = sorted(float(t) for t in rng.uniform(0.0, 0.3, 2))
            times, interval = {"tau1": t1, "tau2": t2}, None
        picks = [tuple(int(k) for k in rng.integers(0, 41, 2)) for _ in range(self.samples)]
        return {"lam": lam, "Sigma": Sigma, "times": times, "interval": interval, "picks": picks}

    def _param_argv(self, inp):
        argv = ["--lambda", repr(inp["lam"]), "--Sigma", repr(inp["Sigma"])]
        for key, value in inp["times"].items():
            argv += [f"--{key}", repr(value)]
        return argv

    def run(self, inp, grid=None):
        out = self.work / "kernel.csv"
        _cli(["kernel", *self._param_argv(inp), "--grid", grid or self.grid, "--out", str(out)])
        probability = None
        if inp["interval"] is not None:
            a1, a2 = inp["interval"]
            probability = float(_cli(["gap", *self._param_argv(inp), "--a1", repr(a1), "--a2", repr(a2)]).split()[-1])
        return out, probability

    def _params(self, inp):
        times = inp["times"]
        return rf.ResolventParams.create(
            inp["lam"], Sigma=inp["Sigma"], tau=times.get("tau"), tau1=times.get("tau1"), tau2=times.get("tau2"))

    def check(self, inp, out):
        path, probability = out
        header, cells = checks.read_csv_cells(path)
        table = tacio.read_csv_table(path)
        errors = [] if header == ["u", "v", "value"] else [f"kernel header {header}"]
        errors += checks.check_csv_roundtrip(cells, table.rows)
        if len(cells) != 41 * 41:
            return errors + [f"{len(cells)} kernel values, expected {41 * 41}"]
        us = [float(cells[41 * i][0]) for i in range(41)]
        vs = [float(cells[j][1]) for j in range(41)]
        values = [[float(cells[41 * i + j][2]) for j in range(41)] for i in range(41)]
        params = self._params(inp)
        # the file holds exactly what the kernel computes for the first sampled row
        row = inp["picks"][0][0]
        errors += checks.check_rows_equal("kernel row vs kernel_grid", values[row],
                                          rf.kernel_grid(params, [us[row]], vs)[0])
        points = [(us[i], vs[j], values[i][j]) for i, j in inp["picks"]]
        if "tau" in inp["times"]:
            tau = inp["times"]["tau"]
            plus = rh.from_resolvent_params(inp["lam"], inp["Sigma"], tau)
            minus = plus.with_tau(-tau)
            errors += checks.check_equivalence([(u, v, k, rh.kernel_direct(plus, minus, u, v)) for u, v, k in points])
            a1, a2 = inp["interval"]
            errors += checks.check_gap(probability, gap.gap_probability(params, a1 - 0.5, a2 + 0.5))
        else:
            mirrored = rf.ResolventParams.create(params.lam, sigma=params.sigma, tau1=-params.tau2, tau2=-params.tau1)
            errors += checks.check_time_symmetry([(u, v, k, rf.kernel(mirrored, v, u)) for u, v, k in points])
        return errors

    def warm_up(self, rng):
        for kind in self.kinds:
            self.run(self.make_input(rng, kind), grid="-1:1:5")

    def setup_argv(self, rng):
        inp = self.make_input(rng, "single")
        u = float(rng.uniform(-2.0, 2.0))
        return python_argv("-m", "tacnode.cli", "kernel", *self._param_argv(inp), "--grid", f"{u!r}:{u!r}:1",
                           "--out", str(self.work / "setup.csv")), {}


class Certify(Workload):
    """A seeded certification of the kernel equivalence and the RH-form identities
    through the public ``verify.check_*`` functions, from an empty resolvent cache."""

    name = "certify"
    reports = 23  # 3 equivalence + 14 RH-form + 6 compatibility checks

    def make_input(self, rng, kind):
        u = rng.uniform
        return {
            "equivalence": ([float(u(0.7, 2.0))], [float(u(0.0, 1.5))], [float(u(0.0, 0.3))],
                            tuple(sorted(float(z) for z in u(-1.0, 1.0, 2)))),
            "rh": (float(u(0.9, 1.3)), float(u(0.9, 1.3)), float(u(0.3, 0.8)), float(u(0.3, 0.8)),
                   float(u(0.0, 0.3))),
            "compat": (float(u(0.9, 1.3)), float(u(0.9, 1.3)), float(u(0.8, 1.3)), float(u(0.8, 1.3)),
                       float(u(0.3, 0.8)), float(u(0.0, 0.3))),
        }

    def prepare(self, inp):
        clear_tacnode_caches()

    def run(self, inp):
        lams, Sigmas, taus, points = inp["equivalence"]
        r1, r2, sg1, sg2, s, tau = inp["compat"]
        sp = rh.SParam(sg1, sg2, s)
        return (verify.check_equivalence(lams, Sigmas, taus, points=points)
                + verify.check_rh_kernel([inp["rh"]])
                + verify.check_compat(r1, r2, sp, tau))

    def check(self, inp, out):
        return checks.check_reports(out, self.reports)

    def warm_up(self, rng):
        inp = self.make_input(rng, "op")
        r1, r2, sg1, sg2, s, tau = inp["compat"]
        verify.check_compat(r1, r2, rh.SParam(sg1, sg2, s), tau)
        lam, Sigma, tau = inp["equivalence"][0][0], inp["equivalence"][1][0], inp["equivalence"][2][0]
        plus = rh.from_resolvent_params(lam, Sigma, tau)
        rh.kernel_direct(plus, plus.with_tau(-tau), 0.1, -0.2)
        rf.kernel(rf.ResolventParams.create(lam, Sigma=Sigma, tau=tau), 0.1, -0.2)

    def setup_argv(self, rng):
        inp = self.make_input(rng, "op")
        r1, r2, sg1, sg2, s, tau = inp["compat"]
        code = ("import sys, tacnode.rh_form as rh, tacnode.verify as v; "
                f"r = v.check_compat({r1!r}, {r2!r}, rh.SParam({sg1!r}, {sg2!r}, {s!r}), {tau!r}); "
                "sys.exit(0 if all(x.passed for x in r) else 1)")
        return python_argv("-c", code), {}


WORKLOADS = {w.name: w for w in (TwBulk, TwTailCache, KernelGrid, Certify)}
