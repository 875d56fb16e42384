"""Command-line interface.

Subcommands: ``tw`` (Tracy-Widom scalar sweep), ``kernel`` (tacnode kernel
on a grid), ``gap`` (gap probability on an interval), ``residue``
(residue-matrix entries), ``verify`` (certification suite).

Exit codes: 0 success, 2 argument errors, 3 numerical or I/O failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from ._version import __version__
from .airy_operator import Resolution, check_truncation, get_resolvent
from .errors import TacnodeError
from .gap import gap_probability
from .io import KernelGrid, Table, tw_scalars, write_table
from .resolvent_form import ResolventParams, kernel_grid
from .rh_form import RHParams, residue_matrix
from .verify import run_suite

_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _normalize_argv(argv):
    """Glue a value that starts like a negative number (``-2:2:41``, ``-.5``) onto the flag before it.

    argparse would take such a token for an option; no option name starts
    with a digit or a dot.  A value that starts with a dash and a letter
    (``--out -name.csv``) needs the ``--out=-name.csv`` form.
    """
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like start:stop:count, got {spec!r}")
    try:
        start, stop, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid specification {spec!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    return np.linspace(start, stop, count)


def _add_resolution(parser):
    parser.add_argument("--m", type=int, default=80, help="quadrature order of the operator discretization")
    parser.add_argument("--T", type=_finite, default=16.0, help="truncation point of the half-line")


def _add_output(parser, default_format="csv"):
    parser.add_argument("--out", help="output file (stdout summary if omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)
    parser.add_argument("--no-banner", action="store_true", help="omit the metadata comment line")


def _add_fv_params(parser):
    parser.add_argument("--lambda", dest="lam", type=_finite, default=1.0, help="asymmetry of the two path groups")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--Sigma", type=_finite, help="interaction strength")
    group.add_argument("--sigma", type=_finite, help="operator shift (alternative to --Sigma)")
    parser.add_argument("--tau", type=_finite, default=None, help="common time of both arguments")
    parser.add_argument("--tau1", type=_finite, default=None)
    parser.add_argument("--tau2", type=_finite, default=None)


@functools.cache  # argparse keeps no state of a parse: each parse_args fills a fresh namespace
def _build_parser():
    parser = argparse.ArgumentParser(prog="tacnode", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"tacnode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tw = sub.add_parser("tw", help="Tracy-Widom scalars q, p, u, v and det over a shift grid")
    tw.add_argument("--sigma-grid", type=_parse_grid, required=True, help="start:stop:count")
    _add_resolution(tw)
    _add_output(tw)

    kern = sub.add_parser("kernel", help="tacnode kernel values on a (u, v) grid")
    _add_fv_params(kern)
    kern.add_argument("--grid", type=_parse_grid, help="start:stop:count for both axes")
    kern.add_argument("--u-grid", type=_parse_grid)
    kern.add_argument("--v-grid", type=_parse_grid)
    _add_resolution(kern)
    _add_output(kern, default_format="csv")

    gap = sub.add_parser("gap", help="probability of no points in an interval")
    _add_fv_params(gap)
    gap.add_argument("--a1", type=_finite, required=True)
    gap.add_argument("--a2", type=_finite, required=True)
    gap.add_argument("--gap-m", type=int, default=60, help="quadrature order on the interval")
    _add_resolution(gap)
    _add_output(gap)

    res = sub.add_parser("residue", help="closed-form residue-matrix entries")
    res.add_argument("--r1", type=_finite, required=True)
    res.add_argument("--r2", type=_finite, required=True)
    res.add_argument("--s1", type=_finite, required=True)
    res.add_argument("--s2", type=_finite, required=True)
    res.add_argument("--tau", type=_finite, default=0.0)
    _add_resolution(res)
    _add_output(res)

    ver = sub.add_parser("verify", help="run the certification suite")
    ver.add_argument("--suite", choices=("tw", "resolvent", "rh", "equivalence", "compat", "all"), default="all")
    ver.add_argument("--tol-scale", type=_finite, default=1.0)
    _add_resolution(ver)
    _add_output(ver)
    for build in (tw, kern, gap, res):
        build.add_argument("--strict", action="store_true",
                           help="rebuild at T + 4 and fail with exit 3 if q or det moves by more than 1e-10")
    return parser


def _fv_params(args, resolution: Resolution) -> ResolventParams:
    return ResolventParams.create(
        args.lam,
        Sigma=args.Sigma,
        sigma=args.sigma,
        tau=args.tau,
        tau1=args.tau1,
        tau2=args.tau2,
        resolution=resolution,
    )


def _check_truncation(sigma: float, resolution: Resolution) -> None:
    """``--strict`` at one shift; the checked build stays in the resolvent cache, where the command finds it."""
    ar = get_resolvent(sigma, resolution)
    check_truncation(ar.sigma, ar.q, ar.det, resolution)


def _cmd_tw(args) -> int:
    resolution = Resolution(args.m, args.T)
    sigmas = args.sigma_grid.tolist()
    rows = [(sigma, *scalars) for sigma, scalars in zip(sigmas, tw_scalars(sigmas, resolution))]
    if args.strict:
        sigma, q, p, u, v, det = min(rows)  # the row of the lowest shift
        check_truncation(sigma, q, det, resolution)
    table = Table(("sigma", "q", "p", "u", "v", "det"), rows, {"m": args.m, "T": args.T})
    if args.out:
        write_table(table, args.format, args.out, banner=not args.no_banner)
    else:
        print(f"computed {len(rows)} shifts from {rows[0][0]:g} to {rows[-1][0]:g}")
        for row in rows:
            print(" ".join(format(x, ".10g") for x in row))
    return 0


def _cmd_kernel(args) -> int:
    resolution = Resolution(args.m, args.T)
    us = args.u_grid if args.u_grid is not None else args.grid
    vs = args.v_grid if args.v_grid is not None else args.grid
    if us is None or vs is None:
        raise ValueError("provide --grid or both --u-grid and --v-grid")
    params = _fv_params(args, resolution)
    if args.strict:
        _check_truncation(params.sigma, resolution)
    values = kernel_grid(params, us, vs)
    meta = {
        "lambda": params.lam, "Sigma": params.Sigma, "sigma": params.sigma,
        "tau1": params.tau1, "tau2": params.tau2, "m": args.m, "T": args.T,
    }
    grid = KernelGrid(np.asarray(us), np.asarray(vs), values, meta)
    if args.out:
        write_table(grid, args.format, args.out, banner=not args.no_banner)
    else:
        print(f"kernel on {len(us)}x{len(vs)} grid; corner value {values[0, 0]:.12e}")
    return 0


def _cmd_gap(args) -> int:
    resolution = Resolution(args.m, args.T)
    params = _fv_params(args, resolution)
    if args.strict:
        _check_truncation(params.sigma, resolution)
    value = gap_probability(params, args.a1, args.a2, args.gap_m)
    if args.out:
        table = Table(
            ("a1", "a2", "gap"),
            [(args.a1, args.a2, value)],
            {"lambda": params.lam, "Sigma": params.Sigma, "tau1": params.tau1, "tau2": params.tau2,
             "m": args.m, "T": args.T, "gap_m": args.gap_m},
        )
        write_table(table, args.format, args.out, banner=not args.no_banner)
    print(format(value, ".16e"))
    return 0


def _cmd_residue(args) -> int:
    resolution = Resolution(args.m, args.T)
    params = RHParams.create(args.r1, args.r2, args.s1, args.s2, args.tau, resolution)
    if args.strict:
        _check_truncation(params.sigma, resolution)
    e = residue_matrix(params)
    names = ("d", "d_tilde", "c", "c_tilde", "b", "b_tilde", "beta", "beta_tilde", "f", "f_tilde")
    rows = [(name, getattr(e, name)) for name in names]
    table = Table(
        ("entry", "value"), rows,
        {"r1": args.r1, "r2": args.r2, "s1": args.s1, "s2": args.s2, "tau": args.tau,
         "sigma": params.sigma, "m": args.m, "T": args.T},
    )
    if args.out:
        write_table(table, args.format, args.out, banner=not args.no_banner)
    for name, value in rows:
        print(f"{name:11s} {format(value, '.16e')}")
    return 0


def _cmd_verify(args) -> int:
    resolution = Resolution(args.m, args.T)
    reports = run_suite(args.suite, resolution, args.tol_scale)
    width = max(len(r.name) for r in reports)
    for r in reports:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name:{width}s}  max {r.max_residual:9.3e}  tol {r.tolerance:8.1e}")
    failed = [r for r in reports if not r.passed]
    print(f"passed {len(reports) - len(failed)}/{len(reports)} checks")
    if args.out:
        rows = [(r.name, r.statement, r.max_residual, r.tolerance, r.passed) for r in reports]
        table = Table(
            ("name", "statement", "max_residual", "tolerance", "passed"), rows,
            {"suite": args.suite, "tol_scale": args.tol_scale, "m": args.m, "T": args.T},
        )
        write_table(table, args.format, args.out, banner=not args.no_banner)
    return 4 if failed else 0


_COMMANDS = {
    "tw": _cmd_tw,
    "kernel": _cmd_kernel,
    "gap": _cmd_gap,
    "residue": _cmd_residue,
    "verify": _cmd_verify,
}


def run_cli(argv) -> int:
    """Parse and run; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"tacnode {args.command}: {exc}", file=sys.stderr)
        return 2
    except (TacnodeError, OSError) as exc:
        print(f"tacnode {args.command}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
