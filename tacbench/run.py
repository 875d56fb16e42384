"""Benchmark of tacnode: four workloads, calibrated operation times, a traced per-layer run.

Run from the root of a tacnode checkout (tacnode is imported from ./src):

    python3 tacbench/run.py --workload tw-bulk --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``op_s``,
``peak_rss_mib``); with ``--trace 1`` they are the per-layer ones of
``tracing.METRICS`` plus ``process.cpu_s`` and the tracing overhead.  See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from calibration import REFERENCE_S, SpeedProbe, calibration_time

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # fresh interpreters per run; setup_s is their median
TRACE_ROUNDS = {"tw-bulk": 16, "tw-tail-cache": 16, "kernel-grid": 1, "certify": 1}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _calibrated(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_S / calibration_s


class Loop:
    """Closed-loop operations of one workload, checked one by one outside the timed region."""

    def __init__(self, workload, probe, tracer=None):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.times = {kind: [] for kind in workload.kinds}  # calibrated seconds
        self.raw = {kind: [] for kind in workload.kinds}
        self.cpu = {kind: [] for kind in workload.kinds}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.spent = 0.0

    def run(self, rng, seconds: float = 0.0, rounds: int = 0) -> "Loop":
        """Whole rounds of operations until ``seconds`` of operation time and ``rounds`` rounds."""
        probe, done = self.probe, 0
        with probe:
            while self.spent < seconds or done < rounds:
                for kind in self.workload.kinds:
                    self._one(rng, kind)
                done += 1
        return self

    def _one(self, rng, kind) -> None:
        probe = self.probe
        inp = self.workload.make_input(rng, kind)
        self.workload.prepare(inp)
        first = len(probe.samples)
        probe.sample()
        if self.tracer is not None:
            self.tracer.operation = self.attempted
            self.tracer.active = True
        self.attempted += 1
        c0, t0 = time.process_time(), probe.now()
        try:
            out = self.workload.run(inp)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        finally:
            dt, cpu = probe.now() - t0, time.process_time() - c0
            self.spent += dt
            if self.tracer is not None:
                self.tracer.active = False
        probe.sample()
        calibration_s = statistics.fmean(probe.samples[first:])
        errors = self.workload.check(inp, out)
        if errors:
            self.failed += 1
            self.wrong += 1
            print(f"{self.workload.name} {kind} {inp}: " + "; ".join(errors), file=sys.stderr)
            return
        self.times[kind].append(_calibrated(dt, calibration_s))
        self.raw[kind].append(dt)
        self.cpu[kind].append(cpu)

    @staticmethod
    def per_op(samples: dict) -> float:
        """Mean over operation kinds of the median of each kind."""
        return statistics.fmean(statistics.median(v) for v in samples.values())

    def complete(self) -> bool:
        return all(self.times.values())


def measure_setup(workload, rng, root: Path) -> tuple[float, float]:
    """Median calibrated and raw wall time of fresh interpreters doing their first call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        argv, extra_env = workload.setup_argv(rng)
        cal_before = calibration_time()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env={**env, **extra_env}, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        dt = time.perf_counter() - t0
        cal_after = calibration_time()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command {argv} exited with {proc.returncode}: {proc.stderr[-2000:]}")
        calibrated.append(_calibrated(dt, 0.5 * (cal_before + cal_after)))
        raw.append(dt)
    return statistics.median(calibrated), statistics.median(raw)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    from workloads import WORKLOADS  # imports tacnode, so only once ./src is on the path

    def stream(k):  # independent input streams: timed ops, traced ops, warm-up, set-up
        return np.random.default_rng([seed, k])

    workload = WORKLOADS[name](work)
    workload.warm_up(stream(2))
    if not trace:
        setup_s, setup_raw = measure_setup(workload, stream(3), root)
        loop = Loop(workload, SpeedProbe()).run(stream(0), seconds=seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not loop.complete():
            raise RuntimeError("no operation of some kind completed")
        print(f"{name} seed {seed}: {loop.attempted} ops, raw op median {Loop.per_op(loop.raw):.4f} s, "
              f"raw setup median {setup_raw:.4f} s, calibration {1e3 * calibration_time():.2f} ms "
              f"(reference {1e3 * REFERENCE_S:.2f} ms)")
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "op_s": _metric(Loop.per_op(loop.times), "s"),
            "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
        }
        return {"correct": loop.wrong == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}

    plain = Loop(workload, SpeedProbe()).run(stream(0), seconds=seconds)
    probe = SpeedProbe()
    tracer = tracing.Tracer(clock=probe.now).install()
    try:
        traced = Loop(workload, probe, tracer).run(stream(1), rounds=TRACE_ROUNDS[name])
    finally:
        tracer.uninstall()
    if not (plain.complete() and traced.complete()):
        raise RuntimeError("no operation of some kind completed")
    tracer.write_spans(work.parent / f"spans-{name}-seed{seed}.jsonl")
    # span times are raw seconds: rescale them like the traced operations' times
    speed = sum(map(sum, traced.times.values())) / sum(map(sum, traced.raw.values()))
    metrics = {}
    for (key, unit), value in zip(tracing.METRICS, tracer.metrics(traced.attempted).values()):
        metrics[key] = _metric(value * speed if unit == "s" else value, unit)
    untraced_op, traced_op = Loop.per_op(plain.times), Loop.per_op(traced.times)
    metrics["process.cpu_s"] = _metric(Loop.per_op(plain.cpu), "s")
    metrics["trace.untraced_op_s"] = _metric(untraced_op, "s")
    metrics["trace.op_s"] = _metric(traced_op, "s")
    metrics["trace.overhead"] = _metric(traced_op / untraced_op - 1.0, "ratio")
    print(f"{name} seed {seed}: {traced.attempted} traced ops, {len(tracer.spans)} spans, "
          f"op_s {untraced_op:.4f} s untraced, {traced_op:.4f} s traced")
    return {
        "correct": plain.wrong == 0 and traced.wrong == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tacnode" / "__init__.py").is_file():
        print("tacbench: no tacnode source at ./src/tacnode; run from the root of a tacnode checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import tacnode  # noqa: F401  (compiles the package before set-up is timed)

    work = BENCH_DIR / "_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
