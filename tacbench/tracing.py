"""Per-layer tracing of tacnode from outside the package.

The tracer replaces the public functions and methods of each layer module
with wrappers that record a span (name, start, end, parent, operation) and
update counters.  A module binds the names it imports (``airy_operator``
does ``from .airy import airy_ai_pair``), so every binding of a function in
every ``tacnode`` module is replaced, including calls a module makes to its
own functions.  Spans stay in memory; :meth:`Tracer.write_spans` writes
them out when the run ends.  A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

# the modules whose public functions are layer boundaries; _ddf belongs to airy
LAYERS = ("airy", "quadrature", "airy_operator", "resolvent_form", "rh_form", "gap", "io", "verify", "cli")
_SERIES_RADIUS = 7.5  # Airy branch point: |x| <= 7.5 is summed by the Maclaurin series

# functions whose own time is a metric: they get a span even when called from their own layer
TIMED = {
    "airy_operator.build_airy_resolvent", "airy_operator.get_resolvent", "airy_operator.AiryResolvent.solve",
    "airy_operator.smoothing", "io.write_table", "io.cache_resolvent", "io.load_resolvent",
}

# every per-layer metric, as (name, unit); counts and times are per operation
METRICS = (
    ("airy.calls", "count"),
    ("airy.points_series", "count"),
    ("airy.points_asymptotic", "count"),
    ("airy.self_s", "s"),
    ("quadrature.rules", "count"),
    ("quadrature.self_s", "s"),
    ("airy_operator.builds", "count"),
    ("airy_operator.lookups", "count"),
    ("airy_operator.cache_hit_ratio", "ratio"),
    ("airy_operator.build_self_s", "s"),
    ("airy_operator.solves", "count"),
    ("airy_operator.solve_columns", "count"),
    ("airy_operator.solve_s", "s"),
    ("airy_operator.smoothings", "count"),
    ("airy_operator.smoothing_s", "s"),
    ("airy_operator.self_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.cache_writes", "count"),
    ("io.cache_loads", "count"),
    ("io.cache_rejects", "count"),
    ("io.cache_write_s", "s"),
    ("io.cache_load_s", "s"),
    ("io.self_s", "s"),
    ("resolvent_form.kernel_grid_calls", "count"),
    ("resolvent_form.kernel_values", "count"),
    ("resolvent_form.phat_calls", "count"),
    ("resolvent_form.self_s", "s"),
    ("rh_form.p_vector_calls", "count"),
    ("rh_form.self_s", "s"),
    ("gap.calls", "count"),
    ("gap.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.self_s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
)


class Tracer:
    """Spans and counters for the calls into each tacnode layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # seconds; the benchmark's clock leaves out its calibration samples
        self.spans = []  # (span id, parent id, operation, name, start, end)
        self.counts = Counter()
        self.times = defaultdict(float)
        self.operation = -1
        self.active = False  # spans and counters are recorded only while active
        self._stack = []  # [span id, name, child time, layer] of the open spans
        self._patches = []  # (owner, attribute, original) to undo
        self._smoothed = weakref.WeakSet()

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn, after=None):
        """``fn`` inside a span called ``name``.

        A call from a span of the same layer is no layer boundary and gets no
        span of its own, unless its time is a metric (``TIMED``).
        ``after(args, result, parent name)`` updates the counters once the
        call has returned.
        """
        layer = name.split(".", 1)[0]
        always = name in TIMED
        stack, spans, times, clock = self._stack, self.spans, self.times, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is not None and parent[3] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                entry = [len(spans) + len(stack), name, 0.0, layer]
                stack.append(entry)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    if parent is not None:
                        parent[2] += dur
                    times[layer + ".self_s"] += dur - entry[2]
                    times[name] += dur
                    times[name + ".self"] += dur - entry[2]
                    spans.append((entry[0], parent[0] if parent else -1, self.operation, name, t0, t1))
            if after is not None:
                after(args, result, parent[1] if parent else "")
            return result

        return wrapper

    def _replace(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every tacnode module namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tacnode" or mod_name.startswith("tacnode.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, attr, layer, after=None):
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__, after))
        else:
            new = self._wrap(name, raw, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    # -- counters ---------------------------------------------------------

    def _airy_points(self, args, result, parent):
        if parent.startswith("airy."):
            return  # airy_ai and airy_ai_prime call airy_ai_pair: count the outer call
        x = np.abs(np.asarray(args[0], dtype=float))
        self.counts["airy.calls"] += 1
        self.counts["airy.points_series"] += int(np.count_nonzero(x <= _SERIES_RADIUS))
        self.counts["airy.points_asymptotic"] += int(np.count_nonzero(x > _SERIES_RADIUS))

    def _count(self, key):
        def after(args, result, parent):
            self.counts[key] += 1

        return after

    def _checks(self, args, result, parent):
        if not parent.startswith("verify."):
            self.counts["verify.checks"] += len(result)

    def _solve(self, args, result, parent):
        g = np.asarray(args[1])
        self.counts["airy_operator.solves"] += 1
        self.counts["airy_operator.solve_columns"] += g.shape[1] if g.ndim == 2 else 1

    def _kernel_grid(self, args, result, parent):
        self.counts["resolvent_form.kernel_grid_calls"] += 1
        self.counts["resolvent_form.kernel_values"] += int(np.asarray(result).size)

    def _bytes_written(self, args, result, parent):
        self.counts["io.bytes_written"] += os.path.getsize(args[2])

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer; undo with :meth:`uninstall`."""
        from tacnode.airy_operator import AiryResolvent
        from tacnode.errors import CacheInvalidError

        after = {
            "airy.airy_ai_pair": self._airy_points,
            "airy.airy_ai": self._airy_points,
            "airy.airy_ai_prime": self._airy_points,
            "quadrature.gauss_legendre_rule": self._count("quadrature.rules"),
            "airy_operator.build_airy_resolvent": self._count("airy_operator.builds"),
            "airy_operator.AiryResolvent.solve": self._solve,
            "resolvent_form.kernel_grid": self._kernel_grid,
            "resolvent_form.phat": self._count("resolvent_form.phat_calls"),
            "rh_form.p_vector": self._count("rh_form.p_vector_calls"),
            "gap.gap_probability": self._count("gap.calls"),
            "io.write_table": self._bytes_written,
            "io.cache_resolvent": self._count("io.cache_writes"),
            "cli.run_cli": self._count("cli.commands"),
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"tacnode.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if name == "airy_operator.get_resolvent":
                        wrapper = self._lookup_wrapper(obj)
                    elif name == "io.load_resolvent":
                        wrapper = self._load_wrapper(obj, CacheInvalidError)
                    elif layer == "verify" and (attr.startswith("check_") or attr == "run_suite"):
                        wrapper = self._wrap(name, obj, self._checks)
                    else:
                        wrapper = self._wrap(name, obj, after.get(name))
                    self._replace(obj, wrapper)
                elif inspect.isclass(obj):
                    for meth, raw in list(obj.__dict__.items()):
                        if not meth.startswith("_") and (
                            isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw)
                        ):
                            self._patch_class(obj, meth, layer, after.get(f"{name}.{meth}"))
        self._patch_smoothing(AiryResolvent)
        return self

    def _lookup_wrapper(self, fn):
        """``get_resolvent``: a lookup that built nothing is a cache hit."""
        inner = self._wrap("airy_operator.get_resolvent", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            builds = self.counts["airy_operator.builds"]
            result = inner(*args, **kwargs)
            self.counts["airy_operator.lookups"] += 1
            self.counts["airy_operator.lookup_hits"] += self.counts["airy_operator.builds"] == builds
            return result

        return wrapper

    def _load_wrapper(self, fn, rejected):
        """``load_resolvent``: a load that raises ``CacheInvalidError`` is a reject."""
        inner = self._wrap("io.load_resolvent", fn, self._count("io.cache_loads"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except rejected:
                if self.active:
                    self.counts["io.cache_rejects"] += 1
                raise

        return wrapper

    def _patch_smoothing(self, cls):
        """The smoothing matrices are computed on first access of either property."""
        for attr in ("smoothing", "smoothing_prime"):
            prop = cls.__dict__[attr]
            timed = self._wrap("airy_operator.smoothing", prop.fget, self._count("airy_operator.smoothings"))

            def getter(ar, plain=prop.fget, timed=timed):
                if not self.active or ar in self._smoothed:
                    return plain(ar)
                self._smoothed.add(ar)
                return timed(ar)

            self._patches.append((cls, attr, prop))
            setattr(cls, attr, property(getter, doc=prop.__doc__))

    def uninstall(self):
        """Restore every function, method and property that :meth:`install` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, operations: int) -> dict[str, float]:
        """Every per-layer metric, per operation."""
        c, t = self.counts, self.times
        values = dict(c)
        values.update({k: v for k, v in t.items() if k.endswith(".self_s")})
        values["airy_operator.build_self_s"] = t["airy_operator.build_airy_resolvent.self"]
        values["airy_operator.solve_s"] = t["airy_operator.AiryResolvent.solve"]
        values["airy_operator.smoothing_s"] = t["airy_operator.smoothing"]
        values["io.write_s"] = t["io.write_table"]
        values["io.cache_write_s"] = t["io.cache_resolvent"]
        values["io.cache_load_s"] = t["io.load_resolvent"]
        out = {}  # in the order of METRICS
        for name, unit in METRICS:
            if name == "airy_operator.cache_hit_ratio":
                out[name] = c["airy_operator.lookup_hits"] / c["airy_operator.lookups"] if c["airy_operator.lookups"] else 0.0
            else:
                out[name] = values.get(name, 0) / operations
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, parent, operation, name, start and end in
        seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps([sid, parent, op, name, round(t0 - origin, 7), round(t1 - origin, 7)]) + "\n")
