"""Shared oracles for the test suite.

The Airy oracle is an independent Maclaurin evaluation in mpmath's
arbitrary precision (the two standard series summed to 200 terms at 60
digits), so it never touches the library's own float64 branches.
"""

from __future__ import annotations

import functools
import sys

import pytest
from mpmath import mp

import tacnode.airy_operator as airy_operator


def oracle_airy(x, terms: int = 200, dps: int = 60):
    """(Ai(x), Ai'(x)) from the Maclaurin series in extended precision."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf("2/3"))
        c2 = -(mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf("1/3")))
        f = mp.mpf(1)
        g = xm
        df = mp.mpf(0)
        dg = mp.mpf(1)
        tf, tg = mp.mpf(1), xm
        x3 = xm**3
        for k in range(1, terms):
            tf = tf * x3 / ((3 * k - 1) * (3 * k))
            tg = tg * x3 / ((3 * k) * (3 * k + 1))
            f += tf
            g += tg
            if xm != 0:
                df += 3 * k * tf / xm
                dg += (3 * k + 1) * tg / xm
        ai = c1 * f + c2 * g
        aip = c1 * df + c2 * dg
        return float(ai), float(aip)


@pytest.fixture
def fresh_resolvent_cache(monkeypatch):
    """Empty resolvent and boundary-row caches of the package's sizes, in place of the shared ones for one test.

    Returns the two caches, resolvents first.
    """
    caches = []
    for name in ("_cached_build", "_cached_rows"):
        shared = getattr(airy_operator, name)
        caches.append(functools.lru_cache(maxsize=shared.cache_info().maxsize)(shared.__wrapped__))
        monkeypatch.setattr(airy_operator, name, caches[-1])
    return tuple(caches)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` counts the calls of ``name`` through every tacnode module that holds it.

    It returns the list that each call appends its positional arguments to.
    """

    def count(name):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for key, mod in list(sys.modules.items()):
            if (key == "tacnode" or key.startswith("tacnode.")) and callable(getattr(mod, name, None)):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
        return calls

    return count
