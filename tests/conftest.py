"""Shared oracles for the test suite.

The Airy oracle is an independent Maclaurin evaluation in mpmath's
arbitrary precision (the two standard series summed to 200 terms at 60
digits), so it never touches the library's own float64 branches.
"""

from __future__ import annotations

import functools

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
    """An empty resolvent cache of the package's size, in place of the shared one for one test."""
    shared = airy_operator._cached_build
    cache = functools.lru_cache(maxsize=shared.cache_info().maxsize)(shared.__wrapped__)
    monkeypatch.setattr(airy_operator, "_cached_build", cache)
    return cache
