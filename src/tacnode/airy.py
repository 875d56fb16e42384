"""Real-line Airy function Ai and its derivative, built from scratch.

Three branches:

* ``|x| <= 7.5`` -- piecewise Taylor series in plain float64, the ODE-based
  method of Gil, Segura & Temme (*Numerical Methods for Special Functions*,
  SIAM 2007).  The 61 centres ``c = -7.5, -7.25, ..., 7.5`` are
  spaced 0.25 apart, so ``|h| = |x - c| <= 0.125`` and ``x - c`` is exact.
  ``Ai'' = x Ai`` gives the Taylor coefficients around ``c`` by
  ``a_{k+2} = (c a_k + a_{k-1}) / ((k+1)(k+2))`` from ``a_0 = Ai(c)`` and
  ``a_1 = Ai'(c)``; each point is one 22-term Horner scheme in ``h`` for Ai
  and one for Ai'.  The centre values are literals: ``Ai(c)`` and ``Ai'(c)``
  from mpmath at 50 digits, rounded once to float64 (``tests/test_airy.py``
  checks each against an independent extended-precision Maclaurin sum).
  Over ``|h| <= 0.125`` the local growth factor ``exp(sqrt|c| |h|)`` is at
  most 1.41, so the series neither cancels nor amplifies rounding error.
* ``x > 7.5`` -- the exponential asymptotic expansion.
* ``-1e3 <= x < -7.5`` -- the modulus/phase asymptotic expansion.

The branch point 7.5 is where the optimally truncated asymptotic series
first reaches ~1e-13 relative accuracy.  The error budget is unchanged from
the double-double Maclaurin series that the Taylor branch replaces: <= 1e-12
relative for x >= 0 and <= 1e-12 absolute on [-15, 0).  The Taylor branch
stays within a few float64 ulps of mpmath (2.3e-16 relative on [0, 7.5] and
1.1e-16 absolute on [-7.5, 0) over 3,001 points and every centre and
midpoint).

Further left the phase ``(2/3)|x|^{3/2} + pi/4`` grows and its rounding
error with it: against mpmath the error in Ai is 2.7e-13 at -1e3, 3.4e-12
at -1e4 and 1.4e-9 at -1e6.  The supported range therefore ends at -1e3,
where Ai is still within the 1e-12 absolute budget; Ai', whose amplitude
``|x|^{1/4} / sqrt(pi)`` is 3.2 there, errs by 5.7e-12.  A finite
``x < -1e3`` raises ``UnsupportedRangeError``.

Non-finite inputs raise no warning: ``Ai(+inf) = Ai'(+inf) = 0``,
``Ai(-inf) = 0`` (the amplitude decays like ``|x|^{-1/4}``) while
``Ai'(-inf)`` is nan (it oscillates with growing amplitude), and nan maps
to nan.

All functions accept a float or a numpy array and vectorize over the
array; no special-function library is involved.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedRangeError

_TAYLOR_RADIUS = 7.5
_LEFT_LIMIT = -1e3
_CENTRE_STEP = 0.25
_TAYLOR_TERMS = 22
_SQRT_PI = 1.7724538509055160273

# (c, Ai(c), Ai'(c)) at the Taylor centres, each value correctly rounded to float64
_CENTRES = (
    (-7.5, 0.3217757163806479, 0.3188095066985546),
    (-7.25, 0.32374057321118616, -0.30022899504735406),
    (-7.0, 0.18428083525050565, -0.7710081684101265),
    (-6.75, -0.03338479058876496, -0.9067040516921281),
    (-6.5, -0.2380203019971158, -0.6749524925132022),
    (-6.25, -0.3496120516108905, -0.19108625952341715),
    (-6.0, -0.3291451736298231, 0.3459354872813429),
    (-5.75, -0.18884209899944737, 0.7391656870866844),
    (-5.5, 0.017781541276574976, 0.8641972177713984),
    (-5.25, 0.21900944784501322, 0.701566726175189),
    (-5.0, 0.35076100902411433, 0.32719281855444315),
    (-4.75, 0.37593203432914213, -0.12709960620642027),
    (-4.5, 0.2921527810559595, -0.5233625323157477),
    (-4.25, 0.12778292722826728, -0.759267412057374),
    (-4.0, -0.07026553294928951, -0.7906285753685813),
    (-3.75, -0.2516127030142227, -0.6324539662611763),
    (-3.5, -0.37553382314043193, -0.34344343345404815),
    (-3.25, -0.4190132668052308, -0.0024538481879481863),
    (-3.0, -0.37881429367765806, 0.3145837692165988),
    (-2.75, -0.2684905459125971, 0.5513380742629775),
    (-2.5, -0.11232506769296609, 0.6788527342647943),
    (-2.25, 0.06159865877700528, 0.6950162067015286),
    (-2.0, 0.22740742820168558, 0.618259020741691),
    (-1.75, 0.36548325221423156, 0.4786515716673063),
    (-1.5, 0.4642565777488694, 0.3091869672024104),
    (-1.25, 0.5200454774352992, 0.13907956335191776),
    (-1.0, 0.5355608832923521, -0.01016056711664521),
    (-0.75, 0.5177725751515836, -0.1259905473379542),
    (-0.5, 0.4757280916105396, -0.20408167033954738),
    (-0.25, 0.41872461427545293, -0.24638918992017597),
    (0.0, 0.3550280538878172, -0.2588194037928068),
    (0.25, 0.2911639543485452, -0.24906211200489714),
    (0.5, 0.23169360648083348, -0.2249105326646839),
    (0.75, 0.17933630547864524, -0.19317520810437647),
    (1.0, 0.13529241631288141, -0.1591474412967932),
    (1.25, 0.09964454475691667, -0.12648662068538938),
    (1.5, 0.07174949700810541, -0.09738201284230132),
    (1.75, 0.05056988080579487, -0.07285371376202839),
    (2.0, 0.03492413042327438, -0.05309038443365363),
    (2.25, 0.023654658557747447, -0.037758570992018514),
    (2.5, 0.01572592338047049, -0.026250881035903232),
    (2.75, 0.010269209855011988, -0.017864093772294476),
    (3.0, 0.006591139357460719, -0.011912976705951319),
    (3.25, 0.004160454618117256, -0.007792687926790721),
    (3.5, 0.002584098786989635, -0.005004413967952583),
    (3.75, 0.0015800717179210132, -0.003157514753239784),
    (4.0, 0.0009515638512048018, -0.001958640950204179),
    (4.25, 0.0005646398353425014, -0.0011952051345449142),
    (4.5, 0.00033025032351430896, -0.0007178665675575089),
    (4.75, 0.0001904614592681605, -0.0004245926894565621),
    (5.0, 0.00010834442813607442, -0.0002474138908684625),
    (5.25, 6.081011452242365e-05, -0.00014209461719726815),
    (5.5, 3.368531190859981e-05, -8.046339130556515e-05),
    (5.75, 1.8421246197730245e-05, -4.494062122298348e-05),
    (6.0, 9.947694360252889e-06, -2.4765200397034955e-05),
    (6.25, 5.3058617487520814e-06, -1.3469113451450983e-05),
    (6.5, 2.7958823432049136e-06, -7.231931466601793e-06),
    (6.75, 1.4558127445788758e-06, -3.834455740949934e-06),
    (7.0, 7.492128863997167e-07, -2.008150894738792e-06),
    (7.25, 3.8115630183373774e-07, -1.0390462946280257e-06),
    (7.5, 1.9172560675134309e-07, -5.312713959720545e-07),
)


def _taylor_tables():
    """Taylor coefficients of Ai and Ai' at every centre, one row per degree."""
    c, ai, aip = (np.array(col) for col in zip(*_CENTRES))
    a = np.zeros((_TAYLOR_TERMS + 1, len(c)))
    a[0], a[1] = ai, aip
    a[2] = c * ai / 2.0
    for k in range(1, _TAYLOR_TERMS - 1):
        a[k + 2] = (c * a[k] + a[k - 1]) / ((k + 1) * (k + 2))
    degree = np.arange(1, _TAYLOR_TERMS + 1)[:, None]
    return a[:_TAYLOR_TERMS], degree * a[1:]


_AI_COEF, _AIP_COEF = _taylor_tables()


def _asymptotic_coefficients(count):
    """u_k (and the derivative companions v_k) of the Airy asymptotic series."""
    u = [1.0]
    for k in range(count - 1):
        u.append(u[-1] * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1)))
    u = np.array(u)
    v = -u * (6 * np.arange(count) + 1) / (6 * np.arange(count) - 1)
    return u, v


_N_ASY = 25
_U_ASY, _V_ASY = _asymptotic_coefficients(2 * _N_ASY)
_SIGNS = (-1.0) ** np.arange(2 * _N_ASY)
_SU = _SIGNS[:_N_ASY] * _U_ASY[:_N_ASY]
_SV = _SIGNS[:_N_ASY] * _V_ASY[:_N_ASY]
# modulus/phase side: even/odd coefficients with their own sign alternation
_PE = (-1.0) ** np.arange(13) * _U_ASY[0:26:2]
_PO = (-1.0) ** np.arange(12) * _U_ASY[1:24:2]
_DE = (-1.0) ** np.arange(13) * _V_ASY[0:26:2]
_DO = (-1.0) ** np.arange(12) * _V_ASY[1:24:2]


def _taylor_pair(x):
    """(Ai, Ai') on |x| <= 7.5 by the Taylor series at the nearest centre."""
    idx = np.rint((x + _TAYLOR_RADIUS) / _CENTRE_STEP).astype(np.intp)
    h = x - (idx * _CENTRE_STEP - _TAYLOR_RADIUS)
    ai = _AI_COEF[-1][idx]
    aip = _AIP_COEF[-1][idx]
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        ai *= h
        ai += _AI_COEF[k][idx]
        aip *= h
        aip += _AIP_COEF[k][idx]
    return ai, aip


def _asymptotic_right(x):
    """(Ai, Ai') for x > 7.5: exponential asymptotic expansion."""
    zeta = (2.0 / 3.0) * x**1.5
    inv = 1.0 / zeta
    sa = np.ones_like(x)
    sd = np.ones_like(x)
    pw = inv.copy()
    for k in range(1, _N_ASY):
        sa += _SU[k] * pw
        sd += _SV[k] * pw
        pw *= inv
    with np.errstate(over="ignore"):
        pre = np.exp(-zeta) / (2.0 * _SQRT_PI)
    root = x**0.25
    return pre / root * sa, -pre * root * sd


def _asymptotic_left(x):
    """(Ai, Ai') for x < -7.5: modulus/phase asymptotic expansion."""
    r = -x
    zeta = (2.0 / 3.0) * r**1.5
    inv = 1.0 / zeta
    inv2 = inv * inv

    def _poly(coeffs):
        acc = np.full_like(r, coeffs[0])
        pw = inv2.copy()
        for c in coeffs[1:]:
            acc += c * pw
            pw *= inv2
        return acc

    p_even = _poly(_PE)
    p_odd = inv * _poly(_PO)
    d_even = _poly(_DE)
    d_odd = inv * _poly(_DO)
    theta = zeta + 0.25 * np.pi
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    root = r**0.25
    ai = (sin_t * p_even - cos_t * p_odd) / (_SQRT_PI * root)
    aip = -(cos_t * d_even + sin_t * d_odd) * root / _SQRT_PI
    return ai, aip


def _airy_arrays(x):
    ai = np.full_like(x, np.nan)
    aip = np.full_like(x, np.nan)
    finite = np.isfinite(x)
    mid = np.abs(x) <= _TAYLOR_RADIUS
    right = finite & (x > _TAYLOR_RADIUS)
    left = finite & (x < -_TAYLOR_RADIUS)
    if mid.any():
        ai[mid], aip[mid] = _taylor_pair(x[mid])
    if right.any():
        ai[right], aip[right] = _asymptotic_right(x[right])
    if left.any():
        xl = x[left]
        if xl.min() < _LEFT_LIMIT:
            raise UnsupportedRangeError(f"Airy argument {xl.min()} below the supported minimum {_LEFT_LIMIT}")
        ai[left], aip[left] = _asymptotic_left(xl)
    if not finite.all():
        ai[np.isinf(x)] = 0.0
        aip[x == np.inf] = 0.0
    return ai, aip


def airy_ai_pair(x):
    """Return ``(Ai(x), Ai'(x))``; cheaper than two separate calls."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    ai, aip = _airy_arrays(np.atleast_1d(arr))
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai.reshape(arr.shape), aip.reshape(arr.shape)


def airy_ai(x):
    """Airy function Ai evaluated at a real scalar or array."""
    return airy_ai_pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai' evaluated at a real scalar or array."""
    return airy_ai_pair(x)[1]
