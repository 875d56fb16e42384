"""Nystrom discretization of the shifted Airy integral operator on [0, T].

The operator has kernel ``K_sigma(x, y) = int_0^inf Ai(x+z+sigma) Ai(y+z+sigma) dz``
with the closed form ``(Ai(x+sigma) Ai'(y+sigma) - Ai'(x+sigma) Ai(y+sigma)) / (x - y)``.
Its superexponentially decaying integrands make a single Gauss-Legendre
panel on (0, T) converge spectrally, so everything downstream (Fredholm
determinant, resolvent solves, boundary values) is computed from one
factorization of ``I - W^{1/2} K W^{1/2}``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .airy import airy_ai_pair
from .errors import SingularResolventError, TruncationInsufficientError, UnsupportedRangeError
from .quadrature import QuadratureRule, affine_map_rule, gauss_legendre_rule

SIGMA_MIN = -8.0
DET_FLOOR = 1e-8
_NEAR_DIAGONAL = 1e-5


@dataclass(frozen=True)
class Resolution:
    """Discretization size: quadrature order ``m`` on the truncated ray (0, T)."""

    m: int = 80
    T: float = 16.0

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"resolution order must be >= 4, got {self.m}")
        if not self.T > 0:
            raise ValueError(f"truncation point must be positive, got {self.T}")


def airy_kernel_shifted(sigma, x, y):
    """Shifted Airy kernel ``K_sigma(x, y)``, continuous across the diagonal.

    Accepts scalars or broadcastable arrays.  Within 1e-5 of the diagonal
    the midpoint form ``Ai'(m)^2 - m Ai(m)^2`` (with ``m = (x+y)/2 + sigma``)
    is used to avoid cancellation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(x, y)
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    ai_x, aip_x = airy_ai_pair(x + sigma)
    ai_y, aip_y = airy_ai_pair(y + sigma)
    diff = x - y
    near = np.abs(diff) < _NEAR_DIAGONAL
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (ai_x * aip_y - aip_x * ai_y) / np.where(near, 1.0, diff)
    if near.any():
        mid = 0.5 * (x + y) + sigma
        ai_m, aip_m = airy_ai_pair(mid)
        k = np.where(near, aip_m * aip_m - mid * ai_m * ai_m, k)
    return float(k[0]) if scalar else k


def symmetrized_determinant(kmat: np.ndarray, weights: np.ndarray) -> float:
    """det(I - W^{1/2} K W^{1/2}) by pivoted LU factorization."""
    sqrt_w = np.sqrt(weights)
    s = np.eye(len(weights)) - sqrt_w[:, None] * kmat * sqrt_w[None, :]
    lu, piv = scipy.linalg.lu_factor(s, check_finite=False)
    sign = 1.0 if (piv != np.arange(len(piv))).sum() % 2 == 0 else -1.0
    return float(sign * np.prod(np.diag(lu)))


def _kernel_matrix(x: np.ndarray, sigma: float, ai_nodes: np.ndarray, aip_nodes: np.ndarray) -> np.ndarray:
    """``K_sigma(x_i, x_j)`` from ``Ai`` and ``Ai'`` at the shifted nodes ``x + sigma``.

    The divided difference is evaluated once per unordered pair and mirrored,
    so the matrix is exactly symmetric; the diagonal takes its limit.
    """
    iu, ju = np.triu_indices(len(x), k=1)
    kmat = np.zeros((len(x), len(x)))
    kmat[iu, ju] = (ai_nodes[iu] * aip_nodes[ju] - aip_nodes[iu] * ai_nodes[ju]) / (x[iu] - x[ju])
    kmat = kmat + kmat.T
    np.fill_diagonal(kmat, aip_nodes * aip_nodes - (x + sigma) * ai_nodes * ai_nodes)
    return kmat


@functools.lru_cache(maxsize=8)
def _ray_rule(m: int, T: float) -> QuadratureRule:
    """Gauss-Legendre rule of order ``m`` on (0, T); its arrays are read-only, so builds share it."""
    return affine_map_rule(gauss_legendre_rule(m), 0.0, T)


@dataclass(frozen=True, eq=False)
class AiryResolvent:
    """Everything derived from ``(I - K_sigma)^{-1}`` at one shift ``sigma``.

    ``r0`` holds the resolvent boundary row ``R(x_i, 0)``; ``qvec``/``pvec``
    solve ``(I - K) f = Ai(. + sigma)`` and ``(I - K) f = Ai'(. + sigma)``;
    the scalars are their boundary values ``q = Q(0)``, ``p = P(0)`` and the
    integrals ``u = int Q Ai``, ``v = int Q Ai'``.
    """

    sigma: float
    resolution: Resolution
    rule: QuadratureRule
    det: float
    r0: np.ndarray
    qvec: np.ndarray
    pvec: np.ndarray
    q: float
    p: float
    u: float
    v: float
    ai_nodes: np.ndarray
    aip_nodes: np.ndarray
    ai0: float
    aip0: float
    _lu: tuple = field(repr=False)
    _sqrt_w: np.ndarray = field(repr=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    @property
    def kmat(self) -> np.ndarray:
        """Kernel matrix ``K_sigma(x_i, x_j)``, reassembled from the stored Airy values on each access."""
        return _kernel_matrix(self.nodes, self.sigma, self.ai_nodes, self.aip_nodes)

    def solve(self, g):
        """Solve ``f(x_i) - sum_j w_j K(x_i, x_j) f(x_j) = g(x_i)`` at the nodes.

        ``g`` may be a vector of node values or a matrix of stacked columns.
        """
        g = np.asarray(g, dtype=float)
        rhs = self._sqrt_w[:, None] * g if g.ndim == 2 else self._sqrt_w * g
        lu, piv = self._lu
        # scipy's getrs shifts piv in place while it runs; a private copy keeps concurrent solves apart
        y = scipy.linalg.lu_solve((lu, piv.copy()), rhs, check_finite=False)
        return y / self._sqrt_w[:, None] if g.ndim == 2 else y / self._sqrt_w

    def apply_r0_values(self, f0: float, fvals: np.ndarray) -> float:
        """``f(0) + sum_i w_i R(x_i, 0) f(x_i)`` from precomputed values."""
        return float(f0 + self.weights @ (self.r0 * fvals))

    def apply_r0(self, f) -> float:
        """Apply ``(I - K)^{-1}(., 0)`` (delta part included) to a callable."""
        try:
            fvals = np.asarray(f(self.nodes), dtype=float)
            if fvals.shape != self.nodes.shape:
                raise TypeError
        except TypeError:
            fvals = np.array([f(t) for t in self.nodes])
        return self.apply_r0_values(float(f(0.0)), fvals)

    def extend(self, fvec: np.ndarray, g, x):
        """Nystrom extension of a solved vector off the grid.

        Given ``fvec`` solving ``(I - K) f = g`` at the nodes, returns
        ``g(x) + sum_j w_j K(x, x_j) f(x_j)`` for scalar or array ``x``.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        krows = airy_kernel_shifted(self.sigma, x_arr[:, None], self.nodes[None, :])
        gx = np.asarray(g(x_arr) if callable(g) else g, dtype=float)
        out = gx + krows @ (self.weights * fvec)
        return float(out[0]) if np.ndim(x) == 0 else out

    def _node_sum_matrix(self, part: int) -> np.ndarray:
        """Symmetric matrix of ``airy_ai_pair(x_i + x_j + sigma)[part]``, one evaluation per unordered pair."""
        n = len(self.nodes)
        iu, ju = np.triu_indices(n)
        mat = np.zeros((n, n))
        mat[iu, ju] = airy_ai_pair(self.nodes[iu] + self.nodes[ju] + self.sigma)[part]
        return mat + np.triu(mat, 1).T

    # each smoothing matrix is cached on its own, so a resolvent keeps only the ones in use
    @cached_property
    def _smoothing(self) -> np.ndarray:
        return self._node_sum_matrix(0)

    @cached_property
    def _smoothing_prime(self) -> np.ndarray:
        return self._node_sum_matrix(1)

    @property
    def smoothing(self) -> np.ndarray:
        """Matrix ``Ai(x_i + x_j + sigma)`` of the half-kernel smoothing operator."""
        return self._smoothing

    @property
    def smoothing_prime(self) -> np.ndarray:
        """Matrix ``Ai'(x_i + x_j + sigma)``, the x-derivative of the smoothing."""
        return self._smoothing_prime

    def smooth(self, fvals: np.ndarray) -> tuple[float, np.ndarray]:
        """Airy smoothing ``int_0^inf Ai(. + y + sigma) f(y) dy`` at 0 and the nodes."""
        wf = self.weights * fvals
        return float(self.ai_nodes @ wf), self.smoothing @ wf

    def smooth_prime(self, fvals: np.ndarray) -> tuple[float, np.ndarray]:
        """Smoothing with the ``Ai'`` half-kernel, at 0 and the nodes."""
        wf = self.weights * fvals
        return float(self.aip_nodes @ wf), self.smoothing_prime @ wf

    @cached_property
    def resolvent_matrix(self) -> np.ndarray:
        """Resolvent kernel values ``R(x_i, x_j)`` at all node pairs."""
        return self.solve(self.kmat)

    def resolvent_at(self, x, j: int) -> float:
        """Off-grid resolvent value ``R(x, x_j)`` by Nystrom extension."""
        krow = airy_kernel_shifted(self.sigma, x, self.nodes)
        return float(airy_kernel_shifted(self.sigma, x, self.nodes[j]) + krow @ (self.weights * self.resolvent_matrix[:, j]))


def resolvent_solve(ar: AiryResolvent, g) -> np.ndarray:
    """Module-level alias of :meth:`AiryResolvent.solve`."""
    return ar.solve(g)


def fredholm_det(ar: AiryResolvent) -> float:
    """Fredholm determinant det(I - K_sigma) carried by the resolvent."""
    return ar.det


def nystrom_extend(ar: AiryResolvent, fvec, g, x):
    """Module-level alias of :meth:`AiryResolvent.extend`."""
    return ar.extend(fvec, g, x)


def apply_r0(ar: AiryResolvent, f) -> float:
    """Module-level alias of :meth:`AiryResolvent.apply_r0`."""
    return ar.apply_r0(f)


def build_airy_resolvent(sigma: float, resolution: Resolution = Resolution(), strict: bool = False) -> AiryResolvent:
    """Discretize ``(I - K_sigma)^{-1}`` and precompute its derived data.

    Raises ``UnsupportedRangeError`` below ``sigma = -8`` and
    ``SingularResolventError`` once det(I - K) falls under 1e-8, where the
    linear solves no longer carry enough digits.  With ``strict=True`` the
    build is repeated at T + 4 and a drift of more than 1e-10 in ``q`` or
    the determinant raises ``TruncationInsufficientError``.
    """
    sigma = float(sigma)
    if sigma < SIGMA_MIN:
        raise UnsupportedRangeError(f"shift {sigma} below supported minimum {SIGMA_MIN}")
    rule = _ray_rule(resolution.m, resolution.T)
    x = rule.nodes
    w = rule.weights
    sqrt_w = np.sqrt(w)

    ai, aip = airy_ai_pair(np.concatenate(([0.0], x)) + sigma)
    ai0, aip0 = float(ai[0]), float(aip[0])
    ai_nodes, aip_nodes = ai[1:], aip[1:]
    kmat = _kernel_matrix(x, sigma, ai_nodes, aip_nodes)

    s = np.eye(len(x)) - sqrt_w[:, None] * kmat * sqrt_w[None, :]
    lu = scipy.linalg.lu_factor(s, check_finite=False)
    sign = 1.0 if (lu[1] != np.arange(len(x))).sum() % 2 == 0 else -1.0
    det = float(sign * np.prod(np.diag(lu[0])))
    if det < DET_FLOOR:
        raise SingularResolventError(f"det(I - K) = {det:.3e} at sigma = {sigma} is below {DET_FLOOR}")

    def _solve(g):
        return scipy.linalg.lu_solve(lu, sqrt_w * g, check_finite=False) / sqrt_w

    k0 = (ai_nodes * aip0 - aip_nodes * ai0) / x  # K(x_i, 0); nodes stay away from 0
    r0 = _solve(k0)
    qvec = _solve(ai_nodes)
    pvec = _solve(aip_nodes)
    # composed exactly like AiryResolvent.extend so q == extension of qvec at 0
    q = float(ai0 + k0 @ (w * qvec))
    p = float(aip0 + k0 @ (w * pvec))
    u = float(w @ (qvec * ai_nodes))
    v = float(w @ (qvec * aip_nodes))

    ar = AiryResolvent(
        sigma=sigma,
        resolution=resolution,
        rule=rule,
        det=det,
        r0=r0,
        qvec=qvec,
        pvec=pvec,
        q=q,
        p=p,
        u=u,
        v=v,
        ai_nodes=ai_nodes,
        aip_nodes=aip_nodes,
        ai0=ai0,
        aip0=aip0,
        _lu=lu,
        _sqrt_w=sqrt_w,
    )
    if strict:
        wide = build_airy_resolvent(sigma, Resolution(resolution.m, resolution.T + 4.0))
        if abs(wide.q - q) > 1e-10 or abs(wide.det - det) > 1e-10:
            raise TruncationInsufficientError(
                f"T = {resolution.T} truncates visible mass at sigma = {sigma}: "
                f"dq = {wide.q - q:.3e}, ddet = {wide.det - det:.3e}"
            )
    return ar


@functools.lru_cache(maxsize=48)
def _cached_build(sigma: float, m: int, T: float) -> AiryResolvent:
    return build_airy_resolvent(sigma, Resolution(m, T))


def get_resolvent(sigma: float, resolution: Resolution = Resolution()) -> AiryResolvent:
    """Memoized :func:`build_airy_resolvent`; safe because resolvents are immutable.

    The cache keeps the 48 most recently used resolvents.  The largest
    working set in the package is ``resolvent_form.kernel_tail``: it visits
    the ``TailSpec().m = 40`` shifts of its tail rule once per kernel point,
    so ``verify.check_equivalence`` cycles through about 42 resolvents.
    At 48 entries that makes no more builds than an unbounded cache; at 36,
    LRU eviction makes every revisit a miss (120 extra builds on a 2 x 2
    point set).  The bound matters because a resolvent holds about 0.2 MiB
    once its smoothing matrices are in use.
    """
    return _cached_build(float(sigma), resolution.m, resolution.T)
