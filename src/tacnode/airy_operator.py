"""Nystrom discretization of the shifted Airy integral operator on [0, T].

The operator has kernel ``K_sigma(x, y) = int_0^inf Ai(x+z+sigma) Ai(y+z+sigma) dz``
with the closed form ``(Ai(x+sigma) Ai'(y+sigma) - Ai'(x+sigma) Ai(y+sigma)) / (x - y)``.
Its superexponentially decaying integrands make a single Gauss-Legendre
panel on (0, T) converge spectrally, so everything downstream (Fredholm
determinant, resolvent solves, boundary values) is computed from the Nystrom
matrix ``I - K W`` (Bornemann, Math. Comp. 79 (2010)) by NumPy's LAPACK:
``np.linalg.det`` for the determinant, ``np.linalg.solve`` for the solves.
The system, its determinant, the boundary application and the off-grid
extension each have one copy here, which the gap and both kernel forms use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .airy import airy_ai_pair
from .errors import SingularResolventError, TruncationInsufficientError, UnsupportedRangeError
from .quadrature import QuadratureRule, affine_map_rule, gauss_legendre_rule

SIGMA_MIN = -8.0
DET_FLOOR = 1e-8
_NEAR_DIAGONAL = 1e-5
_AIRY_BLOCK = 4096  # most Airy points per call of a batched build


@dataclass(frozen=True)
class Resolution:
    """Discretization size: quadrature order ``m`` on the truncated ray (0, T)."""

    m: int = 80
    T: float = 16.0

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"resolution order must be >= 4, got {self.m}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"truncation point must be positive and finite, got {self.T}")


def airy_kernel_shifted(sigma, x, y):
    """Shifted Airy kernel ``K_sigma(x, y)``, continuous across the diagonal.

    Accepts scalars or broadcastable arrays.  Airy is evaluated once per
    point of ``x`` and of ``y``, before they broadcast; near the diagonal
    :func:`_kernel_from_airy` takes the midpoint form.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    k = _kernel_from_airy(sigma, x, y, *airy_ai_pair(x + sigma), *airy_ai_pair(y + sigma))
    return float(k[0]) if scalar else k


def _kernel_from_airy(sigma, x, y, ai_x, aip_x, ai_y, aip_y) -> np.ndarray:
    """``K_sigma(x, y)`` from ``Ai`` and ``Ai'`` at ``x + sigma`` and ``y + sigma``; all arguments broadcast.

    Within 1e-5 of the diagonal the midpoint form ``Ai'(m)^2 - m Ai(m)^2``, ``m = (x+y)/2 + sigma``,
    avoids cancellation; it costs one more Airy call, on those points only.
    """
    diff = x - y
    near = np.abs(diff) < _NEAR_DIAGONAL
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (ai_x * aip_y - aip_x * ai_y) / np.where(near, 1.0, diff)
    if near.any():
        mid = (0.5 * (x + y) + sigma)[near]
        ai_m, aip_m = airy_ai_pair(mid)
        k[near] = aip_m * aip_m - mid * ai_m * ai_m
    return k


def _nystrom_system(kmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The read-only Nystrom matrix ``I - K W``, shared by every solve of a resolvent."""
    system = np.eye(len(w)) - kmat * w
    system.setflags(write=False)
    return system


def nystrom_determinant(kmat: np.ndarray, weights: np.ndarray) -> float:
    """``det(I - K W)``, equal to the similar symmetrised ``det(I - W^{1/2} K W^{1/2})``; ``kmat`` may be asymmetric."""
    return float(np.linalg.det(_nystrom_system(kmat, weights)))


def _kernel_matrix(x: np.ndarray, sigma: float, ai_nodes: np.ndarray, aip_nodes: np.ndarray) -> np.ndarray:
    """``K_sigma(x_i, x_j)`` from ``Ai`` and ``Ai'`` at the shifted nodes ``x + sigma``.

    Swapping ``i`` and ``j`` negates the numerator and ``x_i - x_j`` exactly
    (the products commute), so the matrix is exactly symmetric; the diagonal
    takes its limit.
    """
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    kmat = (ai_nodes[:, None] * aip_nodes[None, :] - aip_nodes[:, None] * ai_nodes[None, :]) / dx
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

    ``qvec`` is also the smoothed boundary row: ``K = A^2`` with the
    half-kernel ``A(x, y) = Ai(x + y + sigma)`` (Tracy & Widom, CMP 159
    (1994)), so ``(I - K)^{-1}`` commutes with ``A`` and
    ``Ai(y + sigma) + int R(0, x) Ai(x + y + sigma) dx = Q(y)``.  So
    ``(I - K)^{-1}(., 0)`` applied to the smoothing ``A f`` of a function
    ``f`` is ``int Q f``, and needs no smoothing matrix.

    A function on the grid is one array of its values at 0 and at the
    nodes, the value at 0 first: :meth:`smooth` returns it, :meth:`apply_r0` takes it.
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
    _system: np.ndarray = field(repr=False)

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
        """Solve ``(I - K W) f = g``, that is ``f(x_i) - sum_j w_j K(x_i, x_j) f(x_j) = g(x_i)``, at the nodes.

        ``g`` may be a vector of node values or a matrix of stacked columns.
        """
        return np.linalg.solve(self._system, np.asarray(g, dtype=float))

    def apply_r0(self, f) -> float:
        """``f(0) + sum_i w_i R(x_i, 0) f(x_i)``: ``(I - K)^{-1}(., 0)`` applied to a function on the grid."""
        return float(f[0] + self.weights @ (self.r0 * f[1:]))

    def extend(self, fvec: np.ndarray, g, x):
        """Nystrom extension of a solved vector off the grid.

        Given ``fvec`` solving ``(I - K) f = g`` at the nodes for a callable
        ``g``, returns ``g(x) + sum_j w_j K(x, x_j) f(x_j)`` for scalar or
        array ``x``.
        """
        return self._extend(fvec, lambda x_arr, krows: g(x_arr), x)

    def resolvent_at(self, x, j: int) -> float:
        """Off-grid ``R(x, x_j)``: column ``j`` of :attr:`resolvent_matrix` extended; ``g`` is column ``j`` of its kernel rows."""
        return self._extend(self.resolvent_matrix[:, j], lambda x_arr, krows: krows[:, j], x)

    def _extend(self, fvec: np.ndarray, g, x):
        """:meth:`extend` with ``g(x_arr, krows)`` given the kernel rows ``K(x, x_j)``; Airy runs at ``x`` only."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        ai_x, aip_x = airy_ai_pair(x_arr + self.sigma)
        krows = _kernel_from_airy(self.sigma, x_arr[:, None], self.nodes, ai_x[:, None], aip_x[:, None],
                                  self.ai_nodes, self.aip_nodes)
        out = np.asarray(g(x_arr, krows), dtype=float) + krows @ (self.weights * fvec)
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

    def smooth(self, fvals) -> np.ndarray:
        """Airy smoothing ``int_0^inf Ai(. + y + sigma) f(y) dy`` at 0 and the nodes, the value at 0 first.

        ``fvals`` holds node values: a vector, or stacked columns, each smoothed on its own.
        """
        fvals = np.asarray(fvals, dtype=float)
        wf = (self.weights[:, None] if fvals.ndim == 2 else self.weights) * fvals
        return np.concatenate(((self.ai_nodes @ wf)[None], self.smoothing @ wf))

    @cached_property
    def resolvent_matrix(self) -> np.ndarray:
        """Resolvent kernel values ``R(x_i, x_j)`` at all node pairs."""
        return self.solve(self.kmat)


def build_airy_resolvents(sigmas, resolution: Resolution = Resolution()) -> Iterator[AiryResolvent]:
    """Discretize ``(I - K_sigma)^{-1}`` at each shift of ``sigmas``, yielding the resolvents in order.

    Every shift is checked against ``SIGMA_MIN`` before any work is done
    (a NaN shift fails the check).  Airy runs on the stacked grids
    ``[0, nodes] + sigma`` of a block of shifts at a time, one call per
    block of at most ``_AIRY_BLOCK`` points (50 shifts at ``m = 80``, so a
    tail's 40 shifts take one call), as the iterator reaches the block:
    the Airy temporaries, about 80 bytes a point, stay near 0.3 MiB
    however many shifts there are.  The determinant guard and the solves
    of each shift run as the iterator reaches it, so only one ``m x m``
    system is held at a time.
    """
    sigmas = np.array(sigmas, dtype=float, ndmin=1)
    low = sigmas[~(sigmas >= SIGMA_MIN)]
    if low.size:
        raise UnsupportedRangeError(f"shift {low[0]} is not at or above the supported minimum {SIGMA_MIN}")
    return _build_blocks(sigmas, resolution, _ray_rule(resolution.m, resolution.T))


def _build_blocks(sigmas: np.ndarray, resolution: Resolution, rule: QuadratureRule) -> Iterator[AiryResolvent]:
    """The resolvents at checked ``sigmas``: one Airy call per block of shifts, made when the iterator reaches it."""
    grid = np.concatenate(([0.0], rule.nodes))
    step = max(1, _AIRY_BLOCK // len(grid))
    assemble = functools.partial(_assemble, resolution, rule)
    for start in range(0, len(sigmas), step):
        block = sigmas[start:start + step]
        yield from map(assemble, block.tolist(), *airy_ai_pair(grid + block[:, None]))


def _assemble(resolution: Resolution, rule: QuadratureRule, sigma: float, ai, aip) -> AiryResolvent:
    """The resolvent at ``sigma`` from ``Ai`` and ``Ai'`` at 0 and the shifted nodes."""
    x, w = rule.nodes, rule.weights
    ai0, aip0, ai_nodes, aip_nodes = float(ai[0]), float(aip[0]), ai[1:], aip[1:]
    system = _nystrom_system(_kernel_matrix(x, sigma, ai_nodes, aip_nodes), w)

    det = float(np.linalg.det(system))
    if not det >= DET_FLOOR:
        raise SingularResolventError(f"det(I - K) = {det:.3e} at sigma = {sigma} is below {DET_FLOOR}")

    k0 = (ai_nodes * aip0 - aip_nodes * ai0) / x  # K(x_i, 0); nodes stay away from 0
    r0, qvec, pvec = np.linalg.solve(system, np.column_stack((k0, ai_nodes, aip_nodes))).T.copy()
    # composed exactly like AiryResolvent.extend so q == extension of qvec at 0
    q = float(ai0 + k0 @ (w * qvec))
    p = float(aip0 + k0 @ (w * pvec))
    u = float(w @ (qvec * ai_nodes))
    v = float(w @ (qvec * aip_nodes))
    return AiryResolvent(sigma=sigma, resolution=resolution, rule=rule, det=det, r0=r0, qvec=qvec, pvec=pvec,
                         q=q, p=p, u=u, v=v, ai_nodes=ai_nodes, aip_nodes=aip_nodes, ai0=ai0, aip0=aip0,
                         _system=system)


def build_airy_resolvent(sigma: float, resolution: Resolution = Resolution()) -> AiryResolvent:
    """Discretize ``(I - K_sigma)^{-1}`` and precompute its derived data: :func:`build_airy_resolvents` at one shift.

    Raises ``UnsupportedRangeError`` below ``sigma = -8`` and
    ``SingularResolventError`` once det(I - K) falls under 1e-8, where the
    linear solves no longer carry enough digits; a NaN shift or
    determinant fails the same guards.  :func:`check_truncation` checks
    the truncation point.
    """
    (ar,) = build_airy_resolvents([float(sigma)], resolution)
    return ar


def check_truncation(sigma: float, q: float, det: float, resolution: Resolution = Resolution()) -> None:
    """Raise ``TruncationInsufficientError`` if ``T`` truncates visible mass at ``sigma``.

    ``q`` and ``det`` are the values at ``sigma`` computed at ``resolution``,
    from a build or a cache file; they are compared with one build at
    ``T + 4``, the only build made here: a drift of more than 1e-10 in
    either fails.
    """
    wide = build_airy_resolvent(sigma, Resolution(resolution.m, resolution.T + 4.0))
    if abs(wide.q - q) > 1e-10 or abs(wide.det - det) > 1e-10:
        raise TruncationInsufficientError(
            f"T = {resolution.T} truncates visible mass at sigma = {wide.sigma}: "
            f"dq = {wide.q - q:.3e}, ddet = {wide.det - det:.3e}"
        )


@functools.lru_cache(maxsize=23)
def _cached_build(sigma: float, m: int, T: float) -> AiryResolvent:
    return build_airy_resolvent(sigma, Resolution(m, T))


def get_resolvent(sigma: float, resolution: Resolution = Resolution()) -> AiryResolvent:
    """Memoized :func:`build_airy_resolvent`; safe because resolvents are immutable.

    The cache keeps the 23 most recently used resolvents: the largest
    working set in the package, measured as the smallest cap at which
    ``verify.run_suite("all")`` makes no more builds than an unbounded cache
    (59 builds).  It is the ``tw`` suite's: its later checks revisit the 5
    base shifts and the stencil points around them after the Painleve
    residuals have visited 20 more.  The other suites need 6
    (``resolvent``), 3 (``rh``), 1 (``equivalence``) and 7 (``compat``);
    the tail integrals keep no resolvents (see :func:`get_boundary_rows`).
    The bound matters because a resolvent holds about 0.2 MiB once its
    smoothing matrices are in use: 0.05 MiB when built, nearly all of it
    the 80 x 80 system ``I - K W``, and 0.05 MiB more for each of
    ``smoothing``, ``smoothing_prime`` and ``resolvent_matrix`` once read.
    """
    return _cached_build(float(sigma), resolution.m, resolution.T)


@functools.lru_cache(maxsize=5)
def _cached_rows(sigmas: tuple[float, ...], m: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    r0 = np.empty((len(sigmas), m))
    qvec = np.empty_like(r0)
    for k, ar in enumerate(build_airy_resolvents(sigmas, Resolution(m, T))):
        r0[k], qvec[k] = ar.r0, ar.qvec
    r0.setflags(write=False)
    qvec.setflags(write=False)
    return r0, qvec


def get_boundary_rows(sigmas, resolution: Resolution = Resolution()) -> tuple[QuadratureRule, np.ndarray, np.ndarray]:
    """The rule and the stacked ``r0`` and ``qvec`` rows of the resolvents at ``sigmas``, one row per shift.

    Memoized on the whole tuple of shifts: a shift-integrated kernel
    visits the same shifts for every kernel point, and needs only these
    two rows of each resolvent.  The cache holds the read-only row arrays
    (about 51 KB for the 40 shifts of a tail at ``m = 80``), never the
    resolvents, which :func:`build_airy_resolvents` makes one at a time.
    It keeps 5 entries, the working set of ``verify.run_suite("all")``
    measured like that of :func:`get_resolvent`: its 5 tails, two of which
    the ``equivalence`` suite revisits after the ``rh`` suite's three.
    """
    sigmas = tuple(np.asarray(sigmas, dtype=float).tolist())
    return (_ray_rule(resolution.m, resolution.T), *_cached_rows(sigmas, resolution.m, resolution.T))
