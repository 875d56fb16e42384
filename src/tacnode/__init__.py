"""Numerics for the tacnode process correlation kernel.

The kernel of nonintersecting Brownian paths near a tacnode is computed in
both of its published forms: through resolvents of the shifted Airy
integral operator, and through the Airy-resolvent formulas for the
associated 4x4 Riemann-Hilbert matrix.  Every identity relating the two
forms (kernel equivalence, rank-2 shift derivatives, the Painleve II
structure of the Tracy-Widom scalars, residue-matrix compatibility) is
certified numerically by the :mod:`tacnode.verify` suite.
"""

from ._version import __version__
from .airy import airy_ai, airy_ai_pair, airy_ai_prime
from .airy_operator import (
    AiryResolvent,
    Resolution,
    airy_kernel_shifted,
    build_airy_resolvent,
    check_truncation,
    get_resolvent,
    nystrom_determinant,
)
from .errors import (
    CacheInvalidError,
    MismatchedParamsError,
    MultiTimeUnsupportedError,
    SingularResolventError,
    TacnodeError,
    TruncationInsufficientError,
    UnsupportedRangeError,
)
from .gap import gap_probability
from .quadrature import QuadratureRule, TailSpec, affine_map_rule, gauss_legendre_rule
from .resolvent_form import ResolventParams
from .rh_form import RHParams, ResidueEntries, SParam, residue_matrix
from .tracy_widom import f2_det, hamiltonian, hastings_mcleod, hm_derivative
from .verify import CheckReport, coverage_manifest, run_suite

__all__ = [
    "__version__",
    "airy_ai", "airy_ai_pair", "airy_ai_prime",
    "QuadratureRule", "gauss_legendre_rule", "affine_map_rule",
    "Resolution", "AiryResolvent", "airy_kernel_shifted", "build_airy_resolvent",
    "check_truncation", "get_resolvent", "nystrom_determinant",
    "hastings_mcleod", "hm_derivative", "hamiltonian", "f2_det",
    "ResolventParams", "TailSpec",
    "RHParams", "SParam", "ResidueEntries", "residue_matrix",
    "gap_probability",
    "CheckReport", "run_suite", "coverage_manifest",
    "TacnodeError", "SingularResolventError", "UnsupportedRangeError",
    "TruncationInsufficientError", "MultiTimeUnsupportedError",
    "MismatchedParamsError", "CacheInvalidError",
]
