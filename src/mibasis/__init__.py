"""Shifted minimal interpolation bases of polynomial matrices over F_p.

Core objects: PrimeField (scalars and dense polynomials), PolyMatrix,
JordanRep (structured multiplication matrices).  Engines: lin_interp_basis
(linear algebra over the scalars, any multiplication matrix, Popov output)
and interpolation_basis (divide and conquer for Jordan matrices), with
application builders for truncated-product, multi-point, and multivariate
vanishing problems, and a brute-force oracle for verification.  Lower-level
pieces (residuals; approximant bases, nullspaces and change of shift, used
by the CLI only) stay in their submodules, all loaded with the package.
"""

from .field import MINUS_INF, PrimeField
from .polymat import PolyMatrix, is_popov, is_reduced, is_weak_popov, shifted_row_degree
from .jordan import JordanRep
from .linearization import lin_interp_basis
from .dnc import interpolation_basis
from .reductions import (
    InterpolationInstance,
    MultivariateInstance,
    guruswami_sudan_list_size,
    hermite_pade_instance,
    mpade_instance,
    multivariate_instance,
    rs_interpolation,
)
from .oracle import module_equivalent, naive_residual, oracle_popov
from . import approx, nullspace, shift_change  # noqa: F401  (CLI-only; loaded with the package)

__all__ = [
    "MINUS_INF",
    "PrimeField",
    "PolyMatrix",
    "JordanRep",
    "InterpolationInstance",
    "MultivariateInstance",
    "guruswami_sudan_list_size",
    "hermite_pade_instance",
    "interpolation_basis",
    "is_popov",
    "is_reduced",
    "is_weak_popov",
    "lin_interp_basis",
    "module_equivalent",
    "mpade_instance",
    "multivariate_instance",
    "naive_residual",
    "oracle_popov",
    "rs_interpolation",
    "shifted_row_degree",
]
