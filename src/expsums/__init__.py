"""Certified L1 norms of exponential sums over structured integer sets.

The package evaluates F(t) = sum_{a in A} e(at) (and its rank-r analogue)
on uniform grids, turns the Riemann means into certified norm enclosures,
and builds the combinatorial machinery (flat-top kernels, residue thinning,
good moduli, strongly r-dimensional sets) needed to verify coefficient-decay
lower bounds at desk scale.
"""

from .bounds import (DEFAULT_C_MPS, HypothesisCheck, InequalityVerdict,
                     ScanReport, bernstein_check, constant_scan,
                     family_gaps, family_intervals, family_random_sets,
                     mps_rhs, verify_basic_multidim, verify_main_prop,
                     verify_mps, verify_multidim, verify_multidimz)
from .core import (IntegerSet, LatticeSet, TrigPoly, char_e, indicator_poly,
                   recentre)
from .errors import (AliasingError, CollisionError, GridOverflowError,
                     HypothesisError, MemoryBudgetError, SupportError)
from .kernels import (FlatTopKernel, dirichlet, discrete_l1_bound, fejer,
                      flat_top_build, flat_top_discrete_l1,
                      flat_top_transform, property_violations)
from .modulus import (GoodModulusResult, ResidueFilter, good_modulus,
                      residue_filter, thinning_bound_factor,
                      thinning_transform)
from .quadrature import (GridEvaluation, NormInterval, certified_l1,
                         derivative, eval_grid, riemann_l1)
from .structures import (DimCertificate, ValidationReport,
                         build_strong_integer, build_strong_lattice,
                         gap_rank2, project_and_fibre, validate_certificate)

__version__ = "0.1.0"

#: the numeric backend every kernel runs on (reported as ``meta.backend``)
BACKEND = "numpy"

__all__ = [
    "AliasingError", "BACKEND", "CollisionError",
    "DEFAULT_C_MPS", "DimCertificate", "FlatTopKernel", "GoodModulusResult",
    "GridEvaluation", "GridOverflowError", "HypothesisCheck", "HypothesisError",
    "InequalityVerdict", "IntegerSet", "LatticeSet",
    "MemoryBudgetError", "NormInterval", "ResidueFilter", "ScanReport",
    "SupportError", "TrigPoly", "ValidationReport", "bernstein_check",
    "build_strong_integer", "build_strong_lattice", "certified_l1", "char_e",
    "constant_scan", "derivative", "dirichlet", "discrete_l1_bound",
    "eval_grid", "family_gaps", "family_intervals", "family_random_sets",
    "fejer", "flat_top_build", "flat_top_discrete_l1", "flat_top_transform",
    "gap_rank2", "good_modulus", "indicator_poly", "mps_rhs",
    "project_and_fibre", "property_violations", "recentre", "residue_filter",
    "riemann_l1", "thinning_bound_factor", "thinning_transform",
    "validate_certificate", "verify_basic_multidim", "verify_main_prop",
    "verify_mps", "verify_multidim", "verify_multidimz",
]
