"""conesolve: nonzero positive solutions of semilinear elliptic systems.

The problem  L u_i = lambda_i f_i(x, u),  B u_i = 0  is discretized by
positivity-preserving finite differences, reformulated as the fixed-point
equation u = (lambda_1 K F_1 u, ..., lambda_n K F_n u) with K the discrete
solution operator, and solved by monotone iteration between a constructed
sub- and supersolution; a state is an (n, N) array of nodal values.
Admissible lambda intervals come from the sup norm of K(1), the sampled
maxima of the nonlinearities, and the principal characteristic value
mu1 = 1/r(K).
"""

__version__ = "0.1.0"

from .errors import ConesolveError
from .expr import eval_expr, eval_on_arrays, parse
from .fixedpoint import (Certificate, IterationReport, Limit,
                         ProblemInstance, apply_T, certify,
                         check_supersolution, construct_subsolution,
                         monotone_iterate)
from .geometry import (DomainSpec, Grid, Rectangle, UnitDisk, build_grid)
from .greens import (SpectralEstimate, apply_K, e_positivity_probe,
                     k_one_norm, spectral_radius)
from .nonlinearity import (CheckReport, Nonlinearity, check_growth,
                           check_monotone, max_over_domain, nemytskii_apply)
from .operator import (BoundarySpec, Dirichlet, DiscreteOperator,
                       EllipticCoefficients, Neumann, Robin, assemble)
from .ranges import LambdaRange, ratio_curve, single_range, system_ranges

__all__ = [
    "ConesolveError", "parse", "eval_expr", "eval_on_arrays",
    "Rectangle", "UnitDisk", "DomainSpec", "Grid", "build_grid",
    "EllipticCoefficients", "Dirichlet", "Neumann", "Robin", "BoundarySpec",
    "DiscreteOperator", "assemble",
    "SpectralEstimate", "apply_K", "k_one_norm", "spectral_radius",
    "e_positivity_probe",
    "Nonlinearity", "CheckReport", "nemytskii_apply",
    "check_monotone", "check_growth", "max_over_domain",
    "ProblemInstance", "IterationReport", "Limit", "Certificate", "apply_T",
    "check_supersolution", "construct_subsolution", "monotone_iterate",
    "certify",
    "LambdaRange", "system_ranges", "single_range", "ratio_curve",
]
