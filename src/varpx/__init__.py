"""Variable-exponent elliptic systems toolkit.

Modules:
    grid      meshes, nodal fields, gradients, quadrature
    expspace  modulars and Luxemburg norms
    plaplace  scalar Dirichlet solves for the p(x)-Laplacian
    barriers  growth hypotheses, barrier construction and calibration
    sysfix    decoupled solves and the damped fixed-point iteration
    verify    estimate audits, mean-value checks, certificates
    cli       configuration, orchestration, artifacts
"""

from .expspace import ExponentField, luxemburg_norm, modular
from .grid import (DomainSpec, GridFunction, Mesh, QuadField, boundary_strip,
                   build_mesh, export_csv, gradient)
from .plaplace import (ScalarSolveResult, SolverOptions, solve_dirichlet,
                       torsion, torsion_delta, weak_residual)
from .barriers import (BarrierPair, HypothesisReport, ProblemSpec, Regime,
                       build_barriers, calibrate_barriers,
                       check_barriers_positive_regime,
                       check_barriers_singular_regime, validate_hypotheses)
from .sysfix import (IterationOptions, IterationReport, SystemState, apply_map,
                     calibrate_caps, coupled_residual, fixed_point_iterate,
                     membership_check)
from .verify import (ScaleFamily, gradient_estimate_audit, linfty_estimate_audit,
                     mvt_ratio, sandwich_audit, solution_certificate)

__version__ = "0.1.0"
