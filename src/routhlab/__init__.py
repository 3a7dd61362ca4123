"""Cyclic reduction and energy-level Finsler metrics for convex Lagrangians.

The package provides exact second-order jets for a family of Lagrangian
models, an adaptive Euler-Lagrange integrator, reduction of cyclic
coordinates at fixed momentum with reconstruction by quadrature, the
1-homogeneous extension of a Lagrangian, the energy-level metric whose
geodesics trace the fixed-energy dynamics, geodesic sprays with projective
reparametrization, and verification tooling comparing all of these flows.
"""

from .duals import HyperDual, seed_second
from .errors import (
    ArityError,
    ConfigError,
    DegenerateCurve,
    DomainError,
    EnergyUnreachable,
    InvarianceError,
    NoConvergence,
    NoIntersection,
    ParseError,
    PositionDomainError,
    PreconditionError,
    RouthlabError,
    SingularBlock,
    SingularHessian,
    StencilDomainError,
    StepFailure,
)
from .expressions import Expression, parse_expression
from .fileio import (
    curves_svg,
    read_trajectory_csv,
    write_report_json,
    write_trajectory_csv,
)
from .homogenize import (
    EnergyScaleResult,
    FinslerModel,
    GaugeShiftedModel,
    HomogenizedLagrangian,
    JacobiFinslerModel,
    RandersModel,
    gauge_shift,
    homogeneous_closed_form,
    jacobi_finsler,
    poincare_randers,
    quasi_definite_check,
    randers_closed_form,
    randers_global_criterion,
    solve_energy_scale,
)
from .integrators import DenseOutput, IntegratorStats, Trajectory, solve_ode
from .jets import FD_STEP, ScalarField, SecondJet, fd_jet, jet
from .lagrangian import (
    ExpressionLagrangian,
    HomogeneousLagrangian,
    LagrangianModel,
    MagneticLagrangian,
    MechanicalLagrangian,
    PowerQuadraticLagrangian,
    el_acceleration,
    energy,
    integrate_el,
    parse_lagrangian,
    poincare_disk_lagrangian,
    strong_convexity_check,
)
from .reporting import Metric, VerificationReport
from .routh import (
    CyclicSplit,
    ReducedLagrangian,
    check_invariance,
    momentum,
    reconstruct,
    routhian,
    solve_momentum,
    verify_reduction,
)
from .spray import canonical_spray, half_square_jet, integrate_geodesic, projective_shift
from .verify import (
    CircleFit,
    boundary_angle,
    check_geodesic_equivalence,
    circle_fit,
    point_set_distance,
    rescale_to_energy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RouthlabError",
    "DomainError",
    "StencilDomainError",
    "PositionDomainError",
    "SingularHessian",
    "SingularBlock",
    "NoConvergence",
    "EnergyUnreachable",
    "StepFailure",
    "PreconditionError",
    "InvarianceError",
    "DegenerateCurve",
    "NoIntersection",
    "ParseError",
    "ArityError",
    "ConfigError",
    # calculus
    "HyperDual",
    "seed_second",
    "SecondJet",
    "ScalarField",
    "jet",
    "fd_jet",
    "FD_STEP",
    # expressions
    "Expression",
    "parse_expression",
    # integration
    "DenseOutput",
    "IntegratorStats",
    "Trajectory",
    "solve_ode",
    # Lagrangian models
    "LagrangianModel",
    "MagneticLagrangian",
    "MechanicalLagrangian",
    "PowerQuadraticLagrangian",
    "HomogeneousLagrangian",
    "ExpressionLagrangian",
    "parse_lagrangian",
    "poincare_disk_lagrangian",
    "energy",
    "strong_convexity_check",
    "el_acceleration",
    "integrate_el",
    # cyclic reduction
    "CyclicSplit",
    "check_invariance",
    "momentum",
    "solve_momentum",
    "ReducedLagrangian",
    "routhian",
    "verify_reduction",
    "reconstruct",
    # homogenization and level metrics
    "FinslerModel",
    "HomogenizedLagrangian",
    "EnergyScaleResult",
    "solve_energy_scale",
    "JacobiFinslerModel",
    "jacobi_finsler",
    "RandersModel",
    "randers_closed_form",
    "randers_global_criterion",
    "poincare_randers",
    "homogeneous_closed_form",
    "GaugeShiftedModel",
    "gauge_shift",
    "quasi_definite_check",
    # sprays
    "half_square_jet",
    "canonical_spray",
    "projective_shift",
    "integrate_geodesic",
    # verification
    "point_set_distance",
    "rescale_to_energy",
    "check_geodesic_equivalence",
    "CircleFit",
    "circle_fit",
    "boundary_angle",
    "Metric",
    "VerificationReport",
    # io
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_report_json",
    "curves_svg",
]
