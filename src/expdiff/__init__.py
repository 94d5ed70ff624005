"""Numerical laboratory for doubly degenerate diffusion with exponential
radial weights: admissible weight classes, explicit functional-inequality
constants, decay/support envelopes, and a conservative radial
finite-volume solver."""

from .weights import (
    EquationParams,
    WeightSpec,
    check_monotone_quantities,
    check_structural_conditions,
    invert_g,
    make_custom_weight,
    make_power_weight,
    make_unweighted,
    make_zygmund_weight,
    validate_envelope,
    zygmund_inverse_asymptotics,
)
from .measure import cell_weighted_volumes, dual_density, growing_density, sphere_area
from .inequalities import (
    InequalityReport,
    bounded_sobolev_constant,
    gamma_constant,
    hardy_criterion_sup,
    k_qp,
    poincare_constant,
    verify_inequality,
)
from .envelopes import EnvelopeParams, sup_envelope, support_envelope
from .solver import (
    RadialGrid,
    SolverConfig,
    Trajectory,
    fit_rates,
    initial_state,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
