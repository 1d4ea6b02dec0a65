"""Numerical laboratory for chains of stacked double pendulums.

Layers, from discrete to asymptotic:

- ``chain`` / ``lattice``: per-site mechanics and RK4 time stepping
  of the discrete chain.
- ``continuum``: the two-field long-wavelength PDE and its integrator.
- ``travelwave``: co-moving reduction to a second-order ODE system and a
  collocation solver for travelling profiles.
- ``perturbation``: expansion of the travelling-wave problem around the
  single-angle kink in the small tip-pendulum limit.
- ``lagrangian_orders``: order-by-order effective Lagrangians and the
  identities that make the tip angle an auxiliary field.
- ``reductions``: the torsion-free compatibility constraint that selects
  the propagation speed, plus the stiff-confinement sweep.
- ``cli`` / ``config``: reproducible experiment commands.
"""

from .params import ChainParams, ConfiningPotential
from .chain import (
    LatticeState,
    alpha_beta,
    discrete_forces,
    discrete_lagrangian,
    kinetic_energy,
    lagrangian_coordinate_gradient,
    mass_matrix,
    potential_energy,
    tip_position,
)
from .lattice import (
    IntegrationError,
    SimulationReport,
    kink_center,
    moving_kink_state,
    simulate,
    total_energy,
)
from .continuum import (
    FieldGrid,
    PDEInstabilityError,
    energy_total,
    evolve,
    kink_field_grid,
    pde_rhs,
    topological_charge,
)
from .travelwave import (
    TWParams,
    TWProfile,
    TWSolveError,
    kink_profile,
    solve_tw_bvp,
    tw_first_integral,
    tw_lagrangian_density,
    tw_residual,
)
from .perturbation import (
    ExpansionParams,
    PerturbativeSolution,
    build_perturbative,
    coefficient_B,
    compose_series,
    kink_parameter,
    order1_phi,
    order1_theta,
    order2_phi,
    residual_scaling,
    sg_kink,
    taylor_extract,
)
from .reductions import (
    SpeedSelection,
    StiffReport,
    compatibility_mu,
    selected_speed,
    selected_speed_kink,
    stiff_limit_experiment,
)
from .lagrangian_orders import (
    ExpandedLagrangianSample,
    auxiliary_check,
    el_identities,
    eval_L0_L1_L2,
    expansion_sample,
    slaving_consistency,
    smooth_sample,
    taylor_lagrangian_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams", "ConfiningPotential", "LatticeState",
    "alpha_beta", "discrete_forces", "discrete_lagrangian",
    "kinetic_energy", "lagrangian_coordinate_gradient", "mass_matrix",
    "potential_energy", "tip_position",
    "IntegrationError", "SimulationReport", "kink_center",
    "moving_kink_state", "simulate", "total_energy",
    "FieldGrid", "PDEInstabilityError", "energy_total", "evolve",
    "kink_field_grid", "pde_rhs", "topological_charge",
    "TWParams", "TWProfile", "TWSolveError", "kink_profile",
    "solve_tw_bvp", "tw_first_integral", "tw_lagrangian_density",
    "tw_residual",
    "ExpansionParams", "PerturbativeSolution", "build_perturbative",
    "coefficient_B", "compose_series", "kink_parameter", "order1_phi",
    "order1_theta", "order2_phi", "residual_scaling", "sg_kink",
    "taylor_extract",
    "SpeedSelection", "StiffReport", "compatibility_mu", "selected_speed",
    "selected_speed_kink", "stiff_limit_experiment",
    "ExpandedLagrangianSample", "auxiliary_check", "el_identities",
    "eval_L0_L1_L2", "expansion_sample", "slaving_consistency",
    "smooth_sample", "taylor_lagrangian_coefficients",
    "__version__",
]
