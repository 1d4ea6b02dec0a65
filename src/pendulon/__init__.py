"""Numerical laboratory for chains of stacked double pendulums.

Layers, from discrete to asymptotic:

- ``chain`` / ``lattice``: per-site mechanics and RK4 time stepping
  of the discrete chain.
- ``continuum``: the two-field long-wavelength PDE and its integrator.
- ``travelwave``: co-moving reduction to a second-order ODE system and a
  collocation solver for travelling profiles on the half line.
- ``perturbation``: expansion of the travelling-wave problem around the
  single-angle kink in the small tip-pendulum limit, each order in closed
  form, and an oracle that differentiates the discrete solutions in eps.
- ``lagrangian_orders``: order-by-order effective Lagrangians and the
  identities that make the tip angle an auxiliary field.
- ``reductions``: the torsion-free compatibility constraint that selects
  the propagation speed, plus the stiff-confinement sweep.
- ``cli`` / ``config``: reproducible experiment commands.

``import pendulon`` is lazy: each name of ``__all__`` is imported from its
home module on first access (PEP 562), so a program loads only the layers it
uses. scipy is imported only where a matrix is built or factored:
``_stencils.derivative_matrix`` / ``collocation_matrix``, the half-line
Newton solve of ``travelwave`` and the eps oracle of ``perturbation``.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "params": "ChainParams ConfiningPotential ExpansionParams",
    "_stencils": "IntegrationError TWSolveError energy_drift",
    "chain": "LatticeState discrete_forces discrete_lagrangian "
             "kinetic_energy lagrangian_coordinate_gradient mass_matrix "
             "potential_energy tip_position",
    "lattice": "kink_center moving_kink_state simulate total_energy",
    "continuum": "FieldGrid PDEInstabilityError energy_total evolve "
                 "kink_field_grid pde_rhs topological_charge",
    "travelwave": "TWProfile kink_profile solve_tw_bvp tw_coefficients "
                  "tw_first_integral tw_lagrangian_density tw_residual",
    "perturbation": "Expansion build_perturbative coefficient_B "
                    "compose_series kink_parameter residual_scaling "
                    "sg_kink taylor_extract",
    "reductions": "SpeedSelection StiffReport compatibility_mu selected_speed "
                  "selected_speed_kink stiff_limit_experiment",
    "lagrangian_orders": "auxiliary_check el_identities eval_L0_L1_L2 "
                         "slaving_consistency smooth_sample "
                         "taylor_lagrangian_coefficients",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
