"""Metric definitions: the end-to-end metrics of every run, and the
per-layer metrics the traced run derives from its spans.

Each per-layer metric names the end-to-end metric and workload it should
move. Layer metric names drop the leading underscore of ``_stencils``
because a metric name starts with a letter or digit.
"""
from __future__ import annotations

import os

# (name, unit, better) of the metrics every untraced run reports.
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

_PDE = "cmd_s.simulate-pde on pde_kink"
_LAT = "cmd_s.simulate-lattice on lattice_kink"
_TW = ("cmd_s.solve-tw, cmd_s.verify-expansion, cmd_s.speed-select and "
       "fail_ratio on tw_newton")
_EXP = "cmd_s.verify-expansion and cmd_s.build-perturbative on tw_newton"
_LAG = "cmd_s.verify-lagrangian on tw_newton"

# (metric name, unit, better, span name, field, should move)
# field is a key of tracer.summarize's row, or a derived quantity handled in
# layer_metrics below.
LAYER = (
    ("stencils.derivative.calls", "count", "lower",
     "_stencils.derivative", "calls", _PDE),
    ("stencils.derivative.self_s", "s", "lower",
     "_stencils.derivative", "self_s", _PDE),
    ("stencils.derivative.computed_bytes", "bytes", "lower",
     "_stencils.derivative", "computed_bytes", _PDE),
    ("stencils.derivative.computed_flops", "flop", "lower",
     "_stencils.derivative", "computed_flops", _PDE),
    ("stencils.fd_weights.calls", "count", "lower",
     "_stencils.fd_weights", "calls", _PDE),
    ("stencils.derivative_matrix.calls", "count", "lower",
     "_stencils.derivative_matrix", "calls",
     "cmd_s.verify-expansion and cmd_s.solve-tw on tw_newton"),
    ("stencils.derivative_matrix.self_s", "s", "lower",
     "_stencils.derivative_matrix", "self_s",
     "cmd_s.verify-expansion and cmd_s.solve-tw on tw_newton"),
    ("stencils.derivative_matrix.nnz", "count", "lower",
     "_stencils.derivative_matrix", "nnz",
     "cmd_s.verify-expansion and cmd_s.solve-tw on tw_newton"),
    ("continuum.pde_rhs.calls", "count", "lower",
     "continuum.pde_rhs", "calls", _PDE),
    ("continuum.pde_rhs.self_s", "s", "lower",
     "continuum.pde_rhs", "self_s", _PDE),
    ("continuum.evolve.self_s", "s", "lower",
     "continuum.evolve", "self_s", _PDE),
    ("continuum.energy_total.s", "s", "lower",
     "continuum.energy_total", "s", _PDE),
    ("continuum.export_fields_csv.s", "s", "lower",
     "continuum.export_fields_csv", "s", _PDE),
    ("continuum.export_fields_csv.bytes", "bytes", "lower",
     "continuum.export_fields_csv", "bytes", _PDE),
    ("chain.discrete_forces.calls", "count", "lower",
     "chain.discrete_forces", "calls", _LAT),
    ("chain.discrete_forces.self_s", "s", "lower",
     "chain.discrete_forces", "self_s", _LAT),
    ("chain.potential_energy.s", "s", "lower",
     "chain.potential_energy", "s", _LAT),
    ("chain.kinetic_energy.s", "s", "lower",
     "chain.kinetic_energy", "s", _LAT),
    ("lattice.step.self_s", "s", "lower", "lattice.step", "self_s", _LAT),
    ("lattice.export_trajectory_csv.s", "s", "lower",
     "lattice.export_trajectory_csv", "s", _LAT),
    ("lattice.export_trajectory_csv.bytes", "bytes", "lower",
     "lattice.export_trajectory_csv", "bytes", _LAT),
    ("lattice.export_energy_csv.s", "s", "lower",
     "lattice.export_energy_csv", "s", _LAT),
    ("travelwave.solve_tw_bvp.calls", "count", "lower",
     "travelwave.solve_tw_bvp", "calls", _TW),
    ("travelwave.solve_tw_bvp.converged", "count", "higher",
     "travelwave.solve_tw_bvp", "converged", _TW),
    ("travelwave.solve_tw_bvp.self_s", "s", "lower",
     "travelwave.solve_tw_bvp", "self_s", _TW),
    ("travelwave.lu_factor.calls", "count", "lower",
     "travelwave.lu_factor", "calls", _TW),
    ("travelwave.lu_factor.s", "s", "lower",
     "travelwave.lu_factor", "s", _TW),
    ("travelwave.lu_factor.calls_per_solve", "count", "lower",
     "travelwave.lu_factor", "calls_per_solve", _TW),
    ("travelwave.tw_residual.s", "s", "lower",
     "travelwave.tw_residual", "s", _TW),
    ("travelwave.export_profile_csv.s", "s", "lower",
     "travelwave.export_profile_csv", "s", _TW),
    ("travelwave.fine_grid_stalls", "count", "lower",
     "travelwave.solve_tw_bvp", "fine_grid_stalls", _TW),
    ("perturbation.taylor_extract.s", "s", "lower",
     "perturbation.taylor_extract", "s", _EXP),
    ("perturbation.build_perturbative.s", "s", "lower",
     "perturbation.build_perturbative", "s", _EXP),
    ("perturbation.order1_theta.s", "s", "lower",
     "perturbation.order1_theta", "s", _EXP),
    ("perturbation.residual_scaling.s", "s", "lower",
     "perturbation.residual_scaling", "s", _EXP),
    ("lagrangian_orders.eval_L0_L1_L2.s", "s", "lower",
     "lagrangian_orders.eval_L0_L1_L2", "s", _LAG),
    ("lagrangian_orders.taylor_lagrangian_coefficients.s", "s", "lower",
     "lagrangian_orders.taylor_lagrangian_coefficients", "s", _LAG),
    ("lagrangian_orders.el_identities.s", "s", "lower",
     "lagrangian_orders.el_identities", "s", _LAG),
    ("lagrangian_orders.slaving_consistency.s", "s", "lower",
     "lagrangian_orders.slaving_consistency", "s", _LAG),
    ("reductions.stiff_limit_experiment.s", "s", "lower",
     "reductions.stiff_limit_experiment", "s",
     "cmd_s.speed-select and fail_ratio on tw_newton"),
    ("reductions.stiff_limit_experiment.cells_converged", "count", "higher",
     "reductions.stiff_limit_experiment", "cells_converged",
     "cmd_s.speed-select and fail_ratio on tw_newton"),
    ("config.load_config.s", "s", "lower", "config.load_config", "s",
     "setup_s on every workload"),
    ("cli.main.self_s", "s", "lower", "cli.main", "self_s",
     "pass_s on every workload"),
    ("trace.overhead_s", "s", "lower", None, "overhead_s",
     "nothing: traced pass_s minus untraced pass_s"),
)


def _derivative_work(args, kwargs, result):
    """Stencil application on n float64 nodes, computed from n: one read of
    f and one write of the result (16 n bytes); 5 multiplies and 4 adds per
    interior node, and 2L - 1 per boundary row of an L-point stencil."""
    n = len(args[0])
    deriv = args[2] if len(args) > 2 else kwargs["deriv"]
    edge = 5 if deriv == 1 else 6
    return {"computed_bytes": 16 * n,
            "computed_flops": 9 * (n - 4) + 4 * (2 * edge - 1)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[-1])}


COUNTERS = {
    "_stencils.derivative": _derivative_work,
    "_stencils.derivative_matrix": lambda a, k, r: {"nnz": int(r.nnz)},
    "continuum.export_fields_csv": _file_bytes,
    "lattice.export_trajectory_csv": _file_bytes,
    "reductions.stiff_limit_experiment":
        lambda a, k, r: {"cells_converged": sum(c.converged for c in r.cells)},
}

ROOFLINE_NOTE = ("no roofline or bandwidth ratio is reported: the arrays "
                 "the kernel layers touch fit in the L2 cache, so computed "
                 "bytes and flops are work counts, not measured memory "
                 "traffic")


def layer_metrics(rows, extra):
    """Per-layer metric values from one traced pass's summarize() rows.

    ``extra`` holds values measured outside the spans: overhead_s and
    fine_grid_stalls. A layer the workload never enters reads 0.
    """
    out = {}
    for name, _unit, _better, span, field, _moves in LAYER:
        row = rows.get(span, {})
        if field in extra:
            value = extra[field]
        elif field == "converged":
            value = row.get("calls", 0) - row.get("raised", 0)
        elif field == "calls_per_solve":
            solves = rows.get("travelwave.solve_tw_bvp", {}).get("calls", 0)
            value = row.get("calls", 0) / solves if solves else 0.0
        else:
            value = row.get(field, 0)
        out[name] = value
    return out
