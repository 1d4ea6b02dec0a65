"""Command-line harness.

Every command reads one INI config, writes its artifacts into an output
directory (--out, else $PENDULON_OUT, else the working directory) plus a
summary.json echoing the configuration. Reruns with the same config are
byte-identical: no wall clock in outputs, all sampling seeded and recorded.

Exit codes: 0 success, 1 config/validation failure, 2 numerical failure.

Each command imports the layers it runs inside its handler, after the dry-run
return where its checks allow, so a command loads only its own layers and no
dry run loads scipy.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import _stencils, config
from ._io import write_json
from ._stencils import MIN_EXPANSION_NODES, MIN_NODES
from .config import ConfigError


def _rel_l2(a, b):
    """|a - b| / |b| in the L2 norm, or None when the reference b is
    identically zero (a vanishing order has no relative gap)."""
    norm = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / norm) if norm else None


def _finite_or_none(x):
    """x, or None when it is not finite: JSON has no NaN or Infinity."""
    return x if np.isfinite(x) else None


# ---------------------------------------------------------------------------
# commands: each parses its whole config first and returns before any compute
# when out is None (a dry run). out(name) is the path of artifact `name` in the
# output directory, and lists it in the summary. A section's keys are the
# keywords of the layer call it feeds, so each default lives in that call.
# ---------------------------------------------------------------------------

_INTEGRATION_SCHEMA = {"dt": config.parse_positive_float,
                       "t_end": config.parse_positive_float,
                       "snapshot_every": config.parse_positive_int}

_KINK_SCHEMA = {"k": config.parse_finite_float, "v": config.parse_finite_float,
                "center": config.parse_finite_float}

# the grid of the eps expansion: [grid] of build-perturbative, and [verify]
_EXPANSION_GRID_SCHEMA = {
    "n_points": config.parse_int_at_least(MIN_EXPANSION_NODES),
    "half_width_factor": config.parse_positive_float}


def _composed_chain(exp, eps, key):
    """exp.to_chain_params(eps=eps), checked at dry run too: a large eps can
    compose an invalid chain (M = Mhat - m <= 0, say), and the error names
    the config key eps came from."""
    try:
        return exp.to_chain_params(eps=eps)
    except ValueError as exc:
        raise ConfigError(f"{key}: eps = {eps!r} composes an invalid "
                          f"chain: {exc}") from exc


def cmd_simulate_lattice(cp, args, out):
    params = config.chain_from_config(cp)
    lat = config.read_section(
        cp, "lattice", {"n_sites": config.parse_int_at_least(2),
                        **_KINK_SCHEMA},
        required=("n_sites", "k", "v"))
    integ = config.read_section(cp, "integration", _INTEGRATION_SCHEMA,
                                required=("dt", "t_end"))
    if out is None:
        return
    from . import lattice
    state = lattice.moving_kink_state(params, **lat)
    # the trajectory is formatted in a forked process while the chain
    # integrates; the states come back for the energy table and summary
    snaps = lattice.export_trajectory_csv(
        lattice.snapshots(state, params=params, **integ),
        out("lattice-trajectory.csv"))
    energies = lattice.export_energy_csv(snaps, params,
                                         out("lattice-energy.csv"))
    return _stencils.run_summary(snaps[0].theta, snaps[-1].theta,
                                 snaps[-1].t, energies)


def cmd_simulate_pde(cp, args, out):
    from . import continuum
    params = config.chain_from_config(cp)
    dom = config.read_section(
        cp, "domain", {"x_min": config.parse_finite_float,
                       "x_max": config.parse_finite_float,
                       "n_points": config.parse_int_at_least(MIN_NODES)},
        required=("x_min", "x_max", "n_points"))
    pde = config.read_section(cp, "pde", _KINK_SCHEMA, required=("k", "v"))
    integ = config.read_section(cp, "integration", _INTEGRATION_SCHEMA,
                                required=("dt", "t_end"))
    if not dom["x_min"] < dom["x_max"]:
        raise ConfigError(f"[domain] 'x_min' = {dom['x_min']!r} must be below "
                          f"'x_max' = {dom['x_max']!r}")
    x = np.linspace(dom["x_min"], dom["x_max"], dom["n_points"])
    continuum.check_time_step(integ["dt"], _stencils.uniform_spacing(x),
                              params)
    if out is None:
        return
    grid = continuum.kink_field_grid(params, x=x, **pde)
    snaps = continuum.evolve(grid, params=params, **integ)
    continuum.export_fields(snaps, out("pde-fields.npy"))
    energies = continuum.export_energy_csv(snaps, params,
                                           out("pde-energy.csv"))
    return _stencils.run_summary(snaps[0].Theta, snaps[-1].Theta,
                                 snaps[-1].t, energies)


def cmd_solve_tw(cp, args, out):
    params = config.chain_from_config(cp)
    tw = config.read_section(
        cp, "tw",
        {"v": config.parse_finite_float, "k": config.parse_finite_float,
         "pi_shift": config.parse_bool},
        required=("v", "k"))
    dom = config.read_section(
        cp, "domain", {"half_width": config.parse_positive_float,
                       "n_points": config.parse_int_at_least(MIN_NODES)})
    k = tw["k"]
    if k == 0 and "half_width" not in dom:
        raise ValueError("[tw] k = 0 needs an explicit [domain] half_width")
    if out is None:
        return
    from . import travelwave
    half = dom["half_width"] if "half_width" in dom else 20.0 / abs(k)
    z = np.linspace(-half, half, dom.get("n_points", 2001))
    prof = travelwave.solve_tw_bvp(travelwave.kink_profile(z, **tw), params)
    res1, res2, first = travelwave.export_profile(prof, params,
                                                  out("tw-profile.npy"))
    return {
        "v": prof.v,
        "mu": travelwave.tw_coefficients(prof.v, params)[1],
        "residual_eq1_linf": travelwave.residual_linf(res1),
        "residual_eq2_linf": travelwave.residual_linf(res2),
        "first_integral_mean": np.mean(first),
        "first_integral_rel_variance": np.var(first) / (np.mean(first) ** 2 + 1e-300),
    }


def cmd_build_perturbative(cp, args, out):
    exp = config.expansion_from_config(cp)
    grid = config.read_section(cp, "grid", _EXPANSION_GRID_SCHEMA)
    comp = config.read_section(cp, "compose",
                               {"eps": config.parse_non_negative_float,
                                "order": config.parse_order})
    eps = comp.get("eps", exp.eps)
    chain = _composed_chain(
        exp, eps, "[compose] 'eps'" if "eps" in comp else "[expansion] 'eps'")
    if out is None:
        return
    from . import perturbation, travelwave
    sol = perturbation.build_perturbative(
        exp, perturbation.kink_grid(exp, **grid))
    order = comp.get("order", 2)
    prof = perturbation.compose_series(sol, eps, order)
    perturbation.export_orders(sol, out("perturbative-orders.npy"))
    res1, res2, _ = travelwave.export_profile(prof, chain,
                                              out("tw-profile.npy"))
    return {
        "k": perturbation.kink_parameter(exp),
        "B": perturbation.coefficient_B(exp),
        "eps": eps,
        "order": order,
        "v": exp.speed(eps),
        "residual_eq1_linf": travelwave.residual_linf(res1),
        "residual_eq2_linf": travelwave.residual_linf(res2),
    }


def cmd_verify_expansion(cp, args, out):
    exp = config.expansion_from_config(cp)
    ver = config.read_section(
        cp, "verify",
        {"eps_list": config.parse_eps_list, "order": config.parse_order,
         **_EXPANSION_GRID_SCHEMA})
    eps_list = ver.pop("eps_list", [0.01, 0.02, 0.05, 0.1])
    for eps in eps_list:
        _composed_chain(exp, eps, "[verify] 'eps_list'")
    if out is None:
        return
    from . import perturbation
    order = ver.pop("order", 1)
    z = perturbation.kink_grid(exp, **ver)
    sol = perturbation.build_perturbative(exp, z)
    study = perturbation.residual_scaling(sol, eps_list, order)
    perturbation.export_scaling_csv(study, out("residual-scaling.csv"))

    ext = perturbation.taylor_extract(exp, z)
    _, o1, o2 = sol.orders
    report = {
        "order": order,
        "eps_list": list(eps_list),
        "slope_res1": _finite_or_none(study.slope1),
        "slope_res2": _finite_or_none(study.slope2),
        "theta1_rel_l2": _rel_l2(ext.theta1, o1.theta),
        "phi1_rel_l2": _rel_l2(ext.phi1, o1.phi),
        "phi2_rel_l2": _rel_l2(ext.phi2, o2.phi),
    }
    write_json(report, out("verify-expansion.json"))
    return report


def cmd_speed_select(cp, args, out):
    params = config.chain_from_config(cp)
    stiff = config.read_section(
        cp, "stiff", {"ladder": config.parse_ladder,
                      "v_probe": config.parse_floats,
                      "n_points": config.parse_int_at_least(MIN_NODES)})
    if out is None:
        return
    from . import reductions
    sel = reductions.selected_speed(params)
    print(f"v_star = ±{sel.v_star!r}")
    print(f"mu_star = {sel.mu_star!r}")
    results = {"v_star": sel.v_star, "mu_star": sel.mu_star}
    if params.R > 0:
        results["kink_width_parameter"] = reductions.selected_kink_width(params)
    if args.stiff:
        report = reductions.stiff_limit_experiment(params, **stiff)
        reductions.export_stiff_csv(report, out("stiff-limit.csv"))
        results["stiff_cells"] = [dataclasses.asdict(c) for c in report.cells]
    return results


def cmd_verify_lagrangian(cp, args, out):
    exp = config.expansion_from_config(cp)
    lag = config.read_section(
        cp, "lagrangian",
        {"n_samples": config.parse_positive_int,
         "seed": config.parse_int_at_least(0)})
    if out is None:
        return
    from . import lagrangian_orders as lagexp
    from . import perturbation
    n_samples = lag.get("n_samples", 100)
    seed = lag.get("seed", 0)
    z = np.linspace(-8.0, 8.0, 257)
    oracle_max, aux_max, el_gap_max = lagexp.sample_maxima(
        exp, z, range(seed, seed + n_samples))
    for name, val in (("oracle_rel_max", oracle_max),
                      ("auxiliary_max", aux_max),
                      ("el_identity_gap_max", el_gap_max)):
        if not np.all(np.isfinite(val)):
            raise RuntimeError(f"non-finite {name}: {np.ravel(val).tolist()}")

    slaving = lagexp.slaving_consistency(
        exp, perturbation.kink_grid(exp, n_points=2001))
    report = {
        "seed": seed,
        "n_samples": n_samples,
        "oracle_rel_max": {"L0": oracle_max[0], "L1": oracle_max[1],
                           "L2": oracle_max[2]},
        "auxiliary_max": {"order0": aux_max[0], "order1": aux_max[1],
                          "order2": aux_max[2]},
        "el_identity_gap_max": el_gap_max,
        "slaving": slaving,
    }
    write_json(report, out("verify-lagrangian.json"))
    return report


_COMMANDS = {
    "simulate-lattice": cmd_simulate_lattice,
    "simulate-pde": cmd_simulate_pde,
    "solve-tw": cmd_solve_tw,
    "build-perturbative": cmd_build_perturbative,
    "verify-expansion": cmd_verify_expansion,
    "speed-select": cmd_speed_select,
    "verify-lagrangian": cmd_verify_lagrangian,
}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pendulon",
        description="Double-pendulum chain laboratory: simulation, "
                    "travelling waves, and expansion checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--dry-run", action="store_true")
        if name == "speed-select":
            p.add_argument("--stiff", action="store_true",
                           help="also run the confinement-stiffness sweep")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    out_dir = args.out or os.environ.get("PENDULON_OUT") or "."
    outputs = []

    def out(name):
        outputs.append(name)
        return os.path.join(out_dir, name)

    try:
        if not args.dry_run:
            os.makedirs(out_dir, exist_ok=True)
        cp = config.load_config(args.config)
        results = handler(cp, args, None if args.dry_run else out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print("config ok")
        return 0
    summary = {
        "command": args.command,
        "config": {s: dict(cp.items(s)) for s in cp.sections()},
        "results": results,
        "outputs": outputs,
    }
    write_json(summary, os.path.join(out_dir, "summary.json"))
    for name in outputs + ["summary.json"]:
        print(f"wrote {os.path.join(out_dir, name)}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
