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
from ._io import write_csv, write_json
from ._stencils import (MIN_EXPANSION_NODES, MIN_NODES, IntegrationError,
                        TWSolveError)
from .config import ConfigError


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# commands: each does all config parsing first, bails before compute on dry run
# ---------------------------------------------------------------------------

_INTEGRATION_SCHEMA = {"dt": config.parse_positive_float,
                       "t_end": config.parse_positive_float,
                       "snapshot_every": config.parse_positive_int}

_KINK_SCHEMA = {"k": config.parse_finite_float, "v": config.parse_finite_float,
                "center": config.parse_finite_float, "index": int}

# the grid of the eps expansion: [grid] of build-perturbative, and [verify]
_EXPANSION_GRID_SCHEMA = {
    "n_points": config.parse_int_at_least(MIN_EXPANSION_NODES),
    "half_width_factor": config.parse_positive_float}


def cmd_simulate_lattice(cp, args, out_dir, dry):
    params = config.chain_from_config(cp)
    lat = config.read_section(
        cp, "lattice", {"n_sites": config.parse_int_at_least(2),
                        **_KINK_SCHEMA},
        required=("n_sites", "k", "v"))
    integ = config.read_section(cp, "integration", _INTEGRATION_SCHEMA,
                                required=("dt", "t_end"))
    if dry:
        return None, None
    from . import lattice
    state = lattice.moving_kink_state(params, lat["k"], lat["v"],
                                      lat["n_sites"], center=lat.get("center"),
                                      index=lat.get("index", 1))
    report = lattice.simulate(state, integ["t_end"], integ["dt"], params,
                              snapshot_every=integ.get("snapshot_every", 1))
    outputs = ["lattice-trajectory.csv", "lattice-energy.csv"]
    lattice.export_trajectory_csv(report, os.path.join(out_dir, outputs[0]))
    lattice.export_energy_csv(report, os.path.join(out_dir, outputs[1]))
    return lattice.summary_dict(report), outputs


def cmd_simulate_pde(cp, args, out_dir, dry):
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
    x = np.linspace(dom["x_min"], dom["x_max"], dom["n_points"])
    continuum.check_time_step(integ["dt"], _stencils.uniform_spacing(x),
                              params)
    if dry:
        return None, None
    grid = continuum.kink_field_grid(params, pde["k"], pde["v"], x,
                                     center=pde.get("center"),
                                     index=pde.get("index", 1))
    snaps = continuum.evolve(grid, integ["t_end"], integ["dt"], params,
                             snapshot_every=integ.get("snapshot_every"))
    outputs = ["pde-fields.npy", "pde-energy.csv"]
    continuum.export_fields(snaps, os.path.join(out_dir, outputs[0]))
    energies = continuum.export_energy_csv(snaps, params,
                                           os.path.join(out_dir, outputs[1]))
    results = _stencils.run_summary(snaps[0].Theta, snaps[-1].Theta,
                                    snaps[-1].t, len(snaps),
                                    _stencils.energy_drift(energies))
    results.update(energy_initial=energies[0], energy_final=energies[-1])
    return results, outputs


def cmd_solve_tw(cp, args, out_dir, dry):
    params = config.chain_from_config(cp)
    sec = config.read_section(
        cp, "tw",
        {"v": config.parse_finite_float, "k": config.parse_finite_float,
         "pi_shift": config.parse_bool, "index": int},
        required=("v", "k"))
    dom = config.read_section(
        cp, "domain", {"half_width": config.parse_positive_float,
                       "n_points": config.parse_int_at_least(MIN_NODES)})
    k = sec["k"]
    if k == 0 and "half_width" not in dom:
        raise ValueError("[tw] k = 0 needs an explicit [domain] half_width")
    if dry:
        return None, None
    from . import travelwave
    half = dom["half_width"] if "half_width" in dom else 20.0 / abs(k)
    z = np.linspace(-half, half, dom.get("n_points", 2001))
    guess = travelwave.kink_profile(z, k, sec["v"],
                                    pi_shift=sec.get("pi_shift", False),
                                    with_curvature=False,
                                    index=sec.get("index", 1))
    prof = travelwave.solve_tw_bvp(guess, params)
    outputs = ["tw-profile.csv"]
    res1, res2, first = travelwave.export_profile_csv(
        prof, params, os.path.join(out_dir, outputs[0]))
    results = {
        "v": prof.v,
        "mu": travelwave.tw_coefficients(prof.v, params)[1],
        "residual_eq1_linf": np.max(np.abs(res1)),
        "residual_eq2_linf": np.max(np.abs(res2)),
        "first_integral_mean": np.mean(first),
        "first_integral_rel_variance": np.var(first) / (np.mean(first) ** 2 + 1e-300),
    }
    return results, outputs


def cmd_build_perturbative(cp, args, out_dir, dry):
    exp = config.expansion_from_config(cp)
    grid = config.read_section(cp, "grid", _EXPANSION_GRID_SCHEMA)
    comp = config.read_section(cp, "compose",
                               {"eps": config.parse_finite_float,
                                "order": config.parse_order})
    if dry:
        return None, None
    from . import perturbation, travelwave
    z = perturbation.kink_grid(exp, n=grid.get("n_points", 4001),
                               half_width=grid.get("half_width_factor", 25.0))
    sol = perturbation.build_perturbative(exp, z)
    eps = comp.get("eps", exp.eps)
    order = comp.get("order", 2)
    prof = perturbation.compose_series(sol, eps, order)
    chain = exp.to_chain_params(eps=eps)
    outputs = ["perturbative-orders.csv", "tw-profile.csv"]
    write_csv(os.path.join(out_dir, outputs[0]), "perturbative-orders v1",
              "z,theta0,theta1,phi1,phi2",
              zip(sol.z.tolist(), sol.theta0.tolist(), sol.theta1.tolist(),
                  sol.phi1.tolist(), sol.phi2.tolist()))
    res1, res2, _ = travelwave.export_profile_csv(
        prof, chain, os.path.join(out_dir, outputs[1]))
    results = {
        "k": sol.k,
        "B": sol.B,
        "eps": eps,
        "order": order,
        "v": exp.speed(eps),
        "residual_eq1_linf": np.max(np.abs(res1)),
        "residual_eq2_linf": np.max(np.abs(res2)),
    }
    return results, outputs


def cmd_verify_expansion(cp, args, out_dir, dry):
    exp = config.expansion_from_config(cp)
    ver = config.read_section(
        cp, "verify",
        {"eps_list": config.parse_eps_list, "order": config.parse_order,
         "h_eps": config.parse_positive_float,
         "extract_points": config.parse_int_at_least(4),
         **_EXPANSION_GRID_SCHEMA})
    if dry:
        return None, None
    from . import perturbation
    z = perturbation.kink_grid(exp, n=ver.get("n_points", 4001),
                               half_width=ver.get("half_width_factor", 25.0))
    eps_list = ver.get("eps_list", [0.01, 0.02, 0.05, 0.1])
    order = ver.get("order", 1)
    sol = perturbation.build_perturbative(exp, z)
    study = perturbation.residual_scaling(sol, eps_list, order)
    outputs = ["residual-scaling.csv", "verify-expansion.json"]
    perturbation.export_scaling_csv(study, os.path.join(out_dir, outputs[0]))

    h_eps = ver.get("h_eps", 0.02)
    n_ext = ver.get("extract_points", 6)
    ext = perturbation.taylor_extract(exp, z, h_eps=h_eps, n_points=n_ext)
    theta1_ext = perturbation.project_zero_mode(ext.theta1, z, exp)
    report = {
        "order": order,
        "eps_list": list(eps_list),
        "slope_res1": study.slope1,
        "slope_res2": study.slope2,
        "h_eps": h_eps,
        "extract_points": n_ext,
        "theta1_rel_l2": _rel_l2(theta1_ext, sol.theta1),
        "phi1_rel_l2": _rel_l2(ext.phi1, sol.phi1),
        "phi2_rel_l2": _rel_l2(ext.phi2, sol.phi2),
    }
    write_json(report, os.path.join(out_dir, outputs[1]))
    return report, outputs


def cmd_speed_select(cp, args, out_dir, dry):
    params = config.chain_from_config(cp)
    stiff_sec = config.read_section(
        cp, "stiff", {"ladder": config.parse_ladder,
                      "v_probe": config.parse_floats,
                      "n_points": config.parse_int_at_least(MIN_NODES)})
    if dry:
        return None, None
    from . import reductions
    sel = reductions.selected_speed(params)
    print(f"v_star = ±{sel.v_star!r}")
    print(f"mu_star = {sel.mu_star!r}")
    results = {"v_star": sel.v_star, "mu_star": sel.mu_star}
    if params.R > 0:
        results["kink_width_parameter"] = reductions.selected_kink_width(params)
    outputs = []
    if args.stiff:
        report = reductions.stiff_limit_experiment(
            params,
            stiffness_ladder=stiff_sec.get("ladder"),
            v_probe=stiff_sec.get("v_probe"),
            n_points=stiff_sec.get("n_points", 2001))
        outputs.append("stiff-limit.csv")
        reductions.export_stiff_csv(report, os.path.join(out_dir, outputs[0]))
        results["stiff_cells"] = [dataclasses.asdict(c) for c in report.cells]
    return results, outputs


def cmd_verify_lagrangian(cp, args, out_dir, dry):
    exp = config.expansion_from_config(cp)
    lag = config.read_section(
        cp, "lagrangian",
        {"n_samples": config.parse_positive_int, "seed": int,
         "n_points": config.parse_int_at_least(2),
         "half_width": config.parse_positive_float})
    if dry:
        return None, None
    from . import lagrangian_orders as lagexp
    from . import perturbation
    n_samples = lag.get("n_samples", 100)
    seed = lag.get("seed", 0)
    z = np.linspace(-lag.get("half_width", 8.0), lag.get("half_width", 8.0),
                    lag.get("n_points", 257))
    oracle_max, aux_max, el_gap_max = lagexp.sample_maxima(
        exp, z, range(seed, seed + n_samples))
    for name, val in (("oracle_rel_max", oracle_max),
                      ("auxiliary_max", aux_max),
                      ("el_identity_gap_max", el_gap_max)):
        if not np.all(np.isfinite(val)):
            raise RuntimeError(f"non-finite {name}: {np.ravel(val).tolist()}")

    slaving = lagexp.slaving_consistency(
        exp, perturbation.kink_grid(exp, n=2001, half_width=25.0))
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
    outputs = ["verify-lagrangian.json"]
    write_json(report, os.path.join(out_dir, outputs[0]))
    return report, outputs


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
    try:
        if not args.dry_run:
            os.makedirs(out_dir, exist_ok=True)
        cp = config.load_config(args.config)
        results, outputs = handler(cp, args, out_dir, args.dry_run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (TWSolveError, IntegrationError, RuntimeError,
            ArithmeticError) as exc:
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
