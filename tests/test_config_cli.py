"""Configuration loading and the command-line harness: strict key checking,
exit codes, artifact schemas, and byte-identical reruns."""
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from pendulon import (_stencils, cli, continuum, lagrangian_orders,
                      perturbation, travelwave)
from pendulon.config import (ConfigError, chain_from_config,
                             expansion_from_config, load_config, parse_bool,
                             parse_eps_list, parse_floats, parse_int_at_least,
                             parse_ladder, parse_order, parse_positive_float,
                             parse_positive_int, read_section)
from pendulon.params import ChainParams, ConfiningPotential, ExpansionParams

CHAIN_INI = """\
[chain]
M = 1.0
m = 0.05
R = 0.96
r = 0.04
kappa_t = 0.015
kappa_s = 0.985
g = 1.0
delta = 1.0

[confinement]
family = quadratic
c2 = 2.0
"""

EXPANSION_INI = """\
[expansion]
A = 1.0
Mhat = 1.0
Khat = 1.0
g = 1.0
eps = 0.05
r1 = 0.4
r2 = 0.1
m1 = 0.5
m2 = 0.2
k1 = 0.3
k2 = 0.1
v0 = 0.3
v1 = 0.1

[confinement]
family = quadratic
c2 = 2.0
"""

SPEED_INI = """\
[chain]
M = 3.0
m = 1.0
R = 3.0
r = 1.0
kappa_t = 0.0
kappa_s = 1.0
g = 1.0
delta = 1.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config ---

def test_parse_helpers():
    assert parse_bool("Yes") is True
    assert parse_bool("0") is False
    with pytest.raises(ValueError):
        parse_bool("maybe")
    assert parse_floats("1, 2.5,3") == [1.0, 2.5, 3.0]
    for bad in (" , ", "nan", "0.3, inf", "-inf"):
        with pytest.raises(ValueError):
            parse_floats(bad)
    assert parse_ladder("40, 400") == [40.0, 400.0]
    for bad in ("-1, 2", "0, 1", "2, 1", "1, 1", "1, inf", "nan", " , "):
        with pytest.raises(ValueError):
            parse_ladder(bad)
    assert parse_positive_int(" 3") == 3
    assert parse_positive_float("2.5e-3") == 2.5e-3
    for bad in ("0", "-2", "1.5", "x"):
        with pytest.raises(ValueError):
            parse_positive_int(bad)
    for bad in ("0", "-1e-9", "nan", "inf", "x"):
        with pytest.raises(ValueError):
            parse_positive_float(bad)
    assert parse_int_at_least(4)("4") == 4
    for bad in ("3", "4.0", "x"):
        with pytest.raises(ValueError):
            parse_int_at_least(4)(bad)
    assert [parse_order(raw) for raw in ("0", "1", " 2")] == [0, 1, 2]
    for bad in ("-1", "3", "1.0", "x"):
        with pytest.raises(ValueError):
            parse_order(bad)
    assert parse_eps_list("0.1, 0.02,") == [0.1, 0.02]
    for bad in ("0.1", " , ", "0.0, 0.1", "-0.1, 0.1", "0.1, nan", "0.1, x",
                "0.05, 0.05"):
        with pytest.raises(ValueError):
            parse_eps_list(bad)


# a valid instance of each parameter class, the base of the non-finite probes
_VALID_PARAMS = {
    ChainParams: dict(M=1.3, m=0.6, R=1.1, r=0.5, kappa_t=0.7, kappa_s=1.9,
                      g=0.9, delta=0.8),
    ExpansionParams: dict(A=1.0, Mhat=1.0, Khat=1.0, g=1.0),
    ConfiningPotential: {},
}


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in _VALID_PARAMS for f in dataclasses.fields(cls)
    if f.type == "float"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_numbers(cls, name, bad):
    cls(**_VALID_PARAMS[cls])
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{**_VALID_PARAMS[cls], name: bad})


def test_unknown_key_names_section_and_key(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini",
                            CHAIN_INI + "\n[chain2]\nM = 1\n"))
    with pytest.raises(ConfigError, match=r"\[chain2\] unknown key 'M'"):
        read_section(cp, "chain2", {"x": float})


def test_missing_required_key(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini", "[chain]\nM = 1.0\n"))
    with pytest.raises(ConfigError, match="required"):
        chain_from_config(cp)


def test_sections_take_the_params_fields(tmp_path):
    """[expansion] and [confinement] take every float and str field of
    ExpansionParams and ConfiningPotential; a missing key is one without a
    default, named in field order."""
    names = ("A", "Mhat", "Khat", "g", "eps", "r1", "r2", "m1", "m2", "k1",
             "k2", "v0", "v1", "v2")
    cp = load_config(_write(
        tmp_path, "a.ini",
        "[expansion]\n" + "".join(f"{k} = 0.5\n" for k in names)
        + "\n[confinement]\nfamily = tangent-barrier\nphi0 = 1.2\n"
        "c2 = 1.5\nb = 0.3\n"))
    assert expansion_from_config(cp) == ExpansionParams(
        **dict.fromkeys(names, 0.5), h_spec=ConfiningPotential(
            family="tangent-barrier", phi0=1.2, c2=1.5, b=0.3))
    cp = load_config(_write(tmp_path, "b.ini",
                            "[chain]\nm = 1.0\n\n[expansion]\nMhat = 1.0\n"))
    with pytest.raises(ConfigError) as exc:
        chain_from_config(cp)
    assert str(exc.value) == ("[chain] missing required key(s): 'M', 'R', "
                              "'r', 'kappa_t', 'kappa_s', 'g', 'delta'")
    with pytest.raises(ConfigError) as exc:
        expansion_from_config(cp)
    assert str(exc.value) == ("[expansion] missing required key(s): 'A', "
                              "'Khat', 'g'")


def test_bad_value_diagnostic(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini",
                            CHAIN_INI.replace("g = 1.0", "g = one")))
    with pytest.raises(ConfigError, match=r"\[chain\] bad value for 'g'"):
        chain_from_config(cp)


def test_case_sensitive_keys(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini", CHAIN_INI))
    p = chain_from_config(cp)
    assert p.M == 1.0 and p.m == 0.05  # distinct constants survive parsing
    assert p.h_spec.c2 == 2.0


def test_physical_validation_becomes_config_error(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini",
                            CHAIN_INI.replace("M = 1.0", "M = -1.0")))
    with pytest.raises(ConfigError):
        chain_from_config(cp)


def test_inline_comments_stripped(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini",
                            CHAIN_INI.replace("g = 1.0", "g = 1.0  # gravity")))
    assert chain_from_config(cp).g == 1.0


def test_expansion_from_config(tmp_path):
    cp = load_config(_write(tmp_path, "a.ini", EXPANSION_INI))
    p = expansion_from_config(cp)
    assert p.eps == 0.05 and p.r1 == 0.4 and p.h_spec.c2 == 2.0


# ------------------------------------------------------------------- cli ---

def test_speed_select_stdout_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, "speed.ini", SPEED_INI)
    rc = cli.main(["speed-select", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "v_star = ±2.0" in out
    assert "mu_star = -3.0" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["command"] == "speed-select"
    assert summary["results"]["v_star"] == 2.0
    assert summary["config"]["chain"]["M"] == "3.0"


def test_speed_select_stiff_flag(tmp_path):
    cfg = _write(tmp_path, "speed.ini",
                 SPEED_INI + "\n[stiff]\nladder = 40, 400\nn_points = 1001\n")
    rc = cli.main(["speed-select", "--config", cfg, "--out", str(tmp_path),
                   "--stiff"])
    assert rc == 0
    lines = (tmp_path / "stiff-limit.csv").read_text().splitlines()
    assert lines[0] == "# schema: stiff-limit v2"
    assert len(lines) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["results"]["stiff_cells"]) == 2
    assert summary["outputs"] == ["stiff-limit.csv"]


TW_PROFILE_FIELDS = ("z", "theta", "phi", "theta_z", "phi_z", "res1", "res2",
                     "E_tw")


@pytest.mark.parametrize("k", [1.05, -1.05])
def test_solve_tw_command(tmp_path, k):
    """A negative k (an antikink) keeps the default grid increasing."""
    cfg = _write(tmp_path, "tw.ini",
                 CHAIN_INI + f"\n[tw]\nv = 0.305\nk = {k}\n"
                 "\n[domain]\nn_points = 1201\n")
    rc = cli.main(["solve-tw", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    record = np.load(tmp_path / "tw-profile.npy", allow_pickle=False)
    assert record.dtype == np.dtype([(name, "<f8", (1201,))
                                     for name in TW_PROFILE_FIELDS])
    z = np.linspace(-20.0 / abs(k), 20.0 / abs(k), 1201)
    assert np.array_equal(record["z"].view(np.uint64), z.view(np.uint64))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["results"]["first_integral_rel_variance"] < 1e-8
    assert summary["outputs"] == ["tw-profile.npy"]


def test_solve_tw_summary_residuals_are_below_the_solver_tol(tmp_path):
    """residual_eq1_linf and residual_eq2_linf are travelwave.residual_linf,
    the max over nodes 1..n-2 that Newton solves, so a converged solve reads
    below its tol of 1e-10. On this grid the max over every node read
    9.61e-10 for equation 2, at an end node."""
    cfg = _write(tmp_path, "tw.ini",
                 CHAIN_INI + "\n[tw]\nv = 0.305\nk = 1.05\n"
                 "\n[domain]\nn_points = 4001\n")
    assert cli.main(["solve-tw", "--config", cfg, "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert results["residual_eq1_linf"] < 1e-10
    assert results["residual_eq2_linf"] < 1e-10


def test_solve_tw_numerical_failure_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "tw.ini",
                 CHAIN_INI + "\n[tw]\nv = 40.0\nk = 1.05\n"
                 "\n[domain]\nn_points = 301\n")
    rc = cli.main(["solve-tw", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_solve_tw_at_the_sonic_speed_is_exit_2(tmp_path, capsys):
    """v = sqrt(K_s / m) leaves mu = K_s - m v^2 at rounding level, where the
    inner profile equation has no phi'' term: the solver must refuse it."""
    cfg = _write(tmp_path, "tw.ini",
                 CHAIN_INI + f"\n[tw]\nv = {math.sqrt(0.985 / 0.05)!r}\n"
                 "k = 1.0\n\n[domain]\nhalf_width = 10\nn_points = 301\n")
    rc = cli.main(["solve-tw", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "mu = 0" in capsys.readouterr().err


def test_unknown_key_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", CHAIN_INI + "\nbogus = 1\n")
    rc = cli.main(["simulate-lattice", "--config", cfg,
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_file_is_exit_1(tmp_path, capsys):
    rc = cli.main(["solve-tw", "--config", str(tmp_path / "nope.ini")])
    assert rc == 1
    capsys.readouterr()


def test_dry_run_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, "speed.ini", SPEED_INI)
    out = tmp_path / "fresh"
    rc = cli.main(["speed-select", "--config", cfg, "--out", str(out),
                   "--dry-run"])
    assert rc == 0
    assert "config ok" in capsys.readouterr().out
    assert not out.exists()


def test_parser_is_built_once_and_survives_a_bad_argv(tmp_path, capsys):
    """main reuses one parser per process; an argv it rejects (exit 2)
    leaves nothing behind for the next call."""
    assert cli._build_parser() is cli._build_parser()
    cfg = _write(tmp_path, "speed.ini", SPEED_INI)
    with pytest.raises(SystemExit) as info:
        cli.main(["speed-select", "--config", cfg, "--stiff", "--bogus"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main(["speed-select"])
    assert info.value.code == 2
    assert "--config" in capsys.readouterr().err
    out = tmp_path / "run"
    assert cli.main(["speed-select", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("v_star = ±2.0\n")
    summary = json.loads((out / "summary.json").read_text())
    assert "stiff_cells" not in summary["results"]  # --stiff did not stick
    assert summary["outputs"] == []
    assert cli.main(["speed-select", "--config", cfg, "--dry-run"]) == 0
    assert capsys.readouterr().out == "config ok\n"


def test_dry_run_still_validates(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", SPEED_INI + "\n[stiff]\nwhat = 1\n")
    rc = cli.main(["speed-select", "--config", cfg, "--dry-run"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, sections", [
    ("simulate-lattice", "\n[lattice]\nn_sites = 20\nk = 1.0\nv = 0.4\n"),
    ("simulate-pde", "\n[domain]\nx_min = 0\nx_max = 30\nn_points = 101\n"
                     "\n[pde]\nk = 1.0\nv = 0.4\n"),
])
def test_zero_snapshot_every_is_exit_1(tmp_path, capsys, command, sections):
    cfg = _write(tmp_path, "snap.ini",
                 CHAIN_INI + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
                 "snapshot_every = 0\n" + sections)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "snapshot_every" in capsys.readouterr().err


_SIM_SECTIONS = {
    "simulate-lattice": "\n[lattice]\nn_sites = 20\nk = 1.0\nv = 0.4\n",
    "simulate-pde": "\n[domain]\nx_min = 0\nx_max = 30\nn_points = 101\n"
                    "\n[pde]\nk = 1.0\nv = 0.4\n",
}


@pytest.mark.parametrize("command", sorted(_SIM_SECTIONS))
@pytest.mark.parametrize("integration, key", [
    ("dt = 0.002\nt_end = 0.01\nsnapshot_every = 0\n", "snapshot_every"),
    ("dt = 0\nt_end = 0.01\n", "'dt'"),
    ("dt = 0.002\nt_end = -1\n", "t_end"),
])
def test_dry_run_rejects_bad_integration_values(tmp_path, capsys, command,
                                                integration, key):
    cfg = _write(tmp_path, "integ.ini", CHAIN_INI + "\n[integration]\n"
                 + integration + _SIM_SECTIONS[command])
    rc = cli.main([command, "--config", cfg, "--dry-run"])
    captured = capsys.readouterr()
    assert rc == 1
    assert key in captured.err and "config ok" not in captured.out


def test_dry_run_rejects_unstable_pde_time_step(tmp_path, capsys):
    # dx = 0.3 and c_max = 4.44 for this chain: the bound is dt <= 0.0338
    cfg = _write(tmp_path, "cfl.ini", CHAIN_INI
                 + "\n[integration]\ndt = 0.05\nt_end = 1.0\n"
                 + _SIM_SECTIONS["simulate-pde"])
    rc = cli.main(["simulate-pde", "--config", cfg, "--dry-run"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "dt = 0.05 violates the stability bound" in captured.err
    assert "config ok" not in captured.out


@pytest.mark.parametrize("command, text, section, key", [
    ("simulate-lattice", CHAIN_INI + "\n[integration]\ndt = 0.002\n"
     "t_end = 0.01\n\n[lattice]\nn_sites = 0\nk = 1.0\nv = 0.4\n",
     "lattice", "'n_sites'"),
    ("simulate-lattice", CHAIN_INI + "\n[integration]\ndt = 0.002\n"
     "t_end = 0.01\n\n[lattice]\nn_sites = 1\nk = 1.0\nv = 0.4\n",
     "lattice", "'n_sites'"),
    ("simulate-pde", CHAIN_INI + "\n[integration]\ndt = 0.002\n"
     "t_end = 0.01\n\n[domain]\nx_min = 0\nx_max = 1\nn_points = 5\n"
     "\n[pde]\nk = 1.0\nv = 0.4\n", "domain", "'n_points'"),
    ("solve-tw", CHAIN_INI + "\n[tw]\nv = 0.305\nk = 1.05\n"
     "\n[domain]\nn_points = 5\n", "domain", "'n_points'"),
    ("speed-select", SPEED_INI + "\n[stiff]\nn_points = 5\n", "stiff",
     "'n_points'"),
    ("verify-expansion", EXPANSION_INI + "\n[verify]\nn_points = 7\n",
     "verify", "'n_points'"),
    ("build-perturbative", EXPANSION_INI + "\n[grid]\nn_points = 7\n",
     "grid", "'n_points'"),
])
@pytest.mark.parametrize("dry", [True, False])
def test_too_few_sites_or_points_is_exit_1(tmp_path, capsys, command, text,
                                           section, key, dry):
    cfg = _write(tmp_path, "short.ini", text)
    mode = ["--dry-run"] if dry else ["--out", str(tmp_path / "out")]
    extra = ["--stiff"] if command == "speed-select" else []
    rc = cli.main([command, "--config", cfg, *mode, *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"[{section}]" in captured.err and key in captured.err
    assert "config ok" not in captured.out


@pytest.mark.parametrize("command, text, section, key", [
    ("simulate-pde", CHAIN_INI.replace("kappa_t = 0.015", "kappa_t = nan")
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-pde"], "chain", "kappa_t"),
    ("speed-select", SPEED_INI.replace("\ng = 1.0", "\ng = inf"), "chain",
     "g"),
    ("speed-select", SPEED_INI + "\n[confinement]\nphi0 = -inf\n",
     "confinement", "phi0"),
    ("verify-expansion", EXPANSION_INI.replace("\nA = 1.0", "\nA = nan"),
     "expansion", "A"),
    ("speed-select", SPEED_INI + "\n[stiff]\nladder = -1, 2\n", "stiff",
     "'ladder'"),
    ("speed-select", SPEED_INI + "\n[stiff]\nladder = 400, 40\n", "stiff",
     "'ladder'"),
    ("speed-select", SPEED_INI + "\n[stiff]\nv_probe = nan\n", "stiff",
     "'v_probe'"),
    ("simulate-lattice", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-lattice"].replace("k = 1.0", "k = nan"),
     "lattice", "'k'"),
    ("simulate-lattice", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-lattice"] + "center = -inf\n", "lattice",
     "'center'"),
    ("simulate-pde", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-pde"].replace("v = 0.4", "v = inf"), "pde",
     "'v'"),
    ("simulate-pde", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-pde"].replace("x_max = 30", "x_max = nan"),
     "domain", "'x_max'"),
    ("simulate-pde", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-pde"].replace("x_max = 30", "x_max = -30"),
     "domain", "'x_min' = 0.0 must be below 'x_max' = -30.0"),
    ("solve-tw", CHAIN_INI + "\n[tw]\nv = nan\nk = 1.0\n", "tw", "'v'"),
    ("solve-tw", CHAIN_INI + "\n[tw]\nv = 0.3\nk = 1.0\n\n[domain]\n"
     "half_width = -5\n", "domain", "'half_width'"),
    ("build-perturbative", EXPANSION_INI + "\n[compose]\neps = nan\n",
     "compose", "'eps'"),
    # removed key: the kink index (an antikink is k < 0), valid values too
    ("simulate-lattice", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-lattice"] + "index = 1\n", "lattice",
     "'index'"),
    ("simulate-pde", CHAIN_INI
     + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
     + _SIM_SECTIONS["simulate-pde"] + "index = -1\n", "pde", "'index'"),
    ("solve-tw", CHAIN_INI + "\n[tw]\nv = 0.3\nk = 1.0\nindex = 1\n", "tw",
     "'index'"),
    # removed key: the chain is open, so no topology, valid values too
    *[("simulate-lattice",
       CHAIN_INI.replace("delta = 1.0\n", f"delta = 1.0\ntopology = {top}\n")
       + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
       + _SIM_SECTIONS["simulate-lattice"], "chain", "'topology'")
      for top in ("open", "periodic")],
])
def test_dry_run_rejects_non_finite_constants_and_bad_stiff_lists(
        tmp_path, capsys, command, text, section, key):
    cfg = _write(tmp_path, "bad.ini", text)
    extra = ["--stiff"] if command == "speed-select" else []
    rc = cli.main([command, "--config", cfg, "--dry-run", *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"[{section}]" in captured.err and key in captured.err
    assert "config ok" not in captured.out


def test_solve_tw_zero_k_without_half_width_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "tw.ini", CHAIN_INI + "\n[tw]\nv = 0.305\nk = 0\n")
    rc = cli.main(["solve-tw", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "[tw] k" in capsys.readouterr().err


def test_simulate_lattice_and_pde_artifacts(tmp_path):
    body = """\
[chain]
M = 1.0
m = 0.0
R = 1.0
r = 0.0
kappa_t = 0.0
kappa_s = 400.0
g = 1.0
delta = 0.05

[integration]
dt = 0.002
t_end = 0.05
"""
    lat_cfg = _write(tmp_path, "lat.ini",
                     body + "\n[lattice]\nn_sites = 80\nk = 1.0\nv = 0.4\n")
    pde_cfg = _write(tmp_path, "pde.ini",
                     body + "\n[domain]\nx_min = 0\nx_max = 30\n"
                     "n_points = 301\n\n[pde]\nk = 1.0\nv = 0.4\n")
    out1 = tmp_path / "lat"
    out2 = tmp_path / "pde"
    assert cli.main(["simulate-lattice", "--config", lat_cfg,
                     "--out", str(out1)]) == 0
    assert cli.main(["simulate-pde", "--config", pde_cfg,
                     "--out", str(out2)]) == 0
    assert (out1 / "lattice-trajectory.csv").exists()
    assert (out1 / "lattice-energy.csv").exists()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["results"]["charge_initial"] == 1
    assert summary["results"]["charge_final"] == 1
    assert summary["outputs"] == ["lattice-trajectory.csv",
                                  "lattice-energy.csv"]
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["outputs"] == ["pde-fields.npy", "pde-energy.csv"]
    assert summary["results"]["charge_initial"] == 1
    assert summary["results"]["charge_final"] == 1
    assert summary["results"]["max_energy_drift"] < 1e-6


def test_build_perturbative_eps0_matches_kink(tmp_path):
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[grid]\nn_points = 1001\n"
                 "\n[compose]\neps = 0.0\norder = 0\n")
    out = tmp_path / "out"
    assert cli.main(["build-perturbative", "--config", cfg,
                     "--out", str(out)]) == 0
    orders = np.load(out / "perturbative-orders.npy", allow_pickle=False)
    assert orders.dtype == np.dtype(
        [(name, "<f8", (1001,))
         for name in ("z", "theta0", "theta1", "phi1", "phi2")])
    profile = np.load(out / "tw-profile.npy", allow_pickle=False)
    assert profile.dtype == np.dtype([(name, "<f8", (1001,))
                                      for name in TW_PROFILE_FIELDS])
    summary = json.loads((out / "summary.json").read_text())
    # emitted composition at eps = 0 is the bare kink: tiny residual
    assert summary["results"]["residual_eq1_linf"] < 1e-12
    for a, b in (("z", "z"), ("theta", "theta0")):
        assert np.array_equal(profile[a].view(np.uint64),
                              orders[b].view(np.uint64)), a
    assert not profile["phi"].any()
    assert summary["outputs"] == ["perturbative-orders.npy", "tw-profile.npy"]


@pytest.mark.parametrize("A", ["1.0", "1.3"])
def test_build_perturbative_summary_reads_k_and_B(tmp_path, A):
    """The summary's k and B are kink_parameter and coefficient_B of the
    [expansion] constants, exactly."""
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI.replace("A = 1.0", f"A = {A}")
                 + "\n[grid]\nn_points = 201\n")
    out = tmp_path / "out"
    assert cli.main(["build-perturbative", "--config", cfg,
                     "--out", str(out)]) == 0
    exp = expansion_from_config(load_config(cfg))
    assert exp.A == float(A)
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results["k"] == perturbation.kink_parameter(exp)
    assert results["B"] == perturbation.coefficient_B(exp)


@pytest.mark.parametrize("command, section", [
    ("solve-tw", CHAIN_INI + "\n[tw]\nv = 0.305\nk = 1.05\n"
     "\n[domain]\nn_points = 1201\n"),
    ("build-perturbative", EXPANSION_INI + "\n[grid]\nn_points = 1001\n"),
])
def test_tw_summary_agrees_with_its_profile_record(tmp_path, command,
                                                   section):
    """The residual maxima of the summary are travelwave.residual_linf of
    the record's res1 and res2, solve-tw's first-integral keys recompute
    from its E_tw, and a rerun writes the same bytes."""
    cfg = _write(tmp_path, "run.ini", section)
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.iterdir()})
    assert digests[0] == digests[1]
    record = np.load(tmp_path / "a" / "tw-profile.npy", allow_pickle=False)
    results = json.loads((tmp_path / "a" / "summary.json").read_text())[
        "results"]
    assert results["residual_eq1_linf"] == travelwave.residual_linf(
        record["res1"])
    assert results["residual_eq2_linf"] == travelwave.residual_linf(
        record["res2"])
    if command == "solve-tw":
        E = record["E_tw"]
        assert results["first_integral_mean"] == np.mean(E)
        assert results["first_integral_rel_variance"] == (
            np.var(E) / (np.mean(E) ** 2 + 1e-300))


def test_verify_expansion_report_and_jobs_determinism(tmp_path):
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[verify]\nn_points = 2001\n"
                 "eps_list = 0.02, 0.05, 0.1\n")
    out1 = tmp_path / "j1"
    out2 = tmp_path / "j2"
    assert cli.main(["verify-expansion", "--config", cfg, "--out", str(out1),
                     "--jobs", "1"]) == 0
    assert cli.main(["verify-expansion", "--config", cfg, "--out", str(out2),
                     "--jobs", "3"]) == 0
    r1 = (out1 / "verify-expansion.json").read_bytes()
    r2 = (out2 / "verify-expansion.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["slope_res1"] > 1.9
    assert report["phi1_rel_l2"] < 1e-4
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["outputs"] == ["residual-scaling.csv",
                                  "verify-expansion.json"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_expansion_reports_null_for_a_vanishing_order(tmp_path):
    """r1 = r2 = 0: phi1 and phi2 vanish identically and so does the second
    residual. Their relative gaps and that slope are null, not NaN or
    Infinity (which are not JSON), and no numpy warning is raised."""
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI.replace("r1 = 0.4", "r1 = 0.0")
                 .replace("r2 = 0.1", "r2 = 0.0")
                 + "\n[verify]\nn_points = 801\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify-expansion", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    for name in ("verify-expansion.json", "summary.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_no_constant)
    report = json.loads((tmp_path / "verify-expansion.json").read_text())
    assert report["phi1_rel_l2"] is None
    assert report["phi2_rel_l2"] is None
    assert report["slope_res2"] is None
    assert report["slope_res1"] > 1.9
    assert report["theta1_rel_l2"] < 1e-4


def test_verify_expansion_solves_each_eps_sample_once(tmp_path, monkeypatch):
    """One Newton solve and one factor, both the oracle's: build_perturbative
    writes every order in closed form."""
    calls = {"solve_tw_bvp": 0, "splu": 0}
    for module, name in ((travelwave, "solve_tw_bvp"),
                         (perturbation, "splu")):
        real = getattr(module, name)

        def counting(*a, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)
        monkeypatch.setattr(module, name, counting)
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[verify]\nn_points = 801\n")
    assert cli.main(["verify-expansion", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    assert calls == {"solve_tw_bvp": 1, "splu": 1}


def test_verify_expansion_takes_the_kink_once(tmp_path):
    """build_perturbative takes the kink once, and the oracle's theta1 is
    compared with its order 1 directly, with no kink of its own."""
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[verify]\nn_points = 801\n")
    with mock.patch.object(perturbation, "sg_kink",
                           wraps=perturbation.sg_kink) as kink:
        assert cli.main(["verify-expansion", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
    assert kink.call_count == 1


@pytest.mark.parametrize("command, section, line, key", [
    ("verify-expansion", "verify", "n_points = 0", "'n_points'"),
    # removed keys: any value, valid ones too, is an unknown key
    ("verify-expansion", "verify", "h_eps = 0", "'h_eps'"),
    ("verify-expansion", "verify", "h_eps = nan", "'h_eps'"),
    ("verify-expansion", "verify", "h_eps = 0.02", "'h_eps'"),
    ("verify-expansion", "verify", "extract_points = 3", "'extract_points'"),
    ("verify-expansion", "verify", "extract_points = 6", "'extract_points'"),
    ("verify-lagrangian", "lagrangian", "h_eps = 0.05", "'h_eps'"),
    ("verify-lagrangian", "lagrangian", "h_eps = 1e-3", "'h_eps'"),
    ("verify-lagrangian", "lagrangian", "n_samples = 0", "'n_samples'"),
    ("verify-lagrangian", "lagrangian", "seed = -1", "'seed'"),
    # removed keys: the sample grid is 257 nodes on [-8, 8]
    ("verify-lagrangian", "lagrangian", "n_points = -3", "'n_points'"),
    ("verify-lagrangian", "lagrangian", "n_points = 1", "'n_points'"),
    ("verify-lagrangian", "lagrangian", "n_points = 257", "'n_points'"),
    ("verify-lagrangian", "lagrangian", "half_width = 0", "'half_width'"),
    ("verify-lagrangian", "lagrangian", "half_width = -3", "'half_width'"),
    ("verify-lagrangian", "lagrangian", "half_width = nan", "'half_width'"),
    ("verify-lagrangian", "lagrangian", "half_width = 8.0", "'half_width'"),
    ("verify-lagrangian", "lagrangian", "taylor_points = 9",
     "'taylor_points'"),
    ("verify-expansion", "verify", "order = 3", "'order'"),
    ("verify-expansion", "verify", "eps_list = 0.0, 0.1", "'eps_list'"),
    ("verify-expansion", "verify", "eps_list = 0.1", "'eps_list'"),
    ("verify-expansion", "verify", "eps_list = 0.05, 0.05", "'eps_list'"),
    ("verify-expansion", "verify", "half_width_factor = 0",
     "'half_width_factor'"),
    ("build-perturbative", "compose", "order = 3", "'order'"),
    ("build-perturbative", "compose", "eps = -0.01", "'eps'"),
    # valid numbers whose composed chain is not: M = Mhat - m < 0
    ("build-perturbative", "compose", "eps = 5.0", "[compose] 'eps'"),
    ("verify-expansion", "verify", "eps_list = 0.1, 5.0",
     "[verify] 'eps_list'"),
    ("build-perturbative", "grid", "half_width_factor = 0",
     "'half_width_factor'"),
])
def test_dry_run_rejects_bad_oracle_values(tmp_path, capsys, command, section,
                                           line, key):
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + f"\n[{section}]\n{line}\n")
    rc = cli.main([command, "--config", cfg, "--dry-run"])
    captured = capsys.readouterr()
    assert rc == 1
    assert key in captured.err and "config ok" not in captured.out


@pytest.mark.parametrize("patch, name", [
    ("taylor_lagrangian_coefficients", "oracle_rel_max"),
    ("auxiliary_check", "auxiliary_max"),
    ("el_identities", "el_identity_gap_max"),
])
def test_verify_lagrangian_non_finite_is_exit_2(tmp_path, capsys, monkeypatch,
                                                patch, name):
    if patch == "taylor_lagrangian_coefficients":
        real = lagrangian_orders.taylor_lagrangian_coefficients

        def nan_oracle(sample):
            L0, L1, L2 = real(sample)
            return L0, L1 + np.nan, L2
        monkeypatch.setattr(lagrangian_orders, patch, nan_oracle)
    elif patch == "auxiliary_check":
        monkeypatch.setattr(lagrangian_orders, patch,
                            lambda sample, k: float("nan"))
    else:
        real = lagrangian_orders.el_identities

        def nan_gap(sample):
            e10, e21, e20 = real(sample)
            return e10, e21 + np.nan, e20
        monkeypatch.setattr(lagrangian_orders, patch, nan_gap)
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[lagrangian]\nn_samples = 2\n")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = cli.main(["verify-lagrangian", "--config", cfg,
                       "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "non-finite" in err and name in err
    assert not (out / "verify-lagrangian.json").exists()


def test_simulate_pde_computes_each_energy_once(tmp_path, monkeypatch):
    calls = []
    real = continuum.energy_total

    def counting(grid, params):
        calls.append(grid.t)
        return real(grid, params)

    monkeypatch.setattr(continuum, "energy_total", counting)
    cfg = _write(tmp_path, "pde.ini", CHAIN_INI
                 + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
                 "snapshot_every = 1\n" + _SIM_SECTIONS["simulate-pde"])
    assert cli.main(["simulate-pde", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(calls) == summary["results"]["n_snapshots"] == 6


@pytest.mark.parametrize("command", sorted(_SIM_SECTIONS))
def test_simulate_drift_is_energy_drift_of_its_energy_csv(tmp_path, command):
    """Both integrators summarise the snapshots their energy CSV lists: the
    summary's max_energy_drift is _stencils.energy_drift of the E column,
    energy_initial and energy_final are its first and last E, n_snapshots
    its row count, and the charges its first and last N."""
    cfg = _write(tmp_path, "sim.ini", CHAIN_INI
                 + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
                 "snapshot_every = 2\n" + _SIM_SECTIONS[command])
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    results = summary["results"]
    # the energy table is the last artifact of both commands
    lines = (tmp_path / summary["outputs"][-1]).read_text().splitlines()
    assert lines[1] == "t,E,N"
    rows = [row.split(",") for row in lines[2:]]
    E = [float(e) for _, e, _ in rows]
    N = [int(n) if n else None for _, _, n in rows]
    assert len(rows) == results["n_snapshots"] == 4  # steps 0, 2, 4 and 5
    assert results["max_energy_drift"] == _stencils.energy_drift(E)
    assert (results["energy_initial"], results["energy_final"]) == (E[0],
                                                                    E[-1])
    assert (results["charge_initial"], results["charge_final"]) == (N[0],
                                                                    N[-1])
    assert N[0] == 1
    # finite when the series starts at zero energy
    assert _stencils.energy_drift([0.0, 1e-3, -2e-3]) == 2e-3


def test_simulate_pde_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "pde.ini", CHAIN_INI
                 + "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
                 "snapshot_every = 2\n" + _SIM_SECTIONS["simulate-pde"])
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["simulate-pde", "--config", cfg,
                         "--out", str(out)]) == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.iterdir()})
    assert sorted(digests[0]) == ["pde-energy.csv", "pde-fields.npy",
                                  "summary.json"]
    assert digests[0] == digests[1]
    fields = np.load(tmp_path / "a" / "pde-fields.npy", allow_pickle=False)
    assert fields["Theta"].shape == (4, 101)


def test_verify_lagrangian_reproducible(tmp_path):
    cfg = _write(tmp_path, "exp.ini",
                 EXPANSION_INI + "\n[lagrangian]\nn_samples = 5\nseed = 9\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["verify-lagrangian", "--config", cfg,
                         "--out", str(out)]) == 0
        outs.append((out / "verify-lagrangian.json").read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["seed"] == 9
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["outputs"] == ["verify-lagrangian.json"]
    assert report["oracle_rel_max"]["L2"] < 1e-6
    assert report["el_identity_gap_max"] < 1e-14


def test_pendulon_out_env(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "speed.ini", SPEED_INI)
    target = tmp_path / "envdir"
    monkeypatch.setenv("PENDULON_OUT", str(target))
    assert cli.main(["speed-select", "--config", cfg]) == 0
    capsys.readouterr()
    assert (target / "summary.json").exists()


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, "speed.ini", SPEED_INI)
    proc = subprocess.run(
        [sys.executable, "-m", "pendulon.cli", "speed-select",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "v_star" in proc.stdout


# --------------------------------------------------------------- startup ---

_STARTUP_PROBE = """\
import json, sys
from pendulon import cli
print(json.dumps([[cli.main(argv), "scipy" in sys.modules]
                  for argv in json.loads(sys.argv[1])]))
"""


def test_commands_load_scipy_only_when_they_need_it(tmp_path):
    """simulate-lattice and every dry run, simulate-pde's CFL check
    included, run without scipy."""
    integration = "\n[integration]\ndt = 0.002\nt_end = 0.01\n"
    lattice = CHAIN_INI + _SIM_SECTIONS["simulate-lattice"] + integration
    configs = {
        "simulate-lattice": lattice,
        "simulate-pde": CHAIN_INI + _SIM_SECTIONS["simulate-pde"] + integration,
        "solve-tw": CHAIN_INI + "\n[tw]\nv = 0.305\nk = 1.05\n",
        "build-perturbative": EXPANSION_INI,
        "verify-expansion": EXPANSION_INI,
        "speed-select": SPEED_INI,
        "verify-lagrangian": EXPANSION_INI,
    }
    argvs = [[command, "--config", _write(tmp_path, f"{command}.ini", text),
              "--dry-run", *(["--stiff"] if command == "speed-select" else [])]
             for command, text in configs.items()]
    argvs.append(["simulate-lattice", "--config", argvs[0][2],
                  "--out", str(tmp_path / "out")])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False]] * len(argvs)
    assert (tmp_path / "out" / "lattice-trajectory.csv").exists()
