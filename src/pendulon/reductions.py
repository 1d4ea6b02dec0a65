"""Frozen-inner-angle limit of the travelling-wave system.

With phi held at 0 and no torsional coupling the two profile equations both
collapse onto pendulum equations for theta alone; they are compatible only at
one speed, which is therefore selected. The stiff-confinement experiment
shows the full system approaching that frozen limit as h''(0) grows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _stencils, travelwave
from ._io import write_csv
from ._stencils import TWSolveError
from .params import ChainParams, _field_equations
from .travelwave import TWProfile


@dataclass(frozen=True)
class SpeedSelection:
    """Selected speed (positive member of the +- pair) and the value of
    mu = K_s - m v^2 it induces."""

    mu_star: float
    v_star: float


def compatibility_mu(params: ChainParams) -> float:
    """Value of mu forced by requiring both frozen-phi equations to determine
    the same theta'': mu = -K_s R / r."""
    if params.r <= 0:
        raise ValueError("r = 0 leaves the second equation trivially satisfied")
    return -params.Ks * params.R / params.r


def selected_speed(params: ChainParams) -> SpeedSelection:
    """v* = sqrt(K_s (r + R) / (m r)), the unique speed at which the frozen
    system is consistent; supersonic with respect to sqrt(K_s/m)."""
    if params.r <= 0 or params.m <= 0:
        raise ValueError("speed selection needs r > 0 and m > 0")
    v_star = float(np.sqrt(params.Ks * (params.r + params.R)
                           / (params.m * params.r)))
    mu_star = compatibility_mu(params)
    consistency = travelwave.tw_coefficients(v_star, params)[1]
    if abs(mu_star - consistency) > 1e-12 * (abs(mu_star) + 1.0):
        raise RuntimeError("mu*/v* consistency lost to rounding")
    return SpeedSelection(mu_star=mu_star, v_star=v_star)


def reduced_equations_residual(theta, z, params: ChainParams, v: float):
    """Both frozen-phi equation residuals for a sampled theta(z): the
    travelling-wave field equations at phi = 0.

    Requires the regime in which the reduction is derived: no torsional
    coupling and a confining potential with no force at phi = 0. Second
    derivatives are taken by 4th-order finite differences.
    """
    if params.Kt != 0:
        raise ValueError("reduction assumes kappa_t = 0")
    if abs(params.h_spec.dh(0.0)) > 1e-12:
        raise ValueError("reduction assumes h'(0) = 0")
    theta = np.asarray(theta, dtype=float)
    theta_zz = _stencils.derivative(theta, _stencils.uniform_spacing(z), 2)
    return _field_equations(theta, 0.0, 0.0, 0.0, theta_zz, 0.0,
                            params.wave_constants(v))


def reduced_proportionality_gap(theta, z, params: ChainParams, v: float):
    """How far the two frozen-phi equations are from imposing the same ODE.

    Rescales the second equation so the curvature coefficients match and
    returns the remaining pointwise gap normalized by the pendant-force
    scale. The curvature terms cancel up to rounding, so the gap is the
    coefficient mismatch: about 1e-16 at the selected speed, order one off it.
    """
    res1, res2 = reduced_equations_residual(theta, z, params, v)
    if params.r <= 0:
        raise ValueError("r = 0 leaves the second equation trivially satisfied")
    if travelwave._on_sonic_line(v, params):
        raise ValueError("second equation loses its curvature term (mu = 0)")
    # the curvature coefficients: the field equations at unit theta'' alone
    c1, c2 = _field_equations(0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                              params.wave_constants(v))
    scale = params.g * (params.m * params.r + (params.M + params.m) * params.R)
    return float(np.max(np.abs(res1 - (c1 / c2) * res2)) / scale)


def selected_kink_width(params: ChainParams) -> float:
    """Inverse width of the kink the frozen system supports at v*."""
    if params.R <= 0:
        raise ValueError("selected kink needs R > 0")
    return float(np.sqrt(params.g * params.m * params.r
                         / (params.Ks * params.R * (params.r + params.R))))


def selected_speed_kink(params: ChainParams, z) -> TWProfile:
    """The travelling kink at the selected speed.

    At v* the frozen equations read theta'' = -kappa^2 sin(theta) (mu* < 0
    flips the usual sign), whose heteroclinic orbit connects -pi to pi; the
    profile is the pi-shifted kink. With h'(0) = 0 it solves the FULL
    travelling-wave system, phi identically zero included.
    """
    sel = selected_speed(params)
    kappa = selected_kink_width(params)
    return travelwave.kink_profile(np.asarray(z, dtype=float), kappa,
                                   sel.v_star, pi_shift=True)


@dataclass(frozen=True)
class StiffCell:
    h2: float
    v: float
    converged: bool
    max_abs_phi: float
    residual: float

    @property
    def max_constraint_torque(self) -> float:
        """Peak linearized confining torque h''(0) * max|phi|; vanishes with
        the selected speed, stays O(1) off it."""
        return self.h2 * self.max_abs_phi


@dataclass(frozen=True)
class StiffReport:
    v_star: float
    cells: tuple


def stiff_limit_experiment(params: ChainParams,
                           ladder: Optional[Sequence[float]] = None,
                           v_probe: Optional[Sequence[float]] = None,
                           n_points: int = 2001) -> StiffReport:
    """Solve the full travelling-wave problem along a rising ladder of
    confinement stiffnesses h''(0), at each probe speed, and record how far
    the inner angle is pushed from zero. The grid is n_points nodes on
    |z| <= 20 / kappa, kappa the selected kink width.

    Individual solve failures are recorded as non-converged cells, not raised;
    a converged cell's residual is travelwave.residual_linf of both equations,
    a failed one's the solver's last residual.
    Cells are ordered ladder-major, probe-speed-minor, deterministically.
    """
    sel = selected_speed(params)
    if ladder is None:
        base = (params.M + params.m) * params.g
        ladder = [10.0 * base, 100.0 * base, 1000.0 * base, 10000.0 * base]
    ladder = [float(h) for h in ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("stiffness ladder must be strictly increasing")
    v_probe = [float(v) for v in ([sel.v_star] if v_probe is None else v_probe)]
    if not np.all(np.isfinite(v_probe)):
        raise ValueError(f"v_probe must be finite, got {v_probe}")
    kappa = selected_kink_width(params)
    z = np.linspace(-20.0 / kappa, 20.0 / kappa, n_points)

    cells = []
    for h2 in ladder:
        stiff = replace(params, h_spec=replace(params.h_spec, c2=h2))
        for v in v_probe:
            guess = travelwave.kink_profile(z, kappa, v, pi_shift=True)
            try:
                prof = travelwave.solve_tw_bvp(guess, stiff)
            except TWSolveError as exc:
                bad = exc.residual if exc.residual is not None else float("nan")
                cells.append(StiffCell(h2, v, False, float("nan"), float(bad)))
                continue
            r1, r2 = travelwave.tw_residual(prof, stiff)
            res = max(travelwave.residual_linf(r1),
                      travelwave.residual_linf(r2))
            cells.append(StiffCell(h2, v, True,
                                   float(np.max(np.abs(prof.phi))), res))
    return StiffReport(v_star=sel.v_star, cells=tuple(cells))


def export_stiff_csv(report: StiffReport, path) -> None:
    write_csv(path, "stiff-limit v2", "h2,v,converged,max_abs_phi,residual",
              ((float(c.h2), float(c.v), int(c.converged),
                float(c.max_abs_phi), float(c.residual))
               for c in report.cells))
