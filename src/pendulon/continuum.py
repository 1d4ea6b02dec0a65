"""Continuum limit: the two coupled field equations as a method-of-lines IVP.

Fields Theta(x, t), Phi(x, t) obey M(Phi) (Theta_tt, Phi_tt) = (S1, S2), with
the 2x2 kinetic matrix M of the discrete chain (chain.mass_matrix) and the
sources stated in params._field_equations at ChainParams.wave_constants(0.0),
whose coefficients are K_t = kappa_t delta^2 and K_s = kappa_s delta^2; the
energy density shares the chain's kinetic and
gravity energies and the params kernels.
Spatial derivatives are 4th-order finite differences; evolve() clamps the two
boundary nodes (Dirichlet far-field values).

Each FieldGrid owns its stencil operators, built once per grid and shared by
the grids _with_fields derives (RK4 stages, snapshots). One RK4 stage is one
pass: one stacked-operator product gives all four derivatives, the phi-only
factors are taken once, and evolve steps one (4, n) state array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stencils, chain
from ._io import write_npy_record
from ._stencils import IntegrationError
from ._stencils import derivative  # noqa: F401 (re-exported)
from .chain import _mass_solve
from .params import (ChainParams, _field_equations, _moving_kink,
                     _phi_factors, _quadratic)


class PDEInstabilityError(IntegrationError):
    """Raised when the fields blow up or stop being finite."""


@dataclass(frozen=True)
class FieldGrid:
    """Fields Theta, Phi and their time derivatives on a uniform grid x.

    Construction checks x and builds the grid's stencil operators
    _D = (D1, D2) = (d/dx, d^2/dx^2) and their stacked form _DD once. They
    are private attributes, not dataclass fields, so == and repr ignore
    them; _with_fields hands the same matrices to every grid it derives.
    """

    x: np.ndarray
    Theta: np.ndarray
    Phi: np.ndarray
    Theta_t: np.ndarray
    Phi_t: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float)
                  for a in (self.x, self.Theta, self.Phi, self.Theta_t, self.Phi_t)]
        n = arrays[0].shape[0]
        if n < _stencils.MIN_NODES:
            raise ValueError("grid too short")
        if any(a.shape != (n,) for a in arrays):
            raise ValueError("field arrays must match the grid length")
        dx = _stencils.uniform_spacing(arrays[0])
        D = tuple(_stencils.derivative_matrix(n, dx, d) for d in (1, 2))
        self.__dict__.update(  # frozen: bypass __setattr__
            zip(("x", "Theta", "Phi", "Theta_t", "Phi_t"), arrays),
            _D=D, _DD=_stencils.stacked_operator(*D))

    def _with_fields(self, Theta, Phi, Theta_t, Phi_t, t):
        """This grid with new fields; skips the checks of x and shares its
        operators (RK4 stages, snapshots)."""
        new = object.__new__(FieldGrid)
        new.__dict__.update(self.__dict__, Theta=Theta, Phi=Phi,
                            Theta_t=Theta_t, Phi_t=Phi_t, t=t)
        return new

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])


def pde_rhs(grid: FieldGrid, params: ChainParams):
    """Pointwise accelerations (Theta_tt, Phi_tt).

    Degenerate m r^2 = 0: Phi carries no inertia; its acceleration is
    reported as zero and Theta follows the single-field equation.
    """
    params.require_dynamic()
    Theta_x, Phi_x, Theta_xx, Phi_xx = (
        grid._DD @ np.concatenate([grid.Theta, grid.Phi])).reshape(4, -1)
    factors = _phi_factors(grid.Phi, params.r, params.R)
    S1, S2 = _field_equations(grid.Theta, grid.Phi, Theta_x, Phi_x, Theta_xx,
                              Phi_xx, params.wave_constants(0.0), factors)
    Theta_t, Phi_t = grid.Theta_t, grid.Phi_t
    centripetal = params.m * params.r * params.R * factors.sin
    return _mass_solve(factors,
                       S1 + centripetal * Phi_t * (Phi_t + 2 * Theta_t),
                       S2 - centripetal * Theta_t**2, params)


def max_wave_speed(params: ChainParams):
    """Crude upper bound on the linear signal speed, for CFL checks."""
    M, m, R, r = params.M, params.m, params.R, params.r
    c2 = (params.Kt + params.Ks * (r + R) ** 2) / (M * R**2)
    if m > 0 and r > 0:
        c2 = max(c2, params.Ks / m)
    return float(np.sqrt(c2))


def check_time_step(dt, dx, params: ChainParams):
    """Raise ValueError unless dt meets the RK4 stability bound
    0.5 dx / c_max of evolve."""
    bound = 0.5 * dx / max_wave_speed(params)
    if dt > bound:
        raise ValueError(
            f"dt = {dt} violates the stability bound 0.5 dx / c_max = {bound}")


def evolve(grid: FieldGrid, t_end, dt, params: ChainParams, snapshot_every=None):
    """RK4 method of lines (_stencils.rk4_run) for a duration t_end, with
    clamped (Dirichlet) ends: the initial grid, then one grid per snapshot."""
    check_time_step(dt, grid.dx, params)

    def rhs(y, t):
        acc = pde_rhs(grid._with_fields(*y, t), params)
        out = np.concatenate((y[2:], acc))
        out[:, 0] = out[:, -1] = 0.0  # clamp boundary nodes
        return out

    y = np.array([grid.Theta, grid.Phi, grid.Theta_t, grid.Phi_t])
    snaps = [grid]
    try:
        for t, y, snap in _stencils.rk4_run(rhs, y, grid.t, t_end, dt,
                                            snapshot_every):
            if np.max(np.abs(y[:2])) > 1e6:
                raise PDEInstabilityError("fields blew up", t)
            if snap:
                snaps.append(grid._with_fields(*y, t=t))
    except PDEInstabilityError:
        raise
    except IntegrationError as exc:
        raise PDEInstabilityError("non-finite fields", exc.t) from exc
    return snaps


def energy_density(grid: FieldGrid, params: ChainParams):
    """H = T + U_grad + U_p + U_c per unit length: the chain's per-site
    kinetic and gravity energies, and U_grad the params._quadratic form at
    (K_t, K_s) in the slopes."""
    Theta, Phi = grid.Theta, grid.Phi
    D1 = grid._D[0]
    T = chain.kinetic_energy_site(grid.Theta_t, Phi, grid.Phi_t, params)
    U_grad = _quadratic(params.Kt, params.Ks, Phi, params.r, params.R,
                        D1 @ Theta, D1 @ Phi)
    U_p = chain.external_potential(Theta, Phi, params)
    return T + U_grad + U_p + params.h_spec.h(Phi)


def energy_total(grid: FieldGrid, params: ChainParams):
    return float(np.trapezoid(energy_density(grid, params), grid.x))


def topological_charge(grid: FieldGrid):
    """Winding number of Theta over the grid (_stencils.winding_number);
    rejects ragged boundary data."""
    return _stencils.winding_number(grid.Theta)


def kink_field_grid(params: ChainParams, k, v, x, center=None):
    """Travelling-kink initial data sampled on grid x."""
    x = np.asarray(x, dtype=float)
    Theta, Theta_t = _moving_kink(x, k, v, center)
    z = np.zeros_like(x)
    return FieldGrid(x, Theta, z, Theta_t, z.copy(), 0.0)


def export_fields(snaps, path):
    """Write the snapshots as one .npy record (_io.write_npy_record): t,
    the grid x once, and Theta, Phi, Theta_t, Phi_t with one row per
    snapshot. The snapshots must share one grid."""
    x = snaps[0].x
    if not all(np.array_equal(g.x, x) for g in snaps[1:]):
        raise ValueError("snapshots must share one grid")
    write_npy_record(path, {"t": [g.t for g in snaps], "x": x,
                            **{name: [getattr(g, name) for g in snaps]
                               for name in ("Theta", "Phi", "Theta_t",
                                            "Phi_t")}})


def export_energy_csv(snaps, params: ChainParams, path):
    """Write t, total energy and charge per snapshot; return the energies."""
    return _stencils.export_energy_csv(snaps, params, path, "pde-energy v1",
                                       energy_total, "Theta")
