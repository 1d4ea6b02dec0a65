"""Discrete-chain mechanics: per-site energies, forces, and the Lagrangian.

Site i carries two angles: theta (outer beam, measured from the downward
vertical) and phi (inner beam, measured relative to the outer one). The inner
bob tip sits at

    x = R cos(theta) + r cos(theta + phi)
    y = R sin(theta) + r sin(theta + phi)

Neighboring sites couple through a torsional spring in theta and a harmonic
"stacking" spring between tips. The chain is open: bond i joins sites i and
i + 1, so each end site has one bond, and a kink's two tails sit in
different vacua. The mass matrix, kinetic and gravity energies are the
params kernels the continuum and travelling wave share; the bond energies
stay exact trigonometry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (ChainParams, _coefficients, _pendant, _phi_factors,
                     _quadratic)


@dataclass(frozen=True)
class LatticeState:
    """Angles and angular velocities of every site at one instant."""

    theta: np.ndarray
    phi: np.ndarray
    theta_dot: np.ndarray
    phi_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float)
                  for a in (self.theta, self.phi, self.theta_dot, self.phi_dot)]
        n = arrays[0].shape[0]
        if any(a.shape != (n,) for a in arrays):
            raise ValueError("state arrays must share a common length")
        for name, a in zip(("theta", "phi", "theta_dot", "phi_dot"), arrays):
            object.__setattr__(self, name, a)

    @property
    def n_sites(self):
        return self.theta.shape[0]


def tip_position(theta, phi, params: ChainParams):
    """Cartesian position of the inner bob tip."""
    x = params.R * np.cos(theta) + params.r * np.cos(theta + phi)
    y = params.R * np.sin(theta) + params.r * np.sin(theta + phi)
    return x, y


def kinetic_energy_site(theta_dot, phi, phi_dot, params: ChainParams):
    """Kinetic energy 1/2 qdot^T M(phi) qdot of one site, with the matrix
    of mass_matrix; independent of theta itself."""
    return _quadratic(params.M * params.R**2, params.m, phi, params.r,
                      params.R, np.asarray(theta_dot, float),
                      np.asarray(phi_dot, float))


def torsional_potential(theta_i, theta_ip1, params: ChainParams):
    return params.kappa_t * (1.0 - np.cos(np.asarray(theta_ip1) - theta_i))


def stacking_potential(theta_i, phi_i, theta_ip1, phi_ip1, params: ChainParams):
    """Harmonic tip-tip bond energy, written in angle variables.

    Equal to (kappa_s/2) |tip_{i+1} - tip_i|^2; the Cartesian form is kept as
    a test oracle, not used here.
    """
    R, r = params.R, params.r
    dth = np.asarray(theta_ip1, float) - theta_i
    sq = (2 * R**2 * (1 - np.cos(dth))
          + 2 * r**2 * (1 - np.cos(dth + phi_ip1 - phi_i))
          + 2 * R * r * (np.cos(phi_ip1) + np.cos(phi_i)
                         - np.cos(dth - phi_i) - np.cos(dth + phi_ip1)))
    return 0.5 * params.kappa_s * sq


def external_potential(theta, phi, params: ChainParams):
    """Gravitational energy relative to the rest configuration."""
    consts = params.M, params.m, params.R, params.r, params.g
    return _pendant(0.0, 0.0, *consts) - _pendant(theta, phi, *consts)


def mass_matrix(phi, params: ChainParams):
    """Entries (m11, m12, m22) = (M R^2 + m r^2 beta(phi), m r^2 alpha(phi),
    m r^2) of the per-site 2x2 kinetic matrix, params._coefficients at
    (M R^2, m), which also takes phi as its _phi_factors; finite at r = 0."""
    m11, m12, m22 = _coefficients(params.M * params.R**2, params.m, phi,
                                  params.r, params.R)
    return m11, m12, np.full_like(m11, m22)


def potential_energy(state: LatticeState, params: ChainParams):
    """Total potential: torsional + stacking bonds, gravity, confinement."""
    th, ph = state.theta, state.phi
    u = np.sum(torsional_potential(th[:-1], th[1:], params))
    u += np.sum(stacking_potential(th[:-1], ph[:-1], th[1:], ph[1:], params))
    u += np.sum(external_potential(th, ph, params))
    u += np.sum(params.h_spec.h(ph))
    return float(u)


def kinetic_energy(state: LatticeState, params: ChainParams):
    return float(np.sum(kinetic_energy_site(
        state.theta_dot, state.phi, state.phi_dot, params)))


def discrete_lagrangian(state: LatticeState, params: ChainParams):
    """L = T - (U_t + U_s + U_p + U_c) summed over the chain."""
    if state.n_sites < 2:
        raise ValueError("need at least two sites")
    return kinetic_energy(state, params) - potential_energy(state, params)


def _potential_gradient(state: LatticeState, params: ChainParams):
    """(dU/dtheta_i, dU/dphi_i) for the full potential, analytically.

    One sin/cos pass per site; bond i -> i + 1 takes the per-site values at
    its ends as the slices a[:-1] and a[1:], and adds its terms to g[:-1],
    then to g[1:].
    """
    th, ph = state.theta, state.phi
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    sth, cth = np.sin(th), np.cos(th)
    stp, ctp = np.sin(th + ph), np.cos(th + ph)
    x = R * cth + r * ctp  # tip_position, per site
    y = R * sth + r * stp

    gth = g * (M * R * sth + m * y)
    gph = g * m * r * stp + params.h_spec.dh(ph)

    # torsional bonds
    s = params.kappa_t * np.sin(th[1:] - th[:-1])
    gth[:-1] -= s
    gth[1:] += s
    # stacking bonds, via the Cartesian chain rule:
    # dU/dq = -kappa_s (tip_j - tip_i) . d tip_i/dq  (and + for site j)
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    ks = params.kappa_s
    # d tip/d theta = (-y, x); d tip/d phi = (-r sin(th+ph), r cos(th+ph))
    gth[:-1] -= ks * (dy * x[:-1] - dx * y[:-1])
    gth[1:] += ks * (dy * x[1:] - dx * y[1:])
    gph[:-1] -= ks * r * (dy * ctp[:-1] - dx * stp[:-1])
    gph[1:] += ks * r * (dy * ctp[1:] - dx * stp[1:])
    return gth, gph


def lagrangian_coordinate_gradient(state: LatticeState, params: ChainParams):
    """(dL/dtheta_i, dL/dphi_i) at fixed velocities.

    The kinetic part contributes only through phi (the cos(phi) coupling).
    """
    gth, gph = _potential_gradient(state, params)
    m, R, r = params.m, params.R, params.r
    td, pd = state.theta_dot, state.phi_dot
    dT_dphi = -m * R * r * np.sin(state.phi) * (td**2 + td * pd)
    return -gth, dT_dphi - gph


def discrete_forces(state: LatticeState, params: ChainParams):
    """Generalized accelerations (theta_ddot, phi_ddot) per site.

    Solves the per-site 2x2 system  M(phi) qdd = b  with
      b_theta = -dU/dtheta + m r R sin(phi) (phi_dot^2 + 2 theta_dot phi_dot)
      b_phi   = -dU/dphi   - m r R sin(phi) theta_dot^2.
    At r = 0 the second angle carries no inertia and is reported frozen
    (phi_ddot = 0); theta follows the single-angle chain.
    """
    params.require_dynamic()
    gth, gph = _potential_gradient(state, params)
    m, R, r = params.m, params.R, params.r
    td, pd = state.theta_dot, state.phi_dot
    factors = _phi_factors(state.phi, r, R)
    coupling = m * r * R * factors.sin
    b_th = coupling * (pd**2 + 2 * td * pd) - gth
    b_ph = -gph - coupling * td**2
    return _mass_solve(factors, b_th, b_ph, params)


def _mass_solve(phi, b_th, b_ph, params: ChainParams):
    """Solve M(phi) qdd = (b_th, b_ph) pointwise; qdd_phi = 0 when m r^2 = 0."""
    m11, m12, m22 = _coefficients(params.M * params.R**2, params.m, phi,
                                  params.r, params.R)
    if params.m * params.r**2 == 0:
        return b_th / m11, np.zeros_like(b_ph)
    det = m11 * m22 - m12 * m12  # = m r^2 R^2 (M + m sin^2 phi) > 0
    return (m22 * b_th - m12 * b_ph) / det, (m11 * b_ph - m12 * b_th) / det
