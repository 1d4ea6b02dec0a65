"""Time evolution of the discrete chain with a fixed-step RK4 integrator.

The mass matrix depends on the configuration, so the Hamiltonian is not
separable and a symplectic splitting is not available; energy drift is
monitored instead of structurally eliminated.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _stencils, chain
from ._io import write_csv, write_snapshots_csv
from .chain import LatticeState
from .params import ChainParams, _moving_kink


@dataclass(frozen=True)
class SimulationReport:
    trajectory: list
    energy_series: np.ndarray  # shape (n, 2): columns t, E
    max_energy_drift: float


def total_energy(state: LatticeState, params: ChainParams):
    """T + U, zero at the rest configuration."""
    return (chain.kinetic_energy(state, params)
            + chain.potential_energy(state, params))


def step(state: LatticeState, dt, params: ChainParams) -> LatticeState:
    """One classic RK4 step on (q, q_dot). Deterministic."""
    if not dt > 0:
        raise ValueError("dt must be positive")

    def rhs(y, t):
        acc = chain.discrete_forces(LatticeState(*y, t), params)
        return np.concatenate((y[2:], acc))

    y = np.array([state.theta, state.phi, state.theta_dot, state.phi_dot])
    y = _stencils.rk4_step(rhs, y, state.t, dt)
    return LatticeState(*y, t=state.t + dt)


def simulate(initial: LatticeState, t_end, dt, params: ChainParams,
             snapshot_every=1) -> SimulationReport:
    """Evolve to t_end (rounded to a whole number of steps) recording energy.

    Step i is stamped t0 + i dt, as in evolve. Drift is reported as
    _stencils.energy_drift of the energy series.
    """
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be a positive integer")
    n_steps = max(1, int(round(t_end / dt)))
    state = initial
    energies = [(state.t, total_energy(state, params))]
    traj = [state]
    for i in range(n_steps):
        state = replace(step(state, dt, params), t=initial.t + (i + 1) * dt)
        energies.append((state.t, total_energy(state, params)))
        if (i + 1) % snapshot_every == 0 or i == n_steps - 1:
            traj.append(state)
    energies = np.array(energies)
    return SimulationReport(traj, energies,
                            _stencils.energy_drift(energies[:, 1]))


def moving_kink_state(params: ChainParams, k, v, n_sites, center=None,
                      index=1) -> LatticeState:
    """Discretized travelling kink: theta_i = vartheta0(k (x_i - c)), phi = 0.

    Velocities sample the travelling-wave time derivative -v vartheta0'.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    theta, theta_dot = _moving_kink(params.delta * np.arange(n_sites), k, v,
                                    center, index)
    zeros = np.zeros(n_sites)
    return LatticeState(theta, zeros, theta_dot, zeros, 0.0)


def kink_center(state: LatticeState, params: ChainParams, level=np.pi):
    """x-position where theta crosses `level`, by linear interpolation."""
    x = params.delta * np.arange(state.n_sites)
    th = state.theta
    above = th >= level
    idx = np.nonzero(above[1:] != above[:-1])[0]
    if len(idx) == 0:
        raise ValueError("no crossing found")
    i = idx[0]
    f = (level - th[i]) / (th[i + 1] - th[i])
    return x[i] + f * params.delta


def export_trajectory_csv(report: SimulationReport, path):
    """CSV of all snapshots, one row per (t, site)."""
    traj = report.trajectory
    sites = [str(i) for i in range(max(st.n_sites for st in traj))]
    write_snapshots_csv(path, "lattice-trajectory v1",
                        "t,site,theta,phi,theta_dot,phi_dot",
                        ((st.t, sites, st.theta, st.phi, st.theta_dot,
                          st.phi_dot) for st in traj))


def export_energy_csv(report: SimulationReport, path):
    write_csv(path, "lattice-energy v1", "t,E",
              map(tuple, report.energy_series.tolist()))


def summary_dict(report: SimulationReport):
    """Headline numbers of a run; the charges are the winding numbers of
    theta over the chain (None when ragged) at the first and last
    snapshots."""
    traj = report.trajectory
    return {
        "charge_initial": _stencils._winding_or_none(traj[0].theta),
        "charge_final": _stencils._winding_or_none(traj[-1].theta),
        "max_energy_drift": report.max_energy_drift,
        "n_snapshots": len(traj),
        "t_final": traj[-1].t,
    }
