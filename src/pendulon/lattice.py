"""Time evolution of the discrete chain by _stencils.rk4_run, fixed-step RK4.

The mass matrix depends on the configuration, so the Hamiltonian is not
separable and a symplectic splitting is not available; energy drift is
monitored instead of structurally eliminated.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def simulate(initial: LatticeState, t_end, dt, params: ChainParams,
             snapshot_every=1) -> SimulationReport:
    """Evolve to t_end by _stencils.rk4_run, recording the energy of every
    step (drift: _stencils.energy_drift) and the states it snapshots."""
    def rhs(y, t):
        acc = chain.discrete_forces(LatticeState(*y, t), params)
        return np.concatenate((y[2:], acc))

    y = np.array([initial.theta, initial.phi, initial.theta_dot,
                  initial.phi_dot])
    energies = [(initial.t, total_energy(initial, params))]
    traj = [initial]
    for t, y, snap in _stencils.rk4_run(rhs, y, initial.t, t_end, dt,
                                        snapshot_every):
        state = LatticeState(*y, t)
        energies.append((t, total_energy(state, params)))
        if snap:
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
    """Headline numbers of a run (_stencils.run_summary)."""
    traj = report.trajectory
    return _stencils.run_summary(traj[0].theta, traj[-1].theta, traj[-1].t,
                                 len(traj), report.max_energy_drift)
