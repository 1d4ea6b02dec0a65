"""Time evolution of the discrete chain by _stencils.rk4_run, fixed-step RK4.

The mass matrix depends on the configuration, so the Hamiltonian is not
separable and a symplectic splitting is not available; energy drift is
monitored instead of structurally eliminated. simulate returns its snapshots,
as continuum.evolve does, and the energy table and the run summary are taken
over those snapshots by the same _stencils functions for both integrators.
snapshots yields the same states as the integrator reaches them, and
export_trajectory_csv formats each in a forked process while the chain
integrates toward the next.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import _stencils, chain
from ._io import write_snapshots_csv
from .chain import LatticeState
from .params import ChainParams, _moving_kink


def total_energy(state: LatticeState, params: ChainParams):
    """T + U, zero at the rest configuration."""
    return (chain.kinetic_energy(state, params)
            + chain.potential_energy(state, params))


def simulate(initial: LatticeState, t_end, dt, params: ChainParams,
             snapshot_every=1):
    """Evolve for a duration t_end by _stencils.rk4_run: the initial state,
    then one LatticeState per snapshot."""
    return list(snapshots(initial, t_end, dt, params, snapshot_every))


def snapshots(initial: LatticeState, t_end, dt, params: ChainParams,
              snapshot_every=1):
    """simulate's states as an iterator: each is yielded as soon as the
    integrator reaches it, the next computed on demand; checks at the call."""
    def rhs(y, t):
        acc = chain.discrete_forces(LatticeState(*y, t), params)
        return np.concatenate((y[2:], acc))

    y = np.array([initial.theta, initial.phi, initial.theta_dot,
                  initial.phi_dot])
    run = _stencils.rk4_run(rhs, y, initial.t, t_end, dt, snapshot_every)
    return itertools.chain([initial], (LatticeState(*y, t)
                                       for t, y, snap in run if snap))


def moving_kink_state(params: ChainParams, k, v, n_sites,
                      center=None) -> LatticeState:
    """Discretized travelling kink: theta_i = vartheta0(k (x_i - c)), phi = 0.

    Velocities sample the travelling-wave time derivative -v vartheta0'.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    theta, theta_dot = _moving_kink(params.delta * np.arange(n_sites), k, v,
                                    center)
    zeros = np.zeros(n_sites)
    return LatticeState(theta, zeros, theta_dot, zeros, 0.0)


def kink_center(state: LatticeState, params: ChainParams):
    """x-position where theta crosses pi, by linear interpolation."""
    x = params.delta * np.arange(state.n_sites)
    th = state.theta
    above = th >= np.pi
    idx = np.nonzero(above[1:] != above[:-1])[0]
    if len(idx) == 0:
        raise ValueError("no crossing found")
    i = idx[0]
    f = (np.pi - th[i]) / (th[i + 1] - th[i])
    return x[i] + f * params.delta


def export_trajectory_csv(snaps, path):
    """CSV of all snapshots, one row per (t, site); return them as a list.

    snaps may be a lazy stream such as snapshots(): _io.write_snapshots_csv
    formats each state in a forked process while the next is computed, and
    if the stream raises, leaves no file and re-raises.
    """
    kept = []

    def blocks():
        sites = []
        for st in snaps:
            kept.append(st)
            if len(sites) != st.n_sites:
                sites = [str(i) for i in range(st.n_sites)]
            yield st.t, sites, st.theta, st.phi, st.theta_dot, st.phi_dot

    write_snapshots_csv(path, "lattice-trajectory v1",
                        "t,site,theta,phi,theta_dot,phi_dot", blocks())
    return kept


def export_energy_csv(snaps, params: ChainParams, path):
    """Write t, total energy and charge per snapshot; return the energies."""
    return _stencils.export_energy_csv(snaps, params, path,
                                       "lattice-energy v2", total_energy,
                                       "theta")
