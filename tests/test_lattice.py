import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from pendulon import IntegrationError, _stencils, lattice
from pendulon._io import write_json
from pendulon.chain import LatticeState
from pendulon.lattice import (kink_center, moving_kink_state, simulate,
                              total_energy)
from pendulon.params import ChainParams, ConfiningPotential


def _smooth_state(rng, n, amp=0.4):
    x = np.linspace(0, 2 * np.pi, n)
    return LatticeState(amp * np.sin(x) + 0.1 * rng.normal(0, 1e-2, n),
                        amp * 0.5 * np.cos(2 * x),
                        amp * np.cos(x), amp * 0.3 * np.sin(x), 0.0)


def _drift(snaps, params):
    """energy_drift over the total energy of every snapshot, the drift the
    CLI summary reports; at snapshot_every=1 that is every step."""
    return _stencils.energy_drift([total_energy(s, params) for s in snaps])


def test_energy_conserved(generic_chain, rng):
    st = _smooth_state(rng, 24)
    snaps = simulate(st, 2.0, 1e-3, generic_chain)
    assert _drift(snaps, generic_chain) < 1e-10


@pytest.mark.parametrize("variant", ["open", "tangent-barrier", "r = 0"])
def test_energy_series_is_total_energy_of_every_state(tmp_path, generic_chain,
                                                      rng, variant):
    """The E column of the energy CSV, and the energies export_energy_csv
    returns, are total_energy of every snapshot, bit for bit, stamped with
    the snapshot's time."""
    p = {"open": generic_chain,
         "tangent-barrier": replace(generic_chain, h_spec=ConfiningPotential(
             family="tangent-barrier", phi0=1.2, c2=1.7, b=0.2)),
         "r = 0": replace(generic_chain, r=0.0)}[variant]
    st = _smooth_state(rng, 15)
    snaps = simulate(st, 0.07, 1e-2, p)
    path = tmp_path / "energy.csv"
    energies = lattice.export_energy_csv(snaps, p, path)
    rows = [row.split(",") for row in path.read_text().splitlines()[2:]]
    assert len(snaps) == len(energies) == len(rows) == 8
    for state, E, (t, E_csv, _) in zip(snaps, energies, rows):
        assert float(t) == state.t
        assert total_energy(state, p) == E == float(E_csv)


def test_rk4_energy_drift_is_fourth_order(generic_chain, rng):
    st = _smooth_state(rng, 16, amp=0.8)
    d1 = _drift(simulate(st, 1.0, 4e-3, generic_chain), generic_chain)
    d2 = _drift(simulate(st, 1.0, 2e-3, generic_chain), generic_chain)
    assert d1 / d2 > 10.0  # ~16 for a clean 4th-order method


def test_snapshot_cadence(generic_chain, rng):
    st = _smooth_state(rng, 10)
    snaps = simulate(st, 0.1, 1e-2, generic_chain, snapshot_every=2)
    # initial + every 2nd of 10 steps
    assert len(snaps) == 6
    assert snaps[-1].t == pytest.approx(0.1, abs=1e-12)


def test_kink_transport_speed():
    # single-angle chain: the discretized kink should travel at v
    p = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0,
                    kappa_s=1.0 / 0.1**2, g=1.0, delta=0.1)
    k = np.sqrt(1.0 / (1.0 - 0.5**2))
    st = moving_kink_state(p, k, 0.5, 400)
    snaps = simulate(st, 2.0, 2e-3, p, snapshot_every=1)
    moved = kink_center(snaps[-1], p) - kink_center(st, p)
    assert moved == pytest.approx(1.0, rel=2e-2)
    assert _drift(snaps, p) < 1e-9


def test_phi_stays_frozen_at_r_zero():
    p = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.1, kappa_s=100.0,
                    g=1.0, delta=0.1)
    st = moving_kink_state(p, 1.0, 0.3, 50)
    final = simulate(st, 0.5, 1e-3, p, snapshot_every=10**9)[-1]
    assert np.all(final.phi == 0.0)
    assert np.all(final.phi_dot == 0.0)


def test_moving_kink_tail_values():
    p = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0, kappa_s=100.0,
                    g=1.0, delta=0.1)
    st = moving_kink_state(p, 1.0, 0.0, 1200)
    # ends of a wide chain sit exponentially close to the two vacua
    assert abs(st.theta[0]) < 1e-15
    assert abs(st.theta[-1] - 2 * np.pi) < 1e-12
    assert st.theta[0] >= 0.0  # tail does not overshoot through zero
    for n_sites in (0, 1):  # 0 used to raise IndexError
        with pytest.raises(ValueError, match="at least two sites"):
            moving_kink_state(p, 1.0, 0.0, n_sites)


def test_nonpositive_dt_rejected(generic_chain, rng):
    st = _smooth_state(rng, 8)
    with pytest.raises(ValueError):
        simulate(st, 1.0, -0.1, generic_chain)
    with pytest.raises(ValueError):
        simulate(st, 0.0, 0.1, generic_chain)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_step_raises(generic_chain, rng):
    st = _smooth_state(rng, 8, amp=3.0)
    with pytest.raises(IntegrationError):
        simulate(st, 2000.0, 9.0, generic_chain)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_streamed_run_leaves_no_trajectory(tmp_path, generic_chain,
                                                    rng):
    """The same blow-up while the states stream to the trajectory writer:
    the IntegrationError propagates, no file and no child are left."""
    st = _smooth_state(rng, 8, amp=3.0)
    path = tmp_path / "traj.csv"
    with pytest.raises(IntegrationError):
        lattice.export_trajectory_csv(
            lattice.snapshots(st, 2000.0, 9.0, generic_chain), path)
    assert not path.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("t_end, dt, every", [(1.0, -0.1, 1), (0.0, 0.1, 1),
                                             (1.0, 0.1, 0)])
def test_snapshots_checks_its_arguments_at_the_call(generic_chain, rng,
                                                    t_end, dt, every):
    """A bad t_end, dt or snapshot_every raises at the call itself, before
    the initial state is handed to a consumer such as the CSV writer."""
    st = _smooth_state(rng, 6)
    with pytest.raises(ValueError):
        lattice.snapshots(st, t_end, dt, generic_chain, snapshot_every=every)


def test_streamed_export_returns_the_states_simulate_returns(
        tmp_path, generic_chain, rng):
    st = _smooth_state(rng, 6)
    kept = lattice.export_trajectory_csv(
        lattice.snapshots(st, 0.05, 1e-2, generic_chain, snapshot_every=2),
        tmp_path / "streamed.csv")
    snaps = simulate(st, 0.05, 1e-2, generic_chain, snapshot_every=2)
    assert [s.t for s in kept] == [s.t for s in snaps]
    assert np.array_equal(
        [(s.theta, s.phi, s.theta_dot, s.phi_dot) for s in kept],
        [(s.theta, s.phi, s.theta_dot, s.phi_dot) for s in snaps])
    lattice.export_trajectory_csv(snaps, tmp_path / "listed.csv")
    assert ((tmp_path / "streamed.csv").read_bytes()
            == (tmp_path / "listed.csv").read_bytes())


def test_summary_charges(generic_chain):
    st = moving_kink_state(generic_chain, 0.7, 0.3, 120)
    snaps = simulate(st, 0.5, 1e-2, generic_chain, snapshot_every=10)
    summary = _stencils.run_summary(snaps[0].theta, snaps[-1].theta,
                                    snaps[-1].t, [0.0])
    assert (summary["charge_initial"], summary["charge_final"]) == (1, 1)
    ragged = np.linspace(0.0, np.pi, 120)
    summary = _stencils.run_summary(ragged, ragged, 0.0, [0.0])
    assert summary["charge_initial"] is None
    assert summary["charge_final"] is None


def test_exports_and_reproducibility(tmp_path, generic_chain, rng):
    st = _smooth_state(rng, 6)
    snaps = simulate(st, 0.05, 1e-2, generic_chain, snapshot_every=2)
    t1 = tmp_path / "traj1.csv"
    t2 = tmp_path / "traj2.csv"
    lattice.export_trajectory_csv(snaps, t1)
    lattice.export_trajectory_csv(snaps, t2)
    assert t1.read_bytes() == t2.read_bytes()
    head = t1.read_text().splitlines()[0]
    assert head == "# schema: lattice-trajectory v1"
    e = tmp_path / "energy.csv"
    energies = lattice.export_energy_csv(snaps, generic_chain, e)
    assert e.read_text().splitlines()[:2] == ["# schema: lattice-energy v2",
                                              "t,E,N"]
    s = tmp_path / "summary.json"
    write_json(_stencils.run_summary(snaps[0].theta, snaps[-1].theta,
                                     snaps[-1].t, energies), s)
    text = s.read_text()
    assert text.endswith("\n")
    assert "max_energy_drift" in text


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_time_stamps_are_exact_multiples_of_dt(tmp_path, generic_chain, t0):
    """Step i is stamped t0 + i dt, as the PDE stamps its steps; summing dt
    step by step would end a 100-step run of dt = 0.01 at 1.0000000000000007."""
    st = moving_kink_state(generic_chain, 0.7, 0.3, 12)
    st = LatticeState(st.theta, st.phi, st.theta_dot, st.phi_dot, t0)
    snaps = simulate(st, 1.0, 0.01, generic_chain, snapshot_every=1)
    want = [t0 + i * 0.01 for i in range(101)]
    assert [s.t for s in snaps] == want
    path = tmp_path / "energy.csv"
    energies = lattice.export_energy_csv(snaps, generic_chain, path)
    assert _stencils.run_summary(snaps[0].theta, snaps[-1].theta, snaps[-1].t,
                                 energies)["t_final"] == t0 + 1.0
    rows = path.read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [repr(t) for t in want]
    if t0 == 0.0:
        assert rows[1].startswith("0.01,") and rows[-1].startswith("1.0,")
