"""One pass per integrator stage: the stacked stencil operator against D1
and D2, the array RK4 step against the tuple form it replaced, the one RK4
stepping loop both integrators share, and the phi-only factors taken once
per stage. Every comparison is bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendulon import _stencils, chain, continuum, lattice, params as params_mod
from pendulon.chain import LatticeState
from pendulon.continuum import FieldGrid
from pendulon.params import ChainParams


def _generic():
    return ChainParams(M=1.3, m=0.6, R=1.1, r=0.5, kappa_t=0.7, kappa_s=1.9,
                       g=0.9, delta=0.8)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(6, 300), h=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_operator_is_d1_and_d2_bit_for_bit(n, h, seed):
    D1 = _stencils.derivative_matrix(n, h, 1)
    D2 = _stencils.derivative_matrix(n, h, 2)
    S = _stencils.stacked_operator(D1, D2)
    assert S.format == "csr" and S.shape == (4 * n, 2 * n)
    f, g = np.random.default_rng(seed).normal(0.0, 3.0, (2, n))
    parts = (S @ np.concatenate([f, g])).reshape(4, n)
    for got, ref in zip(parts, (D1 @ f, D1 @ g, D2 @ f, D2 @ g)):
        assert np.array_equal(got, ref)


def test_field_grid_builds_the_stacked_operator_once():
    p = _generic()
    grid = continuum.kink_field_grid(p, 0.7, 0.3, np.linspace(-5, 5, 41))
    snaps = continuum.evolve(grid, 0.02, 0.01, p)
    assert all(s._DD is grid._DD for s in snaps)
    ref = _stencils.stacked_operator(*grid._D)
    assert np.array_equal(grid._DD.data, ref.data)
    assert np.array_equal(grid._DD.indices, ref.indices)


def _tuple_rk4(rhs, y, t, dt):
    """The RK4 step on a tuple of arrays, as the integrators took it before
    they stepped one state array."""
    k1 = rhs(y, t)
    k2 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)), t + 0.5 * dt)
    k3 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)), t + 0.5 * dt)
    k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)), t + dt)
    return tuple(a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def _pde_tuple_rhs(grid, p):
    def rhs(y, t):
        Theta, Phi, Theta_t, Phi_t = y
        acc = continuum.pde_rhs(
            grid._with_fields(Theta, Phi, Theta_t, Phi_t, t), p)
        out = (Theta_t.copy(), Phi_t.copy(), acc[0], acc[1])
        for a in out:
            a[0] = a[-1] = 0.0
        return out
    return rhs


def _lattice_tuple_rhs(p):
    def rhs(y, t):
        acc = chain.discrete_forces(LatticeState(*y, t), p)
        return y[2], y[3], acc[0], acc[1]
    return rhs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evolve_matches_tuple_rk4(seed):
    """evolve's array RK4 with the PDE right-hand side gives every snapshot
    of the tuple form, bit for bit, with phi away from zero."""
    p = _generic()
    rng = np.random.default_rng(seed)
    x = np.linspace(-10.0, 10.0, 81)
    grid = continuum.kink_field_grid(p, 0.7, 0.3, x)
    grid = FieldGrid(x, grid.Theta, 0.2 * np.exp(-x**2) * rng.normal(),
                     grid.Theta_t, 0.1 * rng.normal(0.0, 1.0, 81))
    dt, steps = 0.01, 12
    snaps = continuum.evolve(grid, steps * dt, dt, p, snapshot_every=4)
    rhs = _pde_tuple_rhs(grid, p)
    y = (grid.Theta.copy(), grid.Phi.copy(), grid.Theta_t.copy(),
         grid.Phi_t.copy())
    ref = []
    for i in range(steps):
        y = _tuple_rk4(rhs, y, grid.t + i * dt, dt)
        if (i + 1) % 4 == 0:
            ref.append(y)
    assert len(snaps) == 1 + len(ref)
    for snap, want in zip(snaps[1:], ref):
        got = (snap.Theta, snap.Phi, snap.Theta_t, snap.Phi_t)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("topology", ["open", "periodic"])
def test_lattice_step_matches_tuple_rk4(topology):
    """Every state simulate records at snapshot_every=1 against the tuple
    form, bit for bit."""
    p = ChainParams(M=1.3, m=0.6, R=1.1, r=0.5, kappa_t=0.7, kappa_s=1.9,
                    g=0.9, delta=0.8, topology=topology)
    rng = np.random.default_rng(5)
    state = LatticeState(*rng.normal(0.0, 0.5, (4, 30)), 0.0)
    rep = lattice.simulate(state, 5 * 0.02, 0.02, p, snapshot_every=1)
    assert len(rep.trajectory) == 6
    rhs = _lattice_tuple_rhs(p)
    y = (state.theta, state.phi, state.theta_dot, state.phi_dot)
    for i, got in enumerate(rep.trajectory[1:]):
        y = _tuple_rk4(rhs, y, i * 0.02, 0.02)
        got = (got.theta, got.phi, got.theta_dot, got.phi_dot)
        assert all(np.array_equal(a, b) for a, b in zip(got, y))


def test_rk4_run_owns_steps_stamps_and_snapshots():
    """rk4_run: n = max(1, round(t_end / dt)) steps, step i staged from
    t0 + (i - 1) dt and stamped t0 + i dt, snap on every k-th step and the
    last (None: the last only), and bad arguments refused before any rhs
    call."""
    stages = []

    def rhs(y, t):
        stages.append(t)
        return np.ones_like(y)

    t0, dt = 0.25, 0.1
    run = list(_stencils.rk4_run(rhs, np.zeros((4, 3)), t0, 1.0, dt, 3))
    assert [t for t, _, _ in run] == [t0 + i * dt for i in range(1, 11)]
    assert stages[::4] == [t0 + i * dt for i in range(10)]
    snaps = [i for i, (_, _, snap) in enumerate(run, 1) if snap]
    assert snaps == [3, 6, 9, 10]
    assert np.array_equal(run[-1][1], _stencils.rk4_step(
        rhs, run[-2][1], t0 + 9 * dt, dt))
    last = list(_stencils.rk4_run(rhs, np.zeros(2), 0.0, 1.0, 0.25))
    assert [snap for _, _, snap in last] == [False, False, False, True]
    for t_end, n in ((1.04, 10), (1.06, 11), (0.01, 1)):
        assert len(list(_stencils.rk4_run(rhs, np.zeros(2), 0.0, t_end,
                                          0.1))) == n
    stages.clear()
    for t_end, dt_bad, every in ((0.0, 0.1, 1), (1.0, -0.1, 1),
                                 (1.0, float("nan"), 1), (1.0, 0.1, 0)):
        with pytest.raises(ValueError):
            next(_stencils.rk4_run(rhs, np.zeros(2), 0.0, t_end, dt_bad,
                                   every))
    assert stages == []


def test_rk4_step_matches_tuple_form_on_any_rhs():
    """The array step against the tuple step on a nonlinear, time-dependent
    right-hand side of three fields."""
    def rhs_tuple(y, t):
        a, b, c = y
        return np.sin(b) * t, a * c - 1.0, np.cos(a + t) * b

    def rhs_array(y, t):
        return np.array(rhs_tuple(tuple(y), t))

    y = tuple(np.random.default_rng(3).normal(0.0, 1.0, (3, 17)))
    got = _stencils.rk4_step(rhs_array, np.array(y), 0.3, 0.05)
    want = _tuple_rk4(rhs_tuple, y, 0.3, 0.05)
    assert got.shape == (3, 17)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_rk4_step_rejects_non_finite_state():
    with pytest.raises(_stencils.IntegrationError) as info:
        _stencils.rk4_step(lambda y, t: np.full_like(y, np.inf),
                           np.ones((4, 3)), 1.0, 0.5)
    assert info.value.t == 1.5


def _count_inertia(monkeypatch):
    calls = []
    real = params_mod._inertia

    def counting(phi, r, R):
        calls.append(1)
        return real(phi, r, R)

    monkeypatch.setattr(params_mod, "_inertia", counting)
    return calls


def test_pde_rhs_takes_the_inertia_products_once(monkeypatch):
    p = _generic()
    rng = np.random.default_rng(7)
    grid = FieldGrid(np.linspace(0.0, 4.0, 21), *rng.normal(0.0, 1.0, (4, 21)),
                     0.0)
    calls = _count_inertia(monkeypatch)
    continuum.pde_rhs(grid, p)
    assert len(calls) == 1


def test_discrete_forces_take_the_inertia_products_once(monkeypatch):
    p = _generic()
    state = LatticeState(*np.random.default_rng(8).normal(0.0, 1.0, (4, 12)))
    calls = _count_inertia(monkeypatch)
    chain.discrete_forces(state, p)
    assert len(calls) == 1
