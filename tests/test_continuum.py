"""Long-wavelength PDE: stability guards, conservation, kink transport, and
agreement with the co-moving residual under the travelling substitution."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendulon import _stencils, continuum
from pendulon.chain import _mass_solve, external_potential, kinetic_energy_site
from pendulon.continuum import (FieldGrid, PDEInstabilityError,
                                energy_total, evolve, kink_field_grid,
                                max_wave_speed, pde_rhs, topological_charge)
from pendulon.params import (ChainParams, WaveConstants, _field_equations,
                             _quadratic)
from pendulon._stencils import derivative, derivative_matrix


def _single_angle_chain(delta=0.05):
    return ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0,
                       kappa_s=1.0 / delta**2, g=1.0, delta=delta)


def test_cfl_guard():
    p = _single_angle_chain()
    x = np.linspace(0, 20, 401)
    grid = kink_field_grid(p, 1.2, 0.3, x)
    dt_max = 0.5 * (x[1] - x[0]) / max_wave_speed(p)
    with pytest.raises(ValueError):
        evolve(grid, 0.1, 1.5 * dt_max, p)


def test_kink_transport_matches_analytic():
    p = _single_angle_chain()
    v = 0.4
    k = np.sqrt(1.0 / (1.0 - v**2))
    x = np.linspace(0, 40, 801)
    grid = kink_field_grid(p, k, v, x)
    T = 1.5
    snaps = evolve(grid, T, 1e-3, p)
    moved = kink_field_grid(p, k, v, x, center=0.5 * (x[0] + x[-1]) + v * T)
    gap = np.max(np.abs(snaps[-1].Theta - moved.Theta))
    assert gap < 5e-3
    drift = abs(energy_total(snaps[-1], p) - energy_total(snaps[0], p)) \
        / (abs(energy_total(snaps[0], p)) + 1.0)
    assert drift < 1e-8


def test_topological_charge():
    p = _single_angle_chain()
    x = np.linspace(0, 60, 601)
    grid = kink_field_grid(p, 1.0, 0.0, x)
    assert topological_charge(grid) == 1
    anti = kink_field_grid(p, -1.0, 0.0, x)
    assert topological_charge(anti) == -1
    ragged = FieldGrid(x, np.linspace(0, np.pi, 601), np.zeros(601),
                       np.zeros(601), np.zeros(601), 0.0)
    with pytest.raises(ValueError):
        topological_charge(ragged)


def test_instability_detected():
    p = _single_angle_chain()
    x = np.linspace(0, 10, 101)
    grid = FieldGrid(x, np.full(101, 2e6), np.zeros(101), np.zeros(101),
                     np.zeros(101), 0.0)
    with pytest.raises(PDEInstabilityError, match="blew up"):
        evolve(grid, 1.0, 1e-4, p)


def test_nan_is_detected():
    p = _single_angle_chain()
    x = np.linspace(0, 20, 101)
    kink = kink_field_grid(p, 1.0, 0.2, x)
    Theta = kink.Theta.copy()
    Theta[50] = np.nan
    grid = FieldGrid(x, Theta, kink.Phi, kink.Theta_t, kink.Phi_t, 0.0)
    with pytest.raises(PDEInstabilityError, match="non-finite"):
        evolve(grid, 0.01, 1e-3, p)


def test_snapshot_list_contract():
    p = _single_angle_chain()
    x = np.linspace(0, 20, 201)
    grid = kink_field_grid(p, 1.0, 0.2, x)
    snaps = evolve(grid, 0.02, 1e-3, p, snapshot_every=5)
    assert snaps[0].t == 0.0
    assert snaps[-1].t == pytest.approx(0.02, abs=1e-12)
    assert len(snaps) == 1 + 20 // 5


def test_rhs_matches_travelling_residual(generic_chain, rng):
    """On any profile moving rigidly at speed v, the field equations reduce
    to the co-moving residuals: S - M(Phi) qtt with qtt = v^2 q''.

    Ties the PDE's coefficients, centripetal terms and mass solve to the
    travelling-wave coefficients of the same kernel, coupling terms included.
    """
    p = generic_chain
    v = 0.37
    mu = p.Ks - p.m * v**2
    x = np.linspace(-12, 12, 1201)
    dx = x[1] - x[0]
    env = np.exp(-0.5 * (x / 3.0) ** 2)
    Theta = 1.3 * np.tanh(x / 2.0) + 0.2 * env
    Phi = 0.4 * env * np.sin(x)
    Theta_x = derivative(Theta, dx, 1)
    Phi_x = derivative(Phi, dx, 1)
    Theta_xx = derivative(Theta, dx, 2)
    Phi_xx = derivative(Phi, dx, 2)
    grid = FieldGrid(x, Theta, Phi, -v * Theta_x, -v * Phi_x, 0.0)
    acc_th, acc_ph = pde_rhs(grid, p)
    m11 = p.M * p.R**2 + p.m * (p.r**2 + p.R**2 + 2 * p.r * p.R * np.cos(Phi))
    m12 = p.m * p.r * (p.r + p.R * np.cos(Phi))
    m22 = p.m * p.r**2
    lhs1 = m11 * (acc_th - v**2 * Theta_xx) + m12 * (acc_ph - v**2 * Phi_xx)
    lhs2 = m12 * (acc_th - v**2 * Theta_xx) + m22 * (acc_ph - v**2 * Phi_xx)
    c = WaveConstants(p.Kt - p.M * p.R**2 * v**2, mu, p.M, p.m, p.R, p.r,
                      p.g, p.h_spec)
    res1, res2 = _field_equations(Theta, Phi, Theta_x, Phi_x, Theta_xx,
                                  Phi_xx, c)
    scale = np.max(np.abs(res1)) + np.max(np.abs(res2)) + 1.0
    assert np.max(np.abs(lhs1 - res1)) / scale < 1e-11
    assert np.max(np.abs(lhs2 - res2)) / scale < 1e-11


def test_energy_density_integrates_to_total(generic_chain):
    p = generic_chain
    x = np.linspace(-8, 8, 401)
    env = np.exp(-0.5 * x**2)
    grid = FieldGrid(x, 0.7 * env, 0.3 * env, 0.1 * env, -0.2 * env, 0.0)
    dens = continuum.energy_density(grid, p)
    assert np.trapezoid(dens, x) == pytest.approx(energy_total(grid, p),
                                                  rel=1e-12)


def test_export_schemas(tmp_path):
    p = _single_angle_chain()
    x = np.linspace(0, 20, 101)
    grid = kink_field_grid(p, 1.0, 0.2, x)
    snaps = evolve(grid, 0.01, 1e-3, p, snapshot_every=5)
    f1 = tmp_path / "fields.npy"
    f2 = tmp_path / "energy.csv"
    continuum.export_fields(snaps, f1)
    continuum.export_energy_csv(snaps, p, f2)
    fields = np.load(f1, allow_pickle=False)
    assert fields.dtype == np.dtype(
        [("t", "<f8", (3,)), ("x", "<f8", (101,))]
        + [(name, "<f8", (3, 101)) for name in
           ("Theta", "Phi", "Theta_t", "Phi_t")])
    lines = f2.read_text().splitlines()
    assert lines[0] == "# schema: pde-energy v1"
    assert lines[2].endswith(",1")  # winding number column


# ------------------------------------------------- per-grid operators ---

def _reference_pde_rhs(grid, params):
    """pde_rhs as it was before the grid owned its operators: four
    derivative calls, each building its own operator."""
    params.require_dynamic()
    dx = grid.dx
    Theta_x = derivative(grid.Theta, dx, 1)
    Phi_x = derivative(grid.Phi, dx, 1)
    Theta_xx = derivative(grid.Theta, dx, 2)
    Phi_xx = derivative(grid.Phi, dx, 2)
    c = WaveConstants(params.Kt, params.Ks, params.M, params.m, params.R,
                      params.r, params.g, params.h_spec)
    S1, S2 = _field_equations(grid.Theta, grid.Phi, Theta_x, Phi_x, Theta_xx,
                              Phi_xx, c)
    Theta_t, Phi_t = grid.Theta_t, grid.Phi_t
    centripetal = params.m * params.r * params.R * np.sin(grid.Phi)
    S1 = S1 + centripetal * Phi_t * (Phi_t + 2 * Theta_t)
    S2 = S2 - centripetal * Theta_t**2
    return _mass_solve(grid.Phi, S1, S2, params)


def _reference_energy_density(grid, params):
    """energy_density with the slopes of the derivative path, as before the
    grid owned its operators, through the same kernels."""
    dx = grid.dx
    Theta_x = derivative(grid.Theta, dx, 1)
    Phi_x = derivative(grid.Phi, dx, 1)
    T = kinetic_energy_site(grid.Theta_t, grid.Phi, grid.Phi_t, params)
    U_grad = _quadratic(params.Kt, params.Ks, grid.Phi, params.r, params.R,
                        Theta_x, Phi_x)
    U_p = external_potential(grid.Theta, grid.Phi, params)
    return T + U_grad + U_p + params.h_spec.h(grid.Phi)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 400), x0=st.floats(-10.0, 10.0),
       h=st.floats(1e-2, 2.0), seed=st.integers(0, 2**32 - 1),
       single=st.booleans())
def test_grid_operators_match_derivative_path(n, x0, h, seed, single):
    """pde_rhs and energy_density through the grid's own operators equal the
    old derivative-based formulas bit for bit."""
    p = (_single_angle_chain() if single else
         ChainParams(M=1.3, m=0.6, R=1.1, r=0.5, kappa_t=0.7, kappa_s=1.9,
                     g=0.9, delta=0.8))
    rng = np.random.default_rng(seed)
    x = x0 + h * np.arange(n)
    grid = FieldGrid(x, *rng.normal(0.0, 2.0, (4, n)), 0.0)
    for a, b in zip(pde_rhs(grid, p), _reference_pde_rhs(grid, p)):
        assert np.array_equal(a, b)
    assert np.array_equal(continuum.energy_density(grid, p),
                          _reference_energy_density(grid, p))


def test_evolve_shares_the_grid_operators(monkeypatch):
    p = _single_angle_chain()
    grid = kink_field_grid(p, 1.0, 0.2, np.linspace(0, 20, 101))
    D1, D2 = grid._D
    stages = []
    real_rhs = continuum.pde_rhs

    def recording_rhs(g, params):
        stages.append(g)
        return real_rhs(g, params)

    monkeypatch.setattr(continuum, "pde_rhs", recording_rhs)
    snaps = evolve(grid, 0.01, 1e-3, p, snapshot_every=2)
    assert len(stages) == 4 * 10 and len(snaps) == 6
    for g in stages + snaps:
        assert g._D[0] is D1 and g._D[1] is D2
        assert g.x is grid.x


def test_evolve_builds_two_operators(monkeypatch):
    calls = []
    real = _stencils.derivative_matrix

    def counting(n, h, deriv):
        calls.append((n, deriv))
        return real(n, h, deriv)

    monkeypatch.setattr(_stencils, "derivative_matrix", counting)
    p = _single_angle_chain()
    grid = kink_field_grid(p, 1.0, 0.2, np.linspace(0, 20, 101))
    snaps = evolve(grid, 0.01, 1e-3, p)
    continuum.energy_total(snaps[-1], p)
    assert calls == [(101, 1), (101, 2)]


@pytest.mark.parametrize("x", [np.linspace(0, 20, 101),
                               np.linspace(0, 30, 101),
                               np.linspace(0, 20, 201)])
def test_each_grid_builds_its_own_operators(x):
    """A grid built from any x, even an equal one, gets fresh operators for
    its own n and spacing; nothing is shared between unrelated grids."""
    p = _single_angle_chain()
    base = kink_field_grid(p, 1.0, 0.2, np.linspace(0, 20, 101))
    grid = kink_field_grid(p, 1.0, 0.2, x)
    h = float(x[1] - x[0])
    for d, (mine, theirs) in enumerate(zip(grid._D, base._D), start=1):
        assert mine is not theirs
        ref = derivative_matrix(x.shape[0], h, d)
        assert mine.shape == ref.shape
        assert (mine != ref).nnz == 0


def test_refined_grid_accepted_and_stepped_grid_rejected():
    p = _single_angle_chain()
    grid = kink_field_grid(p, 0.7, 0.3, np.linspace(-20.0, 20.0, 16001))
    assert grid._D[1].shape == (16001, 16001)
    stepped = np.concatenate([np.linspace(-20.0, 0.0, 400),
                              np.linspace(0.06, 20.0, 400)])
    with pytest.raises(ValueError, match="grid must be uniform"):
        kink_field_grid(p, 0.7, 0.3, stepped)
