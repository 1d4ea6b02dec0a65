"""Per-site mechanics: energies against Cartesian oracles, exact mass-matrix
identities, and force consistency with the discrete Lagrangian."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pendulon.chain import (LatticeState, _potential_gradient,
                            discrete_forces,
                            discrete_lagrangian, external_potential,
                            kinetic_energy_site,
                            lagrangian_coordinate_gradient, mass_matrix,
                            potential_energy, stacking_potential,
                            tip_position, torsional_potential)
from pendulon.params import ChainParams, ConfiningPotential


def _random_state(rng, n, scale=1.5):
    return LatticeState(rng.normal(0, scale, n), rng.normal(0, 1.0, n),
                        rng.normal(0, 1.0, n), rng.normal(0, 1.0, n), 0.0)


def _cartesian_kinetic(theta, phi, theta_dot, phi_dot, p):
    # elbow at R e(theta), tip adds r e(theta + phi)
    vex = -p.R * np.sin(theta) * theta_dot
    vey = p.R * np.cos(theta) * theta_dot
    vtx = vex - p.r * np.sin(theta + phi) * (theta_dot + phi_dot)
    vty = vey + p.r * np.cos(theta + phi) * (theta_dot + phi_dot)
    return 0.5 * p.M * (vex**2 + vey**2) + 0.5 * p.m * (vtx**2 + vty**2)


def test_kinetic_energy_matches_cartesian(generic_chain, rng):
    p = generic_chain
    for _ in range(200):
        th, ph, td, pd = rng.normal(0, 2, 4)
        ours = kinetic_energy_site(td, ph, pd, p)
        assert abs(ours - _cartesian_kinetic(th, ph, td, pd, p)) < 1e-10


def test_stacking_matches_cartesian_tip_distance(generic_chain, rng):
    p = generic_chain
    for _ in range(200):
        t1, p1, t2, p2 = rng.normal(0, 2, 4)
        x1, y1 = tip_position(t1, p1, p)
        x2, y2 = tip_position(t2, p2, p)
        ref = 0.5 * p.kappa_s * ((x2 - x1)**2 + (y2 - y1)**2)
        assert abs(stacking_potential(t1, p1, t2, p2, p) - ref) < 1e-10


def test_mass_matrix_determinant_identity(generic_chain, rng):
    p = generic_chain
    phi = rng.normal(0, 3, 500)
    m11, m12, m22 = mass_matrix(phi, p)
    det = m11 * m22 - m12 * m12
    ref = p.m * p.r**2 * p.R**2 * (p.M + p.m * np.sin(phi)**2)
    assert np.max(np.abs(det - ref)) < 1e-12


def test_mass_matrix_positive_definite(generic_chain, rng):
    p = generic_chain
    phi = rng.normal(0, 3, 100)
    m11, m12, m22 = mass_matrix(phi, p)
    assert np.all(m11 > 0)
    assert np.all(m11 * m22 - m12**2 > 0)


def test_torsional_potential_periodic(generic_chain):
    p = generic_chain
    assert torsional_potential(0.3, 1.1, p) == pytest.approx(
        torsional_potential(0.3 + 2 * np.pi, 1.1, p), abs=1e-12)
    assert torsional_potential(0.0, 0.0, p) == 0.0


def test_rest_configuration_has_zero_energy(generic_chain):
    p = generic_chain
    n = 9
    rest = LatticeState(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n),
                        0.0)
    assert potential_energy(rest, p) == pytest.approx(0.0, abs=1e-14)
    th, ph = discrete_forces(rest, p)
    assert np.max(np.abs(th)) < 1e-14
    assert np.max(np.abs(ph)) < 1e-14


def test_gradient_matches_finite_differences(generic_chain, rng):
    p = generic_chain
    worst = 0.0
    for _ in range(100):
        n = 6
        st = _random_state(rng, n)
        gth, gph = lagrangian_coordinate_gradient(st, p)
        i = int(rng.integers(0, n))
        eps = 1e-6
        for arr_name, grad in (("theta", gth), ("phi", gph)):
            bump = np.zeros(n)
            bump[i] = eps
            if arr_name == "theta":
                sp = LatticeState(st.theta + bump, st.phi, st.theta_dot,
                                  st.phi_dot, 0.0)
                sm = LatticeState(st.theta - bump, st.phi, st.theta_dot,
                                  st.phi_dot, 0.0)
            else:
                sp = LatticeState(st.theta, st.phi + bump, st.theta_dot,
                                  st.phi_dot, 0.0)
                sm = LatticeState(st.theta, st.phi - bump, st.theta_dot,
                                  st.phi_dot, 0.0)
            fd = (discrete_lagrangian(sp, p)
                  - discrete_lagrangian(sm, p)) / (2 * eps)
            worst = max(worst, abs(fd - grad[i]) / (abs(grad[i]) + 1.0))
    assert worst < 1e-6


def test_forces_satisfy_euler_lagrange(generic_chain, rng):
    """d/dt (dL/dqdot) = dL/dq along the reported accelerations.

    Both sides are built only from the scalar Lagrangian by finite
    differences, so this checks the whole force pipeline independently.
    """
    p = generic_chain
    n = 5
    eps = 1e-5

    def dL_dqdot(st):
        out = []
        for name in ("theta_dot", "phi_dot"):
            g = np.zeros(n)
            for i in range(n):
                bump = np.zeros(n)
                bump[i] = eps
                kw_p = {"theta": st.theta, "phi": st.phi,
                        "theta_dot": st.theta_dot, "phi_dot": st.phi_dot}
                kw_m = dict(kw_p)
                kw_p[name] = kw_p[name] + bump
                kw_m[name] = kw_m[name] - bump
                g[i] = (discrete_lagrangian(LatticeState(**kw_p, t=0.0), p)
                        - discrete_lagrangian(LatticeState(**kw_m, t=0.0), p)
                        ) / (2 * eps)
            out.append(g)
        return out

    for _ in range(5):
        st = _random_state(rng, n, scale=1.0)
        acc_th, acc_ph = discrete_forces(st, p)
        dt = 1e-5
        fwd = LatticeState(st.theta + dt * st.theta_dot,
                           st.phi + dt * st.phi_dot,
                           st.theta_dot + dt * acc_th,
                           st.phi_dot + dt * acc_ph, 0.0)
        bwd = LatticeState(st.theta - dt * st.theta_dot,
                           st.phi - dt * st.phi_dot,
                           st.theta_dot - dt * acc_th,
                           st.phi_dot - dt * acc_ph, 0.0)
        pth_f, pph_f = dL_dqdot(fwd)
        pth_b, pph_b = dL_dqdot(bwd)
        gth, gph = lagrangian_coordinate_gradient(st, p)
        scale = max(1.0, np.max(np.abs(gth)), np.max(np.abs(gph)))
        assert np.max(np.abs((pth_f - pth_b) / (2 * dt) - gth)) / scale < 1e-4
        assert np.max(np.abs((pph_f - pph_b) / (2 * dt) - gph)) / scale < 1e-4


def test_staggered_mode_frequency():
    """Small staggered pattern on the r = 0 chain oscillates at
    omega^2 = (g (M+m) R + 4 (kappa_t + kappa_s R^2)) / ((M+m) R^2) on the
    interior sites 1..n-2, each of which has a bond on both sides."""
    p = ChainParams(M=1.1, m=0.4, R=0.9, r=0.0, kappa_t=0.6, kappa_s=1.7,
                    g=1.3, delta=1.0)
    n = 8
    omega2 = (p.g * (p.M + p.m) * p.R + 4 * (p.kappa_t + p.kappa_s * p.R**2)) \
        / ((p.M + p.m) * p.R**2)
    signs = (-1.0) ** np.arange(n)

    def ratio(a):
        st = LatticeState(a * signs, np.zeros(n), np.zeros(n), np.zeros(n),
                          0.0)
        acc, _ = discrete_forces(st, p)
        return -acc / (a * signs)

    # Richardson in the amplitude kills the leading cubic nonlinearity
    r1 = ratio(1e-3)
    r2 = ratio(2e-3)
    extrap = (4 * r1 - r2) / 3.0
    assert np.max(np.abs(extrap[1:-1] - omega2)) / omega2 < 1e-6


def test_degenerate_r_zero_freezes_phi(rng):
    p = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.2, kappa_s=1.0,
                    g=1.0, delta=0.5)
    st = _random_state(rng, 7)
    _, acc_ph = discrete_forces(st, p)
    assert np.all(acc_ph == 0.0)


def test_confinement_counts_toward_potential(rng):
    base = ChainParams(M=1.0, m=0.5, R=1.0, r=0.4, kappa_t=0.0, kappa_s=0.0,
                       g=0.0, delta=1.0,
                       h_spec=ConfiningPotential(family="quadratic", c2=3.0))
    phi = rng.normal(0, 1, 4)
    st = LatticeState(np.zeros(4), phi, np.zeros(4), np.zeros(4), 0.0)
    assert potential_energy(st, base) == pytest.approx(
        np.sum(0.5 * 3.0 * phi**2), rel=1e-12)


@pytest.mark.parametrize("r, R", [(0.04, 0.96), (0.5, 1.1), (0.0, 1.0),
                                  (1e-8, 3.0)])
def test_inertia_helper_matches_inline_products(rng, r, R):
    """_inertia reproduces the r^2 alpha / r^2 beta expressions each layer
    used to write out, bit for bit, for arrays and scalars."""
    from pendulon.params import _inertia
    for phi in (rng.uniform(-10.0, 10.0, 257), 0.3, np.float64(-2.5)):
        c = np.cos(phi)
        r2a, r2b = _inertia(phi, r, R)
        assert np.array_equal(r2a, r * (r + R * c))
        assert np.array_equal(r2b, r * r + R * R + 2 * r * R * c)


def _bond_pairs(n):
    """Index arrays (i, j) of the bonds i -> j = i + 1 of the open chain, as
    the kernels first used them."""
    i = np.arange(n - 1)
    return i, i + 1


def _reference_potential_energy(state, params):
    """potential_energy as first written, gathering the bond ends with
    th[i] / th[j]. Kept as the reference for potential_energy."""
    th, ph = state.theta, state.phi
    i, j = _bond_pairs(state.n_sites)
    u = np.sum(torsional_potential(th[i], th[j], params))
    u += np.sum(stacking_potential(th[i], ph[i], th[j], ph[j], params))
    u += np.sum(external_potential(th, ph, params))
    u += np.sum(params.h_spec.h(ph))
    return float(u)


def _reference_potential_gradient(state, params):
    """The force kernel as first written: tip_position on the bond ends and
    np.add.at accumulation. Kept as the reference for _potential_gradient."""
    th, ph = state.theta, state.phi
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    gth = g * (M * R * np.sin(th) + m * (R * np.sin(th) + r * np.sin(ph + th)))
    gph = g * m * r * np.sin(ph + th) + params.h_spec.dh(ph)
    i, j = _bond_pairs(state.n_sites)
    s = params.kappa_t * np.sin(th[j] - th[i])
    np.add.at(gth, i, -s)
    np.add.at(gth, j, s)
    xi, yi = tip_position(th[i], ph[i], params)
    xj, yj = tip_position(th[j], ph[j], params)
    dx, dy = xj - xi, yj - yi
    ks = params.kappa_s
    np.add.at(gth, i, -ks * (dx * (-yi) + dy * xi))
    np.add.at(gth, j, ks * (dx * (-yj) + dy * xj))
    np.add.at(gph, i, -ks * r * (-dx * np.sin(th[i] + ph[i])
                                 + dy * np.cos(th[i] + ph[i])))
    np.add.at(gph, j, ks * r * (-dx * np.sin(th[j] + ph[j])
                                + dy * np.cos(th[j] + ph[j])))
    return gth, gph


@hst.composite
def _kernel_cases(draw):
    """A random state and chain for the reference-kernel tests: n from 2,
    both confinement families."""
    p = ChainParams(M=1.3, m=0.6, R=draw(hst.floats(0.0, 2.0)),
                    r=draw(hst.floats(0.0, 2.0)),
                    kappa_t=draw(hst.floats(0.0, 3.0)),
                    kappa_s=draw(hst.floats(0.0, 3.0)),
                    g=draw(hst.floats(0.0, 2.0)), delta=0.8,
                    h_spec=ConfiningPotential(
                        family=draw(hst.sampled_from(["quadratic",
                                                      "tangent-barrier"])),
                        c2=1.7, b=0.2))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return _random_state(rng, draw(hst.integers(2, 300)), scale=3.0), p


@settings(max_examples=80, deadline=None)
@given(case=_kernel_cases())
def test_potential_gradient_matches_reference_kernel(case):
    """One trig pass per site and bond terms on slices give the reference
    kernel's arrays bit for bit."""
    state, p = case
    got = _potential_gradient(state, p)
    ref = _reference_potential_gradient(state, p)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(case=_kernel_cases())
def test_potential_energy_matches_reference_kernel(case):
    """Bond ends taken as slices give the gathered kernel's energy bit for
    bit."""
    state, p = case
    assert potential_energy(state, p) == _reference_potential_energy(state, p)
