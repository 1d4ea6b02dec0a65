"""Small tip-pendulum expansion: the closed-form first-order outer
correction, slaving formulas for the tip angle, series reconstruction
invariants, and the numerical order-extraction machinery."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from pendulon import _stencils, perturbation
from pendulon.continuum import kink_field_grid
from pendulon.lattice import moving_kink_state
from pendulon.params import ChainParams, ConfiningPotential
from pendulon.perturbation import (ExpansionParams, _forcing_coefficient,
                                   _phi1_coefficient, _phi2, _theta1_zz,
                                   build_perturbative, coefficient_B,
                                   compose_series, kink_grid, kink_parameter,
                                   mu_hat, residual_scaling, sg_kink,
                                   taylor_extract, export_scaling_csv)
from pendulon.travelwave import kink_profile, solve_tw_bvp, tw_residual
from pendulon._stencils import derivative


def test_kink_parameter_value(exp_params):
    p = exp_params
    k = kink_parameter(p)
    assert k == pytest.approx(
        np.sqrt(p.Mhat * p.g / (p.A * (p.Khat - p.Mhat * p.v0**2))), rel=1e-14)
    assert mu_hat(p) < 0


def test_sonic_base_speed_rejected():
    fast = ExpansionParams(A=1.0, Mhat=1.0, Khat=1.0, g=1.0, v0=1.0)
    with pytest.raises(ValueError):
        kink_parameter(fast)


def test_sg_kink_self_consistency(exp_params):
    p = exp_params
    k = kink_parameter(p)
    z = np.linspace(-30.0 / k, 30.0 / k, 3001)
    kin = sg_kink(z, p)
    assert np.max(np.abs(np.sin(kin.theta0) - kin.sin_theta0)) < 1e-13
    assert np.max(np.abs(np.cos(kin.theta0) - kin.cos_theta0)) < 1e-13
    dz = z[1] - z[0]
    assert np.max(np.abs(derivative(kin.theta0, dz, 1)
                         - kin.theta0_z)) < 1e-6
    assert np.max(np.abs(derivative(kin.theta0_z, dz, 1)
                         - kin.theta0_zz)) < 1e-6
    # the lattice, PDE and travelling-wave kinks share sg_kink's formula
    chain = ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0,
                        kappa_s=1.0, g=1.0, delta=dz)
    x = chain.delta * np.arange(z.size)
    center = x[-1] / 2.0
    kin = sg_kink(x - center, p)
    lat = moving_kink_state(chain, k, 0.3, z.size, center=center)
    pde = kink_field_grid(chain, k, 0.3, x, center=center)
    tw = kink_profile(x - center, k, 0.3)
    for theta in (lat.theta, pde.Theta, tw.theta):
        assert np.array_equal(theta, kin.theta0)
    assert np.array_equal(tw.theta_z, kin.theta0_z)
    assert np.array_equal(tw.theta_zz, kin.theta0_zz)
    assert np.array_equal(lat.theta_dot, pde.Theta_t)


def test_sg_kink_tails_keep_relative_accuracy(exp_params):
    p = exp_params
    k = kink_parameter(p)
    for u in (-30.0, -22.0):
        th = sg_kink(np.array([u / k]), p).theta0[0]
        assert th == pytest.approx(4.0 * np.exp(u), rel=1e-10)
    th_right = sg_kink(np.array([30.0 / k]), p).theta0[0]
    assert 2 * np.pi - th_right == pytest.approx(4.0 * np.exp(-30.0),
                                                 rel=1e-8)


def _theta1(params, z, kin):
    """theta1 as build_perturbative writes it, (C_f / (2 k^2)) z theta0'."""
    b = _forcing_coefficient(params) / (2 * kink_parameter(params) ** 2)
    return b * z * kin.theta0_z


def _theta1_exact(params, z):
    """(C_f/k) z sech(kz) and its slope, from the transcendentals direct."""
    k = kink_parameter(params)
    c = _forcing_coefficient(params) / k
    sech = 1.0 / np.cosh(k * z)
    return c * z * sech, c * sech * (1.0 - k * z * np.tanh(k * z))


def test_build_perturbative_theta1_closed_form(exp_params, exp_params_wide):
    # the forced linearization has the exact odd solution (C_f/k) z sech(kz);
    # theta1 and theta1' agree with it to rounding (4 ulps seen)
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p)
        o1 = build_perturbative(p, z).orders[1]
        exact, exact_z = _theta1_exact(p, z)
        ulp = np.spacing(np.max(np.abs(o1.theta)))
        assert np.max(np.abs(o1.theta - exact)) <= 8 * ulp
        assert np.max(np.abs(o1.theta_z - exact_z)) <= 8 * ulp


def test_build_perturbative_theta1_is_odd_and_mode_free(exp_params,
                                                        exp_params_wide):
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p)
        theta1 = build_perturbative(p, z).orders[1].theta
        assert np.max(np.abs(theta1 + theta1[::-1])) < 1e-8
        kin = sg_kink(z, p)
        overlap = np.trapezoid(theta1 * kin.theta0_z, z) \
            / np.trapezoid(kin.theta0_z**2, z)
        assert abs(overlap) < 1e-10


def test_build_perturbative_theta1_zz_closed_form(exp_params,
                                                  exp_params_wide):
    # the ODE form k^2 cos(theta0) theta1 + C_f sin(theta0) against the
    # second derivative of (C_f/k) z sech(kz) itself (2 and 6 ulps seen)
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p)
        o1 = build_perturbative(p, z).orders[1]
        k = kink_parameter(p)
        c = _forcing_coefficient(p) / k
        sech, tanh = 1.0 / np.cosh(k * z), np.tanh(k * z)
        exact_zz = c * k * sech * (-2.0 * tanh
                                   + k * z * (tanh**2 - sech**2))
        ulp = np.spacing(np.max(np.abs(o1.theta_zz)))
        assert np.max(np.abs(o1.theta_zz - exact_zz)) <= 16 * ulp


def test_build_perturbative_factors_nothing(exp_params, exp_params_wide):
    # every order is closed form or algebraic: no linear solve is left
    with mock.patch.object(perturbation, "splu",
                           side_effect=AssertionError("splu called")):
        for p in (exp_params, exp_params_wide):
            build_perturbative(p, kink_grid(p))


def test_taylor_extract_theta1_is_odd_and_mode_free(exp_params,
                                                    exp_params_wide):
    """The oracle's theta1 carries no translation mode, so it is compared
    with the closed form directly, with no projection (odd part 2.8e-12 and
    overlap 4.7e-13 seen at n = 4001)."""
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p)
        theta1 = taylor_extract(p, z).theta1
        assert np.max(np.abs(theta1 + theta1[::-1])) < 1e-10
        kin = sg_kink(z, p)
        overlap = np.trapezoid(theta1 * kin.theta0_z, z) \
            / np.trapezoid(kin.theta0_z**2, z)
        assert abs(overlap) < 1e-10


def test_taylor_extract_theta1_is_fourth_order(exp_params):
    """The oracle's own error: the collocation theta1 against the closed form
    converges at order 4 in dz (3.84e-7, 2.40e-8 and 1.60e-9 seen at
    n = 1001, 2001 and 4001, ratios 16.0 and 15.0)."""
    p = exp_params
    gaps = []
    for n, bound in ((1001, 6e-7), (2001, 4e-8), (4001, 3e-9)):
        z = kink_grid(p, n_points=n)
        exact = _theta1_exact(p, z)[0]
        got = taylor_extract(p, z).theta1
        gaps.append(np.linalg.norm(got - exact) / np.linalg.norm(exact))
        assert gaps[-1] < bound, (n, gaps[-1])
    assert gaps[0] / gaps[1] > 12.0 and gaps[1] / gaps[2] > 12.0, gaps


def test_order1_phi_shape_and_sign(exp_params):
    p = exp_params
    z = kink_grid(p)
    kin = sg_kink(z, p)
    phi1 = _phi1_coefficient(p) * kin.sin_theta0
    assert np.array_equal(build_perturbative(p, z).orders[1].phi, phi1)
    coeff = p.A * p.Khat * p.r1 * kink_parameter(p) ** 2 / p.h_spec.d2h(0.0)
    assert coeff > 0
    assert np.max(np.abs(phi1 - coeff * kin.sin_theta0)) < 1e-14


def test_order2_phi_h3_term():
    # same geometry, synthetic cubic stiffness enters as -h3 phi1^2 / (2 h2)
    p = ExpansionParams(A=1.0, Mhat=1.0, Khat=1.0, g=1.0, v0=0.3, r1=0.4,
                        h_spec=ConfiningPotential(family="quadratic", c2=2.0))
    z = kink_grid(p, n_points=1601)
    kin = sg_kink(z, p)
    theta1_zz = _theta1_zz(p, kin, _theta1(p, z, kin))
    phi1 = _phi1_coefficient(p) * kin.sin_theta0
    h2 = 2.0
    base = _phi2(p, kin, theta1_zz, phi1)
    with mock.patch.object(ConfiningPotential, "d3h",
                           return_value=0.7) as h3:
        bent = _phi2(p, kin, theta1_zz, phi1)
    h3.assert_called_once_with(0.0)
    assert np.allclose(bent - base, -0.7 * phi1**2 / (2 * h2), atol=1e-13)


def test_compose_series_order0_is_bare_kink(exp_params):
    p = exp_params
    sol = build_perturbative(p)
    prof = compose_series(sol, 0.0, 2)
    kin = sg_kink(sol.z, p)
    assert np.array_equal(prof.theta, kin.theta0)
    assert np.all(prof.phi == 0.0)
    assert prof.v == p.v0


def test_compose_series_residual_improves_with_order(exp_params):
    p = exp_params
    sol = build_perturbative(p)
    eps = 0.05
    chain = p.to_chain_params(eps=eps)
    norms = []
    for order in (0, 1, 2):
        r1, r2 = tw_residual(compose_series(sol, eps, order), chain)
        norms.append(np.max(np.abs(r1)) + np.max(np.abs(r2)))
    assert norms[2] < norms[1] < norms[0]


def _assembled_series(params, z, eps, order):
    """compose_series assembled field by field from the order functions:
    (theta, phi, theta', phi', theta'', phi''), order by order in eps."""
    dz = float(z[1] - z[0])
    kin = sg_kink(z, params)
    theta, theta_z, theta_zz = kin.theta0, kin.theta0_z, kin.theta0_zz
    phi, phi_z, phi_zz = np.zeros((3, z.size))
    if order >= 1:
        c1 = _phi1_coefficient(params)
        b = _forcing_coefficient(params) / (2 * kink_parameter(params) ** 2)
        theta1 = b * z * kin.theta0_z
        theta1_zz = (kink_parameter(params) ** 2 * kin.cos_theta0 * theta1
                     + _forcing_coefficient(params) * kin.sin_theta0)
        phi1 = c1 * kin.sin_theta0
        theta = theta + eps * theta1
        theta_z = theta_z + eps * (b * (kin.theta0_z + z * kin.theta0_zz))
        theta_zz = theta_zz + eps * theta1_zz
        phi = phi + eps * phi1
        phi_z = phi_z + eps * (c1 * kin.cos_theta0 * kin.theta0_z)
        phi_zz = phi_zz + eps * (c1 * (kin.cos_theta0 * kin.theta0_zz
                                       - kin.sin_theta0 * kin.theta0_z**2))
    if order == 2:
        phi2 = _phi2(params, kin, theta1_zz, phi1)
        phi = phi + eps * eps * phi2
        phi_z = phi_z + eps * eps * derivative(phi2, dz, 1)
        phi_zz = phi_zz + eps * eps * derivative(phi2, dz, 2)
    return theta, phi, theta_z, phi_z, theta_zz, phi_zz


def test_compose_series_equals_the_order_by_order_assembly(exp_params):
    """Bit for bit at orders 0, 1 and 2: the orders of build_perturbative
    summed by perturbation.compose add the same terms in the same order."""
    p = exp_params
    z = kink_grid(p, n_points=1201)
    sol = build_perturbative(p, z)
    for order in (0, 1, 2):
        prof = compose_series(sol, 0.05, order)
        got = (prof.theta, prof.phi, prof.theta_z, prof.phi_z, prof.theta_zz,
               prof.phi_zz)
        for name, a, b in zip(perturbation.Order._fields, got,
                              _assembled_series(p, z, 0.05, order)):
            assert np.array_equal(a, b), (order, name)
        assert prof.v == p.speed(0.05)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -0.01])
def test_compose_series_rejects_non_finite_or_negative_eps(exp_params, eps):
    sol = build_perturbative(exp_params, kink_grid(exp_params, n_points=801))
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        compose_series(sol, eps, 1)


@pytest.mark.parametrize("eps_list", [[np.nan, 0.1], [0.05, np.inf]])
def test_residual_scaling_rejects_non_finite_eps(exp_params, eps_list):
    sol = build_perturbative(exp_params, kink_grid(exp_params, n_points=801))
    with pytest.raises(ValueError, match="eps values must be positive and "
                                         "finite"):
        residual_scaling(sol, eps_list, 1)


def test_reconstruction_identities(exp_params):
    # bare parameters recombine to the hatted totals at every eps
    p = exp_params
    for eps in (0.0, 0.03, 0.17):
        c = p.to_chain_params(eps=eps)
        assert c.M + c.m == pytest.approx(p.Mhat, abs=1e-14)
        assert c.R + c.r == pytest.approx(p.A, abs=1e-14)
        assert c.Ks + c.Kt == pytest.approx(p.Khat, abs=1e-14)
        assert c.r == pytest.approx(eps * p.r1 + eps**2 * p.r2, abs=1e-14)
        assert c.Kt == pytest.approx(eps * p.k1 + eps**2 * p.k2, abs=1e-14)


def test_mu_series_truncation_is_cubic(exp_params):
    p = exp_params
    mu1 = -(p.k1 + p.m1 * p.v0**2)
    mu2 = -(p.k2 + p.m2 * p.v0**2 + 2 * p.m1 * p.v0 * p.v1)

    def gap(eps):
        c = p.to_chain_params(eps=eps)
        mu = c.Ks - c.m * p.speed(eps) ** 2
        return mu - (p.Khat + eps * mu1 + eps**2 * mu2)

    g1, g2 = gap(0.02), gap(0.04)
    assert abs(g2 / g1) == pytest.approx(8.0, rel=0.15)


def test_coefficient_B_special_zero():
    p = ExpansionParams(A=1.0, Mhat=1.2, Khat=1.1, g=0.9, v0=0.3,
                        r1=0.0, k1=0.0, v1=0.0, m1=0.5)
    assert coefficient_B(p) == 0.0


def _reference_extract(params, order, field, z):
    """An independent extraction of the same discrete family: 6 BVP solves
    at eps = 0, 0.02, ..., 0.1 and a degree-5 Vandermonde fit per node."""
    k = kink_parameter(params)
    samples = []
    for j in range(6):
        e = j * 0.02
        chain = params.to_chain_params(eps=e)
        v = params.speed(e)
        guess = kink_profile(z, k, v)
        solved = solve_tw_bvp(guess, chain)
        samples.append(solved.theta if field == "theta" else solved.phi)
    V = np.vander(np.arange(6, dtype=float), 6, increasing=True)
    coeffs = np.linalg.solve(V, np.asarray(samples))
    return coeffs[order] / 0.02**order


def test_taylor_extract_sweep_matches_per_field_extraction(exp_params):
    """The implicit coefficients against the fit, within the fit's own
    truncation (its eps^6 term; 8.6e-8, 7.9e-8 and 1.7e-5 seen). Both pin
    theta at the midpoint, so theta1 needs no projection."""
    p = exp_params
    z = kink_grid(p, n_points=801, half_width_factor=20.0)
    ext = taylor_extract(p, z)
    for got, (order, field), bound in zip(
            ext, [(1, "theta"), (1, "phi"), (2, "phi")], [1e-6, 1e-6, 1e-4]):
        ref = _reference_extract(p, order, field, z)
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel < bound, (order, field, rel)


def test_taylor_extract_is_insensitive_to_the_contour_radius(exp_params,
                                                             monkeypatch):
    """phi2 moves by less than 1e-8 (rel. L2) when the contour radius goes
    from 0.05 to 0.01 or 0.1 (9.5e-14 and 8.7e-14 seen): the right-hand
    sides are Cauchy coefficients, not differences, so no radius needs
    tuning."""
    z = kink_grid(exp_params, n_points=801, half_width_factor=20.0)
    ref = taylor_extract(exp_params, z).phi2
    for rho in (0.01, 0.1):
        monkeypatch.setattr(_stencils, "CONTOUR_RADIUS", rho)
        got = taylor_extract(exp_params, z).phi2
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel < 1e-8, (rho, rel)


def test_taylor_extract_solves_once_and_factors_once(exp_params):
    """One Newton solve at eps = 0, and one factor of the Jacobian at its
    solution besides the solve's own."""
    z = kink_grid(exp_params, n_points=801, half_width_factor=20.0)
    with mock.patch.object(perturbation.travelwave, "solve_tw_bvp",
                           wraps=solve_tw_bvp) as solves, \
            mock.patch.object(perturbation, "splu", wraps=splu) as factors:
        taylor_extract(exp_params, z)
    assert solves.call_count == 1
    assert factors.call_count == 1


def test_build_perturbative_takes_the_kink_once(exp_params, exp_params_wide):
    # the kink arrays pass down to every order, and the order formulas
    # called alone on a kink of their own agree with the build bit for bit
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p, n_points=801)
        with mock.patch.object(perturbation, "sg_kink",
                               wraps=perturbation.sg_kink) as kink:
            sol = build_perturbative(p, z)
        assert kink.call_count == 1
        kin = sg_kink(z, p)
        theta1 = _theta1(p, z, kin)
        phi1 = _phi1_coefficient(p) * kin.sin_theta0
        assert np.array_equal(sol.orders[1].theta, theta1)
        assert np.array_equal(sol.orders[1].phi, phi1)
        assert np.array_equal(sol.orders[2].phi, _phi2(
            p, kin, _theta1_zz(p, kin, theta1), phi1))


def test_build_perturbative_grid_check(exp_params):
    p = exp_params
    sol = build_perturbative(p, kink_grid(p, n_points=32001))
    assert sol.orders[1].theta.shape == (32001,)
    z = kink_grid(p, n_points=2001)
    stepped = np.concatenate([z[:1000], z[1001:] + 0.5 * (z[1] - z[0])])
    k = kink_parameter(p)
    uneven = np.concatenate([np.linspace(-30 / k, 0, 200),
                             np.linspace(0.01, 30 / k, 300)])
    for bad in (stepped, uneven):
        with pytest.raises(ValueError, match="grid must be uniform"):
            build_perturbative(p, bad)


def test_residual_scaling_requires_positive_eps(exp_params):
    sol = build_perturbative(exp_params)
    with pytest.raises(ValueError):
        residual_scaling(sol, [0.0], 0)
    with pytest.raises(ValueError):
        residual_scaling(sol, [0.01, -0.02], 0)


def test_residual_scaling_requires_two_distinct_eps(exp_params):
    """A repeated eps leaves the log-log fit one point: no slope exists."""
    sol = build_perturbative(exp_params)
    with pytest.raises(ValueError, match="distinct"):
        residual_scaling(sol, [0.05, 0.05], 1)


def test_export_scaling_csv(tmp_path, exp_params):
    study = residual_scaling(build_perturbative(exp_params), [0.02, 0.05], 0)
    path = tmp_path / "scaling.csv"
    export_scaling_csv(study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: residual-scaling v1"
    assert lines[1] == "eps,res_eq1_L2,res_eq2_L2"
    row = np.loadtxt(lines[2:], delimiter=",")
    assert row.shape == (2, 3)
    assert row[0, 0] == 0.02


def test_speed_polynomial(exp_params):
    p = exp_params
    assert p.speed(0.1) == pytest.approx(p.v0 + 0.1 * p.v1, abs=1e-15)
    q = dataclasses.replace(p, v2=0.7)
    assert q.speed(0.1) == pytest.approx(p.v0 + 0.1 * p.v1 + 0.007, abs=1e-15)
