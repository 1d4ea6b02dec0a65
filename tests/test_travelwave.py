import dataclasses
from unittest import mock

import numpy as np
import pytest

from pendulon import travelwave
from pendulon._stencils import derivative
from pendulon.params import ChainParams, ConfiningPotential, _field_equations
from pendulon.travelwave import (TWProfile, TWSolveError, _jacobian_blocks,
                                 export_profile, kink_profile, residual_linf,
                                 solve_tw_bvp, tw_first_integral,
                                 tw_lagrangian_density, tw_residual)


def _single_angle_chain():
    return ChainParams(M=1.0, m=0.0, R=1.0, r=0.0, kappa_t=0.0, kappa_s=1.0,
                       g=1.0, delta=1.0)


def _coupled_chain():
    return ChainParams(M=1.0, m=0.05, R=0.96, r=0.04, kappa_t=0.015,
                       kappa_s=0.985, g=1.0, delta=1.0,
                       h_spec=ConfiningPotential(family="quadratic", c2=2.0))


def _star_chain():
    """The chain of v* = 2 (M = R = 3, m = r = 1, no torsion), with
    h''(0) = 400."""
    return ChainParams(M=3.0, m=1.0, R=3.0, r=1.0, kappa_t=0.0, kappa_s=1.0,
                       g=1.0, delta=1.0,
                       h_spec=ConfiningPotential(family="quadratic", c2=400.0))


def test_kink_profile_exact_with_curvature():
    p = _single_angle_chain()
    v = 0.3
    k = np.sqrt(1.0 / (1.0 - v**2))
    z = np.linspace(-20 / k, 20 / k, 1501)
    prof = kink_profile(z, k, v)
    r1, r2 = tw_residual(prof, p)
    assert np.max(np.abs(r1)) < 1e-13
    assert np.max(np.abs(r2)) < 1e-13


def test_kink_profile_fd_floor_without_curvature():
    """A profile built without curvature samples takes them by finite
    differences."""
    p = _single_angle_chain()
    v = 0.3
    k = np.sqrt(1.0 / (1.0 - v**2))
    z = np.linspace(-20 / k, 20 / k, 2001)
    prof = dataclasses.replace(kink_profile(z, k, v), theta_zz=None,
                               phi_zz=None)
    r1, _ = tw_residual(prof, p)
    assert np.max(np.abs(r1)) < 1e-6  # 4th-order differencing floor


@pytest.mark.parametrize("family", ["quadratic", "tangent-barrier"])
@pytest.mark.parametrize("v", [0.31, 6.0])  # mu > 0, mu < 0
def test_jacobian_matches_finite_differences(rng, family, v):
    """_jacobian_blocks against central differences of the field equations,
    for both confinement families (d2h varies with phi on the tangent
    barrier; phi stays inside +-0.5 phi0 there) and both signs of mu."""
    h = ConfiningPotential(family=family, c2=2.0,
                           b=0.3 if family == "tangent-barrier" else 0.0)
    p = dataclasses.replace(_coupled_chain(), h_spec=h)
    c = p.wave_constants(v)
    n = 40
    fields = {name: rng.normal(0, 0.5, n)
              for name in ("theta", "theta_z", "phi_z", "theta_zz", "phi_zz")}
    fields["phi"] = rng.uniform(-0.5 * h.phi0, 0.5 * h.phi0, n)
    order = ("theta", "phi", "theta_z", "phi_z", "theta_zz", "phi_zz")
    blocks = _jacobian_blocks(*(fields[a] for a in order), c)
    eps = 1e-7
    worst = 0.0
    for arg, tag in (("theta", "0"), ("theta_z", "1"), ("theta_zz", "2"),
                     ("phi", "0"), ("phi_z", "1"), ("phi_zz", "2")):
        up = dict(fields)
        dn = dict(fields)
        up[arg] = fields[arg] + eps
        dn[arg] = fields[arg] - eps
        rp = _field_equations(*(up[a] for a in order), c)
        rm = _field_equations(*(dn[a] for a in order), c)
        fd1 = (rp[0] - rm[0]) / (2 * eps)
        fd2 = (rp[1] - rm[1]) / (2 * eps)
        key = "t" if arg.startswith("theta") else "p"
        worst = max(worst,
                    float(np.max(np.abs(fd1 - blocks[f"r1_{key}{tag}"]))),
                    float(np.max(np.abs(fd2 - blocks[f"r2_{key}{tag}"]))))
    assert worst < 1e-6


def test_solver_recovers_analytic_kink():
    """Perturb the exact single-angle kink and let Newton pull it back."""
    p = _single_angle_chain()
    v = 0.3
    k = np.sqrt(1.0 / (1.0 - v**2))
    z = np.linspace(-20 / k, 20 / k, 1501)
    exact = kink_profile(z, k, v)
    bump = 0.08 * np.exp(-(z / 2.0) ** 2)
    guess = TWProfile(z, exact.theta + bump, exact.phi, exact.theta_z,
                      exact.phi_z, v)
    sol = solve_tw_bvp(guess, p)
    # agreement is limited by the O(dz^4) gap between the collocation
    # solution and the sampled continuum kink, not by the solver
    assert np.max(np.abs(sol.theta - exact.theta)) < 1e-7
    r1, r2 = tw_residual(sol, p)
    assert np.max(np.abs(r1)) < 1e-9
    assert np.max(np.abs(r2)) < 1e-9


def test_solver_on_coupled_chain_and_first_integral():
    p = _coupled_chain()
    v = 0.305
    k = 1.05
    z = np.linspace(-20 / k, 20 / k, 2001)
    guess = kink_profile(z, k, v)
    sol = solve_tw_bvp(guess, p)
    assert np.max(np.abs(sol.phi)) > 1e-4  # genuinely two-field
    E = tw_first_integral(sol, p)
    rel_var = np.var(E) / np.mean(E) ** 2
    assert rel_var < 1e-8


@pytest.mark.parametrize("chain, v, k, pi_shift", [
    (_coupled_chain(), 0.305, 1.05, False),  # the README chain
    (_star_chain(), 2.2, 1.0 / np.sqrt(12.0), True),  # 1.1 v*, stiff
])
def test_solved_profile_carries_its_stencil_derivatives(chain, v, k,
                                                        pi_shift):
    """The solution's slopes and curvature are the D1 and D2 products of its
    last residual, bit for bit what tw_residual would rebuild without them."""
    z = np.linspace(-20.0 / k, 20.0 / k, 2001)
    prof = solve_tw_bvp(kink_profile(z, k, v, pi_shift=pi_shift), chain)
    assert np.max(np.abs(prof.phi)) > 1e-5  # phi is not identically 0
    for field, d1, d2 in ((prof.theta, prof.theta_z, prof.theta_zz),
                          (prof.phi, prof.phi_z, prof.phi_zz)):
        assert np.array_equal(d1, derivative(field, prof.dz, 1))
        assert np.array_equal(d2, derivative(field, prof.dz, 2))


@pytest.mark.parametrize("chain, v, k, pi_shift", [
    (_coupled_chain(), 0.305, 1.05, False),  # the README chain, theta_c = pi
    (_star_chain(), 2.2, 1.0 / np.sqrt(12.0), True),  # theta_c = 0
])
def test_solved_profiles_are_reflection_symmetric(chain, v, k, pi_shift):
    """On an odd grid theta + theta[::-1] = 2 theta_c and phi + phi[::-1] = 0
    hold exactly off the centre node, which carries the LU's rounding."""
    n = 2001
    z = np.linspace(-20.0 / k, 20.0 / k, n)
    prof = solve_tw_bvp(kink_profile(z, k, v, pi_shift=pi_shift), chain)
    two_c = prof.theta[0] + prof.theta[-1]  # theta_c of the guess's ends
    assert two_c == pytest.approx(0.0 if pi_shift else 2 * np.pi, abs=1e-15)
    theta_sum = prof.theta + prof.theta[::-1]
    phi_sum = prof.phi + prof.phi[::-1]
    off = np.arange(n) != n // 2
    assert np.array_equal(theta_sum[off], np.full(n - 1, two_c))
    assert np.array_equal(phi_sum[off], np.zeros(n - 1))
    assert abs(theta_sum[n // 2] - two_c) <= 1e-18
    assert abs(phi_sum[n // 2]) <= 1e-18


def test_even_grid_reflects_about_the_half_node():
    """With n even the centre is the half node between n/2 - 1 and n/2, so
    there is no centre unknown and the symmetry is exact at every node."""
    p = _coupled_chain()
    z = np.linspace(-20 / 1.05, 20 / 1.05, 2000)
    prof = solve_tw_bvp(kink_profile(z, 1.05, 0.305), p)
    assert np.array_equal(prof.theta + prof.theta[::-1],
                          np.full(2000, 2 * np.pi))
    assert np.array_equal(prof.phi + prof.phi[::-1], np.zeros(2000))
    assert max(residual_linf(r) for r in tw_residual(prof, p)) < 1e-10


def test_guess_without_odd_phi_ends_is_refused_before_factoring():
    p = _coupled_chain()
    guess = kink_profile(np.linspace(-10, 10, 301), 1.0, 0.305)
    phi = guess.phi.copy()
    phi[0] = 0.25
    never = mock.Mock(side_effect=AssertionError("factored"))
    with mock.patch.object(travelwave, "splu", never):
        with pytest.raises(ValueError, match=r"got 0\.25 and 0\.0$"):
            solve_tw_bvp(dataclasses.replace(guess, phi=phi), p)
    never.assert_not_called()


@pytest.mark.parametrize("n", [1201, 1200])
def test_only_the_right_half_of_the_guess_is_read(n):
    """Left of the centre only the end values theta[0] (through theta_c)
    and phi[0] (checked against phi[-1]) are read."""
    p = _coupled_chain()
    z = np.linspace(-20 / 1.05, 20 / 1.05, n)
    guess = kink_profile(z, 1.05, 0.305)
    left = slice(1, n // 2)
    theta, phi = guess.theta.copy(), guess.phi.copy()
    theta[left] = 7.0
    phi[left] = -3.0
    moved = solve_tw_bvp(dataclasses.replace(guess, theta=theta, phi=phi), p)
    ref = solve_tw_bvp(guess, p)
    assert np.array_equal(moved.theta, ref.theta)
    assert np.array_equal(moved.phi, ref.phi)


def test_first_integral_is_legendre_transform(rng):
    """E = theta' dL/dtheta' + phi' dL/dphi' - L, with the derivatives taken
    numerically from the density. Second route to the conserved quantity."""
    p = _coupled_chain()
    v = 0.28
    z = np.linspace(-1, 1, 9)
    th = rng.normal(0, 1, 9)
    ph = rng.normal(0, 0.5, 9)
    thz = rng.normal(0, 1, 9)
    phz = rng.normal(0, 1, 9)
    prof = TWProfile(z, th, ph, thz, phz, v)
    E = tw_first_integral(prof, p)
    eps = 1e-6
    L = tw_lagrangian_density(th, ph, thz, phz, v, p)
    dL_dthz = (tw_lagrangian_density(th, ph, thz + eps, phz, v, p)
               - tw_lagrangian_density(th, ph, thz - eps, phz, v, p)) / (2 * eps)
    dL_dphz = (tw_lagrangian_density(th, ph, thz, phz + eps, v, p)
               - tw_lagrangian_density(th, ph, thz, phz - eps, v, p)) / (2 * eps)
    ref = thz * dL_dthz + phz * dL_dphz - L
    assert np.max(np.abs(E - ref)) < 1e-7


def test_sonic_speed_rejected():
    p = _coupled_chain()
    v_sonic = np.sqrt(p.Ks / p.m)
    z = np.linspace(-10, 10, 301)
    guess = kink_profile(z, 1.0, v_sonic)
    with pytest.raises(TWSolveError, match="mu = 0"):
        solve_tw_bvp(guess, p)


def test_nonconvergence_reports_residual():
    p = _coupled_chain()
    z = np.linspace(-15, 15, 501)
    guess = kink_profile(z, 1.0, 40.0)
    with pytest.raises(TWSolveError) as info:
        solve_tw_bvp(guess, p)
    assert info.value.residual is not None


def test_known_bad_benchmark_operation_still_stalls():
    """The README chain at v = 40 on perfbench's solve-tw grid (n = 301 on
    |z| <= 20 / 1.05): the benchmark counts this solve as its known-bad
    operation, so a change that makes it converge shows here first."""
    z = np.linspace(-20 / 1.05, 20 / 1.05, 301)
    with pytest.raises(TWSolveError, match="stalled"):
        solve_tw_bvp(kink_profile(z, 1.05, 40.0), _coupled_chain())


def test_pi_shift_and_winding():
    p = _single_angle_chain()
    z = np.linspace(-8, 8, 401)
    base = kink_profile(z, 1.0, 0.2)
    shifted = kink_profile(z, 1.0, 0.2, pi_shift=True)
    assert np.allclose(shifted.theta, base.theta - np.pi, atol=1e-14)


def test_export_profile_roundtrip(tmp_path):
    p = _single_angle_chain()
    z = np.linspace(-10, 10, 201)
    prof = kink_profile(z, 1.1, 0.25)
    path = tmp_path / "prof.npy"
    returned = export_profile(prof, p, path)
    record = np.load(path, allow_pickle=False)
    assert record.dtype == np.dtype(
        [(name, "<f8", (201,)) for name in
         ("z", "theta", "phi", "theta_z", "phi_z", "res1", "res2", "E_tw")])
    res1, res2 = tw_residual(prof, p)
    columns = {"z": z, "theta": prof.theta, "phi": prof.phi,
               "theta_z": prof.theta_z, "phi_z": prof.phi_z,
               "res1": res1, "res2": res2, "E_tw": tw_first_integral(prof, p)}
    for name, column in columns.items():
        assert np.array_equal(record[name].view(np.uint64),
                              column.view(np.uint64)), name
    for name, column in zip(("res1", "res2", "E_tw"), returned):
        assert np.array_equal(record[name].view(np.uint64),
                              column.view(np.uint64)), name


def test_refined_grid_accepted_and_warped_grid_rejected():
    p = _coupled_chain()
    # no curvature samples, so the residual applies the stencils
    fine = dataclasses.replace(
        kink_profile(np.linspace(-20.0, 20.0, 16001), 1.05, 0.305),
        theta_zz=None, phi_zz=None)
    r1, r2 = tw_residual(fine, p)
    assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))
    # a warped grid used to "converge" on the wrong stencil spacing
    u = np.linspace(-1.0, 1.0, 2001)
    warped = kink_profile(20.0 * (u + 0.05 * np.sin(np.pi * u)), 1.05, 0.305)
    with pytest.raises(ValueError, match="grid must be uniform"):
        solve_tw_bvp(warped, p)
    with pytest.raises(ValueError, match="grid must be uniform"):
        tw_residual(warped, p)
