"""The params kernels against the separate formulas each layer used to write
out. The one field-equation kernel, params._field_equations: the
travelling-wave residual, Lagrangian density and first integral (bit for
bit), and the PDE sources and frozen-phi residuals (within a few ulps, since
their terms are summed in a different order). The coefficient-matrix and
gravity kernels (_coefficients, _quadratic, _pendant): the chain's kinetic
and gravity energies and the continuum's energy density, within a few ulps,
and the identities that link the layers through them. The confining
potential's derivatives against its own complex step, which the Newton
Jacobian takes of the field equations."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendulon import continuum
from pendulon.chain import external_potential, kinetic_energy_site, mass_matrix
from pendulon.continuum import FieldGrid
from pendulon.params import (ChainParams, ConfiningPotential,
                             _field_equations, _inertia)
from pendulon.reductions import reduced_equations_residual
from pendulon.travelwave import (TWProfile, _chain_values, _density_parts,
                                 tw_coefficients, tw_first_integral,
                                 tw_lagrangian_density, tw_residual)

# agreement bound for the reordered sums: ULPS units of rounding of a bound
# on the sum of the absolute values of each equation's terms
ULPS = 8


def _residual_reference(theta, phi, theta_z, phi_z, theta_zz, phi_zz, mu, v,
                        params):
    """The travelling-wave residual as travelwave wrote it out on its own."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    s = np.sin(phi)
    r2a, r2b = _inertia(phi, r, R)
    res1 = (mu * r2a * phi_zz
            + (params.Kt - M * R**2 * v**2 + mu * r2b) * theta_zz
            - mu * r * R * phi_z * (phi_z + 2 * theta_z) * s
            - g * (R * (M + m) * np.sin(theta) + m * r * np.sin(phi + theta)))
    res2 = (mu * r * r * phi_zz + mu * r2a * theta_zz
            - params.h_spec.dh(phi)
            + mu * r * R * theta_z**2 * s
            - m * g * r * np.sin(phi + theta))
    return res1, res2


def _density_reference(theta, phi, theta_z, phi_z, v, mu, M, m, R, r, Kt, g,
                       h_spec):
    """The travelling-wave Lagrangian density as one expression."""
    r2a, r2b = _inertia(phi, r, R)
    C_theta = M * R**2 * v**2 - Kt - mu * r2b
    return (0.5 * C_theta * theta_z**2 - 0.5 * mu * r * r * phi_z**2
            - mu * r2a * theta_z * phi_z
            + g * ((M + m) * R * np.cos(theta) + m * r * np.cos(phi + theta))
            - h_spec.h(phi))


def _first_integral_reference(profile, params):
    """The first integral as its own copy of the density."""
    th, ph = profile.theta, profile.phi
    thz, phz = profile.theta_z, profile.phi_z
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    v = profile.v
    mu = params.Ks - m * v * v
    r2a, r2b = _inertia(ph, r, R)
    C_theta = M * R**2 * v**2 - params.Kt - mu * r2b
    return (0.5 * C_theta * thz**2 - 0.5 * mu * r * r * phz**2
            - mu * r2a * thz * phz
            - g * ((M + m) * R * np.cos(th) + m * r * np.cos(ph + th))
            + params.h_spec.h(ph))


def _sources_reference(Theta, Phi, Theta_t, Phi_t, Theta_x, Phi_x, Theta_xx,
                       Phi_xx, params):
    """The PDE sources as continuum wrote them out on its own."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    Ks, Kt = params.Ks, params.Kt
    s = np.sin(Phi)
    r2a, r2b = _inertia(Phi, r, R)
    S1 = ((Kt + Ks * r2b) * Theta_xx + Ks * r2a * Phi_xx
          + r * R * (m * Phi_t * (Phi_t + 2 * Theta_t)
                     - Ks * Phi_x * (Phi_x + 2 * Theta_x)) * s
          - g * (R * (M + m) * np.sin(Theta) + m * r * np.sin(Phi + Theta)))
    S2 = (Ks * r * r * Phi_xx + Ks * r2a * Theta_xx - params.h_spec.dh(Phi)
          - r * R * (m * Theta_t**2 - Ks * Theta_x**2) * s
          - g * m * r * np.sin(Phi + Theta))
    return S1, S2


def _frozen_reference(theta_zz, theta, params, v):
    """The frozen-phi residuals with their coefficients derived by hand."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    mu = params.Ks - m * v * v
    s = np.sin(theta)
    res1 = (mu * (r + R) ** 2 - M * R**2 * v**2) * theta_zz \
        - g * (m * r + (M + m) * R) * s
    res2 = mu * r * (r + R) * theta_zz - m * g * r * s
    return res1, res2


def _assert_within_ulps(got, ref, c_outer, c_inner, params, second, first,
                        phi):
    """Pointwise |got - ref| <= ULPS eps T, where T bounds the sum of the
    absolute terms of either equation: curvature coefficients times
    second = |theta''| + |phi''|, quadratic slope terms with
    first = |theta'| + |phi'| (time derivatives included for the PDE),
    gravity and h'(phi). The inertia products are at most (r + R)^2."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    terms = ((abs(c_outer) + abs(c_inner) * (r + R) ** 2) * second
             + abs(c_inner) * r * R * first**2
             + g * (M + m) * (R + r) + np.abs(params.h_spec.dh(phi)))
    for a, b in zip(got, ref):
        assert np.all(np.abs(a - b) <= ULPS * np.finfo(float).eps * terms)


@st.composite
def chains(draw, kappa_t=None):
    """A chain with every coupling on, or the single-angle chain (m = r = 0),
    under either confinement family."""
    family = draw(st.sampled_from(["quadratic", "tangent-barrier"]))
    h = ConfiningPotential(family=family, phi0=draw(st.floats(0.5, 2.0)),
                           c2=draw(st.floats(0.5, 5.0)),
                           b=draw(st.floats(0.0, 1.0))
                           if family == "tangent-barrier" else 0.0)
    single = draw(st.booleans())
    m, r = (0.0, 0.0) if single else (draw(st.floats(0.05, 2.0)),
                                      draw(st.floats(0.05, 1.5)))
    return ChainParams(
        M=draw(st.floats(0.5, 3.0)), m=m, R=draw(st.floats(0.2, 2.0)), r=r,
        kappa_t=draw(st.floats(0.0, 2.0)) if kappa_t is None else kappa_t,
        kappa_s=draw(st.floats(0.1, 3.0)), g=draw(st.floats(0.5, 2.0)),
        delta=draw(st.floats(0.3, 1.5)), h_spec=h)


def _speed(params, ratio):
    """A speed at `ratio` times the sonic speed sqrt(K_s / m): mu > 0 below
    ratio 1, mu < 0 above it."""
    return ratio * np.sqrt(params.Ks / params.m) if params.m > 0 else ratio


def _fields(params, seed, n, count):
    """theta-like fields, then one phi inside +-0.5 phi0, which keeps the
    tangent barrier away from its poles."""
    rng = np.random.default_rng(seed)
    phi0 = params.h_spec.phi0
    return (*rng.normal(0.0, 1.0, (count, n)),
            rng.uniform(-0.5 * phi0, 0.5 * phi0, n))


_cases = dict(p=chains(), ratio=st.floats(0.0, 3.0),
              seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60))


@settings(max_examples=80, deadline=None)
@given(**_cases)
def test_travelling_wave_layer_is_bit_identical(p, ratio, seed, n):
    v = _speed(p, ratio)
    coef = tw_coefficients(v, p)
    theta, thz, phz, thzz, phzz, phi = _fields(p, seed, n, 5)
    prof = TWProfile(np.linspace(-1.0, 1.0, n), theta, phi, thz, phz, v,
                     theta_zz=thzz, phi_zz=phzz)
    ref = _residual_reference(theta, phi, thz, phz, thzz, phzz, coef[1], v, p)
    for got in (tw_residual(prof, p),
                _field_equations(theta, phi, thz, phz, thzz, phzz, *coef, p)):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
    assert np.array_equal(
        tw_lagrangian_density(theta, phi, thz, phz, v, p),
        _density_reference(theta, phi, thz, phz, v, coef[1], p.M, p.m, p.R,
                           p.r, p.Kt, p.g, p.h_spec))
    assert np.array_equal(tw_first_integral(prof, p),
                          _first_integral_reference(prof, p))


@settings(max_examples=80, deadline=None)
@given(**_cases)
def test_pde_sources_agree_within_ulps(p, ratio, seed, n):
    """The sources pde_rhs hands to the mass solve, caught there."""
    Theta, Theta_t, Phi_t, Phi = _fields(p, seed, n, 3)
    # ratio sets the grid length here, and with it the size of the slopes
    grid = FieldGrid(np.linspace(0.0, ratio + 1.0, n), Theta, Phi, Theta_t,
                     Phi_t)
    with mock.patch.object(continuum, "_mass_solve",
                           lambda phi, S1, S2, params: (S1, S2)):
        got = continuum.pde_rhs(grid, p)
    D1, D2 = grid._D
    Theta_x, Phi_x = D1 @ Theta, D1 @ Phi
    Theta_xx, Phi_xx = D2 @ Theta, D2 @ Phi
    ref = _sources_reference(Theta, Phi, Theta_t, Phi_t, Theta_x, Phi_x,
                             Theta_xx, Phi_xx, p)
    # the centripetal terms carry m where the stacking terms carry K_s
    _assert_within_ulps(got, ref, p.Kt, p.Ks + p.m, p,
                        np.abs(Theta_xx) + np.abs(Phi_xx),
                        np.abs(Theta_x) + np.abs(Phi_x) + np.abs(Theta_t)
                        + np.abs(Phi_t), Phi)


@settings(max_examples=80, deadline=None)
@given(p=chains(kappa_t=0.0), ratio=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60))
def test_frozen_residual_agrees_within_ulps(p, ratio, seed, n):
    v = _speed(p, ratio)
    z = np.linspace(-3.0, 3.0, n)
    theta = _fields(p, seed, n, 1)[0]
    got = reduced_equations_residual(theta, z, p, v)
    theta_zz = continuum.derivative(theta, float(z[1] - z[0]), 2)
    zero = np.zeros(n)
    _assert_within_ulps(got, _frozen_reference(theta_zz, theta, p, v),
                        *tw_coefficients(v, p), p,
                        np.abs(theta_zz), zero, zero)


# --------------------------------------- coefficient-matrix energy kernels ---

def _kinetic_reference(theta_dot, phi, phi_dot, params):
    """chain.kinetic_energy_site as the chain wrote it out on its own."""
    M, m, R, r = params.M, params.m, params.R, params.r
    td, pd = theta_dot, phi_dot
    return (0.5 * M * R**2 * td**2
            + 0.5 * m * (R**2 * td**2
                         + 2 * R * r * np.cos(phi) * (td**2 + td * pd)
                         + r**2 * (td + pd) ** 2))


def _gravity_reference(theta, phi, params):
    """chain.external_potential as the chain wrote it out on its own."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    return g * (M * R * (1 - np.cos(theta))
                + m * (R + r - R * np.cos(theta) - r * np.cos(phi + theta)))


def _energy_density_reference(grid, params):
    """continuum.energy_density as the continuum wrote it out on its own."""
    M, m, R, r, g = params.M, params.m, params.R, params.r, params.g
    Ks, Kt = params.Ks, params.Kt
    D1 = grid._D[0]
    Theta_x = D1 @ grid.Theta
    Phi_x = D1 @ grid.Phi
    r2a, r2b = _inertia(grid.Phi, r, R)
    T = (0.5 * (M * R**2 + m * r2b) * grid.Theta_t**2
         + 0.5 * m * r * r * grid.Phi_t**2 + m * r2a * grid.Theta_t * grid.Phi_t)
    U_grad = (0.5 * Kt * Theta_x**2
              + 0.5 * Ks * (r * r * Phi_x**2 + 2 * r2a * Theta_x * Phi_x
                            + r2b * Theta_x**2))
    U_p = g * ((M + m) * R * (1 - np.cos(grid.Theta))
               + m * r * (1 - np.cos(grid.Phi + grid.Theta)))
    U_c = params.h_spec.h(grid.Phi)
    return T + U_grad + U_p + U_c


def _form_bound(c_outer, c_inner, params, x, y):
    """Bound on the absolute terms of 1/2 (x, y) C (x, y)^T: every entry of
    C(c_outer, c_inner; phi) is at most |c_outer| + |c_inner| (r + R)^2."""
    r, R = params.r, params.R
    return (0.5 * (abs(c_outer) + abs(c_inner) * (r + R) ** 2)
            * (np.abs(x) + np.abs(y)) ** 2)


def _gravity_bound(params):
    """Bound on the absolute terms of either gravity formula."""
    p = params
    return 2 * p.g * ((p.M + p.m) * p.R + p.m * p.r)


def _assert_ulps(got, ref, bound):
    assert np.all(np.abs(got - ref) <= ULPS * np.finfo(float).eps * bound)


_energy_cases = dict(p=chains(), seed=st.integers(0, 2**32 - 1),
                     n=st.integers(6, 60))


@settings(max_examples=80, deadline=None)
@given(**_energy_cases)
def test_chain_energies_agree_within_ulps(p, seed, n):
    theta, theta_dot, phi_dot, phi = _fields(p, seed, n, 3)
    _assert_ulps(kinetic_energy_site(theta_dot, phi, phi_dot, p),
                 _kinetic_reference(theta_dot, phi, phi_dot, p),
                 _form_bound(p.M * p.R**2, p.m, p, theta_dot, phi_dot))
    _assert_ulps(external_potential(theta, phi, p),
                 _gravity_reference(theta, phi, p), _gravity_bound(p))


@settings(max_examples=80, deadline=None)
@given(**_energy_cases, length=st.floats(0.5, 4.0))
def test_energy_density_agrees_within_ulps(p, seed, n, length):
    Theta, Theta_t, Phi_t, Phi = _fields(p, seed, n, 3)
    # length sets the grid spacing, and with it the size of the slopes
    grid = FieldGrid(np.linspace(0.0, length, n), Theta, Phi, Theta_t, Phi_t)
    D1 = grid._D[0]
    bound = (_form_bound(p.M * p.R**2, p.m, p, Theta_t, Phi_t)
             + _form_bound(p.Kt, p.Ks, p, D1 @ Theta, D1 @ Phi)
             + _gravity_bound(p) + p.h_spec.h(Phi))
    _assert_ulps(continuum.energy_density(grid, p),
                 _energy_density_reference(grid, p), bound)


@settings(max_examples=80, deadline=None)
@given(**_energy_cases)
def test_kinetic_energy_is_the_mass_matrix_form(p, seed, n):
    """kinetic_energy_site = 1/2 qdot^T M(phi) qdot with mass_matrix."""
    theta_dot, phi_dot, phi = _fields(p, seed, n, 2)
    m11, m12, m22 = mass_matrix(phi, p)
    ref = 0.5 * (m11 * theta_dot**2 + 2 * m12 * theta_dot * phi_dot
                 + m22 * phi_dot**2)
    _assert_ulps(kinetic_energy_site(theta_dot, phi, phi_dot, p), ref,
                 _form_bound(p.M * p.R**2, p.m, p, theta_dot, phi_dot))


@settings(max_examples=80, deadline=None)
@given(**_cases)
def test_slope_energy_is_kinetic_minus_gradient_energy(p, ratio, seed, n):
    """The slope energy Q of the travelling-wave density is the chain's
    kinetic energy at the co-moving velocities (-v theta', -v phi') minus
    the continuum's gradient energy, here the energy density of the resting
    fields less their gravity and confinement energies."""
    v = _speed(p, ratio)
    theta, phi = _fields(p, seed, n, 1)
    zero = np.zeros(n)
    grid = FieldGrid(np.linspace(-3.0, 3.0, n), theta, phi, zero, zero)
    thz, phz = grid._D[0] @ theta, grid._D[0] @ phi
    Q = _density_parts(theta, phi, thz, phz, *_chain_values(v, p))[0]
    T = kinetic_energy_site(-v * thz, phi, -v * phz, p)
    U_grad = (continuum.energy_density(grid, p)
              - external_potential(theta, phi, p) - p.h_spec.h(phi))
    bound = (_form_bound(p.M * p.R**2, p.m, p, v * thz, v * phz)
             + _form_bound(p.Kt, p.Ks, p, thz, phz)
             + _gravity_bound(p) + p.h_spec.h(phi))
    _assert_ulps(Q, T - U_grad, bound)


@pytest.mark.parametrize("family", ["quadratic", "tangent-barrier"])
def test_confining_derivatives_are_complex_steps_of_each_other(family):
    """Im f(phi + i h) / h of h, h' and h'' equals h', h'' and h''' across
    +-0.9 phi0, where the tangent barrier's terms grow past 1e7: within 16
    ulps of |value| + 1, since both sides carry tan's rounding amplified
    near the pole (up to 10 ulps seen). d3h feeds E20 and phi2."""
    hs = ConfiningPotential(family=family, phi0=1.2, c2=2.0,
                            b=0.3 if family == "tangent-barrier" else 0.0)
    phi = np.linspace(-0.9, 0.9, 181) * hs.phi0
    step = 2.0**-100
    for f, df in ((hs.h, hs.dh), (hs.dh, hs.d2h), (hs.d2h, hs.d3h)):
        want = df(phi)
        got = np.imag(f(phi + 1j * step)) / step
        assert np.all(np.abs(got - want)
                      <= 16 * np.finfo(float).eps * (np.abs(want) + 1))
