"""Travelling-wave reduction: residuals, Lagrangian density, first integral,
and a collocation Newton solver for the two-point boundary-value problem.

A wave is fixed by the chain and its speed v: with z = x - v t the profile
equations are params._field_equations with the coefficients of
tw_coefficients; their complex step gives the Newton Jacobian but for its
curvature entries, C(phi) of params._coefficients, as is the slope energy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu

from . import _stencils
from ._io import write_csv
from ._stencils import TWSolveError
from .params import (ChainParams, _coefficients, _field_equations, _kink,
                     _pendant, _quadratic)


def tw_coefficients(v, params: ChainParams):
    """(c_outer, c_inner) = (K_t - M R^2 v^2, mu = K_s - m v^2) of
    params._field_equations for a wave of speed v."""
    return _wave_coefficients(params.Kt, params.Ks, params.M, params.m,
                              params.R, v)


def _wave_coefficients(Kt, Ks, M, m, R, v):
    """tw_coefficients from bare constants, which may be complex."""
    return Kt - M * R**2 * v**2, Ks - m * v * v


def _on_sonic_line(v, params: ChainParams):
    """True when mu = K_s - m v^2 is zero to rounding of its two terms: on
    this sonic line the inner profile equation has no phi'' term."""
    mu = tw_coefficients(v, params)[1]
    return abs(mu) <= 1e-14 * (params.Ks + params.m * v * v)


@dataclass(frozen=True)
class TWProfile:
    """Profiles of a wave of speed v on a uniform z-grid. theta_zz/phi_zz are
    optional exact curvature samples; when absent, residuals fall back to
    finite differences."""

    z: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    theta_z: np.ndarray
    phi_z: np.ndarray
    v: float
    theta_zz: Optional[np.ndarray] = None
    phi_zz: Optional[np.ndarray] = None

    @property
    def dz(self):
        """Grid spacing; ValueError unless z is uniform."""
        return _stencils.uniform_spacing(self.z)


def tw_residual(profile: TWProfile, params: ChainParams):
    """Left-hand sides of the two profile equations along z.

    First derivatives come from the profile (its builder is responsible for
    their consistency); second derivatives use stored exact samples when the
    profile carries them and 4th-order finite differences otherwise.
    """
    dz = profile.dz
    tzz = profile.theta_zz
    pzz = profile.phi_zz
    if tzz is None:
        tzz = _stencils.derivative(profile.theta, dz, 2)
    if pzz is None:
        pzz = _stencils.derivative(profile.phi, dz, 2)
    return _field_equations(profile.theta, profile.phi, profile.theta_z,
                            profile.phi_z, tzz, pzz,
                            *tw_coefficients(profile.v, params), params)


def _density_parts(theta, phi, theta_z, phi_z, c_outer, c_inner, M, m, R, r,
                   g, h_spec):
    """(Q, G, H) of the travelling-wave density L = Q + G - H at the
    (c_outer, c_inner) of tw_coefficients: Q = -params._quadratic in the
    slopes, = T(-v theta', -v phi') - U_grad; G = params._pendant; H = h(phi).
    Takes bare coefficient values: callers may pass continuations that no
    valid ChainParams represents."""
    return (-_quadratic(c_outer, c_inner, phi, r, R, theta_z, phi_z),
            _pendant(theta, phi, M, m, R, r, g), h_spec.h(phi))


def _density_raw(*args):
    """L = Q + G - H, with the arguments of _density_parts."""
    Q, G, H = _density_parts(*args)
    return Q + G - H


def _chain_values(v, params: ChainParams):
    """The coefficient arguments of _density_parts for a chain and speed."""
    return (*tw_coefficients(v, params), params.M, params.m, params.R,
            params.r, params.g, params.h_spec)


def tw_lagrangian_density(theta, phi, theta_z, phi_z, v, params: ChainParams):
    """The density L = Q + G - H of _density_parts at speed v, whose
    Euler-Lagrange equations are the profile equations."""
    return _density_raw(theta, phi, theta_z, phi_z, *_chain_values(v, params))


def tw_first_integral(profile: TWProfile, params: ChainParams):
    """E = theta' dL/dtheta' + phi' dL/dphi' - L = Q - G + H, since Q is
    quadratic in the slopes; constant on exact solutions."""
    Q, G, H = _density_parts(profile.theta, profile.phi, profile.theta_z,
                             profile.phi_z, *_chain_values(profile.v, params))
    return Q - G + H


def kink_profile(z, k, v, pi_shift=False, with_curvature=True, index=1):
    """Analytic single-kink profile (phi = 0) usable as data or solver guess.

    pi_shift moves the connection to (-pi, pi) instead of (0, 2 pi).
    """
    z = np.asarray(z, dtype=float)
    u = k * z
    base, sech = _kink(u)
    tanh = np.tanh(u)
    theta = index * base - (np.pi if pi_shift else 0.0)
    theta_z = index * 2.0 * k * sech
    zeros = np.zeros_like(z)
    tzz = index * (-2.0) * k * k * sech * tanh if with_curvature else None
    pzz = zeros.copy() if with_curvature else None
    return TWProfile(z, theta, zeros, theta_z, zeros.copy(), v,
                     theta_zz=tzz, phi_zz=pzz)


def _jacobian_blocks(theta, phi, theta_z, phi_z, theta_zz, phi_zz,
                     c_outer, c_inner, params: ChainParams):
    """Pointwise d(res)/d(field, field', field'') coefficients of
    params._field_equations. The curvature entries are its C(phi); the others
    are its complex step Im F(u + i h e_k) / h, one call per direction u_k in
    (theta, phi, theta', phi'), exact to rounding since the kernel is
    complex-analytic and h = 2**-100 is a power of two."""
    h = 2.0**-100
    fields = [theta, phi, theta_z, phi_z]
    j = {}
    for k, key in enumerate(("t0", "p0", "t1", "p1")):
        shifted = list(fields)
        shifted[k] = fields[k] + 1j * h
        F1, F2 = _field_equations(*shifted, theta_zz, phi_zz,
                                  c_outer, c_inner, params)
        j[f"r1_{key}"] = np.imag(F1) / h
        j[f"r2_{key}"] = np.imag(F2) / h
    c11, c12, c22 = _coefficients(c_outer, c_inner, phi, params.r, params.R)
    j["r1_t2"], j["r1_p2"], j["r2_t2"] = c11, c12, c12
    j["r2_p2"] = np.full_like(theta, c22)
    return j


def solve_tw_bvp(guess: TWProfile, params: ChainParams, tol=1e-10,
                 max_iter=60) -> TWProfile:
    """Damped Newton on the 4th-order collocation system at the guess's speed.

    Dirichlet values are taken from the ends of the guess (so 0 -> 2 pi N and
    pi-shifted connections are both supported); the translation zero mode is
    removed by a bordered pinning row theta(z_mid) = mean of the end values.
    Each iteration assembles the bordered Jacobian in one pass, straight into
    CSC arrays (_stencils.bordered_matrix), and factors it with splu; the
    factors are dropped after their solve, so no two are held at once.
    Raises TWSolveError on non-convergence, with the final residual attached,
    and on the sonic line (_on_sonic_line).
    """
    params.require_dynamic()
    coef = tw_coefficients(guess.v, params)
    if _on_sonic_line(guess.v, params):
        raise TWSolveError(f"mu = 0 to rounding ({coef[1]:.3e} at v = "
                           f"{guess.v!r}): profile equations are degenerate")
    z = guess.z
    n = z.shape[0]
    dz = guess.dz
    D1 = _stencils.derivative_matrix(n, dz, 1)
    D2 = _stencils.derivative_matrix(n, dz, 2)
    th_l, th_r = guess.theta[0], guess.theta[-1]
    ph_l, ph_r = guess.phi[0], guess.phi[-1]
    mid = n // 2
    pin_target = 0.5 * (th_l + th_r)
    pin_row = np.zeros(2 * n)
    pin_row[2 * mid] = 1.0

    theta = guess.theta.copy()
    phi = guess.phi.copy()

    def full_residual(theta, phi):
        tz, pz = D1 @ theta, D1 @ phi
        tzz, pzz = D2 @ theta, D2 @ phi
        r1, r2 = _field_equations(theta, phi, tz, pz, tzz, pzz, *coef, params)
        return r1, r2, tz, pz, tzz, pzz

    def packed(theta, phi, r1, r2):
        F = np.empty(2 * n + 1)
        F[0:2 * n:2] = r1
        F[1:2 * n:2] = r2
        # boundary rows replace the outermost collocation equations
        F[0], F[1] = theta[0] - th_l, phi[0] - ph_l
        F[2 * n - 2], F[2 * n - 1] = theta[-1] - th_r, phi[-1] - ph_r
        F[2 * n] = theta[mid] - pin_target
        return F

    def norm(F):
        return float(np.max(np.abs(F)))

    def jacobian(theta, phi, tz, pz, tzz, pzz):
        # a function of its own, so the blocks are freed before splu runs
        jb = _jacobian_blocks(theta, phi, tz, pz, tzz, pzz, *coef, params)
        # block (equation, field) is jb["r<equation>_<t|p><derivative>"];
        # the unknowns interleave theta and phi, the four end rows are the
        # Dirichlet conditions, the border column is the translation mode
        blocks = [[tuple(jb[f"r{eq}_{f}{d}"] for d in "012") for f in "tp"]
                  for eq in "12"]
        return _stencils.bordered_matrix(
            D1, D2, blocks, [0, 1, 2 * n - 2, 2 * n - 1],
            np.column_stack([tz, pz]).ravel(), pin_row)

    r1, r2, tz, pz, tzz, pzz = full_residual(theta, phi)
    F = packed(theta, phi, r1, r2)
    best = norm(F)

    for iteration in range(max_iter):
        if best < tol:
            break
        A = jacobian(theta, phi, tz, pz, tzz, pzz)
        try:
            lu = splu(A)
        except RuntimeError as exc:
            raise TWSolveError(f"singular Jacobian: {exc}", best) from exc
        delta = lu.solve(-F)
        # dropping A here too would lower the peak a little more, but its
        # freed pages go back to the system and the next assembly faults
        # them in again (65 % more page faults on the tw_newton commands)
        del lu

        lam = 1.0
        while lam >= 1e-3:
            th_new = theta + lam * delta[0:2 * n:2]
            ph_new = phi + lam * delta[1:2 * n:2]
            r1n, r2n, tzn, pzn, tzzn, pzzn = full_residual(th_new, ph_new)
            Fn = packed(th_new, ph_new, r1n, r2n)
            if norm(Fn) < best:
                theta, phi = th_new, ph_new
                r1, r2, tz, pz, tzz, pzz = r1n, r2n, tzn, pzn, tzzn, pzzn
                F, best = Fn, norm(Fn)
                break
            lam *= 0.5
        else:
            raise TWSolveError(
                f"line search stalled at residual {best:.3e}", best)
    else:
        raise TWSolveError(
            f"no convergence after {max_iter} iterations "
            f"(residual {best:.3e})", best)

    return TWProfile(z, theta, phi, D1 @ theta, D1 @ phi, guess.v)


def export_profile_csv(profile: TWProfile, params: ChainParams, path):
    """Write tw-profile.csv; return its (res1, res2, E_tw) columns."""
    res1, res2 = tw_residual(profile, params)
    E = tw_first_integral(profile, params)
    columns = (profile.z, profile.theta, profile.phi, profile.theta_z,
               profile.phi_z, res1, res2, E)
    write_csv(path, "tw-profile v1", "z,theta,phi,theta_z,phi_z,res1,res2,E_tw",
              zip(*(c.tolist() for c in columns)))
    return res1, res2, E
