"""Travelling-wave reduction: residuals, Lagrangian density, first integral,
the bordered collocation system of the two-point boundary-value problem
(TWSystem, shared by the Newton solver and perturbation's eps oracle), and
its Newton solver.

A wave is fixed by the chain and its speed v: with z = x - v t the profile
equations are params._field_equations at the params.WaveConstants of
ChainParams.wave_constants(v); their complex step gives the Newton Jacobian
but for its curvature entries, C(phi) of params._coefficients, as is the
slope energy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu

from . import _stencils
from ._io import write_npy_record
from ._stencils import TWSolveError
from .params import (ChainParams, WaveConstants, _coefficients,
                     _field_equations, _kink_slopes, _pendant, _quadratic)


def tw_coefficients(v, params: ChainParams):
    """(c_outer, c_inner) = (K_t - M R^2 v^2, mu = K_s - m v^2) of
    params._field_equations for a wave of speed v."""
    return params.wave_constants(v)[:2]


def _on_sonic_line(v, params: ChainParams):
    """True when mu = K_s - m v^2 is zero to rounding of its two terms: on
    this sonic line the inner profile equation has no phi'' term."""
    mu = tw_coefficients(v, params)[1]
    return abs(mu) <= 1e-14 * (params.Ks + params.m * v * v)


@dataclass(frozen=True)
class TWProfile:
    """Profiles of a wave of speed v on a uniform z-grid, with curvature
    samples theta_zz/phi_zz: exact from kink_profile and compose_series, the
    solver's D2 products from solve_tw_bvp. Only a profile built outside the
    package lacks them (None); tw_residual then takes finite differences."""

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
    their consistency); second derivatives are the profile's curvature
    samples, or 4th-order finite differences for a profile without them.
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
                            params.wave_constants(profile.v))


def residual_linf(res):
    """max |res| over nodes 1..n-2 of one tw_residual array: the collocation
    equations of TWSystem. Its end nodes hold Dirichlet rows instead, which
    leave the equations there unsolved, so on a solve_tw_bvp solution this is
    at most the final residual, below tol. The res1 and res2 fields of
    tw-profile.npy (export_profile) keep every node, the end nodes too."""
    return float(np.max(np.abs(res[1:-1])))


def _density_parts(theta, phi, theta_z, phi_z, c: WaveConstants):
    """(Q, G, H) of the travelling-wave density L = Q + G - H at the wave
    constants c: Q = -params._quadratic in the slopes, = T(-v theta', -v
    phi') - U_grad; G = params._pendant; H = h(phi). c may hold
    continuations that no valid ChainParams represents."""
    return (-_quadratic(c.c_outer, c.c_inner, phi, c.r, c.R, theta_z, phi_z),
            _pendant(theta, phi, c.M, c.m, c.R, c.r, c.g), c.h_spec.h(phi))


def _density_raw(theta, phi, theta_z, phi_z, c: WaveConstants):
    """L = Q + G - H of _density_parts."""
    Q, G, H = _density_parts(theta, phi, theta_z, phi_z, c)
    return Q + G - H


def tw_lagrangian_density(theta, phi, theta_z, phi_z, v, params: ChainParams):
    """The density L = Q + G - H of _density_parts at speed v, whose
    Euler-Lagrange equations are the profile equations."""
    return _density_raw(theta, phi, theta_z, phi_z, params.wave_constants(v))


def tw_first_integral(profile: TWProfile, params: ChainParams):
    """E = theta' dL/dtheta' + phi' dL/dphi' - L = Q - G + H, since Q is
    quadratic in the slopes; constant on exact solutions."""
    Q, G, H = _density_parts(profile.theta, profile.phi, profile.theta_z,
                             profile.phi_z, params.wave_constants(profile.v))
    return Q - G + H


def kink_profile(z, k, v, pi_shift=False):
    """Analytic single-kink profile (phi = 0) usable as data or solver guess,
    with its exact curvature attached.

    pi_shift moves the connection to (-pi, pi) instead of (0, 2 pi).
    """
    z = np.asarray(z, dtype=float)
    base, theta_z, theta_zz = _kink_slopes(z, k)[:3]
    theta = base - (np.pi if pi_shift else 0.0)
    zeros = np.zeros_like(z)
    return TWProfile(z, theta, zeros, theta_z, zeros.copy(), v,
                     theta_zz=theta_zz, phi_zz=zeros.copy())


def _jacobian_blocks(theta, phi, theta_z, phi_z, theta_zz, phi_zz,
                     c: WaveConstants):
    """Pointwise d(res)/d(field, field', field'') coefficients of
    params._field_equations. The curvature entries are its C(phi); the others
    are its complex step Im F(u + i h e_k) / h, one call per direction u_k in
    (theta, phi, theta', phi'), exact to rounding since the kernel is
    complex-analytic and h = _stencils.COMPLEX_STEP is a power of two."""
    h = _stencils.COMPLEX_STEP
    fields = [theta, phi, theta_z, phi_z]
    j = {}
    for k, key in enumerate(("t0", "p0", "t1", "p1")):
        shifted = list(fields)
        shifted[k] = fields[k] + 1j * h
        F1, F2 = _field_equations(*shifted, theta_zz, phi_zz, c)
        j[f"r1_{key}"] = np.imag(F1) / h
        j[f"r2_{key}"] = np.imag(F2) / h
    c11, c12, c22 = _coefficients(c.c_outer, c.c_inner, phi, c.r, c.R)
    j["r1_t2"], j["r1_p2"], j["r2_t2"] = c11, c12, c12
    j["r2_p2"] = np.full_like(theta, c22)
    return j


class TWSystem:
    """The bordered collocation system of solve_tw_bvp on the grid of a
    profile: the unknowns interleave theta and phi node by node, the four end
    rows are Dirichlet conditions at the profile's end values, and the border
    is the pinning row theta(z_mid) = mean of the theta end values, with the
    translation mode (theta', phi') as its column. Fields pass as the six
    arguments u = (theta, phi, theta', phi', theta'', phi'') of
    params._field_equations, and chain constants as params.WaveConstants."""

    def __init__(self, profile: TWProfile):
        n = profile.z.shape[0]
        dz = profile.dz
        self.n = n
        self.D1 = _stencils.derivative_matrix(n, dz, 1)
        self.D2 = _stencils.derivative_matrix(n, dz, 2)
        self.ends = (profile.theta[0], profile.phi[0], profile.theta[-1],
                     profile.phi[-1])
        self.fixed = [0, 1, 2 * n - 2, 2 * n - 1]
        self.mid = n // 2
        self.pin_target = 0.5 * (self.ends[0] + self.ends[2])
        self.pin_row = np.zeros(2 * n)
        self.pin_row[2 * self.mid] = 1.0

    def fields(self, theta, phi):
        """u of theta and phi, with their D1 and D2 products."""
        return (theta, phi, self.D1 @ theta, self.D1 @ phi, self.D2 @ theta,
                self.D2 @ phi)

    def pack(self, r1, r2):
        """The bordered vector of the collocation values r1, r2 of the two
        equations, with its Dirichlet and pin rows zero."""
        n = self.n
        F = np.zeros(2 * n + 1)
        F[0:2 * n:2] = r1
        F[1:2 * n:2] = r2
        F[self.fixed] = 0.0
        return F

    def residual(self, u, c: WaveConstants):
        """The bordered residual at u: the collocation equations, with the
        boundary rows replacing the outermost ones, and the pin."""
        theta, phi = u[0], u[1]
        F = self.pack(*_field_equations(*u, c))
        F[self.fixed] = (theta[0] - self.ends[0], phi[0] - self.ends[1],
                         theta[-1] - self.ends[2], phi[-1] - self.ends[3])
        F[2 * self.n] = theta[self.mid] - self.pin_target
        return F

    def jacobian(self, u, c: WaveConstants):
        """The bordered Jacobian at u as CSC (_stencils.bordered_matrix)."""
        jb = _jacobian_blocks(*u, c)
        # block (equation, field) is jb["r<equation>_<t|p><derivative>"]
        blocks = [[tuple(jb[f"r{eq}_{f}{d}"] for d in "012") for f in "tp"]
                  for eq in "12"]
        return _stencils.bordered_matrix(
            self.D1, self.D2, blocks, self.fixed,
            np.column_stack([u[2], u[3]]).ravel(), self.pin_row)


MAX_ITER = 60  # Newton iterations of solve_tw_bvp


def solve_tw_bvp(guess: TWProfile, params: ChainParams,
                 tol=1e-10) -> TWProfile:
    """Damped Newton on the 4th-order collocation system at the guess's speed.

    The system is the TWSystem of the guess: Dirichlet values are taken from
    the ends of the guess (so 0 -> 2 pi N and pi-shifted connections are both
    supported), and the translation zero mode is removed by its pinning row.
    Each iteration assembles the bordered Jacobian in one pass, straight into
    CSC arrays (_stencils.bordered_matrix), and factors it with splu; the
    factors are dropped after their solve, so no two are held at once. The
    solution carries the D1 and D2 products of its last residual as its
    slopes and curvature; the guess's curvature is never read.
    Raises TWSolveError on non-convergence, with the final residual attached,
    and on the sonic line (_on_sonic_line).
    """
    params.require_dynamic()
    c = params.wave_constants(guess.v)
    if _on_sonic_line(guess.v, params):
        raise TWSolveError(f"mu = 0 to rounding ({c.c_inner:.3e} at v = "
                           f"{guess.v!r}): profile equations are degenerate")
    system = TWSystem(guess)
    n = system.n

    def norm(F):
        return float(np.max(np.abs(F)))

    u = system.fields(guess.theta.copy(), guess.phi.copy())
    F = system.residual(u, c)
    best = norm(F)

    for iteration in range(MAX_ITER):
        if best < tol:
            break
        A = system.jacobian(u, c)
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
            u_new = system.fields(u[0] + lam * delta[0:2 * n:2],
                                  u[1] + lam * delta[1:2 * n:2])
            Fn = system.residual(u_new, c)
            if norm(Fn) < best:
                u, F, best = u_new, Fn, norm(Fn)
                break
            lam *= 0.5
        else:
            raise TWSolveError(
                f"line search stalled at residual {best:.3e}", best)
    else:
        raise TWSolveError(
            f"no convergence after {MAX_ITER} iterations "
            f"(residual {best:.3e})", best)

    theta, phi, tz, pz, tzz, pzz = u
    return TWProfile(guess.z, theta, phi, tz, pz, guess.v, theta_zz=tzz,
                     phi_zz=pzz)


def export_profile(profile: TWProfile, params: ChainParams, path):
    """Write tw-profile.npy, one .npy record (_io.write_npy_record) of the
    (n,) fields z, theta, phi, theta_z, phi_z, res1, res2 (tw_residual at
    every node) and E_tw (tw_first_integral); return (res1, res2, E_tw)."""
    res1, res2 = tw_residual(profile, params)
    E = tw_first_integral(profile, params)
    write_npy_record(path, {"z": profile.z, "theta": profile.theta,
                            "phi": profile.phi, "theta_z": profile.theta_z,
                            "phi_z": profile.phi_z, "res1": res1,
                            "res2": res2, "E_tw": E})
    return res1, res2, E
