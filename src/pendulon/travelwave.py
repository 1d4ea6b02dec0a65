"""Travelling-wave reduction: residuals, Lagrangian density, first integral,
the collocation system of the two-point boundary-value problem folded onto
the half line by the kink's reflection symmetry (TWSystem, shared by the
Newton solver and perturbation's eps oracle), and its Newton solver.

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
import scipy.sparse as sp
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
    """max |res| over nodes 1..n-2 of one tw_residual array: TWSystem holds
    the right end by unit rows and the left end mirrors it, so on a
    solve_tw_bvp solution this is the final residual to the stencils'
    rounding. tw-profile.npy (export_profile) keeps every node."""
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
    """The collocation system of solve_tw_bvp on a profile's grid, folded
    onto nodes K = n//2 .. n-1 by the reflection z -> -z, theta -> 2 theta_c
    - theta, phi -> -phi that flips the sign of both profile equations: node
    j < K mirrors node n-1-j (about a half node for even n). The unknowns
    interleave theta and phi; unit rows fix the right end at the profile's
    and, for odd n, the centre at theta_c (mean of the end thetas) and phi =
    0, so no translation mode is left. Fields u = (theta, phi, theta', phi',
    theta'', phi'') of params._field_equations are full-grid. Only the
    profile's right half is read; ValueError unless phi[0] = -phi[-1]."""

    def __init__(self, profile: TWProfile):
        if profile.phi[0] != -profile.phi[-1]:
            raise ValueError("the reflection z -> -z needs phi[0] = -phi[-1]"
                             f", got {float(profile.phi[0])!r} and "
                             f"{float(profile.phi[-1])!r}")
        n, dz = profile.z.shape[0], profile.dz
        self.K, m = n // 2, n - n // 2
        self.D1, self.D2 = (_stencils.derivative_matrix(n, dz, d)
                            for d in (1, 2))
        # the fold: column j is node K + j, and node n-1-K-j with sign -1
        node = np.arange(n)
        fold = sp.csr_matrix(
            (np.where(node < self.K, -1.0, 1.0),
             np.maximum(node, n - 1 - node) - self.K,
             np.arange(n + 1)), shape=(n, m))
        self.D1h, self.D2h = ((D[self.K:] @ fold).sorted_indices()
                              for D in (self.D1, self.D2))
        self.center = 0.5 * (profile.theta[0] + profile.theta[-1])
        self.fixed = [2 * m - 2, 2 * m - 1] + ([0, 1] if n % 2 else [])
        self.targets = np.array([profile.theta[-1], profile.phi[-1],
                                 self.center, 0.0])[:len(self.fixed)]

    def fields(self, theta, phi, center=None):
        """u of the full-grid reflection of theta, phi on nodes K..n-1, theta
        about center (default theta_c), with their D1 and D2 products."""
        c = self.center if center is None else center
        theta = np.concatenate([2 * c - theta[::-1][:self.K], theta])
        phi = np.concatenate([-phi[::-1][:self.K], phi])
        return (theta, phi, self.D1 @ theta, self.D1 @ phi, self.D2 @ theta,
                self.D2 @ phi)

    def pack(self, r1, r2):
        """The Newton vector of the collocation values r1, r2 of the two
        equations on nodes K..n-1, with its unit rows zero."""
        F = np.column_stack([r1, r2]).ravel()
        F[self.fixed] = 0.0
        return F

    def residual(self, u, c: WaveConstants):
        """The Newton residual at u: the collocation equations on nodes
        K..n-1, with the unit rows replacing the end and centre ones."""
        half = [f[self.K:] for f in u]
        F = self.pack(*_field_equations(*half, c))
        F[self.fixed] = np.ravel(half[:2], "F")[self.fixed] - self.targets
        return F

    def jacobian(self, u, c: WaveConstants):
        """The Newton matrix at u as CSC (_stencils.collocation_matrix)."""
        jb = _jacobian_blocks(*(f[self.K:] for f in u), c)
        # block (equation, field) is jb["r<equation>_<t|p><derivative>"]
        blocks = [[tuple(jb[f"r{eq}_{f}{d}"] for d in "012") for f in "tp"]
                  for eq in "12"]
        return _stencils.collocation_matrix(self.D1h, self.D2h, blocks,
                                            self.fixed)


MAX_ITER = 60  # Newton iterations of solve_tw_bvp


def solve_tw_bvp(guess: TWProfile, params: ChainParams,
                 tol=1e-10) -> TWProfile:
    """Damped Newton on the 4th-order collocation system at the guess's speed.

    The system is the TWSystem of the guess: its right end values and centre
    theta_c come from the guess's ends, so 0 -> 2 pi N and pi-shifted
    connections are both supported. Each iteration assembles the square
    banded Jacobian in one pass, straight into CSC arrays
    (_stencils.collocation_matrix), and factors it with splu; the factors
    are dropped after their solve, so no two are held at once. The solution
    is full-length, reflected from its right half, and carries the D1 and D2
    products of its last residual as its slopes and curvature.
    Raises TWSolveError on non-convergence, with the final residual attached,
    and on the sonic line (_on_sonic_line).
    """
    params.require_dynamic()
    c = params.wave_constants(guess.v)
    if _on_sonic_line(guess.v, params):
        raise TWSolveError(f"mu = 0 to rounding ({c.c_inner:.3e} at v = "
                           f"{guess.v!r}): profile equations are degenerate")
    system = TWSystem(guess)

    def norm(F):
        return float(np.max(np.abs(F)))

    u = system.fields(guess.theta[system.K:], guess.phi[system.K:])
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
            u_new = system.fields(u[0][system.K:] + lam * delta[0::2],
                                  u[1][system.K:] + lam * delta[1::2])
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
