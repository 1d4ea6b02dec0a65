"""Singular expansion of the travelling-wave problem about the sine-Gordon
kink.

The outer angle carries the kink. The inner angle never acquires its own
differential equation: at each order in eps the second profile equation is an
algebraic relation that slaves it to the kink fields, and this module builds
those orders explicitly and verifies the structure against an oracle that
differentiates the discrete BVP solution family in eps.

build_perturbative is the one path to the orders, built once per grid from
one kink record (sg_kink), one Order record per power of eps, in the one
record of eps-orders on a grid (Expansion). Every order is in closed form
there: theta1 is a multiple of the kink's derivative in k, and phi1 and phi2
are slaved algebraically; only the slope and curvature of phi2 are stencils.
compose_series and residual_scaling sum the orders with compose, the one
eps-series sum. The oracle taylor_extract gets theta1, phi1 and phi2 by
implicit differentiation: one BVP solve at eps = 0, one factor of its
Jacobian, and two back-solves.

Series conventions: r = eps r1 + eps^2 r2, R = A - r, m = eps m1 + eps^2 m2,
M = Mhat - m, K_t = eps k1 + eps^2 k2, K_s = Khat - K_t,
v = v0 + eps v1 + eps^2 v2; the base state has r = m = 0 and phi identically
zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
from scipy.sparse.linalg import splu

from . import _stencils, travelwave
from ._io import write_csv, write_npy_record
from .params import (ExpansionParams, KinkArrays, _field_equations,
                     _kink_slopes)
from .travelwave import TWProfile


def mu_hat(params: ExpansionParams) -> float:
    """Mhat v0^2 - Khat; negative for every subsonic base state."""
    return params.Mhat * params.v0**2 - params.Khat


def kink_parameter(params: ExpansionParams) -> float:
    """Inverse width k = sqrt(Mhat g / (A (Khat - Mhat v0^2)))."""
    mh = mu_hat(params)
    if mh >= 0:
        raise ValueError("no kink at sonic or supersonic base speed")
    return float(np.sqrt(params.Mhat * params.g / (params.A * (-mh))))


def sg_kink(z, params: ExpansionParams) -> KinkArrays:
    """The kink record params._kink_slopes of theta0 = 4 arctan(e^{kz}) at
    k = kink_parameter(params)."""
    return _kink_slopes(np.asarray(z, dtype=float), kink_parameter(params))


def _w1(p: ExpansionParams) -> float:
    """W1 = (1 - A^2) k1 + 2 A Mhat v0 (r1 v0 - A v1), shared by B and C_f."""
    return ((1 - p.A**2) * p.k1
            + 2 * p.A * p.Mhat * p.v0 * (p.r1 * p.v0 - p.A * p.v1))


def coefficient_B(params: ExpansionParams) -> float:
    """Scalar combination of first-order coefficients reported alongside the
    order-1 problem; vanishes when r1, k1, v1 all vanish."""
    p = params
    return p.A**2 * kink_parameter(p) * p.r1 - p.Mhat * p.g * _w1(p)


def _forcing_coefficient(params: ExpansionParams) -> float:
    """C_f in theta1'' - k^2 cos(theta0) theta1 = C_f sin(theta0), the
    order-1 outer problem with theta1(+-inf) = 0."""
    p = params
    k2 = kink_parameter(p) ** 2
    return (_w1(p) * k2 + p.Mhat * p.g * p.r1) / (p.A**2 * mu_hat(p))


def _theta1_zz(params: ExpansionParams, kin: KinkArrays, theta1):
    """Curvature of theta1 in ODE form, k^2 cos(theta0) theta1 + C_f
    sin(theta0): exact given theta1, with no differentiation of samples."""
    return (kink_parameter(params) ** 2 * kin.cos_theta0 * theta1
            + _forcing_coefficient(params) * kin.sin_theta0)


def _phi1_coefficient(params: ExpansionParams) -> float:
    """c1 in phi1 = (A Khat r1 / h''(0)) theta0'' = c1 sin(theta0), slaved
    with no linear solve; h''(0) = c2 > 0 by ConfiningPotential."""
    k2 = kink_parameter(params) ** 2
    return params.A * params.Khat * params.r1 * k2 / params.h_spec.d2h(0.0)


def _phi2(p: ExpansionParams, kin, theta1_zz, phi1) -> np.ndarray:
    """Order-2 inner field, again algebraic given theta1'' and phi1."""
    mu1 = -(p.k1 + p.m1 * p.v0**2)
    num = (p.A * p.Khat * p.r1 * theta1_zz
           + p.A * (p.Khat * p.r2 + mu1 * p.r1) * kin.theta0_zz
           + p.A * p.Khat * p.r1 * phi1 * kin.theta0_z**2
           - p.g * p.m1 * p.r1 * kin.sin_theta0
           - 0.5 * p.h_spec.d3h(0.0) * phi1**2)
    return num / p.h_spec.d2h(0.0)


class Order(NamedTuple):
    """The eps^k coefficient of a profile: both angles with their first and
    second z-derivatives, in the argument order of params._field_equations.
    Each field is an array on the grid, (..., n_points) for a batch."""

    theta: np.ndarray
    phi: np.ndarray
    theta_z: np.ndarray
    phi_z: np.ndarray
    theta_zz: np.ndarray
    phi_zz: np.ndarray


def compose(orders, e) -> tuple:
    """The eps series sum_k e^k orders[k], field by field, as a tuple of the
    fields of one order: each order a tuple of arrays (an Order, a prefix of
    one, or scalars), added in k order with e^2 = e e. e may be negative or
    complex."""
    total = tuple(orders[0])
    power = None
    for order in orders[1:]:
        power = e if power is None else power * e
        total = tuple(a + power * b for a, b in zip(total, order))
    return total


@dataclass(frozen=True)
class Expansion:
    """orders[k] is the eps^k Order of (theta, phi), k = 0, 1, 2, on the
    uniform grid z, (n_points,); each field is (n_points,), or (..., n_points)
    for a batch. From build_perturbative, order 0 is the kink with phi = 0 and
    theta2 = 0; lagrangian_orders.smooth_samples draws them with phi0 free."""

    z: np.ndarray
    params: ExpansionParams
    orders: Tuple[Order, ...]


def kink_grid(params: ExpansionParams, n_points: int = 4001,
              half_width_factor: float = 25.0) -> np.ndarray:
    """Uniform grid of n_points nodes on |z| <= half_width_factor / k, k the
    kink_parameter: at the ends, where taylor_extract pins them, the kink and
    theta1 have decayed to order e^{-half_width_factor}."""
    L = half_width_factor / kink_parameter(params)
    return np.linspace(-L, L, n_points)


def build_perturbative(params: ExpansionParams, z=None) -> Expansion:
    """The orders 0, 1 and 2 on z (default kink_grid), each slope and
    curvature taken once: closed forms for the kink (one sg_kink), theta1,
    theta1' and phi1, theta1'' in ODE form (_theta1_zz), and stencil
    derivatives of phi2.

    theta1 = (C_f / (2 k^2)) z theta0' = (C_f / k) z sech(kz): differentiating
    theta0'' = k^2 sin(theta0) in k shows that z theta0' / k solves the
    order-1 problem with forcing 2k sin(theta0). It is odd, so it is
    orthogonal to the even translation mode theta0' and vanishes at z = 0.
    """
    if z is None:
        z = kink_grid(params)
    z = np.asarray(z, dtype=float)
    dz = _stencils.uniform_spacing(z)
    kin = sg_kink(z, params)
    c1 = _phi1_coefficient(params)
    b = _forcing_coefficient(params) / (2 * kink_parameter(params) ** 2)
    theta1 = b * z * kin.theta0_z
    theta1_zz = _theta1_zz(params, kin, theta1)
    phi1 = c1 * kin.sin_theta0
    phi2 = _phi2(params, kin, theta1_zz, phi1)
    zeros = np.zeros_like(z)
    orders = (
        Order(kin.theta0, zeros, kin.theta0_z, zeros, kin.theta0_zz, zeros),
        Order(theta1, phi1, b * (kin.theta0_z + z * kin.theta0_zz),
              c1 * kin.cos_theta0 * kin.theta0_z, theta1_zz,
              c1 * (kin.cos_theta0 * kin.theta0_zz
                    - kin.sin_theta0 * kin.theta0_z**2)),
        Order(zeros, phi2, zeros, _stencils.derivative(phi2, dz, 1), zeros,
              _stencils.derivative(phi2, dz, 2)))
    return Expansion(z, params, orders)


def compose_series(sol: Expansion, eps: float,
                   order: int) -> TWProfile:
    """Assemble theta = theta0 + eps theta1, phi = eps phi1 + eps^2 phi2, the
    compose of sol.orders[:order + 1], as a travelling-wave profile at the
    reconstructed chain parameters and speed.

    Slopes and curvatures come from the orders, in closed form except phi2's
    stencil derivatives, so the residual of the composition measures the
    expansion error. order=0 keeps the bare kink; there is no order-2 outer
    correction by construction.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if not 0 <= eps < np.inf:  # also rejects nan
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    theta, phi, theta_z, phi_z, theta_zz, phi_zz = compose(
        sol.orders[:order + 1], eps)
    return TWProfile(sol.z, theta, phi, theta_z, phi_z, sol.params.speed(eps),
                     theta_zz=theta_zz, phi_zz=phi_zz)


class TaylorCoefficients(NamedTuple):
    theta1: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


def taylor_extract(params: ExpansionParams, z) -> TaylorCoefficients:
    """Coefficients theta1, phi1 and phi2 of the discrete travelling-wave
    family u(eps) on the grid z, by implicit differentiation of its
    half-line collocation system F(u; eps) = 0 (travelwave.TWSystem).

    One Newton solve at eps = 0 gives u0, and one factor of the Newton
    matrix J0 there gives each next order by a back-solve:
    J0 u1 = -[eps] F(u0; eps) and J0 u2 = -[eps^2] F(u0 + eps u1; eps), of
    Cauchy coefficients (_stencils.cauchy_coefficients) of the field
    equations at the complex-eps constants of ExpansionParams.wave_constants.
    Their unit rows are zero, as the family shares its ends and centre, so
    each order unfolds as odd: like build_perturbative's closed-form theta1
    it has no translation mode, and the two compare with no projection.
    """
    z = np.asarray(z, dtype=float)
    guess = travelwave.kink_profile(z, kink_parameter(params),
                                    params.speed(0.0))
    base = travelwave.solve_tw_bvp(guess, params.to_chain_params(eps=0.0))
    system = travelwave.TWSystem(base)
    u0 = (base.theta, base.phi, base.theta_z, base.phi_z, base.theta_zz,
          base.phi_zz)
    lu = splu(system.jacobian(u0, params.wave_constants(0.0)))

    def back_solve(k, u1):
        """-J0^-1 [eps^k] F(u0 + eps u1; eps) as odd full-grid fields."""
        def F(e):
            return _field_equations(*(f[system.K:] for f in compose(
                (u0, u1), e)), params.wave_constants(e))
        sol = lu.solve(-system.pack(*_stencils.cauchy_coefficients(F)[k - 1]))
        return system.fields(sol[0::2], sol[1::2], center=0.0)

    u1 = back_solve(1, (0.0,) * 6)
    return TaylorCoefficients(u1[0], u1[1], back_solve(2, u1)[1])


@dataclass(frozen=True)
class ScalingStudy:
    eps: np.ndarray
    res1_l2: np.ndarray
    res2_l2: np.ndarray
    slope1: float
    slope2: float


def residual_scaling(sol: Expansion, eps_list,
                     order: int) -> ScalingStudy:
    """L2 norms of both profile-equation residuals for the order-truncated
    composition of sol, over a sweep of eps, with fitted log-log slopes.

    The completed equation gains one order of smallness per series order; the
    first equation plateaus at slope 2 for order=2 because no order-2 outer
    correction is constructed.
    """
    eps_arr = np.asarray(sorted(float(e) for e in eps_list))
    if not np.all(np.isfinite(eps_arr) & (eps_arr > 0)):
        raise ValueError(f"eps values must be positive and finite, got "
                         f"{eps_arr.tolist()}")
    if np.unique(eps_arr).size < 2:
        raise ValueError("need at least two distinct positive eps values")
    res1, res2 = [], []
    for e in eps_arr:
        prof = compose_series(sol, e, order)
        r1, r2 = travelwave.tw_residual(prof, sol.params.to_chain_params(eps=e))
        res1.append(float(np.sqrt(np.trapezoid(r1 * r1, sol.z))))
        res2.append(float(np.sqrt(np.trapezoid(r2 * r2, sol.z))))
    res1 = np.asarray(res1)
    res2 = np.asarray(res2)

    def slope(vals):
        if np.any(vals <= 0):
            return float("inf")
        return float(np.polyfit(np.log(eps_arr), np.log(vals), 1)[0])

    return ScalingStudy(eps_arr, res1, res2, slope(res1), slope(res2))


def export_scaling_csv(study: ScalingStudy, path) -> None:
    write_csv(path, "residual-scaling v1", "eps,res_eq1_L2,res_eq2_L2",
              zip(study.eps.tolist(), study.res1_l2.tolist(),
                  study.res2_l2.tolist()))


def export_orders(sol: Expansion, path) -> None:
    """Write perturbative-orders.npy, one .npy record (_io.write_npy_record)
    of the (n,) fields z, theta0, theta1, phi1 and phi2."""
    o0, o1, o2 = sol.orders
    write_npy_record(path, {"z": sol.z, "theta0": o0.theta,
                            "theta1": o1.theta, "phi1": o1.phi,
                            "phi2": o2.phi})
