"""Order-by-order expansion of the travelling-wave Lagrangian density.

The density is expanded to second order in eps with the base inner angle
phi0 kept as a free field (it is NOT forced to zero here). The structural
facts verified numerically in this module:

  * no order contains the derivative of its own-order inner angle, so the
    inner angle never acquires a conjugate momentum (auxiliary_check);
  * varying order k with respect to phi_k collapses to -h'(phi0) for every k
    (slaving_consistency);
  * the Euler-Lagrange combinations that DO carry information (variation of
    order j with respect to a lower-order phi_k) reproduce the algebraic
    slaving formulas of the perturbation module.

Every formula here is cross-checked against an eps-Taylor extraction of the
full density, which is the only defense against transcription slips in
expressions this dense; it and field_derivative are analytic rules, exact to
rounding on the complex-analytic density kernels. A sample is a
perturbation.Expansion, one perturbation.Order per expansion order: the one
perturbation.build_perturbative returns, or random ones from smooth_samples.

Every function here takes one sample, whose field arrays have shape
(n_points,), or a batch of samples stacked along leading axes, shape
(..., n_points); the grid z stays (n_points,). Each row of a batch comes out
bit for bit as the same sample alone would, so sample_maxima checks many
random samples a block at a time instead of one call per sample.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, NamedTuple

import numpy as np

from . import _stencils, perturbation
from .params import ExpansionParams
from .perturbation import Expansion, Order
from .travelwave import _density_raw


def smooth_samples(params: ExpansionParams, z, seeds) -> Expansion:
    """Random smooth decaying fields, one row per seed, with analytically
    consistent derivatives: three Gaussian bumps of height at most 0.8 per
    field (0.35 phi0 of the confinement for phi0). Each seed's generator
    draws (field, bump, height/centre/width), the fields in the order theta0,
    theta1, theta2, phi0, phi1, phi2; the bumps are added from zeros in turn,
    so a row is the same bit for bit in any batch."""
    z = np.asarray(z, dtype=float)
    span = z[-1] - z[0]
    bounds = np.array([[-1.0, z[0] + 0.25 * span, 0.04 * span],
                       [1.0, z[-1] - 0.25 * span, 0.12 * span]])
    draws = np.stack([np.random.default_rng(s).uniform(*bounds, (6, 3, 3))
                      for s in seeds], axis=1)  # (field, seed, bump, a/c/w)
    height = np.array([0.8] * 3 + [0.35 * params.h_spec.phi0] + [0.8] * 2)
    f, fp, fpp = np.zeros((3,) + draws.shape[:2] + z.shape)
    for a, c, w in draws.transpose(2, 3, 0, 1)[..., None]:  # bump by bump
        u = (z - c) / w
        e = height[:, None, None] * a * np.exp(-0.5 * u * u)
        f += e
        fp += -u / w * e
        fpp += (u * u - 1.0) / (w * w) * e
    return Expansion(z, params, tuple(
        Order(f[k], f[3 + k], fp[k], fp[3 + k], fpp[k], fpp[3 + k])
        for k in range(3)))


def smooth_sample(params: ExpansionParams, z, seed: int = 0) -> Expansion:
    """The one sample of smooth_samples(params, z, [seed])."""
    batch = smooth_samples(params, z, [seed])
    return replace(batch, orders=tuple(
        Order(*(field[0] for field in order)) for order in batch.orders))


def eval_L0_L1_L2(sample: Expansion, through: int = 2):
    """The first three eps-orders of the travelling-wave density, phi0 free:
    L0 to L_through, each order computed only when it is returned."""
    p = sample.params
    A, Mh, Kh, g = p.A, p.Mhat, p.Khat, p.g
    v0, v1, v2 = p.v0, p.v1, p.v2
    r1, r2, m1 = p.r1, p.r2, p.m1
    k1, k2 = p.k1, p.k2
    muh = Mh * v0 * v0 - Kh
    h = p.h_spec

    o0, o1, o2 = sample.orders
    t0, t0z = o0.theta, o0.theta_z
    t1, t1z = o1.theta, o1.theta_z
    t2, t2z = o2.theta, o2.theta_z
    p0, p0z = o0.phi, o0.phi_z
    p1, p1z = o1.phi, o1.phi_z
    p2 = o2.phi
    ct0 = np.cos(t0)

    L0 = 0.5 * A**2 * muh * t0z**2 + g * A * Mh * ct0 - h.h(p0)
    if through == 0:
        return (L0,)

    c0, s0, st0 = np.cos(p0), np.sin(p0), np.sin(t0)
    L1 = ((0.5 * (A**2 - 1) * k1 + A * r1 * (Kh - Mh * v0**2)
           + A**2 * Mh * v0 * v1 - A * Kh * r1 * c0) * t0z**2
          + A**2 * muh * t0z * t1z
          - A * Kh * r1 * c0 * t0z * p0z
          - g * Mh * (A * t1 * st0 + r1 * ct0)
          - h.dh(p0) * p1)
    if through == 1:
        return L0, L1

    bracket1 = (A**2 * muh * t2z
                + (2 * A**2 * Mh * v0 * v1 + A**2 * k1) * t1z
                + A * Kh * r1 * p1 * s0 * p0z
                - A * Kh * r1 * c0 * p1z
                - 2 * A * Kh * r1 * c0 * t1z
                + 2 * A * Kh * r1 * t1z
                - A * Kh * r2 * c0 * p0z
                - 2 * A * Mh * r1 * v0**2 * t1z
                + A * k1 * r1 * c0 * p0z
                + A * m1 * r1 * v0**2 * c0 * p0z
                + Kh * r1**2 * c0 * p0z
                - Kh * r1**2 * p0z
                - k1 * t1z)
    bracket2 = (A**2 * Mh * v0 * v2 + 0.5 * A**2 * Mh * v1**2
                + 0.5 * A**2 * k2
                + A * Kh * r1 * p1 * s0
                - A * Kh * r2 * c0 + A * Kh * r2
                - 2 * A * Mh * r1 * v0 * v1
                - A * Mh * r2 * v0**2
                + A * k1 * r1 * c0 - A * k1 * r1
                + A * m1 * r1 * v0**2 * c0
                + Kh * r1**2 * c0 - Kh * r1**2
                + 0.5 * Mh * r1**2 * v0**2
                - 0.5 * k2)
    L2 = (0.5 * A**2 * muh * t1z**2
          - A * Kh * r1 * c0 * p0z * t1z
          - 0.5 * A * Mh * g * t1**2 * ct0
          - A * Mh * g * t2 * st0
          - 0.5 * Kh * r1**2 * p0z**2
          + Mh * g * r1 * t1 * st0
          - Mh * g * r2 * ct0
          + g * m1 * r1 * np.cos(p0 + t0)
          - h.dh(p0) * p2
          - 0.5 * h.d2h(p0) * p1**2
          + t0z * bracket1
          + t0z**2 * bracket2)
    return L0, L1, L2


def _series_density(sample: Expansion, e):
    """The full density along the sampled expansion at eps = e, at the
    constants of ExpansionParams.wave_constants, so e may be negative or
    complex."""
    fields = perturbation.compose([o[:4] for o in sample.orders], e)
    return _density_raw(*fields, sample.params.wave_constants(e))


def taylor_lagrangian_coefficients(sample: Expansion):
    """eps-Taylor coefficients 0..2 of the full density along the sampled
    expansion: the density at eps = 0, then the Cauchy integrals of
    _stencils.cauchy_coefficients."""
    return (_series_density(sample, 0.0),
            *_stencils.cauchy_coefficients(
                lambda e: _series_density(sample, e)))


def field_derivative(sample: Expansion, k: int, j: int,
                     name: str) -> np.ndarray:
    """Pointwise dL_k/d(sample.orders[j].<name>) by complex step,
    Im L_k(f + i h) / h with h = _stencils.COMPLEX_STEP (Squire and Trapp):
    eval_L0_L1_L2 is complex-analytic in every field, so no difference
    cancels and no step needs choosing."""
    if k not in (0, 1, 2):
        raise ValueError("order k must be 0, 1 or 2")
    h = _stencils.COMPLEX_STEP
    orders = list(sample.orders)
    orders[j] = orders[j]._replace(
        **{name: getattr(orders[j], name) + 1j * h})
    stepped = replace(sample, orders=tuple(orders))
    return np.imag(eval_L0_L1_L2(stepped, through=k)[k]) / h


def auxiliary_check(sample: Expansion, k: int):
    """max |dL_k/dphi_k'| per sample: one value for a single sample, one per
    row for a batch. Structural zero at every order: the density order never
    sees the derivative of its own-order inner angle."""
    return np.max(np.abs(field_derivative(sample, k, k, "phi_z")), axis=-1)


def el_identities(sample: Expansion):
    """The three informative Euler-Lagrange combinations E10, E21, E20.

    E10: order-1 density varied in phi0. E21: order-2 density varied in phi1,
    which passes through a nonzero dL2/dphi1' whose total z-derivative must
    cancel back out; it is computed along that longer route on purpose, so
    agreement with E10 is a check of structure, not of copy-paste. E20:
    order-2 density varied in phi0.
    """
    p = sample.params
    A, Kh, g = p.A, p.Khat, p.g
    r1, r2, m1, k1 = p.r1, p.r2, p.m1, p.k1
    h = p.h_spec
    o0, o1, o2 = sample.orders
    t0, t0z, t0zz = o0.theta, o0.theta_z, o0.theta_zz
    t1z, t1zz = o1.theta_z, o1.theta_zz
    p0, p0z, p0zz = o0.phi, o0.phi_z, o0.phi_zz
    p1, p2 = o1.phi, o2.phi
    c0, s0 = np.cos(p0), np.sin(p0)
    AKr1 = A * Kh * r1

    E10 = AKr1 * (s0 * t0z**2 + c0 * t0zz) - h.d2h(p0) * p1

    dL2_dphi1 = AKr1 * s0 * (p0z * t0z + t0z**2) - h.d2h(p0) * p1
    ddz_dL2_dphi1p = AKr1 * (s0 * p0z * t0z - c0 * t0zz)
    E21 = dL2_dphi1 - ddz_dL2_dphi1p

    mu1 = -(k1 + m1 * p.v0**2)
    E20 = (Kh * r1**2 * p0zz
           + A * Kh * c0 * (r1 * t1zz + r2 * t0zz)
           + Kh * r1**2 * (1.0 - c0) * t0zz
           - AKr1 * p1 * s0 * t0zz
           + A * mu1 * r1 * c0 * t0zz
           + AKr1 * c0 * p1 * t0z**2
           + 2 * AKr1 * s0 * t0z * t1z
           + (A * r2 - r1**2) * Kh * s0 * t0z**2
           + A * mu1 * r1 * s0 * t0z**2
           - g * m1 * r1 * np.sin(p0 + t0)
           - h.d2h(p0) * p2
           - 0.5 * h.d3h(p0) * p1**2)
    return E10, E21, E20


def slaving_consistency(params: ExpansionParams, z) -> Dict[str, object]:
    """End-to-end consistency report on the phi0 = 0 expansion branch.

    Checks that varying each order in its own phi collapses to -h'(phi0)
    (zero here by evenness), that no order depends on its own phi', and that
    solving E10 = 0 and E20 = 0 for phi1 and phi2 reproduces the slaving
    formulas. Returns a JSON-ready dictionary of max deviations.
    """
    z = np.asarray(z, dtype=float)
    sample = perturbation.build_perturbative(params, z)
    o0, o1, o2 = sample.orders
    zeros = np.zeros_like(z)
    h2_at0 = float(params.h_spec.d2h(0.0))
    minus_h1 = -params.h_spec.dh(o0.phi)

    aux = {}
    slaving = {}
    for k in (0, 1, 2):
        aux[str(k)] = float(auxiliary_check(sample, k))
        dLk = field_derivative(sample, k, k, "phi")
        slaving[str(k)] = float(np.max(np.abs(dLk - minus_h1)))

    E10_0, _, _ = el_identities(replace(sample, orders=(
        o0, o1._replace(phi=zeros), o2._replace(phi=zeros))))
    phi1_star = E10_0 / h2_at0
    # E20 is affine in phi2 with slope -h''(phi0), but its phi1-dependence is
    # genuine, so phi1 is restored before solving for phi2
    _, _, E20_1 = el_identities(
        replace(sample, orders=(o0, o1, o2._replace(phi=zeros))))
    phi2_star = E20_1 / h2_at0

    phi1_scale = float(np.max(np.abs(o1.phi))) or 1.0
    phi2_scale = float(np.max(np.abs(o2.phi))) or 1.0
    return {
        "h_prime_at_0": float(params.h_spec.dh(0.0)),
        "auxiliary_max": aux,
        "own_order_variation_vs_minus_h_prime": slaving,
        "phi1_from_E10_max_abs_diff": float(
            np.max(np.abs(phi1_star - o1.phi))),
        "phi2_from_E20_rel_max_diff": float(
            np.max(np.abs(phi2_star - o2.phi)) / phi2_scale),
        "phi1_scale": phi1_scale,
        "phi2_scale": phi2_scale,
    }


# the most values one field array of a sample_maxima block holds, so its
# memory stays bounded however many samples are checked
BLOCK_VALUES = 65536


class SampleMaxima(NamedTuple):
    oracle_rel: np.ndarray  # per order 0, 1, 2
    auxiliary: np.ndarray  # per order 0, 1, 2
    el_identity_gap: float


def sample_maxima(params: ExpansionParams, z, seeds) -> SampleMaxima:
    """Worst cases over smooth_samples(params, z, seeds): per order, the gap
    between eval_L0_L1_L2 and the Taylor oracle relative to the oracle's max
    on the sample, and auxiliary_check; and |E10 - E21| of el_identities.

    The samples are drawn, built and checked in blocks of at most
    BLOCK_VALUES values per field array, and one sample at least. A nan in
    any sample reaches its maximum.
    """
    z = np.asarray(z, dtype=float)
    per_block = max(1, BLOCK_VALUES // z.shape[0])
    oracle = np.zeros(3)
    aux = np.zeros(3)
    gap = 0.0
    for start in range(0, len(seeds), per_block):
        batch = smooth_samples(params, z, seeds[start:start + per_block])
        exact = eval_L0_L1_L2(batch)
        taylor = taylor_lagrangian_coefficients(batch)
        for k in range(3):
            scale = np.max(np.abs(taylor[k]), axis=-1) + 1e-300
            rel = np.max(np.abs(exact[k] - taylor[k]), axis=-1) / scale
            oracle[k] = np.maximum(oracle[k], np.max(rel))
            aux[k] = np.maximum(aux[k], np.max(auxiliary_check(batch, k)))
        e10, e21, _ = el_identities(batch)
        gap = np.maximum(gap, np.max(np.abs(e10 - e21)))
    return SampleMaxima(oracle, aux, gap)
