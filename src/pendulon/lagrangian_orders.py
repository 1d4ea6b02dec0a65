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
rounding on the complex-analytic density kernels. expansion_sample takes its
fields from perturbation.build_perturbative.

Every function here takes one sample, whose field arrays have shape
(n_points,), or a batch of samples stacked along leading axes, shape
(..., n_points); the grid z stays (n_points,). Each row of a batch comes out
bit for bit as the same sample alone would, so sample_maxima checks many
random samples a block at a time instead of one call per sample.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, NamedTuple

import numpy as np

from . import perturbation
from .params import ExpansionParams
from .perturbation import _theta1_zz
from .travelwave import _density_raw, _wave_coefficients


@dataclass(frozen=True)
class ExpandedLagrangianSample:
    """Field and derivative samples on a z-grid, one array per expansion
    order. theta2 carries no second derivative because no formula needs it.

    z has shape (n_points,). Every field array has shape (..., n_points):
    (n_points,) for one sample, (n_samples, n_points) for a batch made by
    stack_samples.
    """

    z: np.ndarray
    params: ExpansionParams
    theta0: np.ndarray
    theta0_z: np.ndarray
    theta0_zz: np.ndarray
    theta1: np.ndarray
    theta1_z: np.ndarray
    theta1_zz: np.ndarray
    theta2: np.ndarray
    theta2_z: np.ndarray
    phi0: np.ndarray
    phi0_z: np.ndarray
    phi0_zz: np.ndarray
    phi1: np.ndarray
    phi1_z: np.ndarray
    phi2: np.ndarray
    phi2_z: np.ndarray


def _gauss_mix(rng, z, n_bumps=3, amplitude=1.0):
    span = z[-1] - z[0]
    f = np.zeros_like(z)
    fp = np.zeros_like(z)
    fpp = np.zeros_like(z)
    for _ in range(n_bumps):
        a = amplitude * rng.uniform(-1.0, 1.0)
        c = rng.uniform(z[0] + 0.25 * span, z[-1] - 0.25 * span)
        w = rng.uniform(0.04 * span, 0.12 * span)
        u = (z - c) / w
        e = a * np.exp(-0.5 * u * u)
        f += e
        fp += -u / w * e
        fpp += (u * u - 1.0) / (w * w) * e
    return f, fp, fpp


def smooth_sample(params: ExpansionParams, z, seed: int = 0,
                  amplitude: float = 0.8) -> ExpandedLagrangianSample:
    """Random smooth decaying fields with analytically consistent derivative
    samples; phi0 is scaled to stay well inside the confinement range."""
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    fields = {}
    for name in ("theta0", "theta1", "theta2", "phi0", "phi1", "phi2"):
        amp = amplitude
        if name == "phi0":
            amp = 0.35 * params.h_spec.phi0
        f, fp, fpp = _gauss_mix(rng, z, amplitude=amp)
        fields[name] = (f, fp, fpp)
    return ExpandedLagrangianSample(
        z=z, params=params,
        theta0=fields["theta0"][0], theta0_z=fields["theta0"][1],
        theta0_zz=fields["theta0"][2],
        theta1=fields["theta1"][0], theta1_z=fields["theta1"][1],
        theta1_zz=fields["theta1"][2],
        theta2=fields["theta2"][0], theta2_z=fields["theta2"][1],
        phi0=fields["phi0"][0], phi0_z=fields["phi0"][1],
        phi0_zz=fields["phi0"][2],
        phi1=fields["phi1"][0], phi1_z=fields["phi1"][1],
        phi2=fields["phi2"][0], phi2_z=fields["phi2"][1])


_FIELD_NAMES = tuple(f.name for f in fields(ExpandedLagrangianSample)
                     if f.name not in ("z", "params"))


def stack_samples(samples) -> ExpandedLagrangianSample:
    """One batch from samples on one grid with one params: each field array
    stacked along a new leading axis, shape (len(samples), n_points)."""
    return replace(samples[0], **{
        name: np.stack([getattr(s, name) for s in samples])
        for name in _FIELD_NAMES})


def expansion_sample(params: ExpansionParams, z) -> ExpandedLagrangianSample:
    """Sample populated with the actual expansion fields of
    build_perturbative (phi0 = 0 branch, kink at order 0, no order-2 outer
    correction), with theta1'' in ODE form."""
    sol = perturbation.build_perturbative(params, z)
    kin = perturbation.sg_kink(sol.z, params)
    zeros = np.zeros_like(sol.z)
    return ExpandedLagrangianSample(
        z=sol.z, params=params,
        theta0=kin.theta0, theta0_z=kin.theta0_z, theta0_zz=kin.theta0_zz,
        theta1=sol.theta1, theta1_z=sol.theta1_z,
        theta1_zz=_theta1_zz(params, kin, sol.theta1),
        theta2=zeros, theta2_z=zeros,
        phi0=zeros, phi0_z=zeros, phi0_zz=zeros,
        phi1=sol.phi1, phi1_z=sol.phi1_z,
        phi2=sol.phi2, phi2_z=sol.phi2_z)


def eval_L0_L1_L2(sample: ExpandedLagrangianSample):
    """The first three eps-orders of the travelling-wave density, phi0 free."""
    p = sample.params
    A, Mh, Kh, g = p.A, p.Mhat, p.Khat, p.g
    v0, v1, v2 = p.v0, p.v1, p.v2
    r1, r2, m1 = p.r1, p.r2, p.m1
    k1, k2 = p.k1, p.k2
    muh = Mh * v0 * v0 - Kh
    h = p.h_spec

    t0, t0z = sample.theta0, sample.theta0_z
    t1, t1z = sample.theta1, sample.theta1_z
    t2, t2z = sample.theta2, sample.theta2_z
    p0, p0z = sample.phi0, sample.phi0_z
    p1, p1z = sample.phi1, sample.phi1_z
    p2 = sample.phi2
    c0, s0 = np.cos(p0), np.sin(p0)
    ct0, st0 = np.cos(t0), np.sin(t0)

    L0 = 0.5 * A**2 * muh * t0z**2 + g * A * Mh * ct0 - h.h(p0)

    L1 = ((0.5 * (A**2 - 1) * k1 + A * r1 * (Kh - Mh * v0**2)
           + A**2 * Mh * v0 * v1 - A * Kh * r1 * c0) * t0z**2
          + A**2 * muh * t0z * t1z
          - A * Kh * r1 * c0 * t0z * p0z
          - g * Mh * (A * t1 * st0 + r1 * ct0)
          - h.dh(p0) * p1)

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


CONTOUR_RADIUS = 0.05
CONTOUR_NODES = 12


def _series_density(sample: ExpandedLagrangianSample, e):
    """The full density along the sampled expansion at eps = e, composed from
    bare series values (ExpansionParams.series), so e may be negative or
    complex."""
    p = sample.params
    r, m, Kt, Ks, v = p.series(e)
    theta = sample.theta0 + e * sample.theta1 + e * e * sample.theta2
    theta_z = sample.theta0_z + e * sample.theta1_z + e * e * sample.theta2_z
    phi = sample.phi0 + e * sample.phi1 + e * e * sample.phi2
    phi_z = sample.phi0_z + e * sample.phi1_z + e * e * sample.phi2_z
    M, R = p.Mhat - m, p.A - r
    return _density_raw(theta, phi, theta_z, phi_z, *_wave_coefficients(
        Kt, Ks, M, m, R, v), M, m, R, r, p.g, p.h_spec)


def taylor_lagrangian_coefficients(sample: ExpandedLagrangianSample):
    """eps-Taylor coefficients 0..2 of the full density along the sampled
    expansion: the density at eps = 0, then the Cauchy integrals on |eps| =
    CONTOUR_RADIUS by the trapezoid rule on CONTOUR_NODES nodes (Lyness and
    Moler). The density is real at real eps, so hfft mirrors the upper half
    circle, nodes 0 to CONTOUR_NODES/2, the first and last real."""
    rho, n = CONTOUR_RADIUS, CONTOUR_NODES
    nodes = rho * np.exp(2j * np.pi * np.arange(1, n // 2) / n)
    vals = np.stack([_series_density(sample, e)
                     for e in (rho, *nodes, -rho)])
    coeffs = np.fft.hfft(vals, n, axis=0) / n
    return _series_density(sample, 0.0), coeffs[1] / rho, coeffs[2] / rho**2


def field_derivative(sample: ExpandedLagrangianSample, k: int,
                     name: str) -> np.ndarray:
    """Pointwise dL_k/d(sample.<name>) by complex step, Im L_k(f + i h) / h
    with h = 2**-100 (Squire and Trapp): eval_L0_L1_L2 is complex-analytic
    in every field, so no difference cancels and no step needs choosing."""
    if k not in (0, 1, 2):
        raise ValueError("order k must be 0, 1 or 2")
    h = 2.0**-100
    stepped = replace(sample, **{name: getattr(sample, name) + 1j * h})
    return np.imag(eval_L0_L1_L2(stepped)[k]) / h


def auxiliary_check(sample: ExpandedLagrangianSample, k: int):
    """max |dL_k/dphi_k'| per sample: one value for a single sample, one per
    row for a batch. Structural zero at every order: the density order never
    sees the derivative of its own-order inner angle."""
    return np.max(np.abs(field_derivative(sample, k, f"phi{k}_z")), axis=-1)


def el_identities(sample: ExpandedLagrangianSample):
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
    t0, t0z, t0zz = sample.theta0, sample.theta0_z, sample.theta0_zz
    t1z, t1zz = sample.theta1_z, sample.theta1_zz
    p0, p0z, p0zz = sample.phi0, sample.phi0_z, sample.phi0_zz
    p1, p2 = sample.phi1, sample.phi2
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
    sample = expansion_sample(params, z)
    h2_at0 = float(params.h_spec.d2h(0.0))
    minus_h1 = -params.h_spec.dh(sample.phi0)

    aux = {}
    slaving = {}
    for k in (0, 1, 2):
        aux[str(k)] = float(auxiliary_check(sample, k))
        dLk = field_derivative(sample, k, f"phi{k}")
        slaving[str(k)] = float(np.max(np.abs(dLk - minus_h1)))

    E10_0, _, E20_0 = el_identities(
        replace(sample, phi1=np.zeros_like(z), phi2=np.zeros_like(z)))
    phi1_star = E10_0 / h2_at0
    # E20 is affine in phi2 with slope -h''(phi0), but its phi1-dependence is
    # genuine, so phi1 is restored before solving for phi2
    _, _, E20_1 = el_identities(replace(sample, phi2=np.zeros_like(z)))
    phi2_star = E20_1 / h2_at0

    phi1_scale = float(np.max(np.abs(sample.phi1))) or 1.0
    phi2_scale = float(np.max(np.abs(sample.phi2))) or 1.0
    return {
        "h_prime_at_0": float(params.h_spec.dh(0.0)),
        "auxiliary_max": aux,
        "own_order_variation_vs_minus_h_prime": slaving,
        "phi1_from_E10_max_abs_diff": float(
            np.max(np.abs(phi1_star - sample.phi1))),
        "phi2_from_E20_rel_max_diff": float(
            np.max(np.abs(phi2_star - sample.phi2)) / phi2_scale),
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
    """Worst cases over the smooth samples smooth_sample(params, z, seed) of
    seeds: per order, the gap between eval_L0_L1_L2 and the Taylor oracle
    relative to the oracle's max on the sample, and auxiliary_check; and
    |E10 - E21| of el_identities.

    The samples go through in blocks of at most BLOCK_VALUES values per field
    array, and one sample at least. A nan in any sample reaches its maximum.
    """
    z = np.asarray(z, dtype=float)
    per_block = max(1, BLOCK_VALUES // z.shape[0])
    oracle = np.zeros(3)
    aux = np.zeros(3)
    gap = 0.0
    for start in range(0, len(seeds), per_block):
        batch = stack_samples([smooth_sample(params, z, seed=s)
                               for s in seeds[start:start + per_block]])
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
