"""Order-by-order effective Lagrangians against an epsilon-Taylor oracle,
plus the identities that make the tip angle perturbatively auxiliary."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pendulon import lagrangian_orders as lx
from pendulon.params import ConfiningPotential, ExpansionParams
from pendulon._stencils import derivative
from pendulon.perturbation import (Expansion, Order, _forcing_coefficient,
                                   _phi1_coefficient, _phi2,
                                   build_perturbative, kink_grid,
                                   kink_parameter, sg_kink)


_EXP = ExpansionParams(A=1.0, Mhat=1.0, Khat=1.0, g=1.0, v0=0.3, v1=0.1,
                       r1=0.4, r2=0.1, m1=0.5, m2=0.2, k1=0.3, k2=0.1)


@pytest.fixture
def zgrid():
    return np.linspace(-8.0, 8.0, 257)


def test_taylor_oracle_agreement(exp_params, exp_params_wide, zgrid):
    for p in (exp_params, exp_params_wide):
        for seed in range(10):
            sample = lx.smooth_sample(p, zgrid, seed=seed)
            exact = lx.eval_L0_L1_L2(sample)
            taylor = lx.taylor_lagrangian_coefficients(sample)
            for k in range(3):
                scale = np.max(np.abs(taylor[k])) + 1e-30
                gap = np.max(np.abs(exact[k] - taylor[k])) / scale
                assert gap < 1e-6, f"order {k}, seed {seed}"


def test_oracle_catches_wrong_sign(exp_params, zgrid):
    # negative control for the oracle itself: break one term, see it fire
    sample = lx.smooth_sample(exp_params, zgrid, seed=0)
    exact = list(lx.eval_L0_L1_L2(sample))
    exact[1] = exact[1] + 1e-3 * sample.orders[1].theta
    taylor = lx.taylor_lagrangian_coefficients(sample)
    scale = np.max(np.abs(taylor[1]))
    assert np.max(np.abs(exact[1] - taylor[1])) / scale > 1e-6


def test_auxiliary_at_every_order(exp_params, zgrid):
    for seed in range(20):
        sample = lx.smooth_sample(exp_params, zgrid, seed=seed)
        for k in range(3):
            assert lx.auxiliary_check(sample, k) < 1e-10


def test_auxiliary_check_is_exactly_zero():
    # no order reads its own phi_k', so the complex step leaves no residue
    z = np.linspace(-8.0, 8.0, 257)
    for family in sorted(_CONFINEMENTS):
        params = dataclasses.replace(_EXP, h_spec=_CONFINEMENTS[family])
        batch = lx.smooth_samples(params, z, range(10))
        for k in range(3):
            assert np.all(lx.auxiliary_check(batch, k) == 0.0), (family, k)


def test_cross_order_gradient_is_not_zero(exp_params, zgrid):
    # the second-order density DOES feel the base tip-angle gradient, so a
    # vanishing auxiliary_check is not an artifact of dead parameters
    sample = lx.smooth_sample(exp_params, zgrid, seed=4)
    assert np.max(np.abs(lx.field_derivative(sample, 2, 0, "phi_z"))) > 1e-4


def test_own_order_variation_is_confining_force(exp_params, zgrid):
    sample = lx.smooth_sample(exp_params, zgrid, seed=7)
    for k in range(3):
        got = lx.field_derivative(sample, k, k, "phi")
        want = -exp_params.h_spec.dh(sample.orders[0].phi)
        assert np.max(np.abs(got - want)) < 1e-14


def test_el_identity_orders_1_and_2(exp_params, zgrid):
    for seed in range(20):
        sample = lx.smooth_sample(exp_params, zgrid, seed=seed)
        e10, e21, _ = lx.el_identities(sample)
        assert np.max(np.abs(e10 - e21)) < 1e-14


def test_slaving_consistency_on_kink(exp_params):
    rep = lx.slaving_consistency(exp_params,
                                 kink_grid(exp_params, n_points=2001))
    assert rep["h_prime_at_0"] == 0.0
    assert all(v < 1e-12 for v in rep["auxiliary_max"].values())
    assert rep["phi1_from_E10_max_abs_diff"] < 1e-10
    assert rep["phi2_from_E20_rel_max_diff"] < 1e-6
    assert rep["phi1_scale"] > 1e-3  # the comparison is not vacuous


def test_zero_fields_base_value(exp_params, zgrid):
    p = exp_params
    zero = np.zeros_like(zgrid)
    sample = Expansion(z=zgrid, params=p, orders=(Order(*[zero] * 6),) * 3)
    L0, L1, L2 = lx.eval_L0_L1_L2(sample)
    assert np.allclose(L0, p.g * p.A * p.Mhat, atol=1e-14)
    assert np.allclose(L1, -p.g * p.Mhat * p.r1, atol=1e-14)


def test_orders_through_k_are_the_first_k_plus_one(exp_params, zgrid):
    # field_derivative evaluates through its order k only; the orders it
    # gets are those of the full evaluation, bit for bit, complex or not
    sample = lx.smooth_samples(exp_params, zgrid, range(3))
    o0 = sample.orders[0]
    stepped = dataclasses.replace(sample, orders=(
        o0._replace(phi_z=o0.phi_z + 1e-30j), *sample.orders[1:]))
    for s in (sample, stepped):
        full = lx.eval_L0_L1_L2(s)
        for k in range(3):
            part = lx.eval_L0_L1_L2(s, through=k)
            assert len(part) == k + 1
            for a, b in zip(part, full):
                assert a.tobytes() == b.tobytes()


def test_smooth_sample_is_seeded(exp_params, zgrid):
    a = lx.smooth_sample(exp_params, zgrid, seed=11)
    b = lx.smooth_sample(exp_params, zgrid, seed=11)
    c = lx.smooth_sample(exp_params, zgrid, seed=12)
    assert np.array_equal(a.orders[1].theta, b.orders[1].theta)
    assert not np.array_equal(a.orders[1].theta, c.orders[1].theta)


def _reference_expansion(params, z):
    """The orders of build_perturbative as the Lagrangian layer once built
    them for itself: every field assembled in place."""
    dz = float(z[1] - z[0])
    kin = sg_kink(z, params)
    k2 = kink_parameter(params) ** 2
    b = _forcing_coefficient(params) / (2 * k2)
    theta1 = b * z * kin.theta0_z
    theta1_zz = k2 * kin.cos_theta0 * theta1 \
        + _forcing_coefficient(params) * kin.sin_theta0
    c1 = _phi1_coefficient(params)
    phi1 = c1 * kin.sin_theta0
    phi2 = _phi2(params, kin, theta1_zz, phi1)
    zeros = np.zeros_like(z)
    return Expansion(z=z, params=params, orders=(
        Order(kin.theta0, zeros, kin.theta0_z, zeros, kin.theta0_zz, zeros),
        Order(theta1, phi1, b * (kin.theta0_z + z * kin.theta0_zz),
              c1 * kin.cos_theta0 * kin.theta0_z, theta1_zz,
              c1 * (kin.cos_theta0 * kin.theta0_zz
                    - kin.sin_theta0 * kin.theta0_z**2)),
        Order(zeros, phi2, zeros, derivative(phi2, dz, 1), zeros,
              derivative(phi2, dz, 2))))


def test_perturbative_orders_match_reference(exp_params, exp_params_wide):
    for p in (exp_params, exp_params_wide):
        z = kink_grid(p, n_points=1201)
        got = build_perturbative(p, z)
        ref = _reference_expansion(p, z)
        assert got.params == ref.params
        assert np.array_equal(got.z, ref.z)
        assert len(got.orders) == len(ref.orders) == 3
        for k, (a, b) in enumerate(zip(got.orders, ref.orders)):
            for name in Order._fields:
                assert np.array_equal(getattr(a, name), getattr(b, name)), \
                    (k, name)


def test_perturbative_orders_identities(exp_params):
    z = kink_grid(exp_params, n_points=2001)
    sample = build_perturbative(exp_params, z)
    e10, e21, e20 = lx.el_identities(sample)
    assert np.max(np.abs(e10 - e21)) < 1e-14
    # built from the slaving formulas, so the first-order equation holds
    assert np.max(np.abs(e10)) < 1e-10
    assert np.max(np.abs(e20)) < 1e-6


def _reference_gauss_mix(rng, z, amplitude):
    """Three random Gaussian bumps, centred in the middle half of z and of
    height at most amplitude, with their first and second derivatives: one
    bump and a few scalar draws at a time."""
    span = z[-1] - z[0]
    f = np.zeros_like(z)
    fp = np.zeros_like(z)
    fpp = np.zeros_like(z)
    for _ in range(3):
        a = amplitude * rng.uniform(-1.0, 1.0)
        c = rng.uniform(z[0] + 0.25 * span, z[-1] - 0.25 * span)
        w = rng.uniform(0.04 * span, 0.12 * span)
        u = (z - c) / w
        e = a * np.exp(-0.5 * u * u)
        f += e
        fp += -u / w * e
        fpp += (u * u - 1.0) / (w * w) * e
    return f, fp, fpp


def _reference_smooth_sample(params, z, seed):
    """smooth_sample as it was before smooth_samples drew and built a batch
    at once: one seed, six fields of three bumps each, in draw order."""
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    thetas = [_reference_gauss_mix(rng, z, 0.8) for _ in range(3)]
    phis = [_reference_gauss_mix(rng, z,
                                 0.35 * params.h_spec.phi0 if k == 0 else 0.8)
            for k in range(3)]
    return Expansion(z, params, tuple(
        Order(t, p, tz, pz, tzz, pzz)
        for (t, tz, tzz), (p, pz, pzz) in zip(thetas, phis)))


def _per_sample_maxima(params, z, seeds):
    """The random-sample maxima as verify-lagrangian computed them before it
    batched: one reference sample per call, 1-D arrays throughout."""
    oracle, aux, gap = [0.0] * 3, [0.0] * 3, 0.0
    for s in seeds:
        sample = _reference_smooth_sample(params, z, s)
        exact = lx.eval_L0_L1_L2(sample)
        taylor = lx.taylor_lagrangian_coefficients(sample)
        for k in range(3):
            scale = np.max(np.abs(taylor[k])) + 1e-300
            oracle[k] = np.maximum(
                oracle[k], np.max(np.abs(exact[k] - taylor[k])) / scale)
            aux[k] = np.maximum(aux[k], lx.auxiliary_check(sample, k))
        e10, e21, _ = lx.el_identities(sample)
        gap = np.maximum(gap, np.max(np.abs(e10 - e21)))
    return oracle, aux, gap


_CONFINEMENTS = {
    "quadratic": ConfiningPotential(family="quadratic", c2=2.0),
    "tangent-barrier": ConfiningPotential(family="tangent-barrier", phi0=1.2,
                                          c2=1.5, b=0.3),
}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), per_block=st.integers(1, 3),
       extra=st.integers(1, 4), n_points=st.integers(2, 65),
       family=st.sampled_from(sorted(_CONFINEMENTS)))
def test_batched_blocks_equal_per_sample_results(seed, per_block, extra,
                                                 n_points, family):
    """sample_maxima over blocks of per_block samples, with n_samples past
    the first block boundary, against one sample per call; and every row of
    a batch against its sample alone. Equality is bit for bit."""
    params = dataclasses.replace(_EXP, h_spec=_CONFINEMENTS[family])
    z = np.linspace(-8.0, 8.0, n_points)
    seeds = range(seed, seed + per_block + extra)
    with mock.patch.object(lx, "BLOCK_VALUES", per_block * n_points):
        got = lx.sample_maxima(params, z, seeds)
    oracle, aux, gap = _per_sample_maxima(params, z, seeds)
    assert got.oracle_rel.tolist() == oracle
    assert got.auxiliary.tolist() == aux
    assert got.el_identity_gap == gap

    singles = [lx.smooth_sample(params, z, seed=s) for s in seeds]
    batch = lx.smooth_samples(params, z, seeds)
    for row, one in enumerate(singles):
        for name in ("eval_L0_L1_L2", "el_identities"):
            for b, a in zip(getattr(lx, name)(batch), getattr(lx, name)(one)):
                assert np.array_equal(b[row], a)
        pairs = zip(lx.taylor_lagrangian_coefficients(batch),
                    lx.taylor_lagrangian_coefficients(one))
        for b, a in pairs:
            assert np.array_equal(b[row], a)
        for k in range(3):
            assert lx.auxiliary_check(batch, k)[row] == lx.auxiliary_check(
                one, k)
            # a field the density depends on, so the derivative is not 0
            assert np.array_equal(
                lx.field_derivative(batch, k, 0, "phi_z")[row],
                lx.field_derivative(one, k, 0, "phi_z"))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_seeds=st.integers(1, 4),
       n_points=st.integers(2, 65),
       family=st.sampled_from(sorted(_CONFINEMENTS)), data=st.data())
def test_smooth_samples_rows_equal_the_reference(seed, n_seeds, n_points,
                                                 family, data):
    """Row i of a smooth_samples batch is the reference sample of seed i,
    bit for bit, wherever the seeds fall in [0, 2**32 - 1]."""
    params = dataclasses.replace(_EXP, h_spec=_CONFINEMENTS[family])
    z = np.linspace(-8.0, 8.0, n_points)
    seeds = [seed] + data.draw(
        st.lists(st.integers(0, 2**32 - 1), min_size=n_seeds - 1,
                 max_size=n_seeds - 1))
    batch = lx.smooth_samples(params, z, seeds)
    one = lx.smooth_sample(params, z, seed=seed)
    for row, s in enumerate(seeds):
        ref = _reference_smooth_sample(params, z, s)
        for got, want, alone in zip(batch.orders, ref.orders, one.orders):
            for name in Order._fields:
                field = getattr(got, name)
                assert field.shape == (n_seeds, n_points)
                assert field[row].tobytes() == getattr(want, name).tobytes()
                if row == 0:
                    assert getattr(alone, name).tobytes() == \
                        getattr(want, name).tobytes()


def test_sample_maxima_blocks_hold_at_least_one_sample(exp_params):
    # a grid longer than BLOCK_VALUES still goes through, a sample per block
    z = np.linspace(-8.0, 8.0, 33)
    with mock.patch.object(lx, "BLOCK_VALUES", 1):
        got = lx.sample_maxima(exp_params, z, range(3))
    oracle, aux, gap = _per_sample_maxima(exp_params, z, range(3))
    assert got.oracle_rel.tolist() == oracle
    assert got.auxiliary.tolist() == aux
    assert got.el_identity_gap == gap


def test_contour_oracle_on_tangent_barrier():
    """Criterion 05's 1e-6 bound over 100 samples on the tangent-barrier
    confinement, whose tan makes the density far from polynomial in eps."""
    params = dataclasses.replace(_EXP, h_spec=_CONFINEMENTS["tangent-barrier"])
    z = np.linspace(-8.0, 8.0, 257)
    got = lx.sample_maxima(params, z, range(100))
    assert np.all(got.oracle_rel < 1e-6), got.oracle_rel
