import dataclasses

import numpy as np
import pytest

from pendulon.params import ChainParams, ConfiningPotential
from pendulon.perturbation import ExpansionParams, kink_parameter
from pendulon.reductions import (StiffReport, compatibility_mu,
                                 export_stiff_csv,
                                 reduced_equations_residual,
                                 reduced_proportionality_gap, selected_speed,
                                 selected_kink_width, selected_speed_kink,
                                 stiff_limit_experiment)
from pendulon.travelwave import kink_profile, tw_coefficients, tw_residual


def _stiff_chain(**overrides):
    kw = dict(M=3.0, m=1.0, R=3.0, r=1.0, kappa_t=0.0, kappa_s=1.0, g=1.0,
              delta=1.0)
    kw.update(overrides)
    return ChainParams(**kw)


def test_reference_values():
    p = _stiff_chain()
    sel = selected_speed(p)
    assert sel.mu_star == pytest.approx(-3.0, abs=1e-14)
    assert sel.v_star == pytest.approx(2.0, abs=1e-14)
    assert compatibility_mu(p) == sel.mu_star


def test_v_star_scaling():
    p = _stiff_chain()
    base = selected_speed(p).v_star
    assert selected_speed(_stiff_chain(kappa_s=4.0)).v_star \
        == pytest.approx(2 * base, rel=1e-14)
    assert selected_speed(_stiff_chain(m=4.0)).v_star \
        == pytest.approx(base / 2, rel=1e-14)


def test_r_to_zero_keeps_sonic_limit():
    p = _stiff_chain(R=0.0, M=1.0)
    assert selected_speed(p).v_star == pytest.approx(
        np.sqrt(p.Ks / p.m), rel=1e-14)
    assert compatibility_mu(p) == 0.0


def test_r_zero_rejected():
    with pytest.raises(ValueError):
        compatibility_mu(_stiff_chain(r=0.0, m=0.0))


def test_reduction_preconditions():
    p = _stiff_chain(kappa_t=0.5)
    z = np.linspace(-10, 10, 301)
    with pytest.raises(ValueError, match="kappa_t"):
        reduced_equations_residual(np.tanh(z), z, p, 1.0)


def test_selected_kink_solves_full_system():
    """With h'(0) = 0 the pi-shifted kink at v* solves the complete
    two-angle profile system, tip angle identically zero."""
    p = _stiff_chain()
    kap = selected_kink_width(p)
    z = np.linspace(-20 / kap, 20 / kap, 2001)
    prof = selected_speed_kink(p, z)
    r1, r2 = tw_residual(prof, p)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-12
    # ends sit a tail 4 e^{-20} away from the connected equilibria
    assert prof.theta[0] == pytest.approx(-np.pi, abs=1e-8)
    assert prof.theta[-1] == pytest.approx(np.pi, abs=1e-8)


def test_proportionality_gap_detects_speed():
    p = _stiff_chain()
    sel = selected_speed(p)
    kap = selected_kink_width(p)
    z = np.linspace(-20 / kap, 20 / kap, 2001)
    prof = selected_speed_kink(p, z)
    assert reduced_proportionality_gap(prof.theta, z, p, sel.v_star) < 1e-10
    assert reduced_proportionality_gap(prof.theta, z, p,
                                       1.2 * sel.v_star) > 1e-2


def test_proportionality_gap_rejects_the_sonic_speed():
    """At v = sqrt(K_s/m) the derived mu is -2.2e-16, not exactly 0, on the
    README chain without torsion; the gap must still refuse the speed."""
    p = ChainParams(M=1.0, m=0.05, R=0.96, r=0.04, kappa_t=0.0,
                    kappa_s=0.985, g=1.0, delta=1.0,
                    h_spec=ConfiningPotential(family="quadratic", c2=2.0))
    v = float(np.sqrt(p.Ks / p.m))
    assert tw_coefficients(v, p)[1] != 0.0
    z = np.linspace(-10, 10, 401)
    theta = kink_profile(z, 1.05, v, with_curvature=False).theta
    with pytest.raises(ValueError, match="mu = 0"):
        reduced_proportionality_gap(theta, z, p, v)
    with pytest.raises(ValueError, match="r = 0"):
        reduced_proportionality_gap(theta, z, dataclasses.replace(
            p, r=0.0, m=0.0), v)


def test_width_map_to_expansion_parameters():
    # the frozen system is the single-angle chain with remapped constants;
    # its kink parameter must equal the selected width
    p = _stiff_chain()
    sel = selected_speed(p)
    eq = ExpansionParams(Mhat=p.m, A=p.r + p.R,
                         Khat=p.Ks * (p.r + 2 * p.R) / p.r, g=p.g,
                         v0=sel.v_star)
    assert kink_parameter(eq) == pytest.approx(selected_kink_width(p),
                                               rel=1e-12)


def test_stiff_experiment_default_ladder():
    p = _stiff_chain()
    rep = stiff_limit_experiment(p)
    assert isinstance(rep, StiffReport)
    assert [c.h2 for c in rep.cells] == [40.0, 400.0, 4000.0, 40000.0]
    assert all(c.converged for c in rep.cells)
    phis = [c.max_abs_phi for c in rep.cells]
    assert all(b < a for a, b in zip(phis, phis[1:]))
    assert phis[-1] < 1e-3 * p.h_spec.phi0


def test_stiff_experiment_off_speed_control():
    # away from v* the tip angle carries real torque: either the solver
    # fails outright or the constraint torque stays finite
    p = _stiff_chain()
    v_off = 1.2 * selected_speed(p).v_star
    rep = stiff_limit_experiment(p, stiffness_ladder=[40.0, 400.0],
                                 v_probe=[v_off], n_points=1201)
    for c in rep.cells:
        assert (not c.converged) or c.max_constraint_torque > 1e-2


def test_stiff_ladder_validation():
    p = _stiff_chain()
    with pytest.raises(ValueError):
        stiff_limit_experiment(p, stiffness_ladder=[100.0, 10.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stiff_experiment_rejects_non_finite_probe_speeds(bad):
    with pytest.raises(ValueError, match="v_probe"):
        stiff_limit_experiment(_stiff_chain(), stiffness_ladder=[40.0],
                               v_probe=[bad], n_points=201)


def test_export_stiff_csv(tmp_path):
    p = _stiff_chain()
    rep = stiff_limit_experiment(p, stiffness_ladder=[40.0, 400.0])
    path = tmp_path / "stiff.csv"
    export_stiff_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: stiff-limit v1"
    assert lines[1] == "h2,v,converged,max_abs_phi,residual"
    data = np.loadtxt(lines[2:], delimiter=",")
    assert data.shape == (2, 5)
    assert np.all(data[:, 2] == 1.0)
