"""The bordered Newton matrix that solve_tw_bvp factors, caught at its splu
call, against the sparse-algebra pipeline it was built with before: diags
products, bmat, an interleaving permutation and LIL row patching, kept here
as the reference. Equality is bit for bit in the CSC indptr, indices and
data."""
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from pendulon import travelwave
from pendulon._stencils import derivative_matrix
from pendulon.params import ChainParams, ConfiningPotential
from pendulon.travelwave import (TWProfile, _jacobian_blocks, _on_sonic_line,
                                 kink_profile, solve_tw_bvp)

CHAIN = ChainParams(M=1.0, m=0.05, R=0.96, r=0.04, kappa_t=0.015,
                    kappa_s=0.985, g=1.0, delta=1.0,
                    h_spec=ConfiningPotential(family="quadratic", c2=2.0))


def _reference_newton_matrix(D1, D2, jb, tz, pz, mid):
    n = D2.shape[0]
    eye = sp.identity(n, format="csr")

    def block(c0, c1, c2):
        return (sp.diags(c0) @ eye + sp.diags(c1) @ D1 + sp.diags(c2) @ D2)

    J11 = block(jb["r1_t0"], jb["r1_t1"], jb["r1_t2"])
    J12 = block(jb["r1_p0"], jb["r1_p1"], jb["r1_p2"])
    J21 = block(jb["r2_t0"], jb["r2_t1"], jb["r2_t2"])
    J22 = block(jb["r2_p0"], jb["r2_p1"], jb["r2_p2"])
    perm = np.empty(2 * n, dtype=int)
    perm[0:2 * n:2] = np.arange(n)
    perm[1:2 * n:2] = np.arange(n) + n
    J = sp.bmat([[J11, J12], [J21, J22]], format="csr")
    P = sp.csr_matrix((np.ones(2 * n), (np.arange(2 * n), perm)),
                      shape=(2 * n, 2 * n))
    J = (P @ J @ P.T).tolil()
    for row in (0, 1, 2 * n - 2, 2 * n - 1):
        J.rows[row] = [row]
        J.data[row] = [1.0]
    tangent = np.zeros(2 * n)
    tangent[0:2 * n:2] = tz
    tangent[1:2 * n:2] = pz
    tangent[[0, 1, 2 * n - 2, 2 * n - 1]] = 0.0
    pin_row = np.zeros(2 * n)
    pin_row[2 * mid] = 1.0
    return sp.bmat([[J.tocsr(), tangent[:, None]], [pin_row[None, :], None]],
                   format="csc")


def _assert_same_csc(got, ref):
    assert got.format == "csc" and got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
    assert got.has_sorted_indices


class _Factored(Exception):
    """Carries the matrix a solver handed to splu out of the solver."""


def _matrix_factored_by(module, solve):
    """The first matrix `solve()` passes to `module.splu`, whatever splu
    options come with it."""
    def capture(A, **kwargs):
        raise _Factored(A)

    with mock.patch.object(module, "splu", capture):
        with pytest.raises(_Factored) as caught:
            solve()
    return caught.value.args[0]


def _fields(rng, n, zero_fraction):
    """Normal samples with a share of exact zeros, which the assembly must drop
    where they cancel a term."""
    f = rng.normal(0.0, 0.5, n)
    f[rng.random(n) < zero_fraction] = 0.0
    return f


def _newton_case(theta, phi, v, half_width=8.0):
    n = theta.shape[0]
    z = np.linspace(-half_width, half_width, n)
    guess = TWProfile(z, theta, phi, np.zeros(n), np.zeros(n), v)
    # tol = 0 makes the solver factor even when the guess solves the system
    got = _matrix_factored_by(
        travelwave, lambda: solve_tw_bvp(guess, CHAIN, tol=0.0))
    D1, D2 = derivative_matrix(n, guess.dz, 1), derivative_matrix(n, guess.dz, 2)
    tz, pz = D1 @ theta, D1 @ phi
    jb = _jacobian_blocks(theta, phi, tz, pz, D2 @ theta, D2 @ phi,
                          CHAIN.wave_constants(v))
    _assert_same_csc(got, _reference_newton_matrix(D1, D2, jb, tz, pz, n // 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 300), seed=st.integers(0, 2**32 - 1),
       v=st.floats(-6.0, 6.0), flat_phi=st.booleans(),
       zeros=st.floats(0.0, 1.0))
def test_newton_matrix_matches_sparse_pipeline(n, seed, v, flat_phi, zeros):
    """Over drawn grids, fields and speeds; mu = K_s - m v^2 takes both signs.
    The kink guess has phi = 0, which zeroes whole Jacobian blocks."""
    assume(not _on_sonic_line(v, CHAIN))
    rng = np.random.default_rng(seed)
    phi = np.zeros(n) if flat_phi else _fields(rng, n, zeros)
    _newton_case(_fields(rng, n, zeros), phi, v)


def test_newton_matrix_on_a_kink_guess():
    """The solver's first matrix on the README chain and grid."""
    z = np.linspace(-20.0, 20.0, 2001)
    guess = kink_profile(z, 1.05, 0.305)
    _newton_case(guess.theta, guess.phi, 0.305, half_width=20.0)
