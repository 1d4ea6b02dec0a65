"""The half-line Newton matrix that solve_tw_bvp factors, caught at its splu
call, against a sparse-algebra pipeline kept here as the reference: the
full-grid stencil rows of the right half, their columns folded onto the
right half with sign -1 for mirrored nodes, diags products, bmat, an
interleaving permutation and LIL row patching for the unit rows. Equality is
bit for bit in the CSC indptr, indices and data."""
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


def _fold(n):
    """Node j -> unknown max(j, n-1-j) - n//2 of the right half, sign -1
    left of the centre."""
    K = n // 2
    P = sp.lil_matrix((n, n - K))
    for j in range(n):
        P[j, max(j, n - 1 - j) - K] = -1.0 if j < K else 1.0
    return P.tocsr()


def _reflect(theta, phi):
    """The full-grid fields the solver builds from the guess's right half:
    theta about the mean of its end values, phi odd."""
    n = theta.shape[0]
    left = np.arange(n) < n // 2
    center = 0.5 * (theta[0] + theta[-1])
    return (np.where(left, 2 * center - theta[::-1], theta),
            np.where(left, -phi[::-1], phi))


def _reference_newton_matrix(D1, D2, jb):
    n = D2.shape[0]
    K, m = n // 2, n - n // 2
    P = _fold(n)
    D1h, D2h = D1[K:] @ P, D2[K:] @ P
    eye = sp.identity(m, format="csr")

    def block(c0, c1, c2):
        return (sp.diags(c0) @ eye + sp.diags(c1) @ D1h + sp.diags(c2) @ D2h)

    J11 = block(jb["r1_t0"], jb["r1_t1"], jb["r1_t2"])
    J12 = block(jb["r1_p0"], jb["r1_p1"], jb["r1_p2"])
    J21 = block(jb["r2_t0"], jb["r2_t1"], jb["r2_t2"])
    J22 = block(jb["r2_p0"], jb["r2_p1"], jb["r2_p2"])
    perm = np.empty(2 * m, dtype=int)
    perm[0::2] = np.arange(m)
    perm[1::2] = np.arange(m) + m
    J = sp.bmat([[J11, J12], [J21, J22]], format="csr")
    Q = sp.csr_matrix((np.ones(2 * m), (np.arange(2 * m), perm)),
                      shape=(2 * m, 2 * m))
    J = (Q @ J @ Q.T).tolil()
    # the right end, and for odd n the centre node
    for row in [2 * m - 2, 2 * m - 1] + ([0, 1] if n % 2 else []):
        J.rows[row] = [row]
        J.data[row] = [1.0]
    return J.tocsc()


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
    th, ph = _reflect(theta, phi)
    K = n // 2
    jb = _jacobian_blocks(*(f[K:] for f in (th, ph, D1 @ th, D1 @ ph,
                                              D2 @ th, D2 @ ph)),
                          CHAIN.wave_constants(v))
    _assert_same_csc(got, _reference_newton_matrix(D1, D2, jb))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 300), seed=st.integers(0, 2**32 - 1),
       v=st.floats(-6.0, 6.0), flat_phi=st.booleans(),
       zeros=st.floats(0.0, 1.0))
def test_newton_matrix_matches_sparse_pipeline(n, seed, v, flat_phi, zeros):
    """Over drawn grids of both parities, fields and speeds; mu = K_s - m v^2
    takes both signs. The kink guess has phi = 0, which zeroes whole
    Jacobian blocks. Only the guess's right half is read."""
    assume(not _on_sonic_line(v, CHAIN))
    rng = np.random.default_rng(seed)
    phi = np.zeros(n) if flat_phi else _fields(rng, n, zeros)
    phi[0] = -phi[-1]  # the reflection's condition on the guess
    _newton_case(_fields(rng, n, zeros), phi, v)


def test_newton_matrix_on_a_kink_guess():
    """The solver's first matrix on the README chain and grid."""
    z = np.linspace(-20.0, 20.0, 2001)
    guess = kink_profile(z, 1.05, 0.305)
    _newton_case(guess.theta, guess.phi, 0.305, half_width=20.0)
