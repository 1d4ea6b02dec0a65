"""Numerical kernels shared by the layers: fourth-order finite-difference
stencils on uniform grids and the classic RK4 step.

Interior points use centered 5-point formulas; the two points nearest each
boundary fall back to biased stencils of the same order. Weights are generated
from the Vandermonde system rather than hardcoded tables. The sparse operator
of derivative_matrix is the only stencil implementation: derivative applies
it, so both agree bit for bit.
"""
from __future__ import annotations

from math import factorial

import numpy as np
import scipy.sparse as sp


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite; carries the failing time."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


def fd_weights(offsets, deriv):
    """Weights w such that sum_j w[j] f(x + offsets[j] h) = h^deriv f^(deriv)(x).

    Exact for polynomials up to degree len(offsets)-1.
    """
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    if deriv >= n:
        raise ValueError("not enough points for requested derivative")
    A = np.vander(offsets, n, increasing=True).T  # A[i, j] = offsets[j]**i
    b = np.zeros(n)
    b[deriv] = factorial(deriv)
    return np.linalg.solve(A, b)


_CENTER_OFFSETS = np.arange(-2, 3)

# offsets used near the left boundary (mirrored on the right)
_EDGE_OFFSETS = {
    1: [np.arange(0, 5), np.arange(-1, 4)],
    2: [np.arange(0, 6), np.arange(-1, 5)],
}


def derivative_matrix(n, h, deriv):
    """Sparse CSR matrix D with (D f) = d^deriv f / dx^deriv on n nodes of
    spacing h (4th-order accurate, boundary rows included)."""
    if n < 6:
        raise ValueError("grid too short for 4th-order stencils")
    if deriv not in (1, 2):
        raise ValueError("only first and second derivatives supported")
    left, right = [], []
    for k, off in enumerate(_EDGE_OFFSETS[deriv]):
        w = fd_weights(off, deriv)
        left.append((k + off, w))
        # row n-1-k mirrors row k: offsets negate, odd derivatives flip sign
        right.insert(0, (n - 1 - k - off[::-1], w[::-1] * ((-1.0) ** deriv)))
    center_w = fd_weights(_CENTER_OFFSETS, deriv)
    interior = np.arange(2, n - 2)[:, None] + _CENTER_OFFSETS
    lengths = np.full(n, len(_CENTER_OFFSETS))
    lengths[[0, 1, -2, -1]] = [len(c) for c, _ in left + right]
    indices = np.concatenate([c for c, _ in left] + [interior.ravel()]
                             + [c for c, _ in right])
    data = np.concatenate([w for _, w in left] + [np.tile(center_w, n - 4)]
                          + [w for _, w in right]) / h**deriv
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def derivative(f, h, deriv):
    """d^deriv f / dx^deriv sampled on the same grid (4th-order accurate).

    Computed as derivative_matrix(n, h, deriv) @ f, so the two match bit for
    bit, including the accumulation order on every row.
    """
    f = np.asarray(f, dtype=float)
    return derivative_matrix(f.shape[0], h, deriv) @ f


def rk4_step(rhs, y, t, dt):
    """One classic RK4 step of y' = rhs(y, t) on a tuple of arrays.

    Returns the new state as a tuple; raises IntegrationError when any of
    its entries is not finite, so no integrator carries NaN forward.
    """
    k1 = rhs(y, t)
    k2 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)), t + 0.5 * dt)
    k3 = rhs(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)), t + 0.5 * dt)
    k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)), t + dt)
    out = tuple(a + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
    if not all(np.all(np.isfinite(a)) for a in out):
        raise IntegrationError("non-finite state after step", t + dt)
    return out
