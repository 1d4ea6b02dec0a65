"""Numerical kernels shared by the layers: the uniform-grid check,
fourth-order finite-difference stencils on uniform grids, the banded
collocation matrix of the travelling-wave Newton solve, the contour rule both
eps oracles take Taylor coefficients with, the complex step of the two
complex-step derivatives, the classic RK4 step and the loop that drives it,
the energy table, energy drift, winding number and summary both integrators
report from their snapshots, and the two error classes every command maps to
exit code 2.

Interior points use centered 5-point formulas; the two points nearest each
boundary fall back to biased stencils of the same order. Weights are generated
from the Vandermonde system rather than hardcoded tables. The sparse operator
of derivative_matrix is the only stencil implementation: derivative applies
it, so both agree bit for bit.

derivative builds its operator on each call and is meant for one-off use.
Code that differentiates on the same grid many times keeps the operator
instead: continuum.FieldGrid builds D1, D2 and their stacked_operator once
per grid. rk4_step advances one state array, one array operation per stage.

scipy.sparse is imported inside the functions that build a matrix, so the
lattice layer, which needs only rk4_run and export_energy_csv from here, and
the CLI's run_summary, never load scipy.
"""
from __future__ import annotations

from math import factorial

import numpy as np

from ._io import write_csv


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite; carries the failing time."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


class TWSolveError(RuntimeError):
    """Raised when a travelling-wave Newton solve fails; carries the final
    residual when there is one."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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


MIN_NODES = 6  # the shortest grid the stencils of derivative_matrix fit
MIN_EXPANSION_NODES = 8  # the fewest nodes [grid] / [verify] n_points takes

_CENTER_OFFSETS = np.arange(-2, 3)

# offsets used near the left boundary (mirrored on the right)
_EDGE_OFFSETS = {
    1: [np.arange(0, 5), np.arange(-1, 4)],
    2: [np.arange(0, 6), np.arange(-1, 5)],
}


def uniform_spacing(x):
    """Spacing of the grid x; ValueError unless the steps are nonzero and
    agree to 8 ulps of max|x| (a nan fails too). That is the rounding linspace
    leaves in the nodes however fine the grid; a tolerance relative to the
    step would reject refined grids."""
    x = np.asarray(x, dtype=float)
    dx = np.diff(x)
    if not np.ptp(dx) <= 8.0 * np.spacing(np.max(np.abs(x))) or dx[0] == 0:
        raise ValueError("grid must be uniform with nonzero spacing")
    return float(dx[0])


def derivative_matrix(n, h, deriv):
    """Sparse CSR matrix D with (D f) = d^deriv f / dx^deriv on n nodes of
    spacing h (4th-order accurate, boundary rows included)."""
    import scipy.sparse as sp
    if n < MIN_NODES:
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


def stacked_operator(D1, D2):
    """CSR [[D1, 0], [0, D1], [D2, 0], [0, D2]]: times concatenate([f, g]) it
    is D1 f, D1 g, D2 f, D2 g bit for bit, each row in D1's or D2's order."""
    import scipy.sparse as sp
    return sp.vstack([sp.block_diag((D, D)) for D in (D1, D2)], format="csr")


def collocation_matrix(D1, D2, blocks, fixed):
    """CSC Newton matrix of travelwave.TWSystem: m fields on the n nodes of
    the square banded CSR operators D1 and D2 (sorted indices), interleaved,
    unknown m j + b being field b at node j. Block (a, b) is
    (c0 I + c1 D1) + c2 D2 for blocks[a][b] = (c0, c1, c2), each a length-n
    array or a scalar. The rows in `fixed` become unit rows, and exact zeros
    are dropped, so the arrays equal those of the same sparse products.
    """
    import scipy.sparse as sp
    n, m = D2.shape[0], len(blocks)
    w = np.diff(D2.indptr).max()
    # each row of I, D1 and D2 lies in the w columns from first[i] on
    first = np.minimum(D2.indices[D2.indptr[:-1]], n - w)
    I, W1, W2 = np.zeros((3, n, w))
    I[np.arange(n), np.arange(n) - first] = 1.0
    for W, D in ((W1, D1), (W2, D2)):
        node = np.repeat(np.arange(n), np.diff(D.indptr))
        W[node, D.indices - first[node]] = D.data
    core = np.zeros((n, m, w, m))  # row (node i, field a), entry (slot, b)
    for a, block_row in enumerate(blocks):
        for b, coeffs in enumerate(block_row):
            c0, c1, c2 = (np.reshape(c, (-1, 1)) for c in coeffs)
            core[:, a, :, b] = (c0 * I + c1 * W1) + c2 * W2
    cols = m * (first[:, None, None, None] + np.arange(w)[:, None]) + np.arange(m)
    data = core.reshape(m * n, m * w)
    indices = np.broadcast_to(cols, core.shape).reshape(m * n, m * w)
    i, a = np.divmod(fixed, m)
    data[fixed] = 0.0
    data[fixed, m * (i - first[i]) + a] = 1.0

    keep = data != 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((data[keep], indices[keep], indptr),
                         shape=(m * n, m * n)).tocsc()


def derivative(f, h, deriv):
    """d^deriv f / dx^deriv sampled on the same grid (4th-order accurate).

    Computed as derivative_matrix(n, h, deriv) @ f, so the two match bit for
    bit, including the accumulation order on every row.
    """
    f = np.asarray(f, dtype=float)
    return derivative_matrix(f.shape[0], h, deriv) @ f


CONTOUR_RADIUS = 0.05
CONTOUR_NODES = 12
# h of the complex step Im f(x + i h) / h (Squire and Trapp): no difference
# cancels, so h sits far below every scale, and a power of two divides exactly
COMPLEX_STEP = 2.0**-100


def cauchy_coefficients(f):
    """Taylor coefficients 1 and 2 at eps = 0 of f(eps), an array function
    that is real at real eps and analytic on |eps| <= CONTOUR_RADIUS: its
    Cauchy integrals on that circle by the trapezoid rule on CONTOUR_NODES
    nodes (Lyness and Moler). hfft mirrors the upper half circle, so f is
    called on nodes 0 to CONTOUR_NODES/2 only, the first and last real."""
    rho, n = CONTOUR_RADIUS, CONTOUR_NODES
    nodes = rho * np.exp(2j * np.pi * np.arange(1, n // 2) / n)
    vals = np.stack([f(e) for e in (rho, *nodes, -rho)])
    coeffs = np.fft.hfft(vals, n, axis=0) / n
    return coeffs[1] / rho, coeffs[2] / rho**2


def rk4_step(rhs, y, t, dt):
    """One classic RK4 step of y' = rhs(y, t); raises IntegrationError when
    any entry of the new array is not finite, so no integrator carries NaN."""
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(y + dt * k3, t + dt)
    out = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise IntegrationError("non-finite state after step", t + dt)
    return out


def rk4_run(rhs, y, t0, t_end, dt, snapshot_every=None):
    """rk4_step from (y, t0), n = max(1, round(t_end / dt)) times, as a
    generator of (t0 + i dt, y, snap) after step i, snap true every
    snapshot_every-th step and at the last (None: the last only). y is (4, n),
    rows q1, q2, q1', q2'. The arguments are checked at the call."""
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError("snapshot_every must be a positive integer")
    n = max(1, round(t_end / dt))
    every = n if snapshot_every is None else snapshot_every

    def steps(y):
        for i in range(1, n + 1):
            y = rk4_step(rhs, y, t0 + (i - 1) * dt, dt)
            yield t0 + i * dt, y, i % every == 0 or i == n
    return steps(y)


def energy_drift(energies):
    """max |E - E[0]| / (|E[0]| + 1) of an energy series: relative for a
    large initial energy, absolute for a small one, finite at E[0] = 0."""
    E = np.asarray(energies, dtype=float)
    return float(np.max(np.abs(E - E[0])) / (abs(E[0]) + 1.0))


def export_energy_csv(snaps, params, path, schema, energy, theta):
    """Write t, E = energy(snap, params) and N, the winding number of
    getattr(snap, theta) (blank when ragged), one row per snapshot, under
    `# schema: <schema>`; return the energies. Both integrators' energy
    tables go through here."""
    energies = [energy(s, params) for s in snaps]
    charges = (_winding_or_none(getattr(s, theta)) for s in snaps)
    write_csv(path, schema, "t,E,N",
              ((float(s.t), E, "" if q is None else q) for s, E, q
               in zip(snaps, energies, charges)))
    return energies


def run_summary(theta_first, theta_last, t_final, energies):
    """The headline numbers of a run from its snapshots, one set of keys for
    both integrators: the charges are winding numbers of the first and last
    theta (None when ragged), and the energies and their drift are those of
    the snapshots (one per snapshot, as export_energy_csv returns them)."""
    return {"charge_initial": _winding_or_none(theta_first),
            "charge_final": _winding_or_none(theta_last),
            "energy_initial": energies[0], "energy_final": energies[-1],
            "max_energy_drift": energy_drift(energies),
            "n_snapshots": len(energies), "t_final": t_final}


def winding_number(theta):
    """round((theta[-1] - theta[0]) / 2 pi), the topological charge of a
    field or chain sampled end to end; ValueError when the boundary values
    are not a clean multiple of 2 pi apart (off by a quarter turn or more)."""
    w = (theta[-1] - theta[0]) / (2 * np.pi)
    n = round(float(w))
    if abs(w - n) >= 0.25:
        raise ValueError("non-topological boundary data")
    return int(n)


def _winding_or_none(theta):
    """winding_number, or None when the boundary data carries no clean
    winding number."""
    try:
        return winding_number(theta)
    except ValueError:
        return None
