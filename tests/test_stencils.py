"""Fourth-order stencils: polynomial exactness on every row, convergence
order, agreement of derivative with the sparse operator, input checks, and
the CSR layout against a row-by-row reference builder."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pendulon._stencils import (_EDGE_OFFSETS, derivative, derivative_matrix,
                                fd_weights, uniform_spacing)


def _reference_matrix(n, h, deriv):
    """Row-by-row builder: one Python iteration per grid row, with the left
    edge stencils mirrored onto the right boundary."""
    center_off = np.arange(-2, 3)
    center_w = fd_weights(center_off, deriv)
    edge_off = _EDGE_OFFSETS[deriv]
    edge_w = [fd_weights(o, deriv) for o in edge_off]
    rows, cols, vals = [], [], []
    for i in range(n):
        if i < 2:
            off, w = edge_off[i], edge_w[i]
        elif i >= n - 2:
            k = n - 1 - i
            off = -edge_off[k][::-1]
            w = edge_w[k][::-1] * ((-1.0) ** deriv)
        else:
            off, w = center_off, center_w
        rows.extend([i] * len(off))
        cols.extend(i + off)
        vals.extend(w / h**deriv)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("deriv", [1, 2])
@pytest.mark.parametrize("degree", range(5))
def test_every_row_exact_for_quartics(deriv, degree):
    h = 0.3
    x = 0.7 + h * np.arange(11)
    got = derivative(x**degree, h, deriv)
    exact = (np.zeros_like(x) if degree < deriv else
             np.prod(np.arange(degree - deriv + 1, degree + 1))
             * x ** (degree - deriv))
    assert np.max(np.abs(got - exact)) < 1e-10 * (1.0 + np.max(np.abs(exact)))


@pytest.mark.parametrize("deriv", [1, 2])
def test_error_falls_at_fourth_order(deriv):
    errs = []
    for n in (41, 81, 161):
        x = np.linspace(0.0, 2.0, n)
        exact = np.cos(x) if deriv == 1 else -np.sin(x)
        errs.append(np.max(np.abs(derivative(np.sin(x), x[1] - x[0], deriv)
                                  - exact)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 3.7), rates


@pytest.mark.parametrize("deriv", [1, 2])
@pytest.mark.parametrize("n", [6, 7, 801])
def test_derivative_is_the_operator_applied(deriv, n):
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n)
    h = 0.05
    assert np.array_equal(derivative(f, h, deriv),
                          derivative_matrix(n, h, deriv) @ f)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="too short"):
        derivative(np.zeros(5), 0.1, 1)
    with pytest.raises(ValueError, match="too short"):
        derivative_matrix(5, 0.1, 2)
    with pytest.raises(ValueError, match="only first and second"):
        derivative(np.zeros(8), 0.1, 3)
    with pytest.raises(ValueError, match="only first and second"):
        derivative_matrix(8, 0.1, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(6, 400), h=st.floats(1e-3, 10.0),
       deriv=st.sampled_from([1, 2]))
def test_csr_matches_row_by_row_builder(n, h, deriv):
    got = derivative_matrix(n, h, deriv)
    ref = _reference_matrix(n, h, deriv)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(2, 40000))
def test_uniform_spacing_accepts_any_linspace(start, span, n):
    """Refining a linspace grid never makes it fail the check: the tolerance
    follows the rounding of the coordinates, not the step."""
    x = np.linspace(start, start + span, n)
    assert uniform_spacing(x) == float(x[1] - x[0])


def test_uniform_spacing_rejects_real_steps():
    x = np.linspace(-20.0, 20.0, 2001)
    stepped = np.concatenate([np.linspace(-20.0, 0.0, 1000),
                              np.linspace(0.03, 20.0, 1000)])
    nudged = x.copy()
    nudged[700] += 1e-12
    bad = x.copy()
    bad[3] = np.nan
    for z in (stepped, nudged, bad, np.zeros(10)):
        with pytest.raises(ValueError, match="uniform"):
            uniform_spacing(z)
    with pytest.raises(ValueError):
        uniform_spacing([1.0])
