import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsurv.errors import NumericalError
from cfsurv.kernels import cho_solve_checked, gram, spd_factor
from cfsurv.survival import standardization
from oracles import gram_by_differences, rbf


def test_rbf_identity():
    length_scale = 10.0
    x = np.array([[1.0, -2.0, 3.0]])
    assert gram(x, x, length_scale)[0, 0] == 1.0


def test_rbf_analytic_point():
    # distance l * sqrt(2) forces the exponent to -1
    length_scale = 2.0
    x = np.zeros((1, 1))
    y = np.array([[2.0 * np.sqrt(2.0)]])
    assert gram(x, y, length_scale)[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_rbf_monotone_decay():
    length_scale = 1.0
    distances = np.array([[0.0], [0.5], [1.0], [2.0], [5.0], [20.0]])
    values = gram(np.zeros((1, 1)), distances, length_scale)[0]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8


def test_rbf_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gram(np.zeros((1, 2)), np.zeros((1, 3)), 10.0)


def test_gram_trivial_cases():
    length_scale = 10.0
    single = gram(np.zeros((1, 2)), np.zeros((1, 2)), length_scale)
    assert single.shape == (1, 1) and single[0, 0] == 1.0
    twin = gram(np.ones((2, 3)), np.ones((2, 3)), length_scale)
    assert np.array_equal(twin, np.ones((2, 2)))
    empty = gram(np.zeros((0, 2)), np.zeros((3, 2)), length_scale)
    assert empty.shape == (0, 3)


def test_gram_matches_elementwise_rbf():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(5, 4))
    length_scale = 3.0
    k = gram(pts, pts, length_scale)
    for i in range(5):
        for j in range(5):
            assert k[i, j] == pytest.approx(rbf(pts[i], pts[j], length_scale), abs=1e-15)


def test_gram_rectangular():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(4, 3))
    cols = rng.normal(size=(7, 3))
    k = gram(rows, cols, 10.0)
    assert k.shape == (4, 7)
    assert k[2, 5] == pytest.approx(rbf(rows[2], cols[5], 10.0), abs=1e-15)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gram_symmetric_psd(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    k = gram(pts, pts, 2.0)
    assert np.array_equal(k, k.T)
    assert np.all(np.diag(k) == 1.0)
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-8


def test_gram_of_equal_inputs_is_exactly_symmetric_with_unit_diagonal():
    # the same object, an equal copy, and an equal non-contiguous view
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(90, 10))
    wide = np.repeat(pts, 2, axis=1)[:, ::2]
    for cols in (pts, pts.copy(), wide):
        k = gram(pts, cols, 10.0)
        assert np.array_equal(k, k.T) and np.all(np.diag(k) == 1.0)
        assert k.tobytes() == gram(pts, pts, 10.0).tobytes()


def test_gram_holds_no_temporary_of_its_size():
    # h_i + h_j is subtracted a block of rows at a time: a build allocates
    # its output and a few hundred KiB besides, and each entry is the same
    # operation as the one-shot subtraction, so every bit agrees with it
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(1000, 5)), rng.normal(size=(700, 5))
    tracemalloc.start()
    try:
        k = gram(x, x, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= k.nbytes + 512 * 1024
    assert np.array_equal(k, k.T) and np.all(np.diag(k) == 1.0)
    inv = 1.0 / 3.0**2
    for rows, cols in ((x, x), (x, y), (y, x)):
        h_rows, h_cols = (np.einsum("ij,ij->i", z, z) * (0.5 * inv) for z in (rows, cols))
        one_shot = np.exp(np.minimum((rows @ cols.T) * inv - np.add.outer(h_rows, h_cols), 0.0))
        if rows is cols:
            np.fill_diagonal(one_shot, 1.0)
        assert gram(rows, cols, 3.0).tobytes() == one_shot.tobytes()


def _standardized(rng, n, d):
    x = rng.normal(loc=2.0, scale=3.0, size=(n, d))
    mean, scale = standardization(x)
    return (x - mean) / scale


@pytest.mark.parametrize("d", [10, 30])
def test_gram_matches_the_difference_oracle(d):
    rng = np.random.default_rng(d)
    rows, cols = _standardized(rng, 70, d), _standardized(rng, 45, d)
    length_scale = 10.0
    for x, y in ((rows, rows), (rows, cols), (cols, rows)):
        got, want = gram(x, y, length_scale), gram_by_differences(x, y, length_scale)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= 1e-14


def factor_solve(m, b, ridge=0.0):
    """Solve (m + ridge I) z = b the way the balance solver does."""
    z, failures = cho_solve_checked(spd_factor(m, ridge), m, b, ridge)
    assert failures == {}
    return z


def test_spd_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(factor_solve(np.eye(3), b), b, atol=1e-14)


def test_spd_solve_diagonal_with_ridge():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    z = factor_solve(m, np.array([3.0, 5.0]), ridge=1.0)
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-14)


def test_spd_solve_random_residual():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 20))
    m = a @ a.T + 0.5 * np.eye(20)
    b = rng.normal(size=(20, 3))
    z = factor_solve(m, b)
    assert np.linalg.norm(m @ z - b) <= 1e-8 * (1 + np.linalg.norm(b))


def test_spd_solve_failure_diagnostics():
    with pytest.raises(NumericalError, match="SPD solve failed"):
        factor_solve(-np.eye(3), np.ones(3))


def test_singular_matrix_is_not_factored():
    # one Cholesky attempt, no diagonal jitter: an exactly singular PSD
    # matrix fails with its size and ridge named; a ridge makes it SPD
    ones = np.ones((4, 4))
    with pytest.raises(NumericalError, match=r"^SPD solve failed for 4x4 system \(ridge=0\.000e\+00\)"):
        spd_factor(ones, 0.0)
    factor = spd_factor(ones, ridge=1e-3)
    np.testing.assert_allclose(factor @ factor.T, ones + 1e-3 * np.eye(4), rtol=1e-12)


def test_spd_solve_shape_errors():
    with pytest.raises(ValueError):
        factor_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        factor_solve(np.eye(3), np.ones(2))
