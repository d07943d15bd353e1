import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsurv.errors import NumericalError
from cfsurv.kernels import KernelConfig, gram, rbf, spd_solve


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(length_scale=0.0)


def test_rbf_identity():
    cfg = KernelConfig(length_scale=10.0)
    x = np.array([1.0, -2.0, 3.0])
    assert rbf(x, x, cfg) == 1.0


def test_rbf_analytic_point():
    # distance l * sqrt(2) forces the exponent to -1
    cfg = KernelConfig(length_scale=2.0)
    x = np.zeros(1)
    y = np.array([2.0 * np.sqrt(2.0)])
    assert rbf(x, y, cfg) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_rbf_monotone_decay():
    cfg = KernelConfig(length_scale=1.0)
    values = [rbf(np.zeros(1), np.array([d]), cfg) for d in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8


def test_rbf_dimension_mismatch():
    with pytest.raises(ValueError):
        rbf(np.zeros(2), np.zeros(3), KernelConfig())


def test_gram_trivial_cases():
    cfg = KernelConfig()
    single = gram(np.zeros((1, 2)), np.zeros((1, 2)), cfg)
    assert single.shape == (1, 1) and single[0, 0] == 1.0
    twin = gram(np.ones((2, 3)), np.ones((2, 3)), cfg)
    assert np.array_equal(twin, np.ones((2, 2)))
    empty = gram(np.zeros((0, 2)), np.zeros((3, 2)), cfg)
    assert empty.shape == (0, 3)


def test_gram_matches_elementwise_rbf():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(5, 4))
    cfg = KernelConfig(length_scale=3.0)
    k = gram(pts, pts, cfg)
    for i in range(5):
        for j in range(5):
            assert k[i, j] == pytest.approx(rbf(pts[i], pts[j], cfg), abs=1e-15)


def test_gram_rectangular():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(4, 3))
    cols = rng.normal(size=(7, 3))
    k = gram(rows, cols, KernelConfig())
    assert k.shape == (4, 7)
    assert k[2, 5] == pytest.approx(rbf(rows[2], cols[5], KernelConfig()), abs=1e-15)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gram_symmetric_psd(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    k = gram(pts, pts, KernelConfig(length_scale=2.0))
    assert np.max(np.abs(k - k.T)) <= 1e-12
    assert np.allclose(np.diag(k), 1.0)
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-8


def test_spd_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(spd_solve(np.eye(3), b), b, atol=1e-14)


def test_spd_solve_diagonal_with_ridge():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    z = spd_solve(m, np.array([3.0, 5.0]), ridge=1.0)
    np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-14)


def test_spd_solve_random_residual():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(20, 20))
    m = a @ a.T + 0.5 * np.eye(20)
    b = rng.normal(size=(20, 3))
    z = spd_solve(m, b)
    assert np.linalg.norm(m @ z - b) <= 1e-8 * (1 + np.linalg.norm(b))


def test_spd_solve_jitter_escalation():
    # exactly singular PSD matrix with a consistent rhs: jitter saves it
    m = np.ones((4, 4))
    b = np.ones(4)
    z = spd_solve(m, b)
    assert np.linalg.norm(m @ z - b) <= 1e-8 * (1 + np.linalg.norm(b))


def test_spd_solve_failure_diagnostics():
    with pytest.raises(NumericalError, match="SPD solve failed"):
        spd_solve(-np.eye(3), np.ones(3))


def test_spd_solve_shape_errors():
    with pytest.raises(ValueError):
        spd_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        spd_solve(np.eye(3), np.ones(2))
