import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfsurv.balance as balance_module
from cfsurv.balance import (
    BalanceWeights,
    SolverConfig,
    derivative_direction,
    explicit_riesz,
    imbalance,
    objective,
    solve_balance_weights,
)
from cfsurv.dgp import SyntheticConfig, gen_synthetic
from cfsurv.errors import NumericalError
from cfsurv.estimators import FoldPlan
from cfsurv.kernels import KernelConfig, gram
from cfsurv.survival import active_matrix


def survival_from_hazard_matrix(haz):
    return np.cumprod(1.0 - haz, axis=1)


def random_instance(seed, n, t, active_rate=0.7):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    k = gram(pts, pts, KernelConfig(length_scale=1.5))
    haz = np.zeros((n, t + 1))
    haz[:, 1:] = rng.uniform(0.05, 0.4, size=(n, t))
    s = survival_from_hazard_matrix(haz)
    r = derivative_direction(s, t)
    active = rng.random((n, t + 1)) < active_rate
    active[:, 0] = False
    return k, r, active, rng


def test_derivative_direction_zero_hazard():
    s = np.ones((4, 6))
    r = derivative_direction(s, 5)
    assert r.shape == (4, 6)
    assert np.all(r[:, 0] == 0.0)
    assert np.all(r[:, 1:] == -1.0)


def test_derivative_direction_constant_hazard():
    haz = np.zeros((1, 3))
    haz[:, 1:] = 0.1
    s = survival_from_hazard_matrix(haz)  # (1, 0.9, 0.81)
    r = derivative_direction(s, 2)
    np.testing.assert_allclose(r[0], [0.0, -0.9, -0.9], atol=1e-15)


def test_derivative_direction_t_zero():
    s = np.ones((3, 5))
    r = derivative_direction(s, 0)
    assert r.shape == (3, 1)
    assert np.all(r == 0.0)


def test_derivative_direction_rejects_zero_survival():
    s = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(NumericalError):
        derivative_direction(s, 2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_derivative_direction_bounds(seed):
    rng = np.random.default_rng(seed)
    n, t = 6, 5
    haz = np.zeros((n, t + 1))
    haz[:, 1:] = rng.uniform(0.0, 0.999, size=(n, t))
    r = derivative_direction(survival_from_hazard_matrix(haz), t)
    assert np.all(r <= 0.0)
    assert np.all(r >= -1.0 - 1e-12)


def test_explicit_riesz_formula():
    r = np.array([[0.0, -1.0]])
    active = np.array([[False, True]])
    gamma = explicit_riesz(r, active, np.array([0.5]), np.array([[1.0, 0.8]]))
    assert gamma[0, 1] == pytest.approx(-2.5, abs=1e-15)


def test_explicit_riesz_inactive_is_zero():
    r = np.array([[0.0, -1.0]])
    active = np.array([[False, False]])
    gamma = explicit_riesz(r, active, np.array([0.5]), np.array([[1.0, 0.8]]))
    assert np.all(gamma == 0.0)


def test_explicit_riesz_clipping():
    r = np.array([[0.0, -1.0]])
    active = np.array([[False, True]])
    gamma = explicit_riesz(
        r, active, np.array([1e-2]), np.array([[1.0, 1e-3]]), clip_floor=1e-3
    )
    # denominator 1e-5 clipped to 1e-3
    assert gamma[0, 1] == pytest.approx(-1.0 / 1e-3, rel=1e-12)


def test_explicit_riesz_zero_denominator_raises():
    r = np.array([[0.0, -1.0]])
    active = np.array([[False, True]])
    with pytest.raises(NumericalError):
        explicit_riesz(r, active, np.array([0.0]), np.array([[1.0, 0.5]]))


def test_solve_single_unit():
    # (k + sigma^2/n) v = k r  =>  omega = v / r = k / (k + sigma^2) at n = 1
    k = np.array([[1.0]])
    r = np.array([[0.0, -0.7]])
    active = np.array([[False, True]])
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
    assert w.omega[0, 1] == pytest.approx(0.5, abs=1e-12)

    # grid-search oracle over the scalar objective
    grid = np.linspace(-0.5, 1.5, 4001)
    vals = [1.0 * (0.7 * (1 - o)) ** 2 + 1.0 * (0.7 * o) ** 2 for o in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=1e-3)


def test_solve_no_active_units():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    r = np.array([[0.0, -1.0], [0.0, -1.0]])
    active = np.zeros((2, 2), dtype=bool)
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
    assert np.all(w.omega == 0.0)
    assert imbalance(k, r, active, w.omega, 1) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_solve_exact_balance_limit():
    # identity kernel, sigma^2 -> 0: weights approach 1 on a fully active set
    k = np.eye(2)
    r = np.array([[0.0, -0.6], [0.0, -0.9]])
    active = np.ones((2, 2), dtype=bool)
    active[:, 0] = False
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1e-10))
    np.testing.assert_allclose(w.omega[:, 1], [1.0, 1.0], atol=1e-9)


def test_imbalance_quadratic_form():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    r = np.array([[0.0, 1.0], [0.0, 1.0]])
    active = np.zeros((2, 2), dtype=bool)
    omega = np.zeros((2, 2))
    assert imbalance(k, r, active, omega, 1) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_imbalance_zero_when_balanced():
    k = np.array([[1.0, 0.2], [0.2, 1.0]])
    r = np.array([[0.0, -0.5], [0.0, -0.8]])
    active = np.ones((2, 2), dtype=bool)
    omega = np.ones((2, 2))
    assert imbalance(k, r, active, omega, 1) == pytest.approx(0.0, abs=1e-12)


def test_imbalance_single_inactive_unit():
    k = np.array([[1.0]])
    r = np.array([[0.0, -0.9]])
    active = np.array([[False, False]])
    omega = np.array([[0.0, 5.0]])  # weight cannot act off the active set
    assert imbalance(k, r, active, omega, 1) == pytest.approx(0.9, abs=1e-12)


def test_objective_at_zero_weights():
    k, r, active, _ = random_instance(7, n=8, t=3)
    total = objective(k, r, active, np.zeros_like(r), SolverConfig(sigma2=1.0))
    expected = sum(float(r[:, u] @ (k @ r[:, u])) for u in range(1, 4))
    assert total == pytest.approx(expected, rel=1e-12)


def test_objective_scalar_grid_oracle():
    k = np.array([[1.0]])
    r = np.array([[0.0, -0.7]])
    active = np.array([[False, True]])
    cfg = SolverConfig(sigma2=1.0)
    w = solve_balance_weights(k, r, active, cfg)
    achieved = objective(k, r, active, w.omega, cfg)
    # optimum k r^2 (1-w)^2 + (sigma^2/n) r^2 w^2 at w = 1/2 equals r^2 / 2
    assert achieved == pytest.approx(0.5 * 0.7**2, rel=1e-12)
    grid = np.linspace(0.0, 1.0, 100001)
    omega_grid = np.zeros((1, 2)) + grid[:, None, None] * np.array([[0.0, 1.0]])
    vals = [objective(k, r, active, og, cfg) for og in omega_grid[:: 10000]]
    assert min(vals) >= achieved - 1e-12


def test_solver_beats_clipped_ipw_weights():
    for seed in range(5):
        k, r, active, rng = random_instance(seed, n=12, t=4)
        cfg = SolverConfig(sigma2=1.0)
        w = solve_balance_weights(k, r, active, cfg)
        pi = rng.uniform(0.05, 0.95, size=12)
        h = rng.uniform(0.02, 1.0, size=(12, 5))
        ipw_omega = np.zeros_like(r)
        denom = np.maximum(pi[:, None] * h, 1e-3)
        ipw_omega[active] = 1.0 / denom[active]
        assert objective(k, r, active, w.omega, cfg) <= objective(
            k, r, active, ipw_omega, cfg
        ) + 1e-12


def _joint_blockdiag_solve(k, r, active, sigma2):
    """Oracle: solve all timesteps in one stacked linear system."""
    n, t1 = r.shape
    cells = [(i, u) for u in range(1, t1) for i in np.flatnonzero(active[:, u])]
    if not cells:
        return np.zeros_like(r)
    m = len(cells)
    big = np.zeros((m, m))
    rhs = np.zeros(m)
    for p, (i, u) in enumerate(cells):
        rhs[p] = float(k[i] @ r[:, u])
        for q, (j, v) in enumerate(cells):
            if u == v:
                big[p, q] = k[i, j]
        big[p, p] += sigma2 / n
    v_flat = np.linalg.solve(big, rhs)
    omega = np.zeros_like(r)
    for p, (i, u) in enumerate(cells):
        if abs(r[i, u]) > 1e-12:
            omega[i, u] = v_flat[p] / r[i, u]
    return omega


def test_joint_equals_per_timestep():
    for seed in range(6):
        k, r, active, _ = random_instance(100 + seed, n=10, t=4)
        w = solve_balance_weights(k, r, active, SolverConfig(sigma2=0.8))
        joint = _joint_blockdiag_solve(k, r, active, 0.8)
        np.testing.assert_allclose(w.omega, joint, atol=1e-8)


def test_sampled_supremum_never_exceeds_closed_form():
    k, r, active, rng = random_instance(21, n=10, t=3)
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
    for u in range(1, 4):
        c = r[:, u] * (1.0 - active[:, u].astype(float) * w.omega[:, u])
        closed = imbalance(k, r, active, w.omega, u)
        kc = k @ c
        for _ in range(1000):
            alpha = rng.standard_normal(10)
            denom = float(alpha @ (k @ alpha))
            if denom < 1e-12:
                continue
            val = float(alpha @ kc) / np.sqrt(denom)
            assert val <= closed + 1e-10
        # analytic maximizer alpha = c attains the closed form
        denom = float(c @ kc)
        if denom > 1e-12:
            attained = denom / np.sqrt(denom)
            assert attained == pytest.approx(closed, abs=1e-10)


def test_first_order_optimality():
    for seed in range(5):
        k, r, active, _ = random_instance(200 + seed, n=14, t=4)
        cfg = SolverConfig(sigma2=1.3)
        w = solve_balance_weights(k, r, active, cfg)
        n = k.shape[0]
        grads = []
        for u in range(1, 5):
            c = r[:, u] * (1.0 - active[:, u].astype(float) * w.omega[:, u])
            kc = k @ c
            g = 2.0 * r[:, u] * (cfg.sigma2 / n * r[:, u] * w.omega[:, u] - kc)
            grads.extend(g[active[:, u]])
        assert np.linalg.norm(grads) <= 1e-8 * n


def test_sigma2_monotonicity():
    for seed in range(5):
        k, r, active, _ = random_instance(300 + seed, n=12, t=3)
        previous = np.inf
        for sigma2 in (0.1, 1.0, 10.0, 100.0):
            w = solve_balance_weights(k, r, active, SolverConfig(sigma2=sigma2))
            variance_term = float(np.sum(active * r**2 * w.omega**2))
            assert variance_term <= previous + 1e-10
            previous = variance_term


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_weights_zero_off_active_set(seed):
    k, r, active, _ = random_instance(seed, n=8, t=3, active_rate=0.5)
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
    assert np.all(w.omega[~active] == 0.0)
    assert np.isfinite(w.omega).all()


def test_balance_weights_validation():
    with pytest.raises(ValueError):
        BalanceWeights(omega=np.ones((2, 2)), active=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        BalanceWeights(omega=np.full((1, 1), np.nan), active=np.ones((1, 1), dtype=bool))


def _synthetic_fold_instance(n, a, t, seed):
    """Kernel, direction and risk-set mask of one cross-fitting fold of size n."""
    data = gen_synthetic(SyntheticConfig(n=2 * n, seed=seed))
    fold = data.subset(FoldPlan.make(2 * n, 2, seed).fold_indices(0))
    # units arrive in random order and share exit times
    assert np.any(np.diff(fold.time) > 0) and np.any(np.diff(fold.time) < 0)
    assert np.unique(fold.time).size < fold.n
    xs = (fold.x - fold.x.mean(axis=0)) / fold.x.std(axis=0)
    k = gram(xs, xs, KernelConfig(length_scale=2.0))
    rng = np.random.default_rng(seed)
    haz = np.zeros((fold.n, t + 1))
    haz[:, 1:] = rng.uniform(0.02, 0.3, size=(fold.n, t))
    r = derivative_direction(survival_from_hazard_matrix(haz), t)
    return k, r, active_matrix(fold, a, t)


def _direct_solve_weights(k, r, active, sigma2):
    """Oracle: np.linalg.solve of each per-timestep active-set system."""
    n = k.shape[0]
    omega = np.zeros_like(r)
    for u in range(1, r.shape[1]):
        act = np.flatnonzero(active[:, u])
        if act.size == 0:
            continue
        lhs = k[np.ix_(act, act)] + sigma2 / n * np.eye(act.size)
        v = np.linalg.solve(lhs, (k @ r[:, u])[act])
        omega[act, u] = v / r[act, u]
    return omega


def _count_factors(monkeypatch):
    calls = []
    original = balance_module.spd_factor

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(balance_module, "spd_factor", counting)
    return calls


@pytest.mark.parametrize("n", [200, 800])
def test_nested_risk_sets_match_direct_solve(n, monkeypatch):
    calls = _count_factors(monkeypatch)
    for a in (0, 1):
        for t in (5, 25):
            k, r, active = _synthetic_fold_instance(n, a, t, seed=n + a)
            calls.clear()
            w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
            # one factor of the largest (first) risk set serves every timestep
            assert calls == [int(active[:, 1].sum())]
            direct = _direct_solve_weights(k, r, active, 1.0)
            for u in range(1, t + 1):
                rel = np.linalg.norm(w.omega[:, u] - direct[:, u]) / np.linalg.norm(direct[:, u])
                assert rel <= 1e-10


def test_non_nested_mask_factors_each_timestep(monkeypatch):
    calls = _count_factors(monkeypatch)
    k, r, _, _ = random_instance(5, n=6, t=3)
    active = np.zeros((6, 4), dtype=bool)
    # every unit is active once, so the order is the identity and no set is a prefix
    active[[0, 2], 1] = active[[1, 3], 2] = active[[4, 5], 3] = True
    w = solve_balance_weights(k, r, active, SolverConfig(sigma2=1.0))
    assert calls == [2, 2, 2]
    np.testing.assert_allclose(w.omega, _direct_solve_weights(k, r, active, 1.0), rtol=1e-10)


@pytest.mark.parametrize("nested", [True, False])
def test_failed_factorization_raises_with_diagnostics(nested):
    k = np.diag([1.0, -1.0, 1.0])  # indefinite
    r = np.full((3, 3), -0.5)
    r[:, 0] = 0.0
    active = np.ones((3, 3), dtype=bool)
    active[:, 0] = False
    if not nested:
        active[1, 1] = active[0, 2] = False
    with pytest.raises(NumericalError, match=r"balance solve at u=\d \(\d of 3 active\).*SPD solve failed"):
        solve_balance_weights(k, r, active, SolverConfig(sigma2=1e-12))
