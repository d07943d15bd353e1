import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfsurv.balance as balance_module
import cfsurv.kernels as kernels_module
from cfsurv.balance import (
    direction_ratio,
    explicit_riesz,
    solve_balance_weights,
)
from cfsurv.dgp import SyntheticConfig, gen_synthetic
from cfsurv.errors import NumericalError
from cfsurv.estimators import FoldPlan
from cfsurv.kernels import gram
from cfsurv.survival import active_matrix
from oracles import derivative_direction, imbalance, objective


def survival_from_hazard_matrix(haz):
    return np.cumprod(1.0 - haz, axis=1)


def random_instance(seed, n, t, arm_rate=0.7):
    """Kernel, one direction and a nested mask: each unit is in the arm
    with probability arm_rate and exits at a uniform time in 1..t."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    k = gram(pts, pts, 1.5)
    haz = np.zeros((n, t + 1))
    haz[:, 1:] = rng.uniform(0.05, 0.4, size=(n, t))
    s = survival_from_hazard_matrix(haz)
    r = derivative_direction(s, t)
    in_arm = rng.random(n) < arm_rate
    exit_time = rng.integers(1, t + 1, size=n)
    active = in_arm[:, None] & (np.arange(t + 1) <= exit_time[:, None])
    active[:, 0] = False
    return k, r, active, rng


def solve_one(k, r, active, sigma2):
    """Weights (n, t+1) of the single direction r, which must solve."""
    omega, failures = solve_balance_weights(k, r[:, :, None], active, sigma2)
    assert failures == {}
    return omega[:, :, 0]


def test_derivative_direction_zero_hazard():
    s = np.ones((4, 6))
    r = s[:, 5, None] * direction_ratio(s, 5)
    assert r.shape == (4, 6)
    assert np.all(r[:, 0] == 0.0)
    assert np.all(r[:, 1:] == -1.0)


def test_derivative_direction_constant_hazard():
    haz = np.zeros((1, 3))
    haz[:, 1:] = 0.1
    s = survival_from_hazard_matrix(haz)  # (1, 0.9, 0.81)
    r = s[:, 2, None] * direction_ratio(s, 2)
    np.testing.assert_allclose(r[0], [0.0, -0.9, -0.9], atol=1e-15)


def test_derivative_direction_t_zero():
    s = np.ones((3, 5))
    r = s[:, 0, None] * direction_ratio(s, 0)
    assert r.shape == (3, 1)
    assert np.all(r == 0.0)


def test_derivative_direction_rejects_zero_survival():
    s = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(NumericalError):
        direction_ratio(s, 2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_derivative_direction_bounds(seed):
    rng = np.random.default_rng(seed)
    n, t = 6, 5
    haz = np.zeros((n, t + 1))
    haz[:, 1:] = rng.uniform(0.0, 0.999, size=(n, t))
    s = survival_from_hazard_matrix(haz)
    r = s[:, t, None] * direction_ratio(s, t)
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
    omega = solve_one(k, r, active, 1.0)
    assert omega[0, 1] == pytest.approx(0.5, abs=1e-12)

    # grid-search oracle over the scalar objective
    grid = np.linspace(-0.5, 1.5, 4001)
    vals = [1.0 * (0.7 * (1 - o)) ** 2 + 1.0 * (0.7 * o) ** 2 for o in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(0.5, abs=1e-3)


def test_solve_no_active_units():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    r = np.array([[0.0, -1.0], [0.0, -1.0]])
    active = np.zeros((2, 2), dtype=bool)
    omega = solve_one(k, r, active, 1.0)
    assert np.all(omega == 0.0)
    assert imbalance(k, r, active, omega, 1) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_solve_exact_balance_limit():
    # identity kernel, sigma^2 -> 0: weights approach 1 on a fully active set
    k = np.eye(2)
    r = np.array([[0.0, -0.6], [0.0, -0.9]])
    active = np.ones((2, 2), dtype=bool)
    active[:, 0] = False
    omega = solve_one(k, r, active, 1e-10)
    np.testing.assert_allclose(omega[:, 1], [1.0, 1.0], atol=1e-9)


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
    total = objective(k, r, active, np.zeros_like(r), 1.0)
    expected = sum(float(r[:, u] @ (k @ r[:, u])) for u in range(1, 4))
    assert total == pytest.approx(expected, rel=1e-12)


def test_objective_scalar_grid_oracle():
    k = np.array([[1.0]])
    r = np.array([[0.0, -0.7]])
    active = np.array([[False, True]])
    sigma2 = 1.0
    omega = solve_one(k, r, active, sigma2)
    achieved = objective(k, r, active, omega, sigma2)
    # optimum k r^2 (1-w)^2 + (sigma^2/n) r^2 w^2 at w = 1/2 equals r^2 / 2
    assert achieved == pytest.approx(0.5 * 0.7**2, rel=1e-12)
    grid = np.linspace(0.0, 1.0, 100001)
    omega_grid = np.zeros((1, 2)) + grid[:, None, None] * np.array([[0.0, 1.0]])
    vals = [objective(k, r, active, og, sigma2) for og in omega_grid[:: 10000]]
    assert min(vals) >= achieved - 1e-12


def test_solver_beats_clipped_ipw_weights():
    for seed in range(5):
        k, r, active, rng = random_instance(seed, n=12, t=4)
        omega = solve_one(k, r, active, 1.0)
        pi = rng.uniform(0.05, 0.95, size=12)
        h = rng.uniform(0.02, 1.0, size=(12, 5))
        ipw_omega = np.zeros_like(r)
        denom = np.maximum(pi[:, None] * h, 1e-3)
        ipw_omega[active] = 1.0 / denom[active]
        assert objective(k, r, active, omega, 1.0) <= objective(
            k, r, active, ipw_omega, 1.0
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
        omega = solve_one(k, r, active, 0.8)
        joint = _joint_blockdiag_solve(k, r, active, 0.8)
        np.testing.assert_allclose(omega, joint, atol=1e-8)


def test_sampled_supremum_never_exceeds_closed_form():
    k, r, active, rng = random_instance(21, n=10, t=3)
    omega = solve_one(k, r, active, 1.0)
    for u in range(1, 4):
        c = r[:, u] * (1.0 - active[:, u].astype(float) * omega[:, u])
        closed = imbalance(k, r, active, omega, u)
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
        sigma2 = 1.3
        omega = solve_one(k, r, active, sigma2)
        n = k.shape[0]
        grads = []
        for u in range(1, 5):
            c = r[:, u] * (1.0 - active[:, u].astype(float) * omega[:, u])
            kc = k @ c
            g = 2.0 * r[:, u] * (sigma2 / n * r[:, u] * omega[:, u] - kc)
            grads.extend(g[active[:, u]])
        assert np.linalg.norm(grads) <= 1e-8 * n


def test_sigma2_monotonicity():
    for seed in range(5):
        k, r, active, _ = random_instance(300 + seed, n=12, t=3)
        previous = np.inf
        for sigma2 in (0.1, 1.0, 10.0, 100.0):
            omega = solve_one(k, r, active, sigma2)
            variance_term = float(np.sum(active * r**2 * omega**2))
            assert variance_term <= previous + 1e-10
            previous = variance_term


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_weights_zero_off_active_set(seed):
    k, r, active, _ = random_instance(seed, n=8, t=3, arm_rate=0.5)
    omega = solve_one(k, r, active, 1.0)
    assert np.all(omega[~active] == 0.0)
    assert np.isfinite(omega).all()


def test_solved_weights_are_finite_and_zero_off_the_active_set():
    # a good solve, and one whose factor fails: the plain omega array keeps
    # the direction axis, stays finite and vanishes off the risk sets
    k, r, active, _ = random_instance(8, n=12, t=4, arm_rate=0.6)
    r = np.stack([r, 0.5 * r], axis=2)
    for kernel, failed in ((k, []), (k - 2.0 * np.eye(len(k)), [0, 1])):
        omega, failures = solve_balance_weights(kernel, r, active, 1.0)
        assert omega.shape == r.shape and sorted(failures) == failed
        assert np.isfinite(omega).all()
        assert not omega[~active].any()
        assert omega[active].any() != bool(failed)


def test_solve_rejects_a_non_nested_mask():
    k, r, active, _ = random_instance(5, n=6, t=3)
    active[:] = False
    # unit 0 leaves the risk set at u = 2 and comes back at u = 3
    active[[0, 1], 1] = active[1, 2] = active[0, 3] = True
    with pytest.raises(ValueError, match="must be nested"):
        solve_balance_weights(k, r[:, :, None], active, 1.0)


def test_solve_rejects_an_unstacked_direction():
    k, r, active, _ = random_instance(6, n=6, t=3)
    with pytest.raises(ValueError, match=r"\(n, t\+1, c\) stack"):
        solve_balance_weights(k, r, active, 1.0)


@pytest.mark.parametrize("sigma2", [0.0, -1.0])
def test_solve_rejects_nonpositive_sigma2(sigma2):
    k, r, active, _ = random_instance(7, n=6, t=3)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        solve_balance_weights(k, r[:, :, None], active, sigma2)


def _synthetic_fold(n, a, t, seed):
    """Standardized covariates, direction and risk-set mask of one cross-fitting fold of size n."""
    data = gen_synthetic(SyntheticConfig(n=2 * n, seed=seed))
    fold = data.subset(FoldPlan.make(2 * n, 2, seed).fold_indices(0))
    # units arrive in random order and share exit times
    assert np.any(np.diff(fold.time) > 0) and np.any(np.diff(fold.time) < 0)
    assert np.unique(fold.time).size < fold.n
    xs = (fold.x - fold.x.mean(axis=0)) / fold.x.std(axis=0)
    rng = np.random.default_rng(seed)
    haz = np.zeros((fold.n, t + 1))
    haz[:, 1:] = rng.uniform(0.02, 0.3, size=(fold.n, t))
    r = derivative_direction(survival_from_hazard_matrix(haz), t)
    return xs, r, active_matrix(fold, a, t)


def _synthetic_fold_instance(n, a, t, seed):
    """Kernel, direction and risk-set mask of one cross-fitting fold of size n."""
    xs, r, active = _synthetic_fold(n, a, t, seed)
    return gram(xs, xs, 2.0), r, active


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
            omega = solve_one(k, r, active, 1.0)
            # one factor of the largest (first) risk set serves every timestep
            assert calls == [int(active[:, 1].sum())]
            direct = _direct_solve_weights(k, r, active, 1.0)
            for u in range(1, t + 1):
                rel = np.linalg.norm(omega[:, u] - direct[:, u]) / np.linalg.norm(direct[:, u])
                assert rel <= 1e-10


def test_failed_factorization_reports_diagnostics():
    k = np.diag([1.0, -1.0, 1.0])  # indefinite
    r = np.full((3, 3, 1), -0.5)
    r[:, 0] = 0.0
    active = np.ones((3, 3), dtype=bool)
    active[:, 0] = False
    omega, failures = solve_balance_weights(k, r, active, 1e-12)
    assert list(failures) == [0]
    assert re.match(
        r"balance solve at u=1 \(3 of 3 active\), direction 0: SPD solve failed", failures[0]
    )
    assert np.all(omega == 0.0)


def _stacked_directions(n, t_max, times, seed):
    """Directions of several evaluation times, each zero past its time, stacked last."""
    rng = np.random.default_rng(seed)
    haz = np.zeros((n, t_max + 1))
    haz[:, 1:] = rng.uniform(0.02, 0.3, size=(n, t_max))
    s = survival_from_hazard_matrix(haz)
    r = np.zeros((n, t_max + 1, len(times)))
    for j, t in enumerate(times):
        r[:, : t + 1, j] = derivative_direction(s, t)
    return r


def test_stacked_solve_matches_per_direction_solves(monkeypatch):
    times = [5, 12, 25]
    k, _, active = _synthetic_fold_instance(200, 1, 25, seed=31)
    r = _stacked_directions(k.shape[0], 25, times, seed=33)
    calls = _count_factors(monkeypatch)
    stacked_omega, stacked_failures = solve_balance_weights(k, r, active, 1.0)
    # the risk sets of every direction share one factor
    assert calls == [int(active[:, 1].sum())]
    assert stacked_omega.shape == r.shape and stacked_failures == {}
    for j, t in enumerate(times):
        alone = solve_one(k, r[:, :, j], active, 1.0)
        assert np.all(stacked_omega[:, t + 1 :, j] == 0.0) and np.all(alone[:, t + 1 :] == 0.0)
        for u in range(1, t + 1):
            ref = np.linalg.norm(alone[:, u])
            assert np.linalg.norm(stacked_omega[:, u, j] - alone[:, u]) <= 1e-12 * ref


def test_every_timestep_shares_one_pair_of_triangular_solves(monkeypatch):
    times = [5, 12, 25]
    k, _, active = _synthetic_fold_instance(200, 1, 25, seed=31)
    r = _stacked_directions(k.shape[0], 25, times, seed=33)
    calls = []
    original = kernels_module.solve_triangular

    def counting(a, b, **kwargs):
        calls.append((b.shape[1], kwargs.get("trans", 0)))
        return original(a, b, **kwargs)

    monkeypatch.setattr(kernels_module, "solve_triangular", counting)
    omega, failures = solve_balance_weights(k, r, active, 1.0)
    assert failures == {}
    # one forward and one backward solve over all 5 + 12 + 25 (u, t) columns
    assert calls == [(sum(times), 0), (sum(times), "T")]


def test_column_over_its_residual_bound_fails_alone(monkeypatch):
    # a factor of K + (lam + 1e-3) I leaves residual 1e-3 ||z|| in every
    # column: far above the bound of a full-size direction, far below
    # that of a direction scaled down by 1e-12, which must not be failed
    # by its neighbour's residual
    k, _, active = _synthetic_fold_instance(200, 0, 10, seed=34)
    r = _stacked_directions(k.shape[0], 10, [10, 10], seed=35)
    r[:, :, 0] *= 1e-12
    original = balance_module.spd_factor
    monkeypatch.setattr(
        balance_module, "spd_factor", lambda m, ridge: original(m, ridge=ridge + 1e-3)
    )
    omega, failures = solve_balance_weights(k, r, active, 1.0)
    assert list(failures) == [1]
    assert re.match(
        r"balance solve at u=1 \(\d+ of 200 active\), direction 1: .*left residual", failures[1]
    )
    assert np.all(omega[:, :, 1] == 0.0)
    alone = solve_one(k, r[:, :, 0], active, 1.0)
    np.testing.assert_array_equal(omega[:, :, 0], alone)
    failed_omega, failed_failures = solve_balance_weights(k, r[:, :, 1:], active, 1.0)
    assert re.match(r"balance solve at u=1 .*direction 0: .*left residual", failed_failures[0])


def test_a_direction_fails_at_its_first_failed_timestep(monkeypatch):
    # as above, the factor of K + (lam + 1e-3) I fails every full-size
    # column and no column scaled down by 1e-12. Direction 1 is zero at
    # u = 1, 2 and direction 2 is scaled down there: both first fail at
    # u = 3, while direction 0, scaled down throughout, does not fail
    k, _, active = _synthetic_fold_instance(200, 0, 10, seed=34)
    r = _stacked_directions(k.shape[0], 10, [10, 10, 10], seed=35)
    r[:, :, 0] *= 1e-12
    r[:, 1:3, 1] = 0.0
    r[:, 1:3, 2] *= 1e-12
    original = balance_module.spd_factor
    monkeypatch.setattr(
        balance_module, "spd_factor", lambda m, ridge: original(m, ridge=ridge + 1e-3)
    )
    omega, failures = solve_balance_weights(k, r, active, 1.0)
    assert list(failures) == [1, 2]
    for d in (1, 2):
        assert re.match(
            rf"balance solve at u=3 \(\d+ of 200 active\), direction {d}: .*left residual",
            failures[d],
        )
        assert np.all(omega[:, :, d] == 0.0)
    np.testing.assert_array_equal(omega[:, :, 0], solve_one(k, r[:, :, 0], active, 1.0))


def test_failed_factor_fails_only_the_directions_that_need_it():
    k = np.diag([1.0, -1.0, 1.0])  # indefinite at unit 1
    active = np.zeros((3, 3), dtype=bool)
    # units 1 and 2 stay to u = 2, unit 0 leaves after u = 1: one shared factor
    active[:, 1] = active[[1, 2], 2] = True
    r = np.zeros((3, 3, 3))
    r[:, 1:, 0] = -0.5  # needs both timesteps
    r[:, 2, 1] = -0.5  # needs u = 2 only
    # direction 2 is zero and needs no solve
    omega, failures = solve_balance_weights(k, r, active, 1e-12)
    assert list(failures) == [0, 1]
    assert re.match(
        r"balance solve at u=1 \(3 of 3 active\), direction 0: SPD solve failed", failures[0]
    )
    assert re.match(
        r"balance solve at u=2 \(2 of 3 active\), direction 1: SPD solve failed", failures[1]
    )
    assert np.all(omega == 0.0)


@pytest.mark.parametrize("offset, failed", [(0.0, []), (1e-3, [1])], ids=["good", "residual"])
def test_a_row_function_solves_as_the_matrix_does(monkeypatch, offset, failed):
    # the kernel's rows built on demand, a rectangular Gram, against the
    # whole symmetric one: the same weights to roundoff and the same
    # failures. A factor of K + (lam + 1e-3) I fails every full-size
    # column, and not direction 0, scaled down by 1e-12
    xs, _, active = _synthetic_fold(200, 0, 10, seed=34)
    r = _stacked_directions(len(xs), 10, [5, 10], seed=35)
    r[:, :, 0] *= 1e-12
    original = balance_module.spd_factor
    monkeypatch.setattr(
        balance_module, "spd_factor", lambda m, ridge: original(m, ridge=ridge + offset)
    )
    calls = []

    def rows(idx):
        calls.append(len(idx))
        return gram(xs[idx], xs, 2.0)

    by_matrix, matrix_failures = solve_balance_weights(gram(xs, xs, 2.0), r, active, 1.0)
    by_rows, row_failures = solve_balance_weights(rows, r, active, 1.0)
    assert calls == [int(active[:, 1].sum())]  # one call, for the largest risk set's rows
    assert list(row_failures) == list(matrix_failures) == failed
    for j in range(r.shape[2]):
        for u in range(1, r.shape[1]):
            ref = np.linalg.norm(by_matrix[:, u, j])
            assert np.linalg.norm(by_rows[:, u, j] - by_matrix[:, u, j]) <= 1e-12 * ref


def test_a_row_function_fails_as_the_matrix_does():
    k = np.diag([1.0, -1.0, 1.0])  # indefinite at unit 1
    active = np.zeros((3, 3), dtype=bool)
    active[:, 1] = active[[1, 2], 2] = True
    r = np.zeros((3, 3, 3))
    r[:, 1:, 0] = -0.5
    r[:, 2, 1] = -0.5
    by_matrix = solve_balance_weights(k, r, active, 1e-12)
    by_rows = solve_balance_weights(lambda idx: k[idx], r, active, 1e-12)
    assert by_rows[1] == by_matrix[1] and list(by_rows[1]) == [0, 1]
    assert not by_rows[0].any() and not by_matrix[0].any()
    with pytest.raises(ValueError, match=r"kernel matrix must be \(3, 3\)"):
        solve_balance_weights(k[:2], r, active, 1e-12)
    with pytest.raises(ValueError, match=r"kernel rows must be \(3, 3\), got \(3, 2\)"):
        solve_balance_weights(lambda idx: k[idx, :2], r, active, 1e-12)
