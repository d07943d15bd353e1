import numpy as np
import pytest
from scipy.special import expit

from cfsurv.dgp import (
    GroundTruth,
    SyntheticConfig,
    TwinsLikeConfig,
    gen_synthetic,
    gen_twins_like,
    ground_truth,
    load_twins_table,
    sample_discrete_times,
    surrogate_twins_table,
    true_censor_hazard,
    true_event_hazard,
    twins_ground_truth,
)
from cfsurv.survival import dataset_csv_bytes


def true_survival(x, a_value, t):
    n = np.atleast_2d(x).shape[0]
    a = np.full(n, a_value)
    surv = np.ones(n)
    for u in range(1, t + 1):
        surv = surv * (1.0 - true_event_hazard(x, a, u))
    return surv


def test_event_hazard_examples():
    x = np.zeros(10)
    assert true_event_hazard(x, 0, 5) == pytest.approx(0.05, abs=1e-15)
    assert true_event_hazard(x, 1, 5) == pytest.approx(0.1 * expit(-1.5), abs=1e-12)
    assert true_event_hazard(x, 1, 5) == pytest.approx(0.0182426, abs=1e-7)
    assert true_event_hazard(x, 0, 11) == pytest.approx(0.05, abs=1e-15)
    with pytest.raises(ValueError):
        true_event_hazard(x, 0, 0)


def test_event_hazard_switches_at_ten():
    x = np.zeros(10)
    x[1] = 0.5  # x2 moves only the late regime
    assert true_event_hazard(x, 0, 10) == pytest.approx(0.05)
    assert true_event_hazard(x, 0, 11) == pytest.approx(0.1 * expit(5.0))


def test_censor_hazard_examples():
    x = np.zeros(10)
    assert true_censor_hazard(x, 5) == pytest.approx(0.005, abs=1e-15)
    assert true_censor_hazard(x, 30) == 1.0
    assert true_censor_hazard(x, 31) == 1.0
    big = np.zeros(10)
    big[3] = 50.0
    assert true_censor_hazard(big, 5) == pytest.approx(0.01, abs=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n=1)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, xi=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(n=10, assign_scale=1.5)


def test_gen_synthetic_deterministic():
    cfg = SyntheticConfig(n=150, seed=77)
    a = gen_synthetic(cfg)
    b = gen_synthetic(cfg)
    assert dataset_csv_bytes(a) == dataset_csv_bytes(b)
    c = gen_synthetic(SyntheticConfig(n=150, seed=78))
    assert dataset_csv_bytes(c) != dataset_csv_bytes(a)


def test_gen_synthetic_bounds():
    data = gen_synthetic(SyntheticConfig(n=2000, seed=5))
    assert data.time.min() >= 1 and data.time.max() <= 30
    assert set(np.unique(data.event)) <= {0, 1}
    assert data.d == 10


def test_assignment_rate_rare_treatment_preset():
    # E[0.2 sigmoid(Z)], Z ~ N(0, 28): by symmetry the sigmoid averages to 1/2
    cfg = SyntheticConfig.rare_treatment_preset(n=100_000, seed=12)
    data = gen_synthetic(cfg)
    assert abs(float(data.a.mean()) - 0.1) <= 0.01


def test_sequential_sampler_constant_hazard():
    rng = np.random.default_rng(3)
    n, horizon = 100_000, 30
    uniforms = rng.random((n, horizon))
    times = sample_discrete_times(uniforms, np.full((n, horizon), 0.1))
    for t in (1, 5, 10, 20):
        emp = float(np.mean(times > t))
        expected = 0.9**t
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(emp - expected) <= 4 * se


def test_sampler_shape_mismatch():
    with pytest.raises(ValueError):
        sample_discrete_times(np.zeros((2, 3)), np.zeros((2, 4)))


def test_ground_truth_basics():
    gt = ground_truth(SyntheticConfig(n=2, seed=0), mc_n=20_000, seed=1)
    assert gt.psi[0, 0] == 1.0 and gt.psi[1, 0] == 1.0
    assert gt.delta[0] == 0.0
    assert np.all(np.diff(gt.psi, axis=1) <= 1e-15)
    # treatment enters the hazard argument negatively, so it protects:
    # delta = psi1 - psi0 is positive for t >= 1
    assert np.all(gt.delta[1:] > 0.0)
    with pytest.raises(ValueError):
        ground_truth(SyntheticConfig(n=2, seed=0), mc_n=5000)


def test_ground_truth_se_scaling():
    gt1 = ground_truth(SyntheticConfig(n=2, seed=0), mc_n=10_000, seed=4)
    gt2 = ground_truth(SyntheticConfig(n=2, seed=0), mc_n=40_000, seed=4)
    ratio = gt1.delta_se[15] / gt2.delta_se[15]
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_identification_chain_quick():
    # plug-in at true hazards over observational draws matches the MC truth
    cfg = SyntheticConfig(n=20_000, seed=101, standardize=False)
    data = gen_synthetic(cfg)
    gt = ground_truth(cfg, mc_n=100_000, seed=707)
    for t in (5, 15):
        for a in (0, 1):
            vals = true_survival(data.x, a, t)
            plug = float(vals.mean())
            se_plug = float(vals.std() / np.sqrt(data.n))
            se = np.sqrt(se_plug**2 + gt.psi_se[a, t] ** 2)
            assert abs(plug - gt.psi[a, t]) <= 3 * se


def test_product_decomposition_by_stratum():
    # P(obs time > u | stratum) = E[S_u G_u | stratum] under conditional
    # independence; strata cut on the sign of x3 and the assigned arm
    cfg = SyntheticConfig(n=100_000, seed=55, standardize=False)
    data = gen_synthetic(cfg)
    for u in (1, 10, 20):
        s_true = {a: true_survival(data.x, a, u) for a in (0, 1)}
        g_true = np.ones(data.n)
        for v in range(1, u + 1):
            g_true = g_true * (1.0 - true_censor_hazard(data.x, v))
        for a in (0, 1):
            for sign in (True, False):
                stratum = (data.a == a) & ((data.x[:, 2] >= 0) == sign)
                m = int(stratum.sum())
                assert m > 1000
                emp = float(np.mean(data.time[stratum] > u))
                model = float(np.mean((s_true[a] * g_true)[stratum]))
                se = np.sqrt(max(model * (1 - model), 1e-12) / m)
                assert abs(emp - model) <= 4 * se


def test_twins_config_validation():
    with pytest.raises(ValueError):
        TwinsLikeConfig(x=np.zeros((3, 4)), t0=np.array([1, 2]), t1=np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        TwinsLikeConfig(x=np.zeros((2, 4)), t0=np.array([0, 2]), t1=np.array([1, 2]))


def test_gen_twins_like_deterministic_and_bounded():
    x, t0, t1 = surrogate_twins_table(500, seed=9)
    cfg = TwinsLikeConfig(x=x, t0=t0, t1=t1, seed=33)
    a = gen_twins_like(cfg)
    b = gen_twins_like(cfg)
    assert dataset_csv_bytes(a) == dataset_csv_bytes(b)
    assert a.time.min() >= 1 and a.time.max() <= 30
    assert a.d == 30


def test_twins_balanced_assignment_at_zero_covariates():
    # with x = 0 the assignment is sigmoid(e), e ~ N(0,1): half treated
    cfg = TwinsLikeConfig(
        x=np.zeros((20_000, 5)),
        t0=np.full(20_000, 10),
        t1=np.full(20_000, 12),
        seed=2,
    )
    data = gen_twins_like(cfg)
    assert abs(float(data.a.mean()) - 0.5) <= 0.02


def test_surrogate_table_properties():
    x, t0, t1 = surrogate_twins_table(300, seed=4)
    assert x.shape == (300, 30)
    assert t0.min() >= 1 and t1.min() >= 1
    binary = x[:, :15]
    assert set(np.unique(binary)) <= {0.0, 1.0}
    # treatment shifts potential times up on average in the surrogate
    assert float(np.mean(np.minimum(t1, 30) - np.minimum(t0, 30))) > 0.0


def test_twins_ground_truth_exact():
    cfg = TwinsLikeConfig(
        x=np.zeros((4, 2)),
        t0=np.array([2, 2, 35, 4]),
        t1=np.array([3, 5, 6, 40]),
    )
    gt = twins_ground_truth(cfg)
    assert gt.psi[0, 0] == 1.0
    assert gt.psi[0, 2] == pytest.approx(0.5)  # t0 > 2 for rows 35 and 4
    assert gt.psi[1, 5] == pytest.approx(0.5)  # t1 > 5 for rows 6 and 40
    assert gt.psi[0, 30] == 0.0  # capped potential times never exceed 30
    assert np.all(gt.psi_se == 0.0)


def test_twins_csv_round_trip(tmp_path):
    x, t0, t1 = surrogate_twins_table(20, seed=1)
    path = tmp_path / "table.csv"
    header = ",".join([f"x{j}" for j in range(30)] + ["t0", "t1"])
    rows = [
        ",".join([format(v, ".17g") for v in x[i]] + [str(t0[i]), str(t1[i])])
        for i in range(20)
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    x2, t02, t12 = load_twins_table(str(path))
    np.testing.assert_allclose(x2, x, atol=0)
    assert np.array_equal(t02, t0) and np.array_equal(t12, t1)


def test_twins_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,t0\n0,1,3\n")
    with pytest.raises(ValueError, match="paired potential times"):
        load_twins_table(str(path))


def test_ground_truth_validation():
    with pytest.raises(ValueError):
        GroundTruth(
            psi=np.array([[1.0, 1.2], [1.0, 0.5]]),
            delta=np.zeros(2),
            psi_se=np.zeros((2, 2)),
            delta_se=np.zeros(2),
        )
