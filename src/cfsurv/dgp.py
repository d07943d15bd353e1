"""Seeded synthetic and twins-like semi-synthetic data generators.

Both generators follow a fixed draw order so identical (config, seed)
pairs reproduce datasets byte for byte. Covariates enter the generative
formulas raw; the stored dataset is standardized afterwards (disable via
`SyntheticConfig(standardize=False)` when a test needs the raw
covariates; twins-like datasets are always standardized).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .survival import Dataset, TimeGrid, standardization

__all__ = [
    "SyntheticConfig",
    "TwinsLikeConfig",
    "GroundTruth",
    "true_event_hazard",
    "true_censor_hazard",
    "true_propensity",
    "gen_synthetic",
    "gen_twins_like",
    "ground_truth",
    "twins_ground_truth",
    "sample_discrete_times",
    "surrogate_twins_table",
    "load_twins_table",
]

T_MAX = 30
SYNTH_D = 10
TWINS_D = 30


@dataclass(frozen=True)
class SyntheticConfig:
    """Synthetic benchmark: 10 equicorrelated normals, logistic assignment.

    Assignment is A ~ Bern(assign_scale * sigmoid(xi * sum_p x_p)); the
    defaults use assign_scale=1 with xi=0.3, and `rare_treatment_preset` gives
    the 0.2 * sigmoid(sum_p x_p) variant.
    """

    n: int
    xi: float = 0.3
    assign_scale: float = 1.0
    seed: int = 0
    standardize: bool = True

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not self.xi > 0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        if not 0.0 < self.assign_scale <= 1.0:
            raise ValueError(f"assign_scale must be in (0, 1], got {self.assign_scale}")

    @classmethod
    def rare_treatment_preset(cls, n: int, seed: int = 0, **kwargs) -> "SyntheticConfig":
        return cls(n=n, xi=1.0, assign_scale=0.2, seed=seed, **kwargs)


def true_event_hazard(x: np.ndarray, a, t: int):
    """Event hazard: 0.1 sig(-5 x1^2 - a*shift) early, 0.1 sig(10 x2 - a*shift) late.

    The treatment shift is (1(x3 >= 0) + 0.5), subtracted inside the
    sigmoid, so treatment lowers the hazard. Vectorized over rows of x.
    """
    if t < 1:
        raise ValueError("hazards are defined for t >= 1")
    x2d = np.atleast_2d(np.asarray(x, dtype=float))
    a_arr = np.broadcast_to(np.asarray(a, dtype=float), (x2d.shape[0],))
    shift = a_arr * ((x2d[:, 2] >= 0.0).astype(float) + 0.5)
    if t <= 10:
        arg = -5.0 * x2d[:, 0] ** 2 - shift
    else:
        arg = 10.0 * x2d[:, 1] - shift
    out = 0.1 * expit(arg)
    return float(out[0]) if np.ndim(x) == 1 else out


def true_censor_hazard(x: np.ndarray, t: int):
    """Censoring hazard 0.01 sig(10 x4^2) before the horizon, 1 at t >= 30."""
    if t < 1:
        raise ValueError("hazards are defined for t >= 1")
    x2d = np.atleast_2d(np.asarray(x, dtype=float))
    if t >= T_MAX:
        out = np.ones(x2d.shape[0])
    else:
        out = 0.01 * expit(10.0 * x2d[:, 3] ** 2)
    return float(out[0]) if np.ndim(x) == 1 else out


def true_propensity(x: np.ndarray, cfg: SyntheticConfig) -> np.ndarray:
    """P(A=1 | X) under the synthetic assignment law (raw covariates)."""
    x2d = np.atleast_2d(np.asarray(x, dtype=float))
    return cfg.assign_scale * expit(cfg.xi * x2d.sum(axis=1))


def sample_discrete_times(uniforms: np.ndarray, hazards: np.ndarray) -> np.ndarray:
    """Sequential Bernoulli sampling of discrete times.

    uniforms and hazards are (n, t_max) matrices over times 1..t_max; the
    sampled time is the first u with uniform < hazard, or inf if no draw
    fires inside the horizon.
    """
    if uniforms.shape != hazards.shape:
        raise ValueError("uniforms and hazards must share a shape")
    hit = uniforms < hazards
    any_hit = hit.any(axis=1)
    first = hit.argmax(axis=1) + 1
    return np.where(any_hit, first.astype(float), np.inf)


def _standardize_columns(x: np.ndarray) -> np.ndarray:
    mean, scale = standardization(x)
    return (x - mean) / scale


def _draw_synthetic_covariates(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    # N(0, 0.8 I + 0.2 J): shared factor sqrt(0.2) g plus sqrt(0.8) noise
    g = rng.standard_normal(n)
    eps = rng.standard_normal((n, d))
    return np.sqrt(0.2) * g[:, None] + np.sqrt(0.8) * eps


def gen_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Draw a synthetic right-censored observational dataset."""
    rng = np.random.default_rng(cfg.seed)
    x = _draw_synthetic_covariates(rng, cfg.n, SYNTH_D)
    u_assign = rng.random(cfg.n)
    u_event = rng.random((cfg.n, T_MAX))
    u_censor = rng.random((cfg.n, T_MAX))

    a = (u_assign < true_propensity(x, cfg)).astype(np.int64)
    event_hazards = np.column_stack(
        [true_event_hazard(x, a, u) for u in range(1, T_MAX + 1)]
    )
    censor_hazards = np.column_stack(
        [true_censor_hazard(x, u) for u in range(1, T_MAX + 1)]
    )
    t_event = sample_discrete_times(u_event, event_hazards)
    t_censor = sample_discrete_times(u_censor, censor_hazards)
    # the censor hazard is 1 at the horizon, so t_censor <= t_max always
    t_obs = np.minimum(t_event, t_censor).astype(np.int64)
    e = (t_event <= t_censor).astype(np.int64)
    x_out = _standardize_columns(x) if cfg.standardize else x
    return Dataset(x=x_out, a=a, time=t_obs, event=e, grid=TimeGrid(T_MAX))


@dataclass(frozen=True)
class GroundTruth:
    """Monte Carlo (or exact) counterfactual survival values and their SEs."""

    psi: np.ndarray  # (2, t_max + 1)
    delta: np.ndarray  # (t_max + 1,)
    psi_se: np.ndarray
    delta_se: np.ndarray

    def __post_init__(self) -> None:
        if ((self.psi < 0.0) | (self.psi > 1.0)).any():
            raise ValueError("psi values must lie in [0, 1]")
        if np.any(np.diff(self.psi, axis=1) > 1e-12):
            raise ValueError("psi must be non-increasing in t")


def ground_truth(cfg: SyntheticConfig, mc_n: int, seed: int | None = None) -> GroundTruth:
    """Monte Carlo psi^{a,t} over fresh covariate draws at the true hazards."""
    if mc_n < 10_000:
        raise ValueError(f"mc_n must be >= 10000, got {mc_n}")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    x = _draw_synthetic_covariates(rng, mc_n, SYNTH_D)
    n_pts = T_MAX + 1
    psi = np.ones((2, n_pts))
    psi_se = np.zeros((2, n_pts))
    delta = np.zeros(n_pts)
    delta_se = np.zeros(n_pts)
    surv = {a: np.ones(mc_n) for a in (0, 1)}
    root = np.sqrt(mc_n)
    for t in range(1, n_pts):
        for a in (0, 1):
            surv[a] = surv[a] * (1.0 - true_event_hazard(x, a, t))
            psi[a, t] = surv[a].mean()
            psi_se[a, t] = surv[a].std() / root
        diff = surv[1] - surv[0]
        delta[t] = diff.mean()
        delta_se[t] = diff.std() / root
    return GroundTruth(psi=psi, delta=delta, psi_se=psi_se, delta_se=delta_se)


@dataclass(frozen=True)
class TwinsLikeConfig:
    """Paired potential event times plus covariates; arms and censoring are drawn.

    The covariate table is the sample: every call generates treatment,
    censoring, and the observed outcome for each row.
    """

    x: np.ndarray  # (n, d) covariate table
    t0: np.ndarray  # (n,) potential time under a=0
    t1: np.ndarray  # (n,) potential time under a=1
    seed: int = 0

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        t0 = np.asarray(self.t0, dtype=np.int64)
        t1 = np.asarray(self.t1, dtype=np.int64)
        if t0.shape != (x.shape[0],) or t1.shape != (x.shape[0],):
            raise ValueError("potential times must align with the covariate table")
        if (t0 < 1).any() or (t1 < 1).any():
            raise ValueError("potential event times must be >= 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def gen_twins_like(cfg: TwinsLikeConfig) -> Dataset:
    """Observe one potential outcome per row under drawn treatment and censoring.

    A ~ Bern(sig(w1'x + e)), w1 ~ U(-0.1, 0.1)^d, e ~ N(0,1); censoring is
    continuous C ~ Exp(rate = 10 sig(w2'x)), w2 ~ N(0,1)^d. The event flag
    compares the capped event time against raw C; the observed time is
    min(T, ceil(C)) capped at the horizon.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.x.shape[1]
    w1 = rng.uniform(-0.1, 0.1, size=d)
    e_noise = rng.standard_normal(cfg.n)
    u_assign = rng.random(cfg.n)
    w2 = rng.standard_normal(d)
    c_std = rng.exponential(1.0, size=cfg.n)

    a = (u_assign < expit(cfg.x @ w1 + e_noise)).astype(np.int64)
    rate = 10.0 * expit(cfg.x @ w2)
    c = c_std / rate
    t_event = np.minimum(np.where(a == 1, cfg.t1, cfg.t0), T_MAX)
    event = (t_event <= c).astype(np.int64)
    c_disc = np.maximum(np.ceil(c), 1.0).astype(np.int64)  # ceil keeps times >= 1
    t_obs = np.minimum(np.minimum(t_event, c_disc), T_MAX)
    return Dataset(
        x=_standardize_columns(cfg.x), a=a, time=t_obs, event=event, grid=TimeGrid(T_MAX)
    )


def twins_ground_truth(cfg: TwinsLikeConfig) -> GroundTruth:
    """Exact psi over the covariate table: the paired times are the population."""
    n_pts = T_MAX + 1
    t = np.arange(n_pts)
    capped = {0: np.minimum(cfg.t0, T_MAX), 1: np.minimum(cfg.t1, T_MAX)}
    psi = np.stack([(capped[a][:, None] > t[None, :]).mean(axis=0) for a in (0, 1)])
    return GroundTruth(
        psi=psi,
        delta=psi[1] - psi[0],
        psi_se=np.zeros_like(psi),
        delta_se=np.zeros(n_pts),
    )


def surrogate_twins_table(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stand-in covariate table with paired potential times.

    Entirely synthetic (correlated binaries and normals, logistic-hazard
    potential times); it mimics the shape of a twins-style table but is
    not derived from any real records.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    z = np.sqrt(0.3) * g[:, None] + np.sqrt(0.7) * rng.standard_normal((n, TWINS_D))
    x = z.copy()
    n_binary = TWINS_D // 2
    x[:, :n_binary] = (z[:, :n_binary] > 0.0).astype(float)
    beta = rng.normal(scale=0.25, size=TWINS_D)
    u_pot = rng.random((n, 2, T_MAX))
    times = np.empty((n, 2), dtype=np.int64)
    lin = x @ beta
    for a in (0, 1):
        # treatment lowers the potential-time hazard, mirroring a benefit
        haz = 0.12 * expit(lin - 0.6 * a)[:, None] + 0.02
        sampled = sample_discrete_times(u_pot[:, a, :], np.tile(haz, (1, T_MAX)))
        times[:, a] = np.where(np.isinf(sampled), T_MAX + 1, sampled).astype(np.int64)
    return x, times[:, 0], times[:, 1]


def load_twins_table(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the `x0..x29,t0,t1` covariate/potential-time table."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    d = TWINS_D
    expected = [f"x{j}" for j in range(d)] + ["t0", "t1"]
    if header != expected:
        raise ValueError(
            f"{path}: expected header x0..x{d - 1},t0,t1 with paired potential times"
        )
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array([[float(v) for v in row[:d]] for row in rows])
    t0 = np.array([int(row[d]) for row in rows])
    t1 = np.array([int(row[d + 1]) for row in rows])
    return x, t0, t1
