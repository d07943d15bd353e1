"""Replication harness and metric computation.

Each replication q draws its own dataset from a seed derived as
master_seed XOR splitmix64(q), estimates the survival effect at every
requested time, and records the point estimate and confidence interval.
Failed cells are recorded, excluded from metrics, and reported in an
n_failed count rather than aborting the run.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dgp import (
    T_MAX,
    GroundTruth,
    SyntheticConfig,
    TwinsLikeConfig,
    gen_synthetic,
    gen_twins_like,
    surrogate_twins_table,
)
from .errors import EstimationError, HarnessError, NumericalError
from .estimators import (
    ESTIMATOR_KINDS,
    EstimatorParams,
    fit_nuisances,
    nuisance_plan,
    run_estimator,
)
from .survival import FLOAT_FMT

__all__ = [
    "splitmix64",
    "derive_seed",
    "SimulationConfig",
    "ReplicationResult",
    "MetricsRow",
    "run_replications",
    "run_single_replication",
    "metrics",
    "summarize",
    "risb_rise",
    "nominal_coverage",
    "metrics_csv_bytes",
    "run_xi_sweep",
]

_MASK64 = (1 << 64) - 1

#: the 97.5% standard-normal quantile used throughout the reported intervals
Z_975 = 1.959964

DGP_PRESETS = ("synthetic", "twins-like")


def splitmix64(x: int) -> int:
    """One splitmix64 output for the given 64-bit state."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, q: int) -> int:
    """Replication q's seed: master XOR splitmix64(q)."""
    return (master_seed ^ splitmix64(q)) & _MASK64


@dataclass(frozen=True)
class SimulationConfig:
    q: int
    n: int
    dgp: str = "synthetic"
    xi: float = 0.3
    assign_scale: float = 1.0
    estimators: tuple[str, ...] = ("or", "dr", "balance")
    times: tuple[int, ...] = (5, 10, 15, 20, 25)
    master_seed: int = 0
    params: EstimatorParams = field(default_factory=EstimatorParams)
    twins_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"replication count must be >= 2, got {self.q}")
        if self.dgp not in DGP_PRESETS:
            raise ValueError(f"dgp must be one of {DGP_PRESETS}, got {self.dgp!r}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_KINDS]
        if unknown:
            raise ValueError(f"unknown estimators: {', '.join(unknown)}")
        if not self.times:
            raise ValueError("need at least one evaluation time")
        if min(self.times) < 0 or max(self.times) > T_MAX:
            raise ValueError(f"times must lie in [0, {T_MAX}], got {self.times}")


@dataclass
class ReplicationResult:
    config: SimulationConfig
    seeds: list[int]
    estimates: dict[str, np.ndarray]  # (Q, T) effect estimates, nan = failed
    ci_low: dict[str, np.ndarray]
    ci_high: dict[str, np.ndarray]


def _make_dataset(cfg: SimulationConfig, seed: int):
    if cfg.dgp == "synthetic":
        return gen_synthetic(
            SyntheticConfig(n=cfg.n, xi=cfg.xi, assign_scale=cfg.assign_scale, seed=seed)
        )
    x, t0, t1 = cfg.twins_table
    return gen_twins_like(TwinsLikeConfig(x=x, t0=t0, t1=t1, seed=seed))


def run_single_replication(cfg: SimulationConfig, seed: int, estimator_fns=None):
    """One replication: {estimator: {t: (point, lo, hi) or None}}.

    Estimators with the same nuisance plan (dr and dr-clip) share one fit.
    """
    data = _make_dataset(cfg, seed)
    fold_seed = splitmix64(seed)
    times = list(cfg.times)
    fits = {}
    out: dict[str, dict[int, tuple[float, float, float] | None]] = {}
    for kind in cfg.estimators:
        cells: dict[int, tuple[float, float, float] | None] = {t: None for t in cfg.times}
        try:
            if estimator_fns is not None and kind in estimator_fns:
                results, _ = estimator_fns[kind](data, times, cfg.params, fold_seed)
            else:
                plan = nuisance_plan(kind)
                if plan not in fits:
                    fits[plan] = fit_nuisances(data, kind, times, cfg.params, seed=fold_seed)
                results, _ = run_estimator(
                    data, kind, times, cfg.params, seed=fold_seed, nuisances=fits[plan]
                )
        except (NumericalError, EstimationError):
            out[kind] = cells
            continue
        for t in cfg.times:
            res = results.get(("diff", t))
            if res is not None:
                cells[t] = (res.point, res.ci_low, res.ci_high)
        out[kind] = cells
    return out


def run_replications(cfg: SimulationConfig, estimator_fns=None) -> ReplicationResult:
    """Run all Q replications in order of q."""
    if cfg.dgp == "twins-like" and cfg.twins_table is None:
        cfg = replace(cfg, twins_table=surrogate_twins_table(cfg.n, seed=cfg.master_seed))
    seeds = [derive_seed(cfg.master_seed, q) for q in range(cfg.q)]
    shape = (cfg.q, len(cfg.times))
    estimates = {k: np.full(shape, np.nan) for k in cfg.estimators}
    ci_low = {k: np.full(shape, np.nan) for k in cfg.estimators}
    ci_high = {k: np.full(shape, np.nan) for k in cfg.estimators}
    for q, seed in enumerate(seeds):
        cells = run_single_replication(cfg, seed, estimator_fns)
        for kind in cfg.estimators:
            for ti, t in enumerate(cfg.times):
                rec = cells[kind][t]
                if rec is not None:
                    estimates[kind][q, ti] = rec[0]
                    ci_low[kind][q, ti] = rec[1]
                    ci_high[kind][q, ti] = rec[2]
    for kind in cfg.estimators:
        if np.isnan(estimates[kind]).all():
            raise HarnessError(f"every replication failed for estimator {kind!r}")
    return ReplicationResult(
        config=cfg, seeds=seeds, estimates=estimates, ci_low=ci_low, ci_high=ci_high
    )


@dataclass
class MetricsRow:
    estimator: str
    t: int
    n: int
    q: int
    rmse: float
    relative_rmse: float | None
    mae: float
    mse: float
    bias: float
    std_err: float
    bias_over_stde: float
    coverage: float
    n_failed: int
    xi: float | None = None
    risb: float | None = None
    rise: float | None = None


def metrics(
    estimates: np.ndarray,
    truth: float,
    ci_records: tuple[np.ndarray, np.ndarray] | None = None,
    rmse_baseline: float | None = None,
    estimator: str = "",
    t: int = 0,
    n: int = 0,
) -> MetricsRow:
    """Replication metrics for one (estimator, time) cell.

    Failed replications (nan entries) are excluded and counted. Definitions
    match the standard Monte Carlo displays: rmse over deviations from
    truth, bias the mean deviation, std_err the (population) spread of the
    estimates, so rmse^2 = bias^2 + std_err^2 exactly.
    """
    estimates = np.asarray(estimates, dtype=float)
    q_total = estimates.size
    valid = np.isfinite(estimates)
    vals = estimates[valid]
    if vals.size < 2:
        raise HarnessError("need at least 2 successful replications for metrics")
    dev = vals - truth
    rmse = float(np.sqrt(np.mean(dev**2)))
    bias = float(np.mean(dev))
    std_err = float(np.sqrt(np.mean((vals - vals.mean()) ** 2)))
    mae = float(np.mean(np.abs(dev)))
    if std_err > 0.0:
        ratio = bias / std_err
    else:
        ratio = 0.0 if bias == 0.0 else math.inf
    coverage = float("nan")
    if ci_records is not None:
        lo, hi = ci_records
        lo = np.asarray(lo, dtype=float)[valid]
        hi = np.asarray(hi, dtype=float)[valid]
        coverage = float(np.mean((lo <= truth) & (truth <= hi)))
    rel = None if rmse_baseline is None else rmse / rmse_baseline
    return MetricsRow(
        estimator=estimator,
        t=t,
        n=n,
        q=q_total,
        rmse=rmse,
        relative_rmse=rel,
        mae=mae,
        mse=rmse**2,
        bias=bias,
        std_err=std_err,
        bias_over_stde=ratio,
        coverage=coverage,
        n_failed=int(q_total - vals.size),
    )


def summarize(result: ReplicationResult, truth: GroundTruth) -> list[MetricsRow]:
    """Metrics rows per (estimator, time), with OR as the RMSE baseline."""
    cfg = result.config
    or_rmse: dict[int, float] = {}
    if "or" in cfg.estimators:
        for ti, t in enumerate(cfg.times):
            est = result.estimates["or"][:, ti]
            vals = est[np.isfinite(est)]
            if vals.size >= 2:
                or_rmse[t] = float(np.sqrt(np.mean((vals - truth.delta[t]) ** 2)))
    rows = []
    for kind in cfg.estimators:
        for ti, t in enumerate(cfg.times):
            rows.append(
                metrics(
                    result.estimates[kind][:, ti],
                    truth.delta[t],
                    ci_records=(result.ci_low[kind][:, ti], result.ci_high[kind][:, ti]),
                    rmse_baseline=or_rmse.get(t),
                    estimator=kind,
                    t=t,
                    n=cfg.n,
                )
            )
    return rows


def risb_rise(estimates: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Root integrated squared bias and error over the evaluated time grid.

    risb averages the squared bias of the replication-mean estimate over
    times; rise averages squared errors over replications and times. Nan
    cells are excluded.
    """
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.ndim != 2 or estimates.shape[1] != truth.size:
        raise ValueError("estimates must be (Q, T) with T matching the truth vector")
    mean_est = np.nanmean(estimates, axis=0)
    risb = float(np.sqrt(np.mean((mean_est - truth) ** 2)))
    sq = (estimates - truth[None, :]) ** 2
    rise = float(np.sqrt(np.nanmean(sq)))
    return risb, rise


def nominal_coverage(bias_ratio: float) -> float:
    """Coverage of a nominal 95% interval when bias is b standard errors."""
    b = abs(bias_ratio)

    def phi(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    return phi(Z_975 - b) - phi(-Z_975 - b)


_BASE_COLUMNS = [
    "estimator", "t", "n", "Q", "rmse", "relative_rmse", "mae", "mse",
    "bias", "std_err", "bias_over_stde", "coverage", "n_failed",
]
_SWEEP_COLUMNS = _BASE_COLUMNS + ["xi", "risb", "rise"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), FLOAT_FMT)
    return str(value)


def metrics_csv_bytes(rows: list[MetricsRow], sweep: bool = False) -> bytes:
    """Serialize metrics rows to the canonical CSV schema."""
    cols = _SWEEP_COLUMNS if sweep else _BASE_COLUMNS
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for row in rows:
        cells = [
            row.estimator, row.t, row.n, row.q, row.rmse, row.relative_rmse,
            row.mae, row.mse, row.bias, row.std_err, row.bias_over_stde,
            row.coverage, row.n_failed,
        ]
        if sweep:
            cells += [row.xi, row.risb, row.rise]
        buf.write(",".join(_fmt(c) for c in cells) + "\n")
    return buf.getvalue().encode("utf-8")


def run_xi_sweep(
    cfg: SimulationConfig, xis: list[float], truth: GroundTruth, estimator_fns=None
) -> list[MetricsRow]:
    """Re-run the synthetic study at each overlap level xi.

    The ground truth is shared (assignment does not move the potential
    outcomes); each xi gets a decorrelated master seed. Every row carries
    the per-(estimator, xi) RISB/RISE summaries over the time grid.
    """
    if cfg.dgp != "synthetic":
        raise ValueError("the overlap sweep is defined for the synthetic preset")
    rows: list[MetricsRow] = []
    for j, xi in enumerate(xis):
        sub = replace(cfg, xi=xi, master_seed=derive_seed(cfg.master_seed, 1_000_003 + j))
        result = run_replications(sub, estimator_fns=estimator_fns)
        truth_vec = np.array([truth.delta[t] for t in sub.times])
        for row in summarize(result, truth):
            risb, rise = risb_rise(result.estimates[row.estimator], truth_vec)
            row.xi = xi
            row.risb = risb
            row.rise = rise
            rows.append(row)
    return rows
