"""Discrete-time survival primitives.

Time lives on the integer grid {0, 1, ..., t_max}. Event and censoring
times are at least 1, so every hazard curve is pinned to 0 at index 0 and
survival curves start at 1. Curves are plain float arrays of length
t_max + 1; the transforms below validate their invariants.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "Dataset",
    "survival_from_hazard",
    "hazard_from_survival",
    "at_risk_matrix",
    "event_matrix",
    "active_matrix",
    "standardization",
    "write_dataset_csv",
    "read_dataset_csv",
    "dataset_csv_bytes",
]

FLOAT_FMT = ".17g"


@dataclass(frozen=True)
class TimeGrid:
    """The study horizon: times run over {0, 1, ..., t_max} in days."""

    t_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.t_max, (int, np.integer)) or self.t_max < 1:
            raise ValueError(f"t_max must be a positive integer, got {self.t_max!r}")

    @property
    def n_points(self) -> int:
        return self.t_max + 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_points)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Column-array view of n observed units sharing a covariate dimension."""

    x: np.ndarray  # (n, d) float
    a: np.ndarray  # (n,) int in {0, 1}
    time: np.ndarray  # (n,) int in {1, ..., t_max}
    event: np.ndarray  # (n,) int in {0, 1}
    grid: TimeGrid

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.asarray(self.a, dtype=np.int64)
        time = np.asarray(self.time, dtype=np.int64)
        event = np.asarray(self.event, dtype=np.int64)
        n = x.shape[0]
        if n == 0:
            raise ValueError("dataset must contain at least one unit")
        for name, col in (("a", a), ("time", time), ("event", event)):
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
        if not np.isfinite(x).all():
            raise ValueError("covariates must be finite")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("treatment column must be 0/1")
        if not np.isin(event, (0, 1)).all():
            raise ValueError("event column must be 0/1")
        if (time < 1).any():
            raise ValueError("observed times must be >= 1")
        if (time > self.grid.t_max).any():
            raise ValueError(f"observed times must be <= t_max={self.grid.t_max}")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "time", _readonly(time))
        object.__setattr__(self, "event", _readonly(event))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.a[idx], self.time[idx], self.event[idx], self.grid)


def standardization(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations of x; a constant column gets scale 1."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return mean, scale


def _check_curve(values: np.ndarray, grid: TimeGrid | None, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {values.shape}")
    if grid is not None and values.size != grid.n_points:
        raise ValueError(
            f"{name} length {values.size} does not match grid length {grid.n_points}"
        )
    if ((values < 0.0) | (values > 1.0)).any():
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return values


def survival_from_hazard(hazard: np.ndarray, grid: TimeGrid | None = None) -> np.ndarray:
    """Map a hazard curve to its survival curve S_u = prod_{v<=u} (1 - h_v)."""
    h = _check_curve(hazard, grid, "hazard curve")
    if h[0] != 0.0:
        raise ValueError("hazard at time 0 must be 0 (zero times are ruled out)")
    return np.cumprod(1.0 - h)


def hazard_from_survival(survival: np.ndarray, grid: TimeGrid | None = None) -> np.ndarray:
    """Invert a survival curve to hazards h_u = 1 - S_u / S_{u-1}.

    Once survival hits exactly 0 the hazard is set to 0 by convention (the
    ratio is 0/0); a warning flags that the inversion is no longer unique.
    Raises if survival rises after reaching 0, which no hazard can produce.
    """
    s = _check_curve(survival, grid, "survival curve")
    if np.any(np.diff(s) > 0.0):
        raise ValueError("survival curve must be non-increasing")
    h = np.zeros_like(s)
    prev = s[:-1]
    cur = s[1:]
    dead = prev == 0.0
    if np.any(dead & (cur > 0.0)):
        raise ValueError("survival rises above an exact zero; no hazard produces this")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dead, 0.0, 1.0 - cur / np.where(dead, 1.0, prev))
    h[1:] = ratio
    if dead.any():
        warnings.warn(
            "survival reached exactly 0; hazards after absorption set to 0 by convention",
            UserWarning,
            stacklevel=2,
        )
    return h


def _grid_times(data: Dataset, t: int) -> np.ndarray:
    if t < 0 or t > data.grid.t_max:
        raise ValueError(f"time {t} outside grid [0, {data.grid.t_max}]")
    return np.arange(t + 1)


def at_risk_matrix(data: Dataset, t: int) -> np.ndarray:
    """(n, t+1) boolean matrix with [i, u] = 1(time_i >= u)."""
    u = _grid_times(data, t)
    return data.time[:, None] >= u[None, :]


def event_matrix(data: Dataset, t: int) -> np.ndarray:
    """(n, t+1) float matrix with [i, u] = 1(event_i = 1, time_i = u)."""
    u = _grid_times(data, t)
    return ((data.event[:, None] == 1) & (data.time[:, None] == u[None, :])).astype(float)


def active_matrix(data: Dataset, a: int, t: int) -> np.ndarray:
    """(n, t+1) boolean matrix with [i, u] = 1(a_i = a, time_i >= u)."""
    return (data.a == a)[:, None] & at_risk_matrix(data, t)


def _header(d: int) -> list[str]:
    return [f"x{j}" for j in range(d)] + ["a", "time", "event"]


def dataset_csv_bytes(data: Dataset) -> bytes:
    """Serialize a dataset to the canonical CSV schema, 17 significant digits."""
    buf = io.StringIO()
    buf.write(",".join(_header(data.d)) + "\n")
    for i in range(data.n):
        cells = [format(v, FLOAT_FMT) for v in data.x[i]]
        cells += [str(int(data.a[i])), str(int(data.time[i])), str(int(data.event[i]))]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue().encode("utf-8")


def write_dataset_csv(data: Dataset, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(dataset_csv_bytes(data))


def read_dataset_csv(path: str, t_max: int = 30) -> Dataset:
    """Read the `x0,...,x{d-1},a,time,event` schema back into a Dataset."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    if len(header) < 4 or header[-3:] != ["a", "time", "event"]:
        raise ValueError(f"{path}: expected trailing columns a,time,event, got {header[-3:]}")
    d = len(header) - 3
    if header[:d] != [f"x{j}" for j in range(d)]:
        raise ValueError(f"{path}: covariate columns must be x0..x{d - 1}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array([[float(v) for v in row[:d]] for row in rows])
    a = np.array([int(row[d]) for row in rows])
    time = np.array([int(row[d + 1]) for row in rows])
    event = np.array([int(row[d + 2]) for row in rows])
    t_max = max(t_max, int(time.max()))
    return Dataset(x=x, a=a, time=time, event=event, grid=TimeGrid(t_max))
