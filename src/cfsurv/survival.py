"""Discrete-time survival primitives and the one CSV reader and writer.

Time lives on the integer grid {0, 1, ..., t_max}. Event and censoring
times are at least 1, so every hazard curve is pinned to 0 at index 0 and
survival curves start at 1. Curves are plain float arrays of length
t_max + 1.

Every table cfsurv reads or writes (datasets, twins-like potential-time
tables, estimates, metrics, truth) goes through `read_csv` and
`csv_bytes`: the reader owns the empty-file, blank-line, row-width and
no-rows checks, and the writer owns the cell format. The dataset and
twins-table readers parse cells through `_number_columns`, whose integer
columns go through `Dataset`'s whole-number check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "Dataset",
    "at_risk_matrix",
    "event_matrix",
    "active_matrix",
    "standardization",
    "write_dataset_csv",
    "read_dataset_csv",
    "dataset_csv_bytes",
    "csv_bytes",
    "read_csv",
]

FLOAT_FMT = ".17g"


def _cell(value) -> str:
    # float first: numpy's float64 is a float, and most cells are floats
    if isinstance(value, float):
        return format(value, FLOAT_FMT)
    return "" if value is None else str(value)


def csv_bytes(header: list[str], rows) -> bytes:
    """header and rows as CSV: floats to 17 significant digits, None as an empty cell."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and data rows of the CSV at path, skipping blank lines.

    An empty file, a row whose cell count differs from the header's, or a
    file with no data rows raises ValueError naming path.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, expected {len(header)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _whole(name: str, values) -> np.ndarray:
    """values as int64; a value that is not a whole number raises ValueError."""
    col = np.asarray(values)
    if col.dtype.kind not in "biu":
        col = col.astype(float)
        if not (np.isfinite(col) & (col == np.floor(col))).all():
            raise ValueError(f"column {name} must hold whole numbers")
    return col.astype(np.int64)


def _number_columns(path: str, header: list[str], rows: list[list[str]], whole: int):
    """The columns of rows as arrays: floats, and the last `whole` of them through `_whole`.

    A cell that is not a number, or not a whole number in the last
    `whole` columns, raises ValueError naming path and the column.
    """
    cols = []
    for j, name in enumerate(header):
        try:
            col = np.array([float(row[j]) for row in rows])
        except ValueError as err:  # float's message quotes the cell
            raise ValueError(f"{path}: column {name}: {err}") from None
        try:
            cols.append(_whole(name, col) if j >= len(header) - whole else col)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    return cols


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
        a, time, event = (_whole(name, getattr(self, name)) for name in ("a", "time", "event"))
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
        """The units idx (an index array or mask), not checked again."""
        out = object.__new__(Dataset)
        for name in ("x", "a", "time", "event"):
            col = getattr(self, name)[idx]
            col.setflags(write=False)
            object.__setattr__(out, name, col)
        object.__setattr__(out, "grid", self.grid)
        if out.n == 0:
            raise ValueError("dataset must contain at least one unit")
        return out


def standardization(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations of x; a constant column gets scale 1."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    # the mean's rounding error bound: a column of equal values computes a std within it
    roundoff = len(x) * np.finfo(float).eps * np.abs(x).max(axis=0, initial=0.0)
    return mean, np.where(scale > roundoff, scale, 1.0)


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
    cols = zip(data.x.tolist(), data.a.tolist(), data.time.tolist(), data.event.tolist())
    return csv_bytes(_header(data.d), ([*x, a, t, e] for x, a, t, e in cols))


def write_dataset_csv(data: Dataset, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(dataset_csv_bytes(data))


def read_dataset_csv(path: str, t_max: int = 30) -> Dataset:
    """Read the `x0,...,x{d-1},a,time,event` schema back into a Dataset."""
    header, rows = read_csv(path)
    if len(header) < 4 or header[-3:] != ["a", "time", "event"]:
        raise ValueError(f"{path}: expected trailing columns a,time,event, got {header[-3:]}")
    d = len(header) - 3
    if header[:d] != [f"x{j}" for j in range(d)]:
        raise ValueError(f"{path}: covariate columns must be x0..x{d - 1}")
    cols = _number_columns(path, header, rows, whole=3)
    x, (a, time, event) = np.column_stack(cols[:d]), cols[d:]
    t_max = max(t_max, int(time.max()))
    return Dataset(x=x, a=a, time=time, event=event, grid=TimeGrid(t_max))
