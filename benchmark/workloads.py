"""The benchmark's workloads: their inputs, the cfsurv command one pass
runs, and the checks on that command's outputs.

Every pass calls `cfsurv.cli.main` in-process with the argument list a
user would type. Study passes run `simulate` (ground truth, all
replications, summary and metrics CSV); estimate passes run `estimate`
on one CSV. cfsurv is imported lazily so that the set-up child can time
the import.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

TIMES = "5,10,15,20,25"

#: seed of the fixed pass whose outputs are compared with the stored reference
REFERENCE_SEED = 2310

#: "within solver tolerance": the hazard Newton fits stop at gradient norm 1e-6
TOL_ABS = 1e-6
TOL_REL = 1e-6


@dataclass(frozen=True)
class Scale:
    """Problem sizes; `full` is the benchmark, `smoke` the harness self-test."""

    fig1_q: int
    fig1_n: int
    mc: int
    twins_q: int
    twins_n: int
    estimate_n: int
    reference_q: int
    setups: int


SCALES = {
    "full": Scale(
        fig1_q=4, fig1_n=200, mc=200_000, twins_q=8, twins_n=400,
        estimate_n=1600, reference_q=2, setups=7,
    ),
    "smoke": Scale(
        fig1_q=2, fig1_n=80, mc=10_000, twins_q=2, twins_n=80,
        estimate_n=120, reference_q=2, setups=2,
    ),
}


@dataclass
class Checks:
    """Output checks: each cell or property checked counts as one attempt."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _rows(payload: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))


def _check_intervals(rows, point_col: str, checks: Checks, what: str) -> None:
    """Each estimate is finite and lies inside its confidence interval."""
    for row in rows:
        point, lo, hi = (float(row[c]) for c in (point_col, "ci_low", "ci_high"))
        finite = all(math.isfinite(v) for v in (point, lo, hi))
        checks.require(
            finite and lo <= point <= hi,
            f"{what}: estimate {point!r} outside [{lo!r}, {hi!r}] in row {row}",
        )


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= TOL_ABS + TOL_REL * abs(y)


def compare_csv(got: bytes, ref: bytes, numeric: tuple[str, ...], checks: Checks, what: str) -> None:
    """Same rows and labels; numeric columns within solver tolerance."""
    got_rows, ref_rows = _rows(got), _rows(ref)
    checks.require(len(got_rows) == len(ref_rows), f"{what}: row count differs from reference")
    for g, r in zip(got_rows, ref_rows):
        labels_match = all(g[k] == r[k] for k in r if k not in numeric)
        checks.require(
            labels_match and all(_close(g[k], r[k]) for k in numeric),
            f"{what}: row {g} differs from reference {r}",
        )


class Study:
    """`cfsurv simulate` on a synthetic preset: truth, Q replications, metrics."""

    job = "study_s"
    outputs = ("out", "raw")
    reference_numeric = ("estimate", "ci_low", "ci_high")

    def __init__(self, name: str, dgp: str, estimators: str, size: str) -> None:
        self.name = name
        self.dgp = dgp
        self.estimators = estimators
        self.size = size  # "fig1" or "twins": which Scale fields apply

    def make_inputs(self, seed: int, scale: Scale, directory: Path) -> dict[str, str]:
        """A study draws its own datasets from the master seed: no input files."""
        return {}

    def q(self, scale: Scale) -> int:
        return getattr(scale, f"{self.size}_q")

    def pass_seed(self, seed: int, i: int) -> int:
        """Every pass of a run studies fresh replications."""
        return seed * 1000 + i

    def argv(self, scale: Scale, inputs, pass_seed: int, q: int, directory: Path) -> list[str]:
        return [
            "simulate", "--dgp", self.dgp,
            "--q", str(q), "--n", str(getattr(scale, f"{self.size}_n")),
            "--xi", "0.3", "--estimators", self.estimators, "--times", TIMES,
            "--mc", str(scale.mc), "--master-seed", str(pass_seed),
            "--out", str(directory / "out.csv"), "--raw", str(directory / "raw.csv"),
        ]

    def check(self, outputs: dict[str, bytes], q: int, checks: Checks) -> None:
        n_cells = q * len(self.estimators.split(",")) * len(TIMES.split(","))
        raw = _rows(outputs["raw"])
        checks.require(len(raw) == n_cells, f"{self.name}: {len(raw)} raw rows, expected {n_cells}")
        _check_intervals(raw, "estimate", checks, self.name)
        for row in _rows(outputs["out"]):
            checks.require(
                row["n_failed"] == "0" and math.isfinite(float(row["rmse"])),
                f"{self.name}: metrics row {row['estimator']} t={row['t']} has failures",
            )


class Estimate:
    """`cfsurv estimate` with the balance estimator on one synthetic CSV."""

    job = "estimate_s"
    outputs = ("out",)
    reference_numeric = ("point", "std_error", "ci_low", "ci_high")

    def __init__(self, name: str) -> None:
        self.name = name

    def make_inputs(self, seed: int, scale: Scale, directory: Path) -> dict[str, str]:
        from cfsurv.dgp import SyntheticConfig, gen_synthetic
        from cfsurv.survival import write_dataset_csv

        path = directory / "data.csv"
        write_dataset_csv(gen_synthetic(SyntheticConfig(n=scale.estimate_n, xi=0.3, seed=seed)), str(path))
        return {"data": str(path)}

    def q(self, scale: Scale) -> int:
        return 1

    def pass_seed(self, seed: int, i: int) -> int:
        """Every pass repeats the same call, so outputs must repeat byte for byte."""
        return seed

    def argv(self, scale: Scale, inputs, pass_seed: int, q: int, directory: Path) -> list[str]:
        return [
            "estimate", "--data", inputs["data"], "--estimator", "balance",
            "--t", TIMES, "--arm", "diff", "--seed", str(pass_seed),
            "--out", str(directory / "out.csv"),
        ]

    def check(self, outputs: dict[str, bytes], q: int, checks: Checks) -> None:
        rows = _rows(outputs["out"])
        n_times = len(TIMES.split(","))
        checks.require(len(rows) == n_times, f"{self.name}: {len(rows)} rows, expected {n_times}")
        _check_intervals(rows, "point", checks, self.name)


WORKLOADS = {
    w.name: w
    for w in (
        Study("study-fig1", "synthetic", "or,ipw,dr,dr-clip,balance", "fig1"),
        Estimate("estimate-n1600"),
        Study("study-twins", "twins-like", "or,dr,balance", "twins"),
    )
}
