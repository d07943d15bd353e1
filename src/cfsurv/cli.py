"""Command-line front end.

Subcommands: datagen, estimate, simulate, truth, plot. Every run is a
pure function of its flags and seeds, so outputs are byte-identical
across repeated invocations. Exit codes: 0 success, 2 usage or config
error, 1 runtime failure.

Each subcommand accepts `--config PATH` pointing at a flat `key = value`
file (# comments allowed); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

from . import dgp as dgp_mod
from .errors import EstimationError, HarnessError, NumericalError
from .estimators import ESTIMATOR_KINDS, EstimatorParams, run_estimator
from .plotting import metric_lines_svg
from .sim import SimulationConfig, metrics_csv_bytes, run_replications, run_xi_sweep, summarize
from .survival import csv_bytes, dataset_csv_bytes, read_csv, read_dataset_csv

__all__ = ["main"]

PLOT_METRICS = ("bias_over_stde", "relative_rmse", "coverage")

#: the columns of an `estimate` record, in CSV and JSON Lines alike
_RECORD_COLUMNS = ["estimator", "a", "t", "point", "std_error", "ci_low", "ci_high", "n"]


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from err


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise UsageError(f"expected a comma-separated float list, got {text!r}") from err


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


@dataclass(frozen=True)
class Opt:
    flag: str
    type: Callable[[str], Any]
    default: Any = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_DATAGEN_OPTS = [
    Opt("--dgp", str, required=True, choices=("synthetic", "twins-like")),
    Opt("--n", int, required=True, help="sample size"),
    Opt("--xi", float, 0.3, help="overlap parameter (synthetic)"),
    Opt("--assign-scale", float, 1.0, help="Bernoulli multiplier (synthetic)"),
    Opt("--seed", int, 0),
    Opt("--out", str, required=True),
    Opt("--twins-csv", str, help="covariate/potential-time table for twins-like"),
]

_ESTIMATE_OPTS = [
    Opt("--data", str, required=True),
    Opt("--estimator", str, required=True, choices=ESTIMATOR_KINDS),
    Opt("--t", _int_list, required=True, help="evaluation time(s), comma separated"),
    Opt("--arm", str, "diff", choices=("0", "1", "diff")),
    Opt("--sigma2", float),
    Opt("--length-scale", float),
    Opt("--ridge", float),
    Opt("--seed", int, 0),
    Opt("--format", str, "csv", choices=("csv", "jsonl")),
    Opt("--out", str, help="output path (default: stdout)"),
]

_SIMULATE_OPTS = [
    Opt("--dgp", str, "synthetic", choices=("synthetic", "twins-like")),
    Opt("--q", int, 50, help="replication count"),
    Opt("--n", int, 200),
    Opt("--estimators", _str_list, ["or", "dr", "balance"]),
    Opt("--times", _int_list, [5, 10, 15, 20, 25]),
    Opt("--xi", float, 0.3, help="overlap parameter (synthetic; ignored by twins-like)"),
    Opt("--assign-scale", float, 1.0,
        help="Bernoulli multiplier (synthetic; ignored by twins-like)"),
    Opt("--xi-sweep", _float_list,
        help="overlap sweep values; adds RISB/RISE columns (synthetic only)"),
    Opt("--master-seed", int, 0),
    Opt("--sigma2", float),
    Opt("--length-scale", float),
    Opt("--ridge", float),
    Opt("--mc", int, help="ignored: both ground truths are exact (accepted so older "
        "command lines still run)"),
    Opt("--twins-csv", str),
    Opt("--out", str, required=True),
    Opt("--raw", str,
        help="also write per-replication estimates to this path (not with --xi-sweep)"),
]

_TRUTH_OPTS = [
    Opt("--dgp", str, "synthetic", choices=("synthetic",)),
    Opt("--out", str, help="output path (default: stdout)"),
]

_PLOT_OPTS = [
    Opt("--metrics", str, required=True),
    Opt("--y", str, required=True, choices=PLOT_METRICS),
    Opt("--out", str, required=True),
]

_SUBCOMMANDS = {
    "datagen": _DATAGEN_OPTS,
    "estimate": _ESTIMATE_OPTS,
    "simulate": _SIMULATE_OPTS,
    "truth": _TRUTH_OPTS,
    "plot": _PLOT_OPTS,
}


def _read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_options(opts: list[Opt], args: argparse.Namespace) -> dict[str, Any]:
    by_dest = {o.dest: o for o in opts}
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = _read_config_file(args.config)
        unknown = sorted(set(file_values) - set(by_dest))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    merged: dict[str, Any] = {}
    for dest, opt in by_dest.items():
        cli_value = getattr(args, dest)
        if cli_value is not None:
            merged[dest] = cli_value
        elif dest in file_values:
            try:
                merged[dest] = opt.type(file_values[dest])
            except (TypeError, ValueError) as err:
                raise UsageError(f"config key {dest}: {err}") from err
        else:
            merged[dest] = opt.default
        if merged[dest] is None and opt.required:
            raise UsageError(f"missing required option {opt.flag}")
        if opt.choices is not None and merged[dest] is not None and merged[dest] not in opt.choices:
            raise UsageError(f"{opt.flag} must be one of {opt.choices}, got {merged[dest]!r}")
    return merged


def _check_in_path(path: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    return path


def _check_out_path(path: str) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"output directory does not exist: {parent}")
    return path


def _emit(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def _load_twins_table(path: str | None, n: int, seed: int):
    """The first n rows of the table at path, or a seeded n-row surrogate."""
    if path is None:
        return dgp_mod.surrogate_twins_table(n, seed=seed)
    x, t0, t1 = dgp_mod.load_twins_table(_check_in_path(path))
    if n > len(t0):
        raise UsageError(f"--n {n} exceeds the {len(t0)} table rows")
    return x[:n], t0[:n], t1[:n]


def cmd_datagen(opt: dict[str, Any]) -> int:
    _check_out_path(opt["out"])
    if opt["dgp"] == "synthetic":
        cfg = dgp_mod.SyntheticConfig(
            n=opt["n"], xi=opt["xi"], assign_scale=opt["assign_scale"], seed=opt["seed"]
        )
        data = dgp_mod.gen_synthetic(cfg)
    else:
        x, t0, t1 = _load_twins_table(opt["twins_csv"], opt["n"], opt["seed"])
        data = dgp_mod.gen_twins_like(
            dgp_mod.TwinsLikeConfig(x=x, t0=t0, t1=t1, seed=opt["seed"])
        )
    _emit(dataset_csv_bytes(data), opt["out"])
    n_event = int(data.event.sum())
    print(
        f"wrote {opt['out']}: n={data.n} events={n_event} ({n_event / data.n:.3f}) "
        f"censored={data.n - n_event} ({(data.n - n_event) / data.n:.3f})"
    )
    return 0


def _estimator_params(opt: dict[str, Any]) -> EstimatorParams:
    """The given settings; EstimatorParams supplies the others' defaults."""
    names = ("length_scale", "ridge", "sigma2")
    return EstimatorParams(**{name: opt[name] for name in names if opt[name] is not None})


def _estimate_records(opt: dict[str, Any]):
    params = _estimator_params(opt)
    data = read_dataset_csv(_check_in_path(opt["data"]))
    times = opt["t"]
    arm: int | str = opt["arm"] if opt["arm"] == "diff" else int(opt["arm"])
    try:
        results, failures = run_estimator(
            data, opt["estimator"], times, params, seed=opt["seed"]
        )
    except EstimationError as err:
        raise UsageError(str(err)) from err
    records = []
    for t in times:
        res = results.get((arm, t))
        if res is None:
            print(
                f"warning: {opt['estimator']} failed at t={t}: "
                f"{failures.get((arm, t), 'unavailable')}",
                file=sys.stderr,
            )
            records.append((opt["estimator"], arm, t, math.nan, math.nan, math.nan, math.nan, data.n))
        else:
            records.append(
                (res.kind, arm, t, res.point, res.std_error, res.ci_low, res.ci_high, res.n)
            )
    return records


def _records_jsonl(records) -> bytes:
    lines = [json.dumps(dict(zip(_RECORD_COLUMNS, rec))) + "\n" for rec in records]
    return "".join(lines).encode("utf-8")


def cmd_estimate(opt: dict[str, Any]) -> int:
    if opt["out"] is not None:
        _check_out_path(opt["out"])
    records = _estimate_records(opt)
    if opt["format"] == "csv":
        payload = csv_bytes(_RECORD_COLUMNS, records)
    else:
        payload = _records_jsonl(records)
    _emit(payload, opt["out"])
    return 0


def cmd_simulate(opt: dict[str, Any]) -> int:
    if opt["xi_sweep"] and opt["raw"] is not None:
        raise UsageError("--raw cannot be combined with --xi-sweep")
    _check_out_path(opt["out"])
    if opt["raw"] is not None:
        _check_out_path(opt["raw"])
    params = _estimator_params(opt)
    twins_table = None
    if opt["dgp"] == "twins-like":
        twins_table = _load_twins_table(opt["twins_csv"], opt["n"], opt["master_seed"])
    cfg = SimulationConfig(
        q=opt["q"],
        n=opt["n"],
        dgp=opt["dgp"],
        xi=opt["xi"],
        assign_scale=opt["assign_scale"],
        estimators=tuple(opt["estimators"]),
        times=tuple(opt["times"]),
        master_seed=opt["master_seed"],
        params=params,
        twins_table=twins_table,
    )
    if opt["dgp"] == "synthetic":
        truth = dgp_mod.ground_truth()
    else:
        x, t0, t1 = twins_table
        truth = dgp_mod.twins_ground_truth(dgp_mod.TwinsLikeConfig(x=x, t0=t0, t1=t1))
    if opt["xi_sweep"]:
        rows = run_xi_sweep(cfg, opt["xi_sweep"], truth)
        _emit(metrics_csv_bytes(rows, sweep=True), opt["out"])
        return 0
    result = run_replications(cfg)
    rows = summarize(result, truth)
    _emit(metrics_csv_bytes(rows), opt["out"])
    if opt["raw"] is not None:
        raw = [
            [kind, t, q, result.estimates[kind][q, ti], result.ci_low[kind][q, ti],
             result.ci_high[kind][q, ti]]
            for kind in cfg.estimators
            for ti, t in enumerate(cfg.times)
            for q in range(cfg.q)
        ]
        header = ["estimator", "t", "q", "estimate", "ci_low", "ci_high"]
        _emit(csv_bytes(header, raw), opt["raw"])
    return 0


def cmd_truth(opt: dict[str, Any]) -> int:
    if opt["out"] is not None:
        _check_out_path(opt["out"])
    truth = dgp_mod.ground_truth()
    rows = zip(range(truth.delta.size), *truth.psi.tolist(), truth.delta.tolist())
    _emit(csv_bytes(["t", "psi0", "psi1", "delta"], rows), opt["out"])
    return 0


def cmd_plot(opt: dict[str, Any]) -> int:
    _check_in_path(opt["metrics"])
    _check_out_path(opt["out"])
    header, rows = read_csv(opt["metrics"])
    missing = sorted({"estimator", "t", opt["y"]} - set(header))
    if missing:
        raise UsageError(f"{opt['metrics']}: missing columns {missing}")
    kind, t, y = (header.index(name) for name in ("estimator", "t", opt["y"]))
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        value = float(row[y]) if row[y].strip() else math.nan
        if math.isfinite(value):  # skips empty, nan and inf cells
            series.setdefault(row[kind], []).append((float(row[t]), value))
    if not series:
        raise UsageError(f"{opt['metrics']}: no finite values in column {opt['y']}")
    _emit(metric_lines_svg(series, opt["y"]), opt["out"])
    return 0


_HANDLERS = {
    "datagen": cmd_datagen,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "truth": cmd_truth,
    "plot": cmd_plot,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsurv",
        description="Counterfactual survival estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="key = value config file")
        for o in opts:
            kwargs: dict[str, Any] = {"type": o.type, "default": None, "help": o.help}
            if o.choices is not None and o.type is str:
                kwargs["choices"] = o.choices
            p.add_argument(o.flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        merged = _merge_options(_SUBCOMMANDS[args.command], args)
        return _HANDLERS[args.command](merged)
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NumericalError, EstimationError, HarnessError, OSError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
