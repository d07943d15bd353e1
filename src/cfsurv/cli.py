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
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from . import dgp as dgp_mod
from . import sim as sim_mod
from .errors import EstimationError, HarnessError, NumericalError
from .estimators import ESTIMATOR_KINDS, EstimatorParams, run_estimator
from .hazard import KernelConfig
from .plotting import metric_lines_svg
from .sim import SimulationConfig, metrics_csv_bytes, run_replications, run_xi_sweep, summarize
from .survival import FLOAT_FMT, dataset_csv_bytes, read_dataset_csv

__all__ = ["main"]

PLOT_METRICS = ("bias_over_stde", "relative_rmse", "coverage")


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
    Opt("--sigma2", float, 1.0),
    Opt("--length-scale", float, 10.0),
    Opt("--ridge", float, 0.5),
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
    Opt("--xi", float, 0.3),
    Opt("--assign-scale", float, 1.0),
    Opt("--xi-sweep", _float_list, help="overlap sweep values; adds RISB/RISE columns"),
    Opt("--master-seed", int, 0),
    Opt("--sigma2", float, 1.0),
    Opt("--length-scale", float, 10.0),
    Opt("--ridge", float, 0.5),
    Opt("--mc", int, 200_000, help="Monte Carlo draws for the ground truth"),
    Opt("--twins-csv", str),
    Opt("--out", str, required=True),
    Opt("--raw", str, help="also write per-replication estimates to this path"),
]

_TRUTH_OPTS = [
    Opt("--dgp", str, "synthetic", choices=("synthetic",)),
    Opt("--mc", int, required=True),
    Opt("--seed", int, 0),
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


def _load_twins_table(opt: dict[str, Any]):
    if opt.get("twins_csv") is not None:
        x, t0, t1 = dgp_mod.load_twins_table(_check_in_path(opt["twins_csv"]))
        n = opt.get("n")
        if n is not None:
            if n > len(t0):
                raise UsageError(f"--n {n} exceeds the {len(t0)} table rows")
            x, t0, t1 = x[:n], t0[:n], t1[:n]
        return x, t0, t1
    return dgp_mod.surrogate_twins_table(opt["n"], seed=opt.get("seed", opt.get("master_seed", 0)))


def cmd_datagen(opt: dict[str, Any]) -> int:
    _check_out_path(opt["out"])
    if opt["dgp"] == "synthetic":
        cfg = dgp_mod.SyntheticConfig(
            n=opt["n"], xi=opt["xi"], assign_scale=opt["assign_scale"], seed=opt["seed"]
        )
        data = dgp_mod.gen_synthetic(cfg)
    else:
        x, t0, t1 = _load_twins_table(opt)
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


def _estimate_records(opt: dict[str, Any]):
    data = read_dataset_csv(_check_in_path(opt["data"]))
    times = opt["t"]
    params = EstimatorParams(
        kernel=KernelConfig(length_scale=opt["length_scale"]),
        ridge=opt["ridge"],
        sigma2=opt["sigma2"],
    )
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


def _records_csv(records) -> bytes:
    buf = io.StringIO()
    buf.write("estimator,a,t,point,std_error,ci_low,ci_high,n\n")
    for kind, arm, t, point, se, lo, hi, n in records:
        buf.write(
            f"{kind},{arm},{t},{format(point, FLOAT_FMT)},{format(se, FLOAT_FMT)},"
            f"{format(lo, FLOAT_FMT)},{format(hi, FLOAT_FMT)},{n}\n"
        )
    return buf.getvalue().encode("utf-8")


def _records_jsonl(records) -> bytes:
    buf = io.StringIO()
    for kind, arm, t, point, se, lo, hi, n in records:
        buf.write(
            json.dumps(
                {
                    "estimator": kind, "a": arm, "t": t, "point": point,
                    "std_error": se, "ci_low": lo, "ci_high": hi, "n": n,
                },
                sort_keys=False,
            )
            + "\n"
        )
    return buf.getvalue().encode("utf-8")


def cmd_estimate(opt: dict[str, Any]) -> int:
    if opt["out"] is not None:
        _check_out_path(opt["out"])
    records = _estimate_records(opt)
    payload = _records_csv(records) if opt["format"] == "csv" else _records_jsonl(records)
    _emit(payload, opt["out"])
    return 0


def cmd_simulate(opt: dict[str, Any]) -> int:
    _check_out_path(opt["out"])
    if opt["raw"] is not None:
        _check_out_path(opt["raw"])
    params = EstimatorParams(
        kernel=KernelConfig(length_scale=opt["length_scale"]),
        ridge=opt["ridge"],
        sigma2=opt["sigma2"],
    )
    twins_table = None
    if opt["dgp"] == "twins-like":
        opt_for_table = dict(opt)
        opt_for_table.setdefault("seed", opt["master_seed"])
        twins_table = _load_twins_table(opt_for_table)
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
        truth = dgp_mod.ground_truth(
            dgp_mod.SyntheticConfig(n=max(2, opt["n"]), xi=opt["xi"], seed=0),
            mc_n=opt["mc"],
            seed=sim_mod.derive_seed(opt["master_seed"], 999_331),
        )
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
        buf = io.StringIO()
        buf.write("estimator,t,q,estimate,ci_low,ci_high\n")
        for kind in cfg.estimators:
            for ti, t in enumerate(cfg.times):
                for q in range(cfg.q):
                    est = result.estimates[kind][q, ti]
                    lo = result.ci_low[kind][q, ti]
                    hi = result.ci_high[kind][q, ti]
                    buf.write(
                        f"{kind},{t},{q},{format(est, FLOAT_FMT)},"
                        f"{format(lo, FLOAT_FMT)},{format(hi, FLOAT_FMT)}\n"
                    )
        _emit(buf.getvalue().encode("utf-8"), opt["raw"])
    return 0


def cmd_truth(opt: dict[str, Any]) -> int:
    if opt["out"] is not None:
        _check_out_path(opt["out"])
    truth = dgp_mod.ground_truth(
        dgp_mod.SyntheticConfig(n=2, seed=0), mc_n=opt["mc"], seed=opt["seed"]
    )
    buf = io.StringIO()
    buf.write("t,psi0,psi1,delta,mc_se\n")
    for t in range(truth.delta.size):
        buf.write(
            f"{t},{format(truth.psi[0, t], FLOAT_FMT)},{format(truth.psi[1, t], FLOAT_FMT)},"
            f"{format(truth.delta[t], FLOAT_FMT)},{format(truth.delta_se[t], FLOAT_FMT)}\n"
        )
    _emit(buf.getvalue().encode("utf-8"), opt["out"])
    return 0


def cmd_plot(opt: dict[str, Any]) -> int:
    _check_in_path(opt["metrics"])
    _check_out_path(opt["out"])
    with open(opt["metrics"], newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise UsageError(f"{opt['metrics']}: no metric rows to plot")
    required = {"estimator", "t", opt["y"]}
    if not required.issubset(reader.fieldnames or ()):
        raise UsageError(
            f"{opt['metrics']}: missing columns {sorted(required - set(reader.fieldnames or ()))}"
        )
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        value = row[opt["y"]].strip()
        if value in ("", "nan"):
            continue
        series.setdefault(row["estimator"], []).append((float(row["t"]), float(value)))
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
