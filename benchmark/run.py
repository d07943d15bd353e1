"""cfsurv benchmark harness.

Run from the repository root:

    python3 benchmark/run.py --workload study-fig1 --seed 1 --seconds 30 --trace 0

It sets up the workload's inputs from the seed, runs passes of the
workload through `cfsurv.cli.main` for about `--seconds` seconds, checks
every output, and prints a JSON object as its last line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from traced passes (see benchmark/README.md).

`--write-reference` reruns the fixed reference pass and stores its
outputs under benchmark/reference/; do this only when a change is meant
to alter results.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread, serial replications
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CFSURV_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import calibration
from tracer import REPLICATION_TIMER, SITES, Tracer, call_counts, layer_metrics
from workloads import REFERENCE_SEED, SCALES, WORKLOADS, Checks, compare_csv

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_TIMEOUT_S = 120


class PassFailed(RuntimeError):
    """`cfsurv.cli.main` returned a non-zero exit code."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


class SetUps:
    """Set-ups in fresh interpreters; every one must write the same input bytes."""

    def __init__(self, workload, seed: int, scale: str, src: Path, work: Path, checks: Checks) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.src, self.work, self.checks = src, work, checks
        self.times: list[float] = []
        self.inputs = None

    def run(self) -> float:
        """Set up once; return the seconds it took the harness, child start included."""
        started = perf_counter()
        i = len(self.times)
        out_dir = self.work / f"setup{i}"
        out_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_inputs.py"),
             str(self.src), self.workload.name, str(self.seed), self.scale, str(out_dir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=BENCH_DIR.parent,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        self.times.append(record["setup_s"])
        if self.inputs is None:
            self.inputs = record["inputs"]
        else:
            for key, path in record["inputs"].items():
                self.checks.require(
                    Path(path).read_bytes() == Path(self.inputs[key]).read_bytes(),
                    f"set-up {i} wrote different {key} bytes for the same seed",
                )
        return perf_counter() - started


def _run_pass(cli, argv) -> float:
    start = perf_counter()
    code = cli.main(argv)
    wall = perf_counter() - start
    if code != 0:
        raise PassFailed(f"cfsurv {' '.join(argv)} exited with {code}")
    return wall


def _read(workload, directory: Path) -> dict[str, bytes]:
    return {name: (directory / f"{name}.csv").read_bytes() for name in workload.outputs}


def _reference(cli, workload, scale_name: str, work: Path, checks: Checks, write: bool) -> dict:
    """Run the fixed reference pass and compare it with the stored outputs."""
    scale = SCALES[scale_name]
    ref_dir = work / "reference"
    ref_dir.mkdir()
    inputs = workload.make_inputs(REFERENCE_SEED, scale, ref_dir)
    q = scale.reference_q
    _run_pass(cli, workload.argv(scale, inputs, REFERENCE_SEED, q, ref_dir))
    got = _read(workload, ref_dir)
    path = BENCH_DIR / "reference" / f"{workload.name}.{scale_name}.json"
    if write:
        stored = {name: payload.decode("utf-8") for name, payload in got.items()}
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "q": q, "outputs": stored}, indent=1) + "\n")
        return {"written": str(path.relative_to(BENCH_DIR.parent))}
    workload.check(got, q, checks)
    stored = json.loads(path.read_text())["outputs"]
    key = workload.outputs[-1]
    before = checks.failed
    compare_csv(got[key], stored[key].encode("utf-8"), workload.reference_numeric, checks, "reference")
    return {
        "within_tolerance": checks.failed == before,
        "bytes_identical": all(got[n] == stored[n].encode("utf-8") for n in workload.outputs),
    }


def _timed(cli, workload, scale, setups: SetUps, seed: int, seconds: float, work: Path, checks: Checks):
    """Untraced passes until the time is up; returns end-to-end measurements.

    Calibration units run before the first pass and after every pass; each
    pass's times are scaled to reference seconds by the units around it
    (see calibration.py), and the metrics are medians over the passes.
    The set-ups after the first are spread evenly over the passes, so that
    their median spans the run's slow and fast spells as the passes do;
    their time does not count against `seconds`.
    """
    inputs, count = setups.inputs, scale.setups
    timer = Tracer()
    timer.install(REPLICATION_TIMER)
    q = workload.q(scale)
    walls, rep_busy, first = [], [], None
    calibration.unit()  # warm-up
    before = calibration.gap()
    units, scales = list(before), []
    start, setting_up = perf_counter(), 0.0
    try:
        while True:
            wall = _run_pass(cli, workload.argv(scale, inputs, workload.pass_seed(seed, len(walls)), q, work))
            walls.append(wall)
            outputs = _read(workload, work)
            workload.check(outputs, q, checks)
            if first is None:
                first = outputs
            elif workload.pass_seed(seed, len(walls) - 1) == workload.pass_seed(seed, 0):
                checks.require(outputs == first, "repeating a pass changed its output bytes")
            if workload.job == "study_s":
                spans = timer.take()
                checks.require(len(spans) == 1, f"expected one run_replications call, saw {len(spans)}")
                rep_busy.append(sum(s.seconds for s in spans))
            after = calibration.gap()
            scales.append(calibration.REFERENCE_UNIT_S / statistics.median(before + after))
            units.extend(after)
            before = after
            elapsed = perf_counter() - start - setting_up
            if len(setups.times) < count and elapsed >= seconds * len(setups.times) / count:
                setting_up += setups.run()
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
    finally:
        timer.uninstall()
    while len(setups.times) < count:
        setups.run()
    busy = rep_busy or walls
    rep_note = f"median over {len(busy)} passes of {q} {'replications' if rep_busy else 'estimate call'}"
    return {"walls": walls, "scales": scales, "units": units, "missing": timer.missing,
            "job_s": statistics.median(w * f for w, f in zip(walls, scales)),
            "reps_per_s": statistics.median(q / (b * f) for b, f in zip(busy, scales)),
            "measured_reps_per_s": statistics.median(q / b for b in busy), "rep_note": rep_note}


def _traced(cli, workload, scale, inputs, seed: int, seconds: float, work: Path, src: Path, checks: Checks):
    """One untraced pass, then traced passes of the same inputs until the time is up."""
    q = workload.q(scale)
    argv = workload.argv(scale, inputs, workload.pass_seed(seed, 0), q, work)
    start = perf_counter()
    untraced_wall = _run_pass(cli, argv)
    baseline = _read(workload, work)
    workload.check(baseline, q, checks)
    tracer = Tracer()
    tracer.install(SITES)
    passes = []
    try:
        while True:
            wall = _run_pass(cli, argv)
            passes.append((wall, tracer.take()))
            checks.require(_read(workload, work) == baseline, "traced pass changed the output bytes")
            elapsed = perf_counter() - start
            median_wall = statistics.median(w for w, _ in passes)
            if len(passes) >= MIN_TRACED_PASSES and elapsed + median_wall > seconds:
                break
    finally:
        tracer.uninstall()
    counts = [call_counts(spans) for _, spans in passes]
    checks.require(all(c == counts[0] for c in counts), "call counts differ between identical passes")
    _check_counts_across_runs(counts[0], work, src, checks)
    wall, spans = sorted(passes, key=lambda p: p[0])[(len(passes) - 1) // 2]
    metrics = layer_metrics(spans, wall, q)
    metrics["trace.overhead_s"] = wall - untraced_wall
    with open(work / "spans.jsonl", "w") as fh:
        for i, (_, pass_spans) in enumerate(passes):
            for s in pass_spans:
                fh.write(json.dumps({"pass": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")
    return {"metrics": metrics, "walls": [w for w, _ in passes], "missing": tracer.missing}


def _check_counts_across_runs(counts: dict, work: Path, src: Path, checks: Checks) -> None:
    """Compare with the counts an earlier traced run of the same seed and sources left."""
    sources = hashlib.sha256()
    for path in sorted((src / "cfsurv").glob("*.py")):
        sources.update(path.read_bytes())
    record = work.parent / "counts" / f"{work.name}-{sources.hexdigest()[:16]}.json"
    if record.exists():
        checks.require(json.loads(record.read_text()) == counts,
                       f"call counts differ from the earlier run recorded in {record.name}")
    else:
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps(counts) + "\n")


def _blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = fn()
                break
    return found


def _commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "seed": seed,
    }


def _peak_rss_mib() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cfsurv" / "__init__.py").is_file():
        print(f"error: no cfsurv sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    workload, scale = WORKLOADS[args.workload], SCALES[args.scale]
    work = BENCH_DIR / ".work" / f"{workload.name}-{args.scale}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    checks = Checks()
    setups = SetUps(workload, args.seed, args.scale, src, work, checks)
    if not args.write_reference:
        setups.run()

    sys.path.insert(0, str(src))
    import cfsurv
    from cfsurv import cli

    if not Path(cfsurv.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported cfsurv from {cfsurv.__file__}, not from {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")

    try:
        reference = _reference(cli, workload, args.scale, work, checks, args.write_reference)
        if args.write_reference:
            print(json.dumps(reference))
            return 0
        if args.trace:
            run = _traced(cli, workload, scale, setups.inputs, args.seed, args.seconds, work, src, checks)
        else:
            run = _timed(cli, workload, scale, setups, args.seed, args.seconds, work, checks)
    except PassFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = _environment(root, args.seed)
    print(f"workload {workload.name} scale {args.scale} seed {args.seed} trace {args.trace}")
    print(f"env {json.dumps(env)}")
    print(f"reference {json.dumps(reference)}")
    if run["missing"]:
        print(f"warning: import sites not found, spans missing: {', '.join(run['missing'])}")
    failed_frac = checks.failed / checks.attempted
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in run["metrics"].items()}
        print(f"per traced pass (the median of {len(run['walls'])} passes by wall time):")
        for name, m in metrics.items():
            print(f"  {name} {m['value']} {m['unit']}")
    else:
        walls, job_s, reps_per_s = run["walls"], run["job_s"], run["reps_per_s"]
        print(f"machine speed: calibration unit median {statistics.median(run['units'])} s over "
              f"{len(run['units'])} units, reference {calibration.REFERENCE_UNIT_S} s; each pass is "
              f"scaled to reference seconds (ref_s) by the units around it, scale median "
              f"{statistics.median(run['scales'])}")
        print(f"{workload.job} {job_s} ref_s, {statistics.median(walls)} s measured "
              f"(median of {len(walls)} passes; job_s in the result)")
        print(f"reps_per_s {reps_per_s} 1/ref_s, {run['measured_reps_per_s']} 1/s measured "
              f"({run['rep_note']})")
        print(f"setup_s {statistics.median(setups.times)} s (median of {len(setups.times)} set-ups)")
        print(f"peak_rss_mb {_peak_rss_mib()} MiB")
        metrics = {
            "job_s": {"value": job_s, "unit": "ref_s"},
            "reps_per_s": {"value": reps_per_s, "unit": "1/ref_s"},
            "setup_s": {"value": statistics.median(setups.times), "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mib(), "unit": "MiB"},
            "ok_cell_frac": {"value": 1.0 - failed_frac, "unit": "frac"},
        }
    print(f"failed_cell_frac {failed_frac} ({checks.failed} of {checks.attempted} checked cells)")
    for problem in checks.problems[:20]:
        print(f"problem: {problem}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = dict(result, env=env, reference=reference, problems=checks.problems,
                  pass_walls=run.get("walls"), setup_times=setups.times,
                  calibration_units=run.get("units"), pass_scales=run.get("scales"))
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    return "count" if name.endswith((".calls", "_cells", ".spans")) else "s"


if __name__ == "__main__":
    sys.exit(main())
