"""Outside-in span tracing of cfsurv's layers.

The tracer replaces public functions at the module attributes through
which cfsurv calls them (their import sites) with wrappers that record
one span per call: name, start, end and the enclosing span. Nothing in
cfsurv changes, and `uninstall` puts every original back. Spans stay in
memory; the harness writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never
overlap). A layer's self time is the sum over its spans, and the layer
self times plus the remainder outside every span add up to the wall
time of the traced pass.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "sim", "dgp", "estimators", "hazard", "balance", "kernels", "survival")

ESTIMATOR_KINDS = ("or", "ipw", "dr", "dr-clip", "balance")

# (owner, attribute, span name). The owner is a module, or "module:Class"
# for a method. The first part of a span name is its layer.
SITES = (
    ("cfsurv.cli", "main", "cli.main"),
    ("cfsurv.cli", "read_dataset_csv", "survival.read_csv"),
    ("cfsurv.cli", "run_estimator", "estimators.run_estimator"),
    ("cfsurv.cli", "run_replications", "sim.run_replications"),
    ("cfsurv.cli", "summarize", "sim.summarize"),
    ("cfsurv.cli", "metrics_csv_bytes", "sim.metrics_csv_bytes"),
    ("cfsurv.dgp", "ground_truth", "dgp.ground_truth"),
    ("cfsurv.dgp", "twins_ground_truth", "dgp.ground_truth"),
    ("cfsurv.dgp", "surrogate_twins_table", "dgp.surrogate_table"),
    ("cfsurv.sim", "run_single_replication", "sim.replication"),
    ("cfsurv.sim", "run_estimator", "estimators.run_estimator"),
    ("cfsurv.sim", "gen_synthetic", "dgp.generate"),
    ("cfsurv.sim", "gen_twins_like", "dgp.generate"),
    ("cfsurv.estimators", "augmented_estimate", "estimators.augment"),
    ("cfsurv.estimators", "fit_event_hazard", "hazard.fit_event"),
    ("cfsurv.estimators", "fit_censor_hazard", "hazard.fit_censor"),
    ("cfsurv.estimators", "fit_propensity", "hazard.fit_propensity"),
    ("cfsurv.hazard:KernelHazardModel", "hazard_matrix", "hazard.predict"),
    ("cfsurv.estimators", "derivative_direction", "balance.derivative_direction"),
    ("cfsurv.estimators", "explicit_riesz", "balance.explicit_riesz"),
    ("cfsurv.estimators", "solve_balance_weights", "balance.solve"),
    ("cfsurv.estimators", "gram", "kernels.gram"),
    ("cfsurv.hazard", "gram", "kernels.gram"),
    ("cfsurv.balance", "spd_solve", "kernels.spd_solve"),
)

# the one span an untraced study pass keeps, to time its replications
REPLICATION_TIMER = (("cfsurv.cli", "run_replications", "sim.run_replications"),)


def _estimator_kind(args, kwargs, result):
    return kwargs["kind"] if "kind" in kwargs else args[1]


def _cell_counts(args, kwargs, result):
    """(Newton-fitted cells, constant cells) of a returned hazard model."""
    newton = sum(1 for cell in result.cells.values() if cell.alpha is not None)
    return newton, len(result.cells) - newton


_INFO = {
    "estimators.run_estimator": _estimator_kind,
    "hazard.fit_event": _cell_counts,
    "hazard.fit_censor": _cell_counts,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans from wrappers installed at cfsurv's import sites."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, sites=SITES) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in sites:
            try:
                target = _resolve(owner)
                original = getattr(target, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            self._patched.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded since the last call, oldest first."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper


def call_counts(spans: list[Span]) -> dict[str, int]:
    """Exact per-pass counts: calls per span name plus hazard cell counts."""
    counts = Counter(span.name for span in spans)
    for span in spans:
        if span.name in ("hazard.fit_event", "hazard.fit_censor"):
            counts["hazard.newton_cells"] += span.info[0]
            counts["hazard.constant_cells"] += span.info[1]
    return dict(sorted(counts.items()))


def layer_metrics(spans: list[Span], wall: float, reps: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of `wall` seconds and `reps` replications."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    total: dict[str, float] = defaultdict(float)
    kind_s: dict[str, float] = defaultdict(float)
    self_s = {layer: 0.0 for layer in LAYERS}
    for span, child_s in zip(spans, child):
        total[span.name] += span.seconds
        self_s[span.name.split(".", 1)[0]] += span.seconds - child_s
        if span.name == "estimators.run_estimator":
            kind_s[span.info] += span.seconds
    counts = call_counts(spans)
    out = {
        "hazard.fit_event.s": total["hazard.fit_event"],
        "hazard.fit_event.calls": counts.get("hazard.fit_event", 0),
        "hazard.fit_censor.s": total["hazard.fit_censor"],
        "hazard.fit_censor.calls": counts.get("hazard.fit_censor", 0),
        "hazard.fit_propensity.s": total["hazard.fit_propensity"],
        "hazard.predict.s": total["hazard.predict"],
        "hazard.predict.calls": counts.get("hazard.predict", 0),
        "hazard.newton_cells": counts.get("hazard.newton_cells", 0),
        "hazard.constant_cells": counts.get("hazard.constant_cells", 0),
        "balance.solve.s": total["balance.solve"],
        "balance.solve.calls": counts.get("balance.solve", 0),
        "balance.explicit_riesz.s": total["balance.explicit_riesz"],
        "balance.derivative_direction.s": total["balance.derivative_direction"],
        "kernels.gram.s": total["kernels.gram"],
        "kernels.gram.calls": counts.get("kernels.gram", 0),
        "kernels.spd_solve.s": total["kernels.spd_solve"],
        "kernels.spd_solve.calls": counts.get("kernels.spd_solve", 0),
    }
    for kind in ESTIMATOR_KINDS:
        out[f"estimators.{kind}.s_per_rep"] = kind_s[kind] / reps
    out.update(
        {
            "estimators.augment.s": total["estimators.augment"],
            "sim.run_replications.s": total["sim.run_replications"],
            "sim.replication_busy_s": total["sim.replication"],
            "sim.summarize.s": total["sim.summarize"],
            "dgp.generate.s": total["dgp.generate"],
            "dgp.ground_truth.s": total["dgp.ground_truth"],
            "survival.read_csv.s": total["survival.read_csv"],
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["remainder_s"] = wall - sum(self_s.values())
    out["traced_wall_s"] = wall
    out["trace.spans"] = len(spans)
    return out
