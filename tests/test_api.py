"""The public surface: every exported name resolves, removed names stay gone."""

import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import cfsurv
from cfsurv.dgp import SyntheticConfig, TwinsLikeConfig, load_twins_table, surrogate_twins_table
from cfsurv.estimators import EstimatorParams, Nuisances
from cfsurv.hazard import (
    KernelBasis,
    KernelHazardModel,
    fit_censor_hazard,
    fit_event_hazard,
    fit_hazards,
    fit_propensity,
)
from cfsurv.kernels import cho_solve_checked, spd_factor
from cfsurv.sim import metrics, run_replications, run_single_replication, run_xi_sweep
from cfsurv.survival import Dataset, TimeGrid

# importing __main__ runs the CLI
MODULES = [
    importlib.import_module(f"cfsurv.{info.name}")
    for info in pkgutil.iter_modules(cfsurv.__path__)
    if info.name != "__main__"
]

REMOVED = (
    "or_estimate",
    "ipw_estimate",
    "dr_estimate",
    "balance_estimate",
    "EstimandSpec",
    "oracle_models",
    "ObservedUnit",
    "indicators",
    "predict_curves",
    "spd_solve",
    "Z_975",
    "plugin_estimate",
    "augmented_estimate",
    "_ipw_core",
    # curve transforms that nothing ran
    "survival_from_hazard",
    "hazard_from_survival",
    "_check_curve",
    "confidence_interval",
    # reference implementations, now in tests/oracles.py
    "klr_loss_grad",
    "propensity_loss_grad",
    "imbalance",
    "objective",
    "rbf",
    "derivative_direction",
    # known-model adapters; tests/oracles.py builds known curves
    "OracleHazardModel",
    "OraclePropensity",
    # sigma2 is a plain argument of the balance solve
    "SolverConfig",
    # every Newton cell of a fit steps in one lockstep loop
    "_newton_klr",
    # a fitted hazard model is arrays per arm, not cells
    "_Cell",
    # spd_factor is a single Cholesky, without a jitter ladder
    "JITTER",
    "_JITTER_RETRIES",
    # the propensity fit forms its gradient on an orthonormal basis
    "_propensity_grad",
    # the length scale is a plain setting of EstimatorParams and an argument of gram
    "KernelConfig",
    # the balance solve returns (omega, failures), as cho_solve_checked returns (z, failures)
    "BalanceWeights",
    # a fit is shared by fold count: fit_nuisances takes every kind of one count
    "nuisance_plan",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_importable(name):
    assert not hasattr(cfsurv, name)
    for module in MODULES:
        assert not hasattr(module, name), f"{module.__name__} still has {name!r}"


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (`__future__` and `__all__` aside)."""
    tree = ast.parse(path.read_text())
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(cfsurv.__file__).parent.glob("*.py") if p.name != "__init__.py")
    + sorted(Path(__file__).parent.glob("*.py"))
    + sorted((Path(__file__).parents[1] / "scripts").glob("*.py")),
    ids=lambda p: p.name,
)
def test_every_import_is_read(path):
    assert _unread_imports(path) == []


def test_removed_helpers_are_gone():
    for name in ("_single", "_fit_event", "_fit_censor"):
        assert not hasattr(cfsurv.estimators, name)
    assert not hasattr(Dataset, "from_units") and not hasattr(Dataset, "units")
    assert not hasattr(KernelHazardModel, "constant")
    assert not hasattr(cfsurv.hazard, "_sigmoid")
    assert not hasattr(SyntheticConfig, "rare_treatment_preset")
    assert not hasattr(KernelHazardModel, "survival_matrix")
    assert not hasattr(Nuisances, "whole_sample")
    assert not hasattr(KernelHazardModel, "standardize")
    assert not hasattr(KernelHazardModel, "prediction_gram")
    assert not hasattr(cfsurv.hazard, "_checked_basis")
    for fit in (fit_event_hazard, fit_censor_hazard):
        assert "kernel" not in inspect.signature(fit).parameters
    assert not hasattr(TimeGrid, "times")
    assert "rmse_baseline" not in inspect.signature(metrics).parameters
    assert "level" not in inspect.signature(cfsurv.estimators._normal_interval).parameters


@pytest.mark.parametrize(
    "fn", [run_single_replication, run_replications, run_xi_sweep], ids=lambda fn: fn.__name__
)
def test_replications_take_no_estimator_hook(fn):
    assert "estimator_fns" not in inspect.signature(fn).parameters


def test_estimator_params_fields():
    assert [f.name for f in fields(EstimatorParams)] == ["length_scale", "ridge", "sigma2"]


@pytest.mark.parametrize(
    "bad",
    [
        {"ridge": 0.0}, {"ridge": -1.0}, {"sigma2": 0.0},
        {"ridge": float("inf")}, {"sigma2": float("inf")},
        {"length_scale": 0.0}, {"length_scale": -1.0}, {"length_scale": float("inf")},
    ],
)
def test_estimator_params_reject_nonpositive(bad):
    with pytest.raises(ValueError, match="must be positive"):
        EstimatorParams(**bad)


def test_config_fields():
    assert [f.name for f in fields(SyntheticConfig)] == [
        "n", "xi", "assign_scale", "seed", "standardize"
    ]
    assert [f.name for f in fields(TwinsLikeConfig)] == ["x", "t0", "t1", "seed"]
    assert [f.name for f in fields(Nuisances)] == ["folds"]
    assert [f.name for f in fields(KernelHazardModel)] == [
        "coef", "intercept", "level", "max_time", "empty_cells"
    ]
    # per-arm training blocks only: no Gram or covariates spanning both arms
    assert [f.name for f in fields(KernelBasis)] == [
        "mean", "scale", "length_scale", "t_max", "exits", "events", "xs", "grams"
    ]


@pytest.mark.parametrize(
    "fn",
    [
        fit_propensity, fit_hazards, fit_event_hazard, fit_censor_hazard,
        spd_factor, cho_solve_checked,
        surrogate_twins_table, load_twins_table,
    ],
    ids=lambda fn: fn.__name__,
)
def test_fixed_settings_are_not_parameters(fn):
    assert not {"tol", "max_iter", "jitter", "d"} & set(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "fit", [fit_hazards, fit_event_hazard, fit_censor_hazard], ids=lambda fn: fn.__name__
)
def test_hazard_fits_take_the_basis_alone(fit):
    # the basis holds the training set's flags and layout; ridge has no default
    params = inspect.signature(fit).parameters
    assert list(params) == ["basis", "ridge", "max_time"]
    assert params["ridge"].default is inspect.Parameter.empty


def test_replications_run_serially():
    # neither the thread-count reader nor the pool executor is left in sim
    assert not [name for name in vars(cfsurv.sim) if "thread" in name.lower()]
