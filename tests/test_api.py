"""The public surface: every exported name resolves, removed names stay gone."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import cfsurv
from cfsurv.balance import SolverConfig
from cfsurv.dgp import SyntheticConfig, TwinsLikeConfig, load_twins_table, surrogate_twins_table
from cfsurv.estimators import EstimatorParams
from cfsurv.hazard import (
    KernelHazardModel,
    fit_censor_hazard,
    fit_event_hazard,
    fit_propensity,
)
from cfsurv.kernels import KernelConfig, cho_solve_checked, spd_factor, spd_solve
from cfsurv.survival import Dataset

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


def test_removed_helpers_are_gone():
    for name in ("_single", "_fit_event", "_fit_censor"):
        assert not hasattr(cfsurv.estimators, name)
    assert not hasattr(Dataset, "from_units") and not hasattr(Dataset, "units")
    assert not hasattr(KernelHazardModel, "constant")


def test_estimator_params_fields():
    assert [f.name for f in fields(EstimatorParams)] == ["kernel", "ridge", "sigma2"]


def test_config_fields():
    assert [f.name for f in fields(KernelConfig)] == ["length_scale"]
    assert [f.name for f in fields(SolverConfig)] == ["sigma2"]
    assert [f.name for f in fields(SyntheticConfig)] == [
        "n", "xi", "assign_scale", "seed", "standardize"
    ]
    assert [f.name for f in fields(TwinsLikeConfig)] == ["x", "t0", "t1", "seed"]
    assert not {"ridge", "max_time"} & {f.name for f in fields(KernelHazardModel)}


@pytest.mark.parametrize(
    "fn",
    [
        fit_propensity, fit_event_hazard, fit_censor_hazard,
        spd_factor, cho_solve_checked, spd_solve,
        surrogate_twins_table, load_twins_table,
    ],
    ids=lambda fn: fn.__name__,
)
def test_fixed_settings_are_not_parameters(fn):
    assert not {"tol", "max_iter", "jitter", "d"} & set(inspect.signature(fn).parameters)


def test_replications_run_serially():
    # neither the thread-count reader nor the pool executor is left in sim
    assert not [name for name in vars(cfsurv.sim) if "thread" in name.lower()]
