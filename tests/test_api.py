"""The public surface: every exported name resolves, removed names stay gone."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import cfsurv
from cfsurv.estimators import EstimatorParams
from cfsurv.hazard import KernelHazardModel
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
