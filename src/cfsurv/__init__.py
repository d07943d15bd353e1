"""Counterfactual survival estimation with augmented minimax balancing weights."""

from .balance import explicit_riesz, solve_balance_weights
from .dgp import (
    GroundTruth,
    SyntheticConfig,
    TwinsLikeConfig,
    gen_synthetic,
    gen_twins_like,
    ground_truth,
    true_censor_hazard,
    true_event_hazard,
    twins_ground_truth,
)
from .estimators import (
    ESTIMATOR_KINDS,
    EstimateResult,
    EstimatorParams,
    FoldPlan,
    Nuisances,
    effect_estimate,
    fit_nuisances,
    run_estimator,
)
from .hazard import (
    KernelBasis,
    KernelHazardModel,
    PropensityModel,
    fit_censor_hazard,
    fit_event_hazard,
    fit_hazards,
    fit_propensity,
)
from .kernels import gram
from .sim import (
    MetricsRow,
    SimulationConfig,
    metrics,
    nominal_coverage,
    risb_rise,
    run_replications,
    summarize,
)
from .survival import (
    Dataset,
    TimeGrid,
    read_dataset_csv,
    write_dataset_csv,
)

__version__ = "0.1.0"
