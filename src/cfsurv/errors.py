"""Exception and warning types shared across the package."""


class NumericalError(RuntimeError):
    """A linear solve or weight computation failed numerically."""


class EstimationError(RuntimeError):
    """An estimator received data it cannot produce an estimate from."""


class HarnessError(RuntimeError):
    """A simulation run produced no usable replications for an estimator."""


class CoverageWarning(UserWarning):
    """A per-timestep fit had an empty risk set and fell back to a constant."""


class ConvergenceWarning(UserWarning):
    """A Newton fit (a hazard cell or the propensity) stopped at its iteration cap."""


class LargeWeightWarning(UserWarning):
    """Inverse-probability denominators hit their clamp floor."""
