"""Gaussian multi-Bernoulli mixture multi-target tracking toolkit.

Subpackages:

* :mod:`mbmtrack.gaussian`: Kalman prediction/update and gating;
* :mod:`mbmtrack.assignment`: ranked k-best partial assignment;
* :mod:`mbmtrack.mbm`: the multi-Bernoulli mixture filtering recursion;
* :mod:`mbmtrack.gospa`: GOSPA metric with its decomposition;
* :mod:`mbmtrack.sim`: scenarios, synthetic data, Monte Carlo benchmark;
* :mod:`mbmtrack.cli`: the ``mbmtrack`` command-line front end.
"""

from .assignment import Assignment, FORBIDDEN, k_best
from .errors import InputError, NumericalError
from .gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    kalman_predict,
    kalman_update,
)
from .gospa import GospaParams, GospaResult, gospa_run
from .mbm import (
    BirthComponent,
    BirthModel,
    FilterParams,
    MbmState,
    TargetEstimate,
    estimate,
    init_empty,
    predict,
    prune,
    step,
    update,
)
from .sim import Scenario, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BirthComponent",
    "BirthModel",
    "FORBIDDEN",
    "FilterParams",
    "GaussianDensity",
    "GospaParams",
    "GospaResult",
    "InputError",
    "LinearGaussianModel",
    "MbmState",
    "NumericalError",
    "Scenario",
    "TargetEstimate",
    "estimate",
    "gospa_run",
    "init_empty",
    "k_best",
    "kalman_predict",
    "kalman_update",
    "predict",
    "prune",
    "run_monte_carlo",
    "step",
    "update",
]
