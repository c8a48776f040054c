"""Gaussian multi-Bernoulli mixture multi-target tracking toolkit.

Subpackages:

* :mod:`mbmtrack.gaussian`: Kalman prediction/update and gating;
* :mod:`mbmtrack.assignment`: optimal and ranked k-best partial assignment;
* :mod:`mbmtrack.mbm`: the multi-Bernoulli mixture filtering recursion;
* :mod:`mbmtrack.gospa`: GOSPA metric with its decomposition (the package
  attribute ``gospa`` is the function; import the module's other names with
  ``from mbmtrack.gospa import ...``);
* :mod:`mbmtrack.sim`: scenarios, synthetic data, Monte Carlo benchmark;
* :mod:`mbmtrack.cli`: the ``mbmtrack`` command-line front end.
"""

from .assignment import Assignment, FORBIDDEN, k_best, solve_optimal
from .errors import InputError, NumericalError
from .gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    gating_statistic,
    kalman_predict,
    kalman_update,
)
from .gospa import GospaParams, GospaResult, gospa, gospa_run
from .mbm import (
    BernoulliComponent,
    BirthComponent,
    BirthModel,
    FilterParams,
    GlobalHypothesis,
    HypothesisMeta,
    MbmState,
    SingleTargetHypothesis,
    TargetEstimate,
    estimate,
    init_empty,
    predict,
    prune,
    step,
    update,
)
from .sim import Scenario, builtin_scenarios, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BernoulliComponent",
    "BirthComponent",
    "BirthModel",
    "FORBIDDEN",
    "FilterParams",
    "GaussianDensity",
    "GlobalHypothesis",
    "GospaParams",
    "GospaResult",
    "HypothesisMeta",
    "InputError",
    "LinearGaussianModel",
    "MbmState",
    "NumericalError",
    "Scenario",
    "SingleTargetHypothesis",
    "TargetEstimate",
    "builtin_scenarios",
    "estimate",
    "gating_statistic",
    "gospa",
    "gospa_run",
    "init_empty",
    "k_best",
    "kalman_predict",
    "kalman_update",
    "predict",
    "prune",
    "run_monte_carlo",
    "solve_optimal",
    "step",
    "update",
]
