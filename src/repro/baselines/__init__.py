"""Comparators: Bayesian optimization (from-scratch GP + EI), Spark back
pressure, fixed/default configuration, and the grid-search enumeration.

The search baselines run against a live system through the shared
:func:`repro.tuners.run_tuner` loop (tuners ``bo``, ``annealing``,
``random`` and ``grid``); this package keeps their mathematics.
"""

from .acquisition import expected_improvement, lower_confidence_bound
from .backpressure import BackPressureRunResult, run_backpressure
from .bayesian import BayesianOptimizer
from .fixed import DEFAULT_CONFIGURATION, FixedRunResult, run_fixed_configuration
from .gp import GaussianProcess, rbf_kernel
from .grid_search import grid_points

__all__ = [
    "BackPressureRunResult",
    "BayesianOptimizer",
    "DEFAULT_CONFIGURATION",
    "FixedRunResult",
    "GaussianProcess",
    "expected_improvement",
    "grid_points",
    "lower_confidence_bound",
    "rbf_kernel",
    "run_backpressure",
    "run_fixed_configuration",
]
