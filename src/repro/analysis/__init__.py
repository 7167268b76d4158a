"""Measurement post-processing: repeat-set statistics, ASCII tables for
the benchmark harness, and JSON experiment traces."""

from .chaos import (
    baseline_delay,
    delay_overshoot,
    time_to_recover,
)
from .convergence import (
    DecayFit,
    best_so_far,
    distance_to_final,
    fit_decay_rate,
    regret,
    settling_round,
    spsa_run_diagnostics,
)
from .stats import Summary, bootstrap_ci, improvement_factor, rolling_mean, summarize
from .tables import format_series, format_table
from .traces import ExperimentTrace, load_span_jsonl

__all__ = [
    "DecayFit",
    "ExperimentTrace",
    "load_span_jsonl",
    "baseline_delay",
    "delay_overshoot",
    "time_to_recover",
    "best_so_far",
    "distance_to_final",
    "fit_decay_rate",
    "regret",
    "settling_round",
    "spsa_run_diagnostics",
    "Summary",
    "bootstrap_ci",
    "format_series",
    "format_table",
    "improvement_factor",
    "rolling_mean",
    "summarize",
]
