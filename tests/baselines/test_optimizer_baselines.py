"""Tests for the BO / random-search / grid-search baselines.

The live-system classes drive each registered tuner through the shared
``run_tuner`` loop, with ``confirm_best`` where a final optimum is
reported.
"""

import numpy as np
import pytest

from repro.baselines.bayesian import BayesianOptimizer
from repro.baselines.grid_search import grid_points
from repro.core.adjust import AdjustFunction, confirm_best
from repro.core.bounds import Box
from repro.core.metrics_collector import MetricsCollector
from repro.core.objective import DIVERGENCE_PENALTY
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment
from repro.tuners import make_tuner, run_tuner


def _run(name, seed, max_evaluations, confirm=False, **options):
    """One baseline run on wordcount; returns (setup, report, rule)."""
    setup = build_experiment("wordcount", seed=seed)
    rule, collector = PauseRule(), MetricsCollector()
    report = run_tuner(
        make_tuner(name, setup.scaler, seed=seed, **options),
        setup.system,
        setup.scaler,
        max_evaluations=max_evaluations,
        pause_rule=rule,
        collector=collector,
    )
    if confirm:
        confirm_best(
            rule,
            AdjustFunction(setup.system, setup.scaler, collector),
            report.evaluations,
        )
    return setup, report, rule


class TestBayesianOptimizerSynthetic:
    def test_ask_within_box(self):
        box = Box([0.0, 0.0], [10.0, 10.0])
        opt = BayesianOptimizer(box, seed=0)
        for _ in range(8):
            theta = opt.ask()
            assert box.contains(theta)
            opt.tell(theta, float(np.sum(theta**2)))

    def test_converges_toward_minimum_of_quadratic(self):
        box = Box([0.0, 0.0], [10.0, 10.0])
        opt = BayesianOptimizer(box, seed=1, init_points=5)
        target = np.array([3.0, 7.0])
        rng = np.random.default_rng(1)
        for _ in range(30):
            theta = opt.ask()
            y = float(np.sum((theta - target) ** 2) + rng.normal(0, 0.1))
            opt.tell(theta, y)
        assert np.linalg.norm(opt.best_theta() - target) < 2.0

    def test_tell_outside_box_rejected(self):
        opt = BayesianOptimizer(Box([0.0], [1.0]), seed=0)
        with pytest.raises(ValueError):
            opt.tell([2.0], 1.0)

    def test_tell_nonfinite_clamped_to_penalty(self):
        # A diverged run yields an unbounded delay; the optimizer must
        # absorb it as a finite penalty, not crash the search.
        opt = BayesianOptimizer(Box([0.0], [1.0]), seed=0)
        opt.tell([0.5], float("inf"))
        assert opt.penalized == 1
        assert opt._y[-1] == DIVERGENCE_PENALTY

    def test_best_theta_requires_observations(self):
        with pytest.raises(RuntimeError):
            BayesianOptimizer(Box([0.0], [1.0])).best_theta()


class TestBOAgainstLiveSystem:
    def test_run_reports_fig8_axes(self):
        setup, report, rule = _run("bo", seed=2, max_evaluations=15,
                                   confirm=True)
        assert report.evaluations == len(report.evaluated) <= 15
        assert report.search_time > 0
        # The confirmation pass re-measured the winner.
        best = rule.best_config()
        assert rule.measurement_count(best.theta) >= 2
        assert rule.evaluations > report.evaluations
        assert best.stable

    def test_finds_reasonable_config(self):
        _, _, rule = _run("bo", seed=3, max_evaluations=25, confirm=True)
        # Default config delay is >= 20 s; BO must do much better.
        assert rule.best_config().end_to_end_delay < 15.0


class TestRandomSearch:
    def test_explores_and_reports(self):
        _, report, rule = _run("random", seed=4, max_evaluations=12)
        assert report.evaluations == len(report.evaluated) <= 12
        assert rule.best_config().sort_key <= report.evaluated[0].sort_key
        assert report.search_time > 0

    def test_deterministic_given_seed(self):
        thetas = []
        for _ in range(2):
            _, report, _ = _run("random", seed=5, max_evaluations=4)
            thetas.append([e.theta for e in report.evaluated])
        assert thetas[0] == thetas[1]


class TestGridSearch:
    def test_grid_points_cover_box(self):
        setup = build_experiment("wordcount", seed=6)
        pts = grid_points(setup.scaler, points_per_axis=4)
        assert pts.shape == (16, 2)
        assert np.allclose(pts.min(axis=0), setup.scaler.scaled.lower)
        assert np.allclose(pts.max(axis=0), setup.scaler.scaled.upper)

    def test_exhaustive_cost_exceeds_spsa(self):
        # The §1 argument: grid search burns far more config changes.
        _, report, _ = _run("grid", seed=6, max_evaluations=30,
                            points_per_axis=3)
        assert report.config_changes >= 8
        assert report.evaluations == 9

    def test_max_evaluations_truncates(self):
        _, report, _ = _run("grid", seed=7, max_evaluations=5,
                            points_per_axis=4)
        assert report.evaluations == 5
