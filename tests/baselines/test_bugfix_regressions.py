"""Regression tests for the baseline bugfix pass.

Three defects, each of which failed before the fix:

1. ``BayesianOptimizer`` claimed a stratified initial design but drew
   plain uniform points — a 1-in-n^(n-1) chance per axis of actually
   covering every stratum.
2. ``BayesianOptimizer.tell`` raised on a non-finite objective, so one
   diverged probe aborted a whole run.
3. The reported winner (``PauseRule.best_config``, which every
   ``run_tuner`` report ranks by, and ``best_theta()``) broke
   exact-objective ties by first-seen index, making it depend on
   evaluation order.
"""

import numpy as np
import pytest

from repro.baselines.bayesian import BayesianOptimizer
from repro.core.bounds import paper_configuration_space
from repro.core.objective import DIVERGENCE_PENALTY
from repro.core.pause import EvaluatedConfig, PauseRule
from repro.obs import catalog
from repro.obs.registry import MetricsRegistry


def _box():
    return paper_configuration_space().scaled


# -- 1. Latin-hypercube initial design ----------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
@pytest.mark.parametrize("init_points", [4, 5, 8])
def test_initial_design_covers_every_stratum_per_axis(seed, init_points):
    """With n init points, each axis's range splits into n strata and
    every stratum must contain exactly one sample — the Latin-hypercube
    property.  Plain uniform draws fail this almost surely."""
    box = _box()
    bo = BayesianOptimizer(box, seed=seed, init_points=init_points)
    design = []
    for _ in range(init_points):
        theta = bo.ask()
        design.append(theta)
        bo.tell(theta, 1.0)  # advance to the next design point
    design = np.array(design)
    for axis in range(box.dim):
        strata = np.floor(
            (design[:, axis] - box.lower[axis])
            / box.ranges[axis]
            * init_points
        ).astype(int)
        strata = np.clip(strata, 0, init_points - 1)
        assert sorted(strata) == list(range(init_points)), (
            f"axis {axis}: strata {sorted(strata)} miss coverage"
        )


def test_initial_design_within_box_and_deterministic():
    box = _box()
    a = BayesianOptimizer(box, seed=3)._initial_design
    b = BayesianOptimizer(box, seed=3)._initial_design
    np.testing.assert_array_equal(a, b)
    assert all(box.contains(p) for p in a)


# -- 2. Non-finite objective clamp --------------------------------------------


def test_tell_survives_non_finite_objectives():
    box = _box()
    bo = BayesianOptimizer(box, seed=0, init_points=2)
    t0 = bo.ask()
    bo.tell(t0, float("inf"))
    t1 = bo.ask()
    bo.tell(t1, float("nan"))
    assert bo.observations == 2
    assert bo.penalized == 2
    assert all(y == DIVERGENCE_PENALTY for y in bo._y)
    # The GP phase still proposes a finite in-box point afterwards.
    nxt = bo.ask()
    assert np.all(np.isfinite(nxt)) and box.contains(nxt)


def test_penalized_clamp_counts_on_tuner_metric():
    box = _box()
    registry = MetricsRegistry()
    bo = BayesianOptimizer(box, seed=0, init_points=2)
    bo.instrument(registry)
    bo.tell(bo.ask(), float("-inf"))
    counter = catalog.instrument(registry, "repro_tuner_penalized_total")
    assert counter.value == 1


def test_penalized_probe_never_wins():
    box = _box()
    bo = BayesianOptimizer(box, seed=0, init_points=2)
    diverged = bo.ask()
    bo.tell(diverged, float("inf"))
    good = bo.ask()
    bo.tell(good, 5.0)
    np.testing.assert_array_equal(bo.best_theta(), np.asarray(good))


# -- 3. Deterministic tie-breaking --------------------------------------------


def _evaluated(theta, objective):
    return EvaluatedConfig(
        theta=tuple(theta), objective=objective, end_to_end_delay=10.0,
        iteration=1, batch_interval=10.0, num_executors=8,
        mean_processing_time=5.0, stable=True,
    )


def _winner(evaluations):
    rule = PauseRule()
    for e in evaluations:
        rule.record(e)
    return rule.best_config().theta


def test_grid_report_tie_breaks_lexicographically():
    evaluations = [
        _evaluated((9.0, 3.0), 4.0),
        _evaluated((2.0, 8.0), 4.0),
        _evaluated((2.0, 5.0), 4.0),
    ]
    assert _winner(evaluations) == (2.0, 5.0)
    assert _winner(reversed(evaluations)) == (2.0, 5.0)


def test_random_report_tie_breaks_lexicographically():
    evaluations = [
        _evaluated((7.0, 7.0), 3.0),
        _evaluated((1.0, 9.0), 3.0),
    ]
    assert _winner(evaluations) == (1.0, 9.0)
    assert _winner(reversed(evaluations)) == (1.0, 9.0)


def test_sort_key_orders_equal_objectives_by_theta():
    a = _evaluated((5.0, 5.0), 2.0)
    b = _evaluated((4.0, 9.0), 2.0)
    assert sorted([a, b], key=lambda e: e.sort_key)[0] is b
    assert sorted([b, a], key=lambda e: e.sort_key)[0] is b


def test_bo_report_and_best_theta_tie_break():
    thetas = [(6.0, 2.0), (3.0, 4.0), (3.0, 1.0)]
    evaluations = [_evaluated(theta, 1.5) for theta in thetas]
    assert _winner(evaluations) == (3.0, 1.0)
    assert _winner(reversed(evaluations)) == (3.0, 1.0)

    box = _box()
    bo = BayesianOptimizer(box, seed=0, init_points=2)
    for theta in thetas:
        bo.tell(np.array(theta), 1.5)
    np.testing.assert_array_equal(bo.best_theta(), np.array([3.0, 1.0]))
