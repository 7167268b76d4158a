"""Bayesian-optimization baseline (§6.4).

The paper compares NoStop against Bayesian Optimization driving the same
live system: each BO evaluation applies one configuration, measures the
penalized objective through the identical Adjust pathway, and updates a
GP surrogate.  The comparison metrics are the paper's three: final
optimization result (end-to-end delay), search time, and configuration
steps — BO pays *one* configuration change per objective evaluation but
needs more evaluations and a surrogate refit per step, while SPSA pays
two changes per iteration and converges in fewer iterations.

This module holds the optimizer; the live-system loop is
:func:`repro.tuners.run_tuner` driving the ``bo`` tuner, followed by
:func:`repro.core.adjust.confirm_best`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.bounds import Box
from repro.core.objective import clamp_objective
from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .acquisition import expected_improvement
from .gp import GaussianProcess


class BayesianOptimizer:
    """GP + expected-improvement minimizer over a scaled box."""

    def __init__(
        self,
        box: Box,
        seed: int = 0,
        init_points: int = 5,
        candidates_per_step: int = 256,
        noise_var: float = 0.05,
        length_scale_frac: float = 0.2,
    ) -> None:
        if init_points < 2:
            raise ValueError("init_points must be >= 2")
        if candidates_per_step < 8:
            raise ValueError("candidates_per_step must be >= 8")
        self.box = box
        self.rng = np.random.default_rng(seed)
        self.init_points = init_points
        self.candidates = candidates_per_step
        self.noise_var = noise_var
        self.length_scale_frac = length_scale_frac
        #: Non-finite observations clamped to the divergence penalty.
        self.penalized = 0
        self._x: List[np.ndarray] = []
        self._y: List[float] = []
        self._initial_design = self._latin_hypercube(init_points)
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default)."""
        self._m_penalized = catalog.instrument(
            registry, "repro_tuner_penalized_total"
        )

    def _latin_hypercube(self, n: int) -> np.ndarray:
        """Seeded Latin-hypercube design over the box.

        Each axis's range is cut into ``n`` equal strata; a random
        permutation assigns every sample exactly one stratum per axis,
        and the point lands uniformly inside its stratum.  Every
        one-dimensional projection of the design therefore covers all
        ``n`` strata — the space-filling property plain uniform draws
        only achieve in expectation.
        """
        u = self.rng.uniform(size=(n, self.box.dim))
        design = np.empty((n, self.box.dim))
        for axis in range(self.box.dim):
            strata = self.rng.permutation(n)
            design[:, axis] = (strata + u[:, axis]) / n
        return self.box.lower + design * self.box.ranges

    # -- ask/tell ---------------------------------------------------------

    def ask(self) -> np.ndarray:
        """Next configuration to evaluate."""
        if len(self._x) < self.init_points:
            # Space-filling initial design: Latin-hypercube samples drawn
            # at construction (one stratum per axis per sample).
            return self._initial_design[len(self._x)].copy()
        gp = GaussianProcess(
            length_scales=self.box.ranges * self.length_scale_frac,
            signal_var=1.0,
            noise_var=self.noise_var,
        ).fit(np.array(self._x), np.array(self._y))
        cand = self.box.lower + self.rng.uniform(
            size=(self.candidates, self.box.dim)
        ) * self.box.ranges
        mean, std = gp.predict(cand)
        ei = expected_improvement(mean, std, best=min(self._y))
        return cand[int(np.argmax(ei))]

    def tell(self, theta: Sequence[float], y: float) -> None:
        """Record one observation.

        A non-finite objective (a diverged, unstable-queue probe) is
        clamped through :func:`~repro.core.objective.clamp_objective`
        instead of raising —
        one bad configuration must not abort a whole tournament run.
        The clamp is counted on ``repro_tuner_penalized_total``.
        """
        t = np.asarray(theta, dtype=float)
        if not self.box.contains(t):
            raise ValueError(f"theta {t} outside the feasible box")
        if not np.isfinite(y):
            self.penalized += 1
            self._m_penalized.inc()
        self._x.append(t)
        self._y.append(clamp_objective(y))

    @property
    def observations(self) -> int:
        return len(self._y)

    def best_theta(self) -> np.ndarray:
        if not self._x:
            raise RuntimeError("no observations yet")
        best_y = min(self._y)
        tied = [
            tuple(float(v) for v in x)
            for x, y in zip(self._x, self._y) if y == best_y
        ]
        # Lexicographically smallest θ among exact ties: deterministic
        # under any observation order.
        return np.asarray(min(tied), dtype=float)
