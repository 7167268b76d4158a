"""Tuner adapters over the existing optimizers.

Each adapter retrofits one already-proven optimizer — the SPSA/NoStop
core, the GP Bayesian optimizer, simulated annealing, random search,
grid search — behind the :class:`~repro.tuners.base.Tuner` protocol
without re-implementing its mathematics.  The stateful search logic is
unchanged; only the driving loop moves out into
:func:`~repro.tuners.base.run_tuner`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.bayesian import BayesianOptimizer
from repro.baselines.grid_search import grid_points
from repro.core.bounds import MinMaxScaler
from repro.core.gains import GainSchedule, paper_gains
from repro.core.objective import RhoSchedule, clamp_objective
from repro.core.pause import EvaluatedConfig
from repro.core.spsa import SPSAOptimizer

from .base import Tuner, register_tuner


@register_tuner("nostop")
class NoStopTuner(Tuner):
    """The paper's optimizer: SPSA with the Algorithm 1 ρ schedule.

    SPSA consumes observations in θ⁺/θ⁻ pairs, so the adapter runs a
    two-phase protocol: the first ``ask`` of an iteration proposes θ⁺,
    the second θ⁻, and the gradient step fires when the minus-side
    observation lands.
    """

    def __init__(
        self,
        scaler: MinMaxScaler,
        seed: int = 0,
        gains: Optional[GainSchedule] = None,
        theta_initial: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(scaler, seed)
        initial = (
            self.box.center() if theta_initial is None else theta_initial
        )
        self.spsa = SPSAOptimizer(
            gains or paper_gains(), self.box, initial, seed=seed
        )
        self.schedule = RhoSchedule()
        self._pending: Optional[dict] = None

    def ask(self) -> np.ndarray:
        if self._pending is None:
            theta_plus, theta_minus, delta, c_k = self.spsa.propose()
            self._pending = {
                "thetaPlus": [float(v) for v in theta_plus],
                "thetaMinus": [float(v) for v in theta_minus],
                "delta": [float(v) for v in delta],
                "ck": float(c_k),
                "yPlus": None,
            }
            return np.asarray(theta_plus, dtype=float)
        return np.asarray(self._pending["thetaMinus"], dtype=float)

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        y = clamp_objective(objective)
        pending = self._pending
        if pending is None:
            raise RuntimeError("observe() without a pending ask()")
        if pending["yPlus"] is None:
            pending["yPlus"] = y
            return
        self.spsa.apply_measurements(
            np.asarray(pending["thetaPlus"], dtype=float),
            np.asarray(pending["thetaMinus"], dtype=float),
            np.asarray(pending["delta"], dtype=float),
            pending["ck"],
            pending["yPlus"],
            y,
        )
        self.schedule.step()
        self._pending = None

    def rho(self, cap: float) -> float:
        return min(self.schedule.value, float(cap))

    def checkpoint(self) -> dict:
        return {
            "spsa": self.spsa.checkpoint(),
            "rho": self.schedule.checkpoint(),
            "pending": dict(self._pending) if self._pending else None,
        }

    def restore(self, state: dict) -> None:
        self.spsa.restore(state["spsa"])
        self.schedule.restore(state["rho"])
        pending = state.get("pending")
        self._pending = dict(pending) if pending else None


@register_tuner("bo")
class BOTuner(Tuner):
    """GP + expected-improvement over the scaled box."""

    def __init__(
        self,
        scaler: MinMaxScaler,
        seed: int = 0,
        init_points: int = 5,
        candidates_per_step: int = 256,
    ) -> None:
        super().__init__(scaler, seed)
        self.optimizer = BayesianOptimizer(
            self.box,
            seed=seed,
            init_points=init_points,
            candidates_per_step=candidates_per_step,
        )

    def ask(self) -> np.ndarray:
        return self.optimizer.ask()

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        # The optimizer clamps non-finite objectives itself (the
        # divergence-penalty bugfix); no pre-clamp here keeps its
        # penalized counter honest.
        self.optimizer.tell(theta, objective)

    def checkpoint(self) -> dict:
        opt = self.optimizer
        return {
            "x": [[float(v) for v in x] for x in opt._x],
            "y": [float(v) for v in opt._y],
            "penalized": int(opt.penalized),
            "initialDesign": [
                [float(v) for v in row] for row in opt._initial_design
            ],
            "rngState": opt.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        opt = self.optimizer
        opt._x = [np.asarray(x, dtype=float) for x in state["x"]]
        opt._y = [float(v) for v in state["y"]]
        opt.penalized = int(state["penalized"])
        opt._initial_design = np.asarray(
            state["initialDesign"], dtype=float
        )
        opt.rng.bit_generator.state = state["rngState"]


@register_tuner("annealing")
class AnnealingTuner(Tuner):
    """Simulated annealing: accept regressions with ``exp(-Δ/T)``."""

    def __init__(
        self,
        scaler: MinMaxScaler,
        seed: int = 0,
        initial_temperature: float = 10.0,
        cooling: float = 0.92,
        neighbour_scale: float = 0.15,
    ) -> None:
        super().__init__(scaler, seed)
        if not (0.0 < cooling < 1.0):
            raise ValueError("cooling must be in (0, 1)")
        if initial_temperature <= 0:
            raise ValueError("initial_temperature must be positive")
        if neighbour_scale <= 0:
            raise ValueError("neighbour_scale must be positive")
        self.cooling = float(cooling)
        self.neighbour_scale = float(neighbour_scale)
        self.temperature = float(initial_temperature)
        self.rng = np.random.default_rng(seed)
        self.current: Optional[np.ndarray] = None
        self.current_y: float = float("inf")
        self.accepted = 0

    def ask(self) -> np.ndarray:
        if self.current is None:
            return self.box.center()
        step = self.rng.normal(scale=self.neighbour_scale * self.box.ranges)
        return self.box.project(self.current + step)

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        y = clamp_objective(objective)
        candidate = np.asarray(theta, dtype=float)
        if self.current is None:
            self.current = candidate
            self.current_y = y
            return
        delta = y - self.current_y
        if delta <= 0 or self.rng.random() < np.exp(
            -delta / self.temperature
        ):
            self.current = candidate
            self.current_y = y
            self.accepted += 1
        self.temperature *= self.cooling

    def checkpoint(self) -> dict:
        return {
            "current": (
                [float(v) for v in self.current]
                if self.current is not None
                else None
            ),
            "currentY": float(self.current_y),
            "temperature": float(self.temperature),
            "accepted": int(self.accepted),
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        current = state["current"]
        self.current = (
            np.asarray(current, dtype=float) if current is not None else None
        )
        self.current_y = float(state["currentY"])
        self.temperature = float(state["temperature"])
        self.accepted = int(state["accepted"])
        self.rng.bit_generator.state = state["rngState"]


@register_tuner("random")
class RandomTuner(Tuner):
    """Uniform random search — the tournament's sanity floor."""

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def ask(self) -> np.ndarray:
        self.draws += 1
        return self.box.lower + self.rng.uniform(
            size=self.box.dim
        ) * self.box.ranges

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        pass  # memoryless: the pause rule keeps the incumbent

    def checkpoint(self) -> dict:
        return {
            "draws": int(self.draws),
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self.draws = int(state["draws"])
        self.rng.bit_generator.state = state["rngState"]


@register_tuner("grid")
class GridTuner(Tuner):
    """Exhaustive grid enumeration; ``exhausted`` once the grid is done.

    The default resolution adapts to dimensionality (5 points/axis on
    the paper's 2-axis space, 3 on the 4-axis tournament space) so a
    budgeted run still sees every region of the box.
    """

    def __init__(
        self,
        scaler: MinMaxScaler,
        seed: int = 0,
        points_per_axis: Optional[int] = None,
    ) -> None:
        super().__init__(scaler, seed)
        if points_per_axis is None:
            points_per_axis = 5 if self.box.dim <= 2 else 3
        self.points_per_axis = int(points_per_axis)
        self.points = grid_points(scaler, self.points_per_axis)
        self.index = 0

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.points)

    def ask(self) -> np.ndarray:
        if self.exhausted:
            raise RuntimeError("grid exhausted")
        theta = self.points[self.index].copy()
        self.index += 1
        return theta

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        pass  # non-adaptive: enumeration order is fixed up front

    def checkpoint(self) -> dict:
        return {
            "index": int(self.index),
            "pointsPerAxis": int(self.points_per_axis),
        }

    def restore(self, state: dict) -> None:
        self.points_per_axis = int(state["pointsPerAxis"])
        self.points = grid_points(self.scaler, self.points_per_axis)
        self.index = int(state["index"])
