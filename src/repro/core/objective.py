"""The penalized SSPO objective (Eq. 3) and the ρ schedule.

The constrained problem "minimize batch interval subject to
interval >= processing time" becomes the unconstrained

.. math::

    G(\\theta) = BatchInterval + \\rho \\cdot \\max(0,
        BatchProcessingTime - BatchInterval)

where ρ starts small (large early gain sequences would otherwise produce
wild gradients off the penalty cliff) and grows by 0.1 per iteration up
to a cap of 2 (Algorithm 1), so late iterations firmly respect the
stability constraint without drowning the interval-minimization goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Finite stand-in for a diverged (non-finite) objective observation.
#: Large enough to rank a diverged configuration strictly worst, small
#: enough to keep a GP surrogate's solve numerically sane; every tuner
#: clamps through :func:`clamp_objective` so they all rank a diverged
#: probe identically.
DIVERGENCE_PENALTY = 1.0e6


def penalized_objective(
    batch_interval: float, processing_time: float, rho: float
) -> float:
    """Evaluate Eq. 3 for one measurement."""
    if batch_interval <= 0:
        raise ValueError(f"batch_interval must be positive, got {batch_interval}")
    if processing_time < 0:
        raise ValueError(f"processing_time must be >= 0, got {processing_time}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return batch_interval + rho * max(0.0, processing_time - batch_interval)


def clamp_objective(y: float) -> float:
    """Map a non-finite objective to the finite divergence penalty."""
    value = float(y)
    return value if math.isfinite(value) else DIVERGENCE_PENALTY


@dataclass
class RhoSchedule:
    """Additive-increase-to-cap penalty coefficient (Algorithm 1).

    ``rho = 1``, then ``rho = min(rho + 0.1, 2)`` once per iteration.
    """

    initial: float = 1.0
    increment: float = 0.1
    cap: float = 2.0

    def __post_init__(self) -> None:
        if self.initial < 0:
            raise ValueError("initial rho must be >= 0")
        if self.increment < 0:
            raise ValueError("increment must be >= 0")
        if self.cap < self.initial:
            raise ValueError(
                f"cap {self.cap} must be >= initial {self.initial}"
            )
        self._value = self.initial

    @property
    def value(self) -> float:
        return self._value

    def step(self) -> float:
        """Advance the schedule one iteration; returns the new ρ."""
        self._value = min(self._value + self.increment, self.cap)
        return self._value

    def reset(self) -> None:
        """Return to the initial ρ (used on an optimization restart)."""
        self._value = self.initial

    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the schedule position."""
        return {"value": float(self._value)}

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`checkpoint` snapshot."""
        self._value = float(state["value"])
