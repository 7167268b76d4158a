"""Fig. 2 — effect of batch interval on streaming logistic regression.

Sweeps the batch interval at a fixed executor count and reports batch
processing time (Fig. 2a) and batch schedule delay (Fig. 2b).  Expected
shapes: processing time grows slowly with the interval; below the
stability crossover (≈10 s on the paper's testbed and in this
calibration) the schedule delay explodes; end-to-end delay is minimized
at the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.runner import SweepRunner, SweepSpec

#: Default sweep matching the paper's [1, 40] s interval range.
DEFAULT_INTERVALS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 40.0)


@dataclass(frozen=True)
class IntervalPoint:
    """One sweep point of Fig. 2."""

    interval: float
    processing_time: float
    schedule_delay: float
    end_to_end_delay: float
    unstable_fraction: float

    @property
    def stable(self) -> bool:
        return self.processing_time <= self.interval


@dataclass
class Fig2Result:
    points: List[IntervalPoint] = field(default_factory=list)
    workload: str = "logistic_regression"
    num_executors: int = 10

    def crossover_interval(self) -> float:
        """Smallest swept interval at which the system is stable."""
        for p in self.points:
            if p.stable:
                return p.interval
        raise RuntimeError("no stable interval in sweep")

    def best_interval(self) -> float:
        """Interval with the minimum end-to-end delay."""
        return min(self.points, key=lambda p: p.end_to_end_delay).interval

    def to_table(self) -> str:
        return format_table(
            ["interval (s)", "proc time (s)", "sched delay (s)",
             "e2e delay (s)", "stable"],
            [
                (p.interval, p.processing_time, p.schedule_delay,
                 p.end_to_end_delay, p.stable)
                for p in self.points
            ],
            title=(
                f"Fig. 2: batch-interval sweep "
                f"({self.workload}, {self.num_executors} executors)"
            ),
        )


def fig2_spec(
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    workload: str = "logistic_regression",
    num_executors: int = 10,
    batches: int = 25,
    seed: int = 1,
    fidelity: str = "exact",
) -> SweepSpec:
    """Declarative form of the Fig. 2 sweep (one cell per interval)."""
    base = {
        "workload": workload,
        "num_executors": num_executors,
        "batches": batches,
        "warmup": 4,
        "seed": seed,
    }
    if fidelity != "exact":
        # Non-default tiers only, so exact-tier cell digests are stable.
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig2-{workload}",
        kind="fixed_config",
        base=base,
        grid={"batch_interval": [float(i) for i in intervals]},
    )


def run_fig2(
    intervals: Sequence[float] = DEFAULT_INTERVALS,
    workload: str = "logistic_regression",
    num_executors: int = 10,
    batches: int = 25,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    fidelity: str = "exact",
) -> Fig2Result:
    """Run the Fig. 2 sweep; each point is a fresh deployment.

    Executes through the sweep runner — pass a configured
    :class:`~repro.runner.SweepRunner` for parallelism and caching; the
    default (one in-process worker, no cache) reproduces the historical
    sequential behaviour exactly.
    """
    runner = runner or SweepRunner()
    sweep = runner.run(
        fig2_spec(
            intervals,
            workload=workload,
            num_executors=num_executors,
            batches=batches,
            seed=seed,
            fidelity=fidelity,
        )
    )
    result = Fig2Result(workload=workload, num_executors=num_executors)
    for res in sweep.results:
        result.points.append(
            IntervalPoint(
                interval=res["batchInterval"],
                processing_time=res["meanProcessingTime"],
                schedule_delay=res["meanSchedulingDelay"],
                end_to_end_delay=res["meanEndToEndDelay"],
                unstable_fraction=res["unstableFraction"],
            )
        )
    return result


if __name__ == "__main__":
    print(run_fig2().to_table())
