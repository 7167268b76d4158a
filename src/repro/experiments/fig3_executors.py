"""Fig. 3 — effect of executor count on streaming logistic regression.

Sweeps the executor count at a fixed batch interval and reports batch
processing time (Fig. 3a) and batch schedule delay (Fig. 3b).  Expected
shapes: a U-shaped processing-time curve (limited parallelism on the
left, executor-management overhead on the right), instability below
~10 executors at a 10 s interval, and processing time at ~20 executors
"the closest to the batch interval while the system still remains
stable".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.runner import SweepRunner, SweepSpec

DEFAULT_EXECUTOR_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24)


@dataclass(frozen=True)
class ExecutorPoint:
    """One sweep point of Fig. 3."""

    executors: int
    processing_time: float
    schedule_delay: float
    end_to_end_delay: float
    unstable_fraction: float
    interval: float

    @property
    def stable(self) -> bool:
        return self.processing_time <= self.interval


@dataclass
class Fig3Result:
    points: List[ExecutorPoint] = field(default_factory=list)
    workload: str = "logistic_regression"
    interval: float = 10.0

    def min_stable_executors(self) -> int:
        for p in self.points:
            if p.stable:
                return p.executors
        raise RuntimeError("no stable executor count in sweep")

    def best_executors(self) -> int:
        """Executor count with minimum end-to-end delay."""
        return min(self.points, key=lambda p: p.end_to_end_delay).executors

    def is_u_shaped(self) -> bool:
        """Left arm falls, and the right end does not keep falling."""
        procs = [p.processing_time for p in self.points]
        falls = procs[0] > min(procs)
        rises = procs[-1] >= min(procs)
        return falls and rises

    def to_table(self) -> str:
        return format_table(
            ["executors", "proc time (s)", "sched delay (s)",
             "e2e delay (s)", "stable"],
            [
                (p.executors, p.processing_time, p.schedule_delay,
                 p.end_to_end_delay, p.stable)
                for p in self.points
            ],
            title=(
                f"Fig. 3: executor-count sweep "
                f"({self.workload}, interval {self.interval} s)"
            ),
        )


def fig3_spec(
    executor_counts: Sequence[int] = DEFAULT_EXECUTOR_COUNTS,
    workload: str = "logistic_regression",
    interval: float = 10.0,
    batches: int = 25,
    seed: int = 1,
    fidelity: str = "exact",
) -> SweepSpec:
    """Declarative form of the Fig. 3 sweep (one cell per count)."""
    base = {
        "workload": workload,
        "batch_interval": float(interval),
        "batches": batches,
        "warmup": 4,
        "seed": seed,
    }
    if fidelity != "exact":
        # Only non-default tiers enter the cell params, so exact-tier
        # cell digests (cache keys, journal identities) are unchanged.
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig3-{workload}",
        kind="fixed_config",
        base=base,
        cases=[
            {"num_executors": int(n), "max_executors": max(24, int(n))}
            for n in executor_counts
        ],
    )


def run_fig3(
    executor_counts: Sequence[int] = DEFAULT_EXECUTOR_COUNTS,
    workload: str = "logistic_regression",
    interval: float = 10.0,
    batches: int = 25,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    fidelity: str = "exact",
) -> Fig3Result:
    """Run the Fig. 3 sweep; each point is a fresh deployment.

    Executes through the sweep runner (see :func:`run_fig2`'s note on
    the ``runner`` parameter).
    """
    runner = runner or SweepRunner()
    sweep = runner.run(
        fig3_spec(
            executor_counts,
            workload=workload,
            interval=interval,
            batches=batches,
            seed=seed,
            fidelity=fidelity,
        )
    )
    result = Fig3Result(workload=workload, interval=interval)
    for res in sweep.results:
        result.points.append(
            ExecutorPoint(
                executors=res["numExecutors"],
                processing_time=res["meanProcessingTime"],
                schedule_delay=res["meanSchedulingDelay"],
                end_to_end_delay=res["meanEndToEndDelay"],
                unstable_fraction=res["unstableFraction"],
                interval=interval,
            )
        )
    return result


if __name__ == "__main__":
    print(run_fig3().to_table())
