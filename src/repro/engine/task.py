"""Task model.

A task is the unit of work Spark schedules onto an executor core: it
processes one partition of a stage's input.  Task *cost* is expressed in
baseline-seconds of compute plus an I/O fraction; the actual wall-clock
duration on a given executor is derived from the hosting node's speed
factor and disk penalty, plus multiplicative noise drawn by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.executor import Executor


def check_task_costs(records: int, compute_cost: float, io_cost: float) -> None:
    """Raise :class:`ValueError` unless a task's costs are non-negative."""
    if records < 0:
        raise ValueError(f"records must be >= 0, got {records}")
    if compute_cost < 0:
        raise ValueError(f"compute_cost must be >= 0, got {compute_cost}")
    if io_cost < 0:
        raise ValueError(f"io_cost must be >= 0, got {io_cost}")


@dataclass
class TaskSpec:
    """Static description of a task before it is scheduled.

    Parameters
    ----------
    task_id:
        Index of the task within its stage.
    records:
        Number of input records in the task's partition.
    compute_cost:
        Seconds of pure compute on a ``speed_factor == 1.0`` core.
    io_cost:
        Seconds of I/O (shuffle read/write, HDFS output) on an SSD node;
        HDD nodes multiply this by their penalty.
    """

    task_id: int
    records: int
    compute_cost: float
    io_cost: float = 0.0

    def __post_init__(self) -> None:
        check_task_costs(self.records, self.compute_cost, self.io_cost)

    def duration_on(
        self,
        executor: Executor,
        noise_factor: float = 1.0,
        startup_cost: float = 0.0,
    ) -> float:
        """Wall-clock duration of this task on ``executor``.

        ``noise_factor`` is the multiplicative runtime jitter (network,
        GC, contention) drawn by the scheduler; ``startup_cost`` is the
        one-time initialization charge for a freshly launched executor.
        """
        if noise_factor <= 0:
            raise ValueError(f"noise_factor must be positive, got {noise_factor}")
        compute = self.compute_cost / executor.speed_factor
        io = self.io_cost * executor.io_penalty
        return (compute + io) * noise_factor + startup_cost


@dataclass
class TaskRun:
    """Record of one executed task (who ran it, when, for how long)."""

    spec: TaskSpec
    executor_id: int
    start: float
    finish: float
    startup_charged: bool = field(default=False)

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError(
                f"task finish {self.finish} precedes start {self.start}"
            )
