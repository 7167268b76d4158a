"""Stage model.

A Spark job is a DAG of stages separated by shuffle boundaries.  For the
micro-batch workloads in the paper this DAG is a simple chain (map-style
stages feeding reduce-style stages), so a stage here carries its tasks
plus an optional iteration count: ML workloads (streaming logistic /
linear regression) rerun their gradient stage once per model iteration,
which is the paper's explanation for their noisier batch processing time
(§6.3 — "the batch processing time of an unfitted model usually takes
longer than that of a fitted model").

A stage stores its tasks as *cost runs*: blocks of consecutive identical
tasks, each ``(count, records, compute_cost, io_cost)``, in
longest-processing-time-first (LPT) order — the order the scheduler
dispatches them in.  The direct Kafka stream splits a batch evenly over
its partitions, so a workload's stage is at most two runs however many
tasks it has.  :attr:`Stage.tasks` is a read-only view that builds
:class:`TaskSpec` objects only when indexed or iterated.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Tuple

from .task import TaskSpec, check_task_costs

#: ``(count, records, compute_cost, io_cost)``: ``count`` identical tasks.
CostRun = Tuple[int, int, float, float]


def _lpt_key(task: TaskSpec) -> float:
    return task.compute_cost + task.io_cost


class StageTasks(Sequence):
    """Read-only sequence of a stage's tasks, in LPT order.

    ``len`` is O(1) and builds nothing; indexing and iteration build
    each :class:`TaskSpec` on demand, carrying its original ``task_id``.
    """

    __slots__ = ("_stage",)

    def __init__(self, stage: "Stage") -> None:
        self._stage = stage

    def __len__(self) -> int:
        return self._stage.num_tasks

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        stage = self._stage
        if index < 0:
            index += stage.num_tasks
        if not 0 <= index < stage.num_tasks:
            raise IndexError("stage task index out of range")
        offset = index
        for count, records, compute_cost, io_cost in stage.runs:
            if offset < count:
                return TaskSpec(
                    stage.task_ids[index], records, compute_cost, io_cost
                )
            offset -= count
        raise AssertionError("cost runs disagree with num_tasks")

    def __iter__(self) -> Iterator[TaskSpec]:
        ids = iter(self._stage.task_ids)
        for count, records, compute_cost, io_cost in self._stage.runs:
            for _ in range(count):
                yield TaskSpec(next(ids), records, compute_cost, io_cost)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (StageTasks, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StageTasks({list(self)!r})"


class Stage:
    """A set of independent tasks plus a barrier at the end.

    Parameters
    ----------
    stage_id:
        Position in the job's chain.
    name:
        Human-readable label (e.g. ``"map"``, ``"reduceByKey"``,
        ``"gradient"``).
    tasks:
        Partition-level task specs; all tasks of a stage may run in
        parallel, and the stage completes when the last task does.
        They are put in LPT order once, with a stable sort, and stored
        as cost runs.  :meth:`from_runs` builds a stage from runs
        directly, with no per-task object.
    iterations:
        How many times the stage body is executed back to back.  Modeling
        convergence loops this way keeps the DAG static while letting the
        cost model vary the iteration count per batch.

    Attributes
    ----------
    runs:
        The tasks as a tuple of :data:`CostRun` in LPT order, with no
        empty run.
    task_ids:
        Each task's ``task_id``, in the order of ``runs``.
    """

    __slots__ = (
        "stage_id", "name", "iterations", "runs", "task_ids", "_num_tasks",
    )

    def __init__(
        self,
        stage_id: int,
        name: str,
        tasks: Iterable[TaskSpec] = (),
        iterations: int = 1,
    ) -> None:
        order = sorted(tasks, key=_lpt_key, reverse=True)
        runs = []
        for task in order:
            cost = (task.records, task.compute_cost, task.io_cost)
            if runs and runs[-1][1:] == cost:
                runs[-1] = (runs[-1][0] + 1, *cost)
            else:
                runs.append((1, *cost))
        self._set(
            stage_id, name, runs, iterations,
            tuple(task.task_id for task in order),
        )

    @classmethod
    def from_runs(
        cls,
        stage_id: int,
        name: str,
        runs: Iterable[CostRun],
        iterations: int = 1,
    ) -> "Stage":
        """Stage whose tasks are ``runs``, with ids ``0 .. n-1`` in order.

        ``runs`` must already be in LPT order (non-increasing
        ``compute_cost + io_cost``); each run is validated once, and
        runs of zero tasks are dropped.
        """
        stage = cls.__new__(cls)
        stage._set(stage_id, name, runs, iterations, None)
        return stage

    def _set(
        self,
        stage_id: int,
        name: str,
        runs: Iterable[CostRun],
        iterations: int,
        task_ids: Optional[Sequence],
    ) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        kept = []
        num_tasks = 0
        longest = float("inf")
        for count, records, compute_cost, io_cost in runs:
            if count < 0:
                raise ValueError(f"run count must be >= 0, got {count}")
            check_task_costs(records, compute_cost, io_cost)
            if not count:
                continue
            key = compute_cost + io_cost
            if key > longest:
                raise ValueError(
                    "cost runs must be in LPT order (non-increasing "
                    f"compute_cost + io_cost), got {key} after {longest}"
                )
            longest = key
            kept.append((count, records, compute_cost, io_cost))
            num_tasks += count
        self.stage_id = stage_id
        self.name = name
        self.iterations = iterations
        self.runs: Tuple[CostRun, ...] = tuple(kept)
        self.task_ids = range(num_tasks) if task_ids is None else task_ids
        self._num_tasks = num_tasks

    @property
    def tasks(self) -> StageTasks:
        return StageTasks(self)

    @property
    def num_tasks(self) -> int:
        return self._num_tasks

    def _per_task(self, field: int) -> Iterator:
        """One run field repeated per task, in task order."""
        return chain.from_iterable(
            repeat(run[field], run[0]) for run in self.runs
        )

    @property
    def total_records(self) -> int:
        return sum(self._per_task(1))

    @property
    def compute_cost_per_iteration(self) -> float:
        """Compute-seconds of one iteration, summed task by task."""
        return sum(self._per_task(2))

    @property
    def total_compute_cost(self) -> float:
        """Baseline compute-seconds across all tasks and iterations."""
        return self.iterations * self.compute_cost_per_iteration

    @property
    def total_io_cost(self) -> float:
        return self.iterations * sum(self._per_task(3))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stage):
            return NotImplemented
        return (
            self.stage_id == other.stage_id
            and self.name == other.name
            and self.iterations == other.iterations
            and self.runs == other.runs
            and tuple(self.task_ids) == tuple(other.task_ids)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Stage(stage_id={self.stage_id!r}, name={self.name!r}, "
            f"runs={self.runs!r}, iterations={self.iterations!r})"
        )
