"""Task scheduler: turns a :class:`BatchJob` into a makespan.

The scheduler reproduces Spark's TaskSchedulerImpl behaviour at the level
that matters for SSPO: tasks of a stage run in parallel across all
executor cores (longest-processing-time-first list scheduling, a good
model of Spark's pending-task queue under uniform locality), stages are
separated by barriers, ML-style stages iterate, and driver-side overheads
from :mod:`repro.engine.overhead` are charged per batch / stage / task.

The result is the *batch processing time* — the single most important
quantity in the paper, since the stability constraint is
``batch interval >= batch processing time``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.executor import Executor
from repro.obs.span import Span, TraceContext
from repro.obs.tracer import Tracer

from .faults import NO_FAULTS, FaultModel
from .job import BatchJob
from .overhead import DEFAULT_OVERHEAD, OverheadModel
from .stage import Stage
from .task import TaskRun, TaskSpec


class NoExecutorsError(RuntimeError):
    """Raised when a job is submitted while zero executors are registered."""


@dataclass
class StageRun:
    """Aggregate record of one executed stage (all iterations)."""

    stage_id: int
    name: str
    start: float
    finish: float
    num_tasks: int
    iterations: int

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class JobRun:
    """Result of executing one batch job."""

    job_id: int
    start: float
    finish: float
    stage_runs: List[StageRun] = field(default_factory=list)
    task_runs: List[TaskRun] = field(default_factory=list)
    executors_used: int = 0
    task_failures: int = 0
    """Failed task attempts (transient faults, retried)."""
    exhausted_retries: int = 0
    """Tasks that consumed their whole failure budget (a real Spark job
    would have been aborted)."""

    @property
    def processing_time(self) -> float:
        """Batch processing time: submission to last-task completion."""
        return self.finish - self.start


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative log-normal jitter on task durations.

    ``sigma`` is the standard deviation of the underlying normal; 0.1
    yields roughly ±10% per-task variation — consistent with the "network
    jitters, resource contentions" noise the paper cites as motivation for
    a noise-tolerant optimizer (§4.1).
    """

    sigma: float = 0.10

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sigma == 0.0:
            return np.ones(n)
        # mean-1 log-normal so noise does not bias average durations
        return rng.lognormal(mean=-0.5 * self.sigma**2, sigma=self.sigma, size=n)


class TaskScheduler:
    """Greedy LPT list scheduler over heterogeneous executor cores."""

    def __init__(
        self,
        overhead: OverheadModel = DEFAULT_OVERHEAD,
        noise: NoiseModel = NoiseModel(),
        record_tasks: bool = False,
        faults: FaultModel = NO_FAULTS,
    ) -> None:
        self.overhead = overhead
        self.noise = noise
        self.record_tasks = record_tasks
        self.faults = faults

    def run_job(
        self,
        job: BatchJob,
        executors: Sequence[Executor],
        start_time: float,
        rng: np.random.Generator,
        tracer: Optional[Tracer] = None,
        parent: Optional[TraceContext] = None,
    ) -> JobRun:
        """Execute ``job`` on ``executors`` starting at ``start_time``.

        Returns a :class:`JobRun`; ``run.processing_time`` is the batch
        processing time reported to the streaming listener.

        With ``tracer`` and ``parent`` supplied, the run emits
        ``schedule`` / ``execute`` spans under the batch trace.  The
        spans tile ``[start_time, finish]`` exactly — driver-side setup
        and coordination land in ``schedule`` spans, task makespans in
        ``execute`` spans — so their durations sum to the batch
        processing time.
        """
        if not executors:
            raise NoExecutorsError(
                f"job {job.job_id} submitted with no executors registered"
            )
        traced = tracer is not None and tracer.enabled and parent is not None
        run = JobRun(
            job_id=job.job_id,
            start=start_time,
            finish=start_time,
            executors_used=len(executors),
        )
        # One (free_at, seq, core, executor, speed, io_penalty) heap entry
        # per core.  seq restarts with each task set, so zero-duration
        # tasks under zero dispatch overhead can tie on (free_at, seq);
        # core is unique among live entries and settles such ties before
        # they reach the executor, which has no order.  Speed and I/O
        # penalty are fixed for a job (slowdown and node state change
        # only between batches), so they are read once here, not once
        # per task attempt.
        slots: List[tuple] = []
        clock = start_time + self.overhead.batch_setup
        for ex in executors:
            speed = ex.speed_factor
            io_penalty = ex.io_penalty
            for _ in range(ex.cores):
                core = len(slots)
                slots.append((clock, core, core, ex, speed, io_penalty))
        heapq.heapify(slots)
        coord = self.overhead.coordination_cost(len(executors))
        if traced:
            setup = tracer.start_span(
                "schedule", parent, start_time, phase="job_setup"
            )
            setup.finish(clock)

        for stage in job.stages:
            stage_start = clock
            for iteration in range(stage.iterations):
                # Driver-side serial costs per stage execution.
                sched_start = clock
                clock += self.overhead.stage_setup + coord
                exec_span: Optional[Span] = None
                if traced:
                    sched = tracer.start_span(
                        "schedule", parent, sched_start,
                        stage=stage.stage_id, iteration=iteration,
                    )
                    sched.finish(clock)
                    exec_span = tracer.start_span(
                        "execute", parent, clock,
                        stage=stage.stage_id, iteration=iteration,
                        tasks=stage.num_tasks,
                    )
                clock = self._run_task_set(
                    stage, slots, clock, rng, run,
                    tracer=tracer if traced else None,
                    exec_span=exec_span,
                )
                if exec_span is not None:
                    exec_span.finish(clock)
            run.stage_runs.append(
                StageRun(
                    stage_id=stage.stage_id,
                    name=stage.name,
                    start=stage_start,
                    finish=clock,
                    num_tasks=stage.num_tasks,
                    iterations=stage.iterations,
                )
            )
        run.finish = clock
        return run

    def _run_task_set(
        self,
        stage: Stage,
        slots: List[tuple],
        barrier: float,
        rng: np.random.Generator,
        run: JobRun,
        tracer: Optional[Tracer] = None,
        exec_span: Optional[Span] = None,
    ) -> float:
        """Schedule one iteration of ``stage``'s tasks; return the new barrier.

        LPT order — longest tasks first — minimizes makespan for list
        scheduling and mirrors Spark's preference for large pending
        tasks.  The stage already holds its tasks as cost runs in that
        order, so the loop walks the runs with no sort and no per-task
        object.  The inlined duration performs exactly the float
        operations of :meth:`TaskSpec.duration_on`, so makespans are
        bit-identical to it.

        Each dispatch replaces the heap's root in place
        (``heapreplace``) instead of popping it and pushing the core
        back.  The ``(free_at, seq, core)`` keys are unique among live
        entries, so every pop returns the unique minimum and the pop
        sequence depends only on the heap's contents, which both ways
        leave equal.
        """
        num_tasks = stage.num_tasks
        if not num_tasks:
            return barrier
        noise = self.noise.draw(rng, num_tasks).tolist()
        finish_max = barrier
        seq = len(slots)
        heapreplace = heapq.heapreplace
        task_dispatch = self.overhead.task_dispatch
        executor_startup = self.overhead.executor_startup
        faults = self.faults
        max_attempts = faults.max_attempts
        faults_active = faults.enabled and max_attempts > 1
        record_tasks = self.record_tasks
        task_spans = (
            tracer is not None and tracer.task_detail and exec_span is not None
        )
        task_ids = stage.task_ids
        end = 0
        for count, records, compute_cost, io_cost in stage.runs:
            begin = end
            end += count
            for i, noise_i in enumerate(noise[begin:end], begin):
                attempts = 1
                while True:
                    free_at, _, core, ex, speed, io_penalty = slots[0]
                    start = (
                        barrier if barrier > free_at else free_at
                    ) + task_dispatch
                    duration = (
                        compute_cost / speed + io_cost * io_penalty
                    ) * noise_i
                    charged = not ex.initialized
                    if charged:
                        duration += executor_startup
                        ex.mark_initialized()
                    if faults_active:
                        if attempts < max_attempts and faults.attempt_fails(rng):
                            # Transient failure: the core is busy for part
                            # of the attempt, then the task re-queues on
                            # the earliest slot.
                            waste = duration * faults.waste_fraction(rng)
                            heapreplace(
                                slots,
                                (start + waste, seq, core, ex, speed, io_penalty),
                            )
                            seq += 1
                            run.task_failures += 1
                            if exec_span is not None:
                                exec_span.add_event(
                                    "task.retry", start + waste,
                                    executor=ex.executor_id, attempt=attempts,
                                )
                            attempts += 1
                            continue
                        if attempts == max_attempts:
                            # The final allowed attempt always succeeds
                            # here; a real system would abort the job at
                            # this point.
                            run.exhausted_retries += 1
                    finish = start + duration
                    if finish > finish_max:
                        finish_max = finish
                    heapreplace(slots, (finish, seq, core, ex, speed, io_penalty))
                    seq += 1
                    if task_spans:
                        tspan = tracer.start_span(
                            "task", exec_span, start,
                            executor=ex.executor_id, attempts=attempts,
                        )
                        tspan.finish(finish)
                    if record_tasks:
                        run.task_runs.append(
                            TaskRun(
                                spec=TaskSpec(
                                    task_ids[i], records, compute_cost, io_cost
                                ),
                                executor_id=ex.executor_id,
                                start=start,
                                finish=finish,
                                startup_charged=charged,
                            )
                        )
                    break
        # Barrier: next stage iteration starts when the slowest task ends.
        return finish_max
