"""Differential test: the task scheduler against a reference heap LPT loop.

The oracle below is the straightforward list scheduler: one
``(free_at, seq, core, executor)`` heap entry per core, a stable LPT sort
of each stage's plain ``TaskSpec`` list, durations from
:meth:`TaskSpec.duration_on`, executor properties read on every attempt.
:meth:`TaskScheduler.run_job`, which walks a stage's cost runs, must
reproduce it exactly — every ``JobRun`` field, every span, and the RNG
state it leaves behind.  :func:`reference_build_job` is the job factory
with one ``TaskSpec`` per task, the oracle for
:meth:`Workload.build_job`.
"""

import heapq
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.executor import Executor
from repro.cluster.node import CpuSpec, DiskType, Node
from repro.engine.faults import NO_FAULTS, FaultModel
from repro.engine.job import BatchJob
from repro.engine.overhead import DEFAULT_OVERHEAD, ZERO_OVERHEAD
from repro.engine.stage import Stage
from repro.engine.task import TaskRun, TaskSpec
from repro.engine.task_scheduler import JobRun, NoiseModel, StageRun, TaskScheduler
from repro.obs.tracer import Tracer
from repro.workloads import WORKLOADS, make_workload


def plain_stage(stage_id, name, tasks, iterations):
    """A stage as the reference reads it: a plain list of ``TaskSpec``."""
    return SimpleNamespace(stage_id=stage_id, name=name, tasks=tasks,
                           iterations=iterations)


def reference_build_job(workload, job_id, records, rng):
    """:meth:`Workload.build_job` with one ``TaskSpec`` per task.

    Returns the reference's view of the job (``job_id`` and plain
    stages); it draws the iteration count and advances a windowed
    workload's window exactly as ``build_job`` does.
    """
    cost_records = workload.effective_records(records)
    iters = workload.cost_model.iterations.draw(rng)
    partitions = workload.partitions
    per_task, rem = divmod(cost_records, partitions)
    stages = []
    for sid, sc in enumerate(workload.cost_model.stages):
        fixed = sc.fixed_compute / partitions
        tasks = []
        for tid in range(partitions):
            n = per_task + 1 if tid < rem else per_task
            tasks.append(TaskSpec(tid, n, fixed + n * sc.compute_per_record,
                                  n * sc.io_per_record))
        iterated = sc.name in workload.cost_model.iterated_stages
        stages.append(plain_stage(sid, sc.name, tasks,
                                  iters if iterated else 1))
    return SimpleNamespace(job_id=job_id, stages=stages)


def reference_run_job(sched, job, executors, start_time, rng, tracer=None,
                      parent=None):
    """Reference :meth:`TaskScheduler.run_job` over plain task lists."""
    traced = tracer is not None and tracer.enabled and parent is not None
    run = JobRun(job_id=job.job_id, start=start_time, finish=start_time,
                 executors_used=len(executors))
    slots = []
    clock = start_time + sched.overhead.batch_setup
    for ex in executors:
        for _ in range(ex.cores):
            slots.append((clock, len(slots), len(slots), ex))
    heapq.heapify(slots)
    coord = sched.overhead.coordination_cost(len(executors))
    if traced:
        tracer.start_span("schedule", parent, start_time,
                          phase="job_setup").finish(clock)
    for stage in job.stages:
        stage_start = clock
        order = sorted(stage.tasks, key=lambda t: t.compute_cost + t.io_cost,
                       reverse=True)
        for iteration in range(stage.iterations):
            sched_start = clock
            clock += sched.overhead.stage_setup + coord
            exec_span = None
            if traced:
                tracer.start_span("schedule", parent, sched_start,
                                  stage=stage.stage_id,
                                  iteration=iteration).finish(clock)
                exec_span = tracer.start_span(
                    "execute", parent, clock, stage=stage.stage_id,
                    iteration=iteration, tasks=len(stage.tasks),
                )
            clock = reference_task_set(sched, order, slots, clock, rng, run,
                                       tracer if traced else None, exec_span)
            if exec_span is not None:
                exec_span.finish(clock)
        run.stage_runs.append(StageRun(
            stage_id=stage.stage_id, name=stage.name, start=stage_start,
            finish=clock, num_tasks=len(stage.tasks),
            iterations=stage.iterations,
        ))
    run.finish = clock
    return run


def reference_task_set(sched, order, slots, barrier, rng, run, tracer,
                       exec_span):
    """One iteration of a stage: pop the earliest core, run, push back."""
    if not order:
        return barrier
    task_spans = (
        tracer is not None and tracer.task_detail and exec_span is not None
    )
    noise = sched.noise.draw(rng, len(order))
    faults = sched.faults
    finish_max = barrier
    seq = len(slots)
    for i, spec in enumerate(order):
        attempts = 0
        while True:
            attempts += 1
            free_at, _, core, ex = heapq.heappop(slots)
            start = max(free_at, barrier) + sched.overhead.task_dispatch
            startup = 0.0
            charged = False
            if not ex.initialized:
                startup = sched.overhead.executor_startup
                ex.mark_initialized()
                charged = True
            duration = spec.duration_on(ex, float(noise[i]), startup)
            if (faults.enabled and faults.max_attempts > 1
                    and attempts < faults.max_attempts
                    and faults.attempt_fails(rng)):
                waste = duration * faults.waste_fraction(rng)
                heapq.heappush(slots, (start + waste, seq, core, ex))
                seq += 1
                run.task_failures += 1
                if exec_span is not None:
                    exec_span.add_event("task.retry", start + waste,
                                        executor=ex.executor_id,
                                        attempt=attempts)
                continue
            if attempts == faults.max_attempts and attempts > 1:
                run.exhausted_retries += 1
            finish = start + duration
            finish_max = max(finish_max, finish)
            heapq.heappush(slots, (finish, seq, core, ex))
            seq += 1
            if task_spans:
                tracer.start_span("task", exec_span, start,
                                  executor=ex.executor_id,
                                  attempts=attempts).finish(finish)
            if sched.record_tasks:
                run.task_runs.append(TaskRun(
                    spec=spec, executor_id=ex.executor_id, start=start,
                    finish=finish, startup_charged=charged,
                ))
            break
    return finish_max


_CPUS = (
    CpuSpec(model="fast", clock_ghz=2.9, cores=12, speed_factor=1.05),
    CpuSpec(model="base", clock_ghz=2.9, cores=6, speed_factor=1.0),
    CpuSpec(model="slow", clock_ghz=1.9, cores=6, speed_factor=0.66),
)

executor_specs = st.lists(
    st.tuples(
        st.integers(0, len(_CPUS) - 1),          # node CPU
        st.sampled_from(list(DiskType)),         # node disk
        st.integers(1, 4),                       # cores
        st.booleans(),                           # already initialized
        st.sampled_from([1.0, 1.0, 1.5, 3.0]),   # straggler slowdown
    ),
    min_size=1,
    max_size=8,
)

stage_specs = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 1000),
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                st.sampled_from([0.0, 0.25, 1.0]),
            ),
            min_size=0,
            max_size=24,
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=3,
)


def build_executors(specs):
    """Fresh executors (initialization state is mutated by a run)."""
    out = []
    for i, (cpu, disk, cores, initialized, slowdown) in enumerate(specs):
        node = Node(i + 1, _CPUS[cpu], disk)
        out.append(Executor(executor_id=i + 1, node=node, cores=cores,
                            initialized=initialized, slowdown=slowdown))
    return out


def build_jobs(specs):
    """The job as ``run_job`` takes it and as the reference takes it.

    Both are built from the same unsorted task lists: the ``Stage``
    constructor sorts its copy into cost runs, the reference sorts the
    plain list itself.
    """
    tasks = [[TaskSpec(tid, r, c, io) for tid, (r, c, io) in enumerate(ts)]
             for ts, _ in specs]
    job = BatchJob(
        job_id=3,
        batch_time=10.0,
        records=sum(r for ts, _ in specs for r, _, _ in ts),
        stages=[
            Stage(stage_id=sid, name=f"s{sid}", iterations=iterations,
                  tasks=tasks[sid])
            for sid, (_, iterations) in enumerate(specs)
        ],
    )
    plain = SimpleNamespace(job_id=3, stages=[
        plain_stage(sid, f"s{sid}", tasks[sid], iterations)
        for sid, (_, iterations) in enumerate(specs)
    ])
    return job, plain


def run_both(sched, jobs, executors, tracing, seed):
    """Run ``jobs`` back to back through ``run_job`` and the reference.

    ``jobs`` holds ``(job, plain)`` pairs; each side gets fresh
    executors and its own generator.  Returns one outcome per side: the
    ``JobRun``s, the RNG state left behind, the executors'
    initialization flags and every span.
    """
    outcomes = []
    for side in (0, 1):
        tracer = parent = None
        if tracing != "off":
            tracer = Tracer(task_detail=tracing == "task_detail")
            parent = tracer.start_trace("batch", "batch-000003", 10.0)
        exs = build_executors(executors)
        rng = np.random.default_rng(seed)
        runs = []
        clock = 12.5
        for pair in jobs:
            if side == 0:
                run = sched.run_job(pair[0], exs, clock, rng, tracer=tracer,
                                    parent=parent)
            else:
                run = reference_run_job(sched, pair[1], exs, clock, rng,
                                        tracer=tracer, parent=parent)
            runs.append(run)
            clock = run.finish
        outcomes.append((
            runs,
            rng.bit_generator.state,
            [ex.initialized for ex in exs],
            [s.to_dict() for s in tracer.spans] if tracer else None,
        ))
    return outcomes


FAULTS = st.sampled_from([
    NO_FAULTS,
    FaultModel(task_failure_prob=0.3),
    FaultModel(task_failure_prob=0.5, max_attempts=2),
    FaultModel(task_failure_prob=0.2, max_attempts=1),
])


@st.composite
def batch_records(draw, partitions):
    """A batch size in one of the four shapes an even split can take."""
    shape = draw(st.sampled_from(["zero", "fewer", "multiple", "remainder"]))
    if shape == "zero":
        return 0
    if shape == "fewer":
        return draw(st.integers(0, partitions - 1))
    whole = partitions * draw(st.integers(1, 400))
    if shape == "multiple" or partitions == 1:
        return whole
    return whole + draw(st.integers(1, partitions - 1))


class TestSchedulerMatchesReference:
    @given(
        executors=executor_specs,
        stages=stage_specs,
        sigma=st.sampled_from([0.05, 0.1, 0.3]),
        overhead=st.sampled_from([DEFAULT_OVERHEAD, ZERO_OVERHEAD]),
        faults=FAULTS,
        record_tasks=st.booleans(),
        tracing=st.sampled_from(["off", "spans", "task_detail"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_job_run_spans_and_rng_identical(
        self, executors, stages, sigma, overhead, faults, record_tasks,
        tracing, seed,
    ):
        sched = TaskScheduler(overhead=overhead, noise=NoiseModel(sigma=sigma),
                              record_tasks=record_tasks, faults=faults)
        outcomes = run_both(sched, [build_jobs(stages)], executors, tracing,
                            seed)
        # JobRun equality covers every field: times, stage runs, task
        # runs (specs and task ids included) and the failure counts.
        assert outcomes[0] == outcomes[1]

    @given(
        name=st.sampled_from(sorted(WORKLOADS)),
        data=st.data(),
        executors=executor_specs,
        sigma=st.sampled_from([0.0, 0.1, 0.3]),
        faults=FAULTS,
        record_tasks=st.booleans(),
        tracing=st.sampled_from(["off", "spans", "task_detail"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_workload_jobs_identical(
        self, name, data, executors, sigma, faults, record_tasks, tracing,
        seed,
    ):
        """``build_job`` stages, windowed workloads included, at record
        counts of zero, fewer than ``partitions``, an exact multiple of
        it and a multiple plus a remainder."""
        partitions = data.draw(st.integers(1, 12), label="partitions")
        batches = data.draw(
            st.lists(batch_records(partitions), min_size=1, max_size=3),
            label="records",
        )
        sched = TaskScheduler(noise=NoiseModel(sigma=sigma),
                              record_tasks=record_tasks, faults=faults)
        workload = make_workload(name, partitions=partitions)
        oracle = make_workload(name, partitions=partitions)
        build_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        jobs = []
        for i, records in enumerate(batches):
            job = workload.build_job(float(i), records, build_rng)
            jobs.append((job, reference_build_job(oracle, job.job_id,
                                                  records, oracle_rng)))
        assert build_rng.bit_generator.state == oracle_rng.bit_generator.state
        outcomes = run_both(sched, jobs, executors, tracing, seed)
        assert outcomes[0] == outcomes[1]

    def test_faulty_run_exercises_retries(self):
        """The fault branch is reached (guards the property above from
        passing vacuously)."""
        sched = TaskScheduler(noise=NoiseModel(sigma=0.1),
                              faults=FaultModel(task_failure_prob=0.5),
                              record_tasks=True)
        job, plain = build_jobs([([(10, 1.0, 0.5)] * 16, 2)])
        ref = reference_run_job(
            sched, plain,
            build_executors([(0, DiskType.HDD, 2, False, 1.5)] * 3),
            0.0, np.random.default_rng(7))
        run = sched.run_job(
            job, build_executors([(0, DiskType.HDD, 2, False, 1.5)] * 3),
            0.0, np.random.default_rng(7))
        assert run.task_failures > 0 and run.exhausted_retries > 0
        assert run == ref
