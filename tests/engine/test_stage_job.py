"""Unit tests for stage and job models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.job import BatchJob
from repro.engine.stage import Stage
from repro.engine.task import TaskSpec


def make_stage(stage_id=0, name="map", tasks=4, cost=1.0, iterations=1):
    return Stage(
        stage_id=stage_id,
        name=name,
        tasks=[
            TaskSpec(task_id=i, records=100, compute_cost=cost)
            for i in range(tasks)
        ],
        iterations=iterations,
    )


class TestStage:
    def test_totals(self):
        s = make_stage(tasks=4, cost=2.0, iterations=3)
        assert s.num_tasks == 4
        assert s.total_records == 400
        assert s.total_compute_cost == pytest.approx(3 * 4 * 2.0)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            make_stage(iterations=0)


class TestBatchJob:
    def test_aggregates_over_stages(self):
        job = BatchJob(
            job_id=1,
            batch_time=10.0,
            records=800,
            stages=[
                make_stage(0, "map", tasks=4, cost=1.0),
                make_stage(1, "reduce", tasks=2, cost=0.5, iterations=2),
            ],
        )
        assert job.num_stages == 2
        assert job.num_tasks == 4 + 2 * 2
        assert job.total_compute_cost == pytest.approx(4 * 1.0 + 2 * 2 * 0.5)

    def test_duplicate_stage_ids_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(
                job_id=1,
                batch_time=0.0,
                records=0,
                stages=[make_stage(0), make_stage(0, name="other")],
            )

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(job_id=1, batch_time=0.0, records=-5)

    def test_critical_path_bound_monotone_in_cores(self):
        job = BatchJob(
            job_id=1,
            batch_time=0.0,
            records=400,
            stages=[make_stage(0, tasks=8, cost=1.0)],
        )
        b2 = job.critical_path_lower_bound(2)
        b8 = job.critical_path_lower_bound(8)
        assert b2 >= b8
        # With 8 cores for 8 unit tasks the bound is one task's duration.
        assert b8 == pytest.approx(1.0)

    def test_critical_path_respects_longest_task(self):
        stage = Stage(
            stage_id=0,
            name="skewed",
            tasks=[
                TaskSpec(task_id=0, records=1, compute_cost=10.0),
                TaskSpec(task_id=1, records=1, compute_cost=0.1),
            ],
        )
        job = BatchJob(job_id=1, batch_time=0.0, records=2, stages=[stage])
        # Even infinite cores cannot beat the longest task.
        assert job.critical_path_lower_bound(100) >= 10.0

    def test_critical_path_requires_cores(self):
        job = BatchJob(job_id=1, batch_time=0.0, records=0)
        with pytest.raises(ValueError):
            job.critical_path_lower_bound(0)


def lpt_order(tasks):
    """The stable longest-first order a stage keeps its tasks in."""
    return sorted(tasks, key=lambda t: t.compute_cost + t.io_cost,
                  reverse=True)


task_lists = st.lists(
    st.builds(
        lambda tid, r, c, io: (tid, r, c, io),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from([0.0, 0.1, 0.3, 1.7]) | st.floats(0.0, 50.0),
        st.sampled_from([0.0, 0.2, 0.7]) | st.floats(0.0, 5.0),
    ),
    max_size=30,
)


class TestStageValidation:
    @pytest.mark.parametrize("field,value", [
        ("records", -1), ("compute_cost", -0.5), ("io_cost", -1e-9),
    ])
    def test_negative_task_costs_rejected(self, field, value):
        costs = {"records": 1, "compute_cost": 1.0, "io_cost": 0.0}
        costs[field] = value
        with pytest.raises(ValueError, match=field):
            TaskSpec(task_id=0, **costs)
        with pytest.raises(ValueError, match=field):
            Stage.from_runs(0, "map", [(3, costs["records"],
                                        costs["compute_cost"],
                                        costs["io_cost"])])

    def test_negative_run_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            Stage.from_runs(0, "map", [(-1, 1, 1.0, 0.0)])

    def test_zero_iterations_rejected_from_runs(self):
        with pytest.raises(ValueError, match="iterations"):
            Stage.from_runs(0, "map", [(2, 1, 1.0, 0.0)], iterations=0)

    def test_runs_out_of_lpt_order_rejected(self):
        with pytest.raises(ValueError, match="LPT"):
            Stage.from_runs(0, "map", [(2, 1, 1.0, 0.0), (2, 1, 1.0, 0.5)])

    def test_empty_runs_dropped(self):
        stage = Stage.from_runs(0, "map", [(0, 9, 2.0, 0.0), (3, 1, 1.0, 0.0)])
        assert stage.runs == ((3, 1, 1.0, 0.0),)
        assert list(stage.tasks) == [TaskSpec(i, 1, 1.0, 0.0) for i in range(3)]


class TestStageTasksView:
    def test_list_is_stored_in_stable_lpt_order(self):
        tasks = [
            TaskSpec(0, 5, 1.0, 0.0),
            TaskSpec(1, 7, 2.0, 0.5),
            TaskSpec(2, 6, 1.0, 0.0),
            TaskSpec(3, 5, 0.5, 0.5),   # ties the first task's cost
            TaskSpec(4, 5, 1.0, 0.0),
        ]
        stage = Stage(stage_id=0, name="map", tasks=tasks)
        assert list(stage.tasks) == [tasks[i] for i in (1, 0, 2, 3, 4)]
        assert [t.task_id for t in stage.tasks] == [1, 0, 2, 3, 4]
        assert stage.runs == (
            (1, 7, 2.0, 0.5), (1, 5, 1.0, 0.0), (1, 6, 1.0, 0.0),
            (1, 5, 0.5, 0.5), (1, 5, 1.0, 0.0),
        )

    def test_indexing_and_slicing(self):
        stage = Stage.from_runs(0, "map", [(2, 4, 3.0, 1.0), (3, 3, 2.0, 0.5)])
        expected = [TaskSpec(0, 4, 3.0, 1.0), TaskSpec(1, 4, 3.0, 1.0),
                    TaskSpec(2, 3, 2.0, 0.5), TaskSpec(3, 3, 2.0, 0.5),
                    TaskSpec(4, 3, 2.0, 0.5)]
        assert len(stage.tasks) == 5
        assert [stage.tasks[i] for i in range(-5, 5)] == expected * 2
        assert stage.tasks[1:4] == expected[1:4]
        assert stage.tasks[::-2] == expected[::-2]
        assert stage.tasks == expected
        for bad in (5, -6):
            with pytest.raises(IndexError):
                stage.tasks[bad]

    def test_len_and_aggregates_build_no_task_objects(self, monkeypatch):
        stage = Stage.from_runs(0, "map", [(20, 4, 3.0, 1.0), (26, 3, 2.0, 0.5)])
        job = BatchJob(job_id=0, batch_time=0.0, records=158, stages=[stage])

        def forbidden(*args, **kwargs):
            raise AssertionError("a TaskSpec was built")

        monkeypatch.setattr("repro.engine.stage.TaskSpec", forbidden)
        assert len(stage.tasks) == stage.num_tasks == 46
        assert stage.total_records == 158
        assert job.num_tasks == 46
        job.critical_path_lower_bound(8)

    @given(tasks=task_lists, iterations=st.integers(1, 7),
           cores=st.integers(1, 64), speed=st.sampled_from([0.66, 1.0, 1.3]))
    @settings(max_examples=200, deadline=None)
    def test_aggregates_equal_per_task_sums_bit_for_bit(
        self, tasks, iterations, cores, speed,
    ):
        specs = [TaskSpec(*t) for t in tasks]
        stage = Stage(stage_id=0, name="map", tasks=specs,
                      iterations=iterations)
        order = lpt_order(specs)
        assert list(stage.tasks) == order
        assert len(stage.tasks) == stage.num_tasks == len(specs)
        assert stage.total_records == sum(t.records for t in order)
        assert stage.total_compute_cost == iterations * sum(
            t.compute_cost for t in order)
        assert stage.total_io_cost == iterations * sum(
            t.io_cost for t in order)
        job = BatchJob(job_id=0, batch_time=0.0, records=0, stages=[stage])
        per_iter = sum(t.compute_cost for t in order) / (cores * speed)
        longest = max((t.compute_cost / speed for t in order), default=0.0)
        assert job.critical_path_lower_bound(cores, speed) == (
            iterations * max(per_iter, longest))
