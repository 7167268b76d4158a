"""Unit tests for the workload job factory."""

import numpy as np
import pytest

from repro.engine.stage import Stage
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.base import records_per_task
from repro.workloads.logistic_regression import StreamingLogisticRegression
from repro.workloads.wordcount import WordCount
from tests.engine.test_scheduler_differential import reference_build_job


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRecordsPerTask:
    def test_even_split(self):
        assert records_per_task(100, 4) == [25, 25, 25, 25]

    def test_remainder_goes_to_first_tasks(self):
        assert records_per_task(10, 4) == [3, 3, 2, 2]

    def test_zero_records(self):
        assert records_per_task(0, 3) == [0, 0, 0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            records_per_task(1, 0)
        with pytest.raises(ValueError):
            records_per_task(-1, 2)


class TestBuildJob:
    def test_job_structure_matches_cost_model(self, rng):
        wl = WordCount(partitions=8)
        job = wl.build_job(batch_time=5.0, records=1000, rng=rng)
        assert job.workload == "wordcount"
        assert job.num_stages == 2
        assert all(s.num_tasks == 8 for s in job.stages)
        assert job.records == 1000

    def test_records_conserved_per_stage(self, rng):
        wl = WordCount(partitions=7)
        job = wl.build_job(batch_time=0.0, records=1003, rng=rng)
        for stage in job.stages:
            assert stage.total_records == 1003

    def test_job_ids_increment(self, rng):
        wl = WordCount()
        a = wl.build_job(0.0, 10, rng)
        b = wl.build_job(1.0, 10, rng)
        assert b.job_id == a.job_id + 1

    def test_ml_iterations_only_on_gradient_stage(self, rng):
        wl = StreamingLogisticRegression()
        job = wl.build_job(0.0, 1000, rng)
        by_name = {s.name: s for s in job.stages}
        assert by_name["gradient"].iterations >= 4
        assert by_name["parse"].iterations == 1
        assert by_name["update"].iterations == 1

    def test_iterations_vary_between_batches(self, rng):
        wl = StreamingLogisticRegression()
        iters = {
            wl.build_job(float(i), 100, rng).stages[1].iterations
            for i in range(50)
        }
        assert len(iters) > 1  # the §6.3 ML noisiness

    def test_task_costs_scale_with_records(self, rng):
        wl = WordCount(partitions=4)
        small = wl.build_job(0.0, 1000, rng)
        large = wl.build_job(1.0, 10_000, rng)
        assert large.total_compute_cost > 5 * small.total_compute_cost

    def test_zero_record_job_valid(self, rng):
        wl = WordCount()
        job = wl.build_job(0.0, 0, rng)
        assert job.records == 0
        assert job.num_stages == 2

    def test_negative_records_rejected(self, rng):
        with pytest.raises(ValueError):
            WordCount().build_job(0.0, -1, rng)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            WordCount(partitions=0)

    @pytest.mark.parametrize("name", [
        "logistic_regression", "linear_regression", "wordcount", "page_analyze",
    ])
    def test_expected_cost_positive(self, name):
        wl = make_workload(name)
        assert wl.expected_cost_per_record() > 0


class TestStagesAsCostRuns:
    """``build_job`` stores each stage as cost runs; read through the
    ``tasks`` view they are the per-task specs of the one-object-per-task
    factory, and the aggregates are its per-task sums, bit for bit."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("records", [0, 5, 91, 7 * 13, 7 * 13 + 4, 1003])
    def test_view_matches_per_task_specs(self, name, records):
        workload = make_workload(name, partitions=7)
        oracle = make_workload(name, partitions=7)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        for batch in range(3):  # windowed workloads carry state across jobs
            job = workload.build_job(float(batch), records + batch, rng)
            ref = reference_build_job(oracle, job.job_id, records + batch,
                                      oracle_rng)
            for stage, plain in zip(job.stages, ref.stages, strict=True):
                tasks = plain.tasks
                assert isinstance(stage, Stage)
                assert (stage.stage_id, stage.name, stage.iterations) == (
                    plain.stage_id, plain.name, plain.iterations)
                assert len(stage.tasks) == stage.num_tasks == len(tasks)
                assert len(stage.runs) <= 2
                assert [stage.tasks[i] for i in range(len(tasks))] == tasks
                assert list(stage.tasks) == tasks
                assert stage.total_records == sum(t.records for t in tasks)
                assert stage.total_compute_cost == stage.iterations * sum(
                    t.compute_cost for t in tasks)
                assert stage.total_io_cost == stage.iterations * sum(
                    t.io_cost for t in tasks)
            assert job.num_tasks == sum(
                len(s.tasks) * s.iterations for s in ref.stages)
            bound = 0.0
            for s in ref.stages:
                per_iter = sum(t.compute_cost for t in s.tasks) / (58 * 1.0)
                longest = max(t.compute_cost for t in s.tasks)
                bound += s.iterations * max(per_iter, longest)
            assert job.critical_path_lower_bound(58) == bound
