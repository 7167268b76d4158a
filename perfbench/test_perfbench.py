"""The benchmark's own tests, on a tiny size of each workload.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

from perfbench import harness
from perfbench.harness import TINY, WORKLOADS

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]


@pytest.fixture(scope="module")
def untraced(workload):
    return harness.run_untraced(workload, seed=3, seconds=0.0, scale=TINY,
                                probes=1)


@pytest.fixture(scope="module")
def traced(workload):
    return harness.run_traced(workload, seed=3, seconds=0.0, scale=TINY)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    emitted = {k: v["unit"] for k, v in untraced.metrics.items()}
    assert emitted == _spec_units("end_to_end")
    assert all(math.isfinite(v["value"]) for v in untraced.metrics.values())
    assert untraced.line()["correct"] is True
    assert untraced.line()["failed"] == 0


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    emitted = {k: v["unit"] for k, v in traced.metrics.items()}
    assert emitted == _spec_units("per_layer")
    assert traced.line()["correct"] is True


def test_self_times_and_unattributed_add_up_to_unit_wall(traced):
    rec = traced.recorder
    walls = {s[4]: s[2] - s[1] for s in rec.spans if s[3] == -1}
    assert len(walls) == traced.attempted
    children = defaultdict(float)
    for _, start, end, parent, _ in rec.spans:
        children[parent] += end - start
    per_unit = defaultdict(float)
    for index, (_, start, end, _, trace_id) in enumerate(rec.spans):
        per_unit[trace_id] += (end - start) - children[index]
    for trace_id, wall in walls.items():
        assert per_unit[trace_id] == pytest.approx(wall, rel=1e-9)
    assert sum(rec.self_time.values()) == pytest.approx(
        sum(walls.values()), rel=1e-9
    )
    layers = sum(
        m["value"] for k, m in traced.metrics.items() if k.endswith(".self_s")
    )
    rounds = traced.details["rounds"]
    assert (layers + traced.metrics["unattributed_s"]["value"]) * rounds == (
        pytest.approx(sum(walls.values()), rel=1e-9)
    )


def test_verification_catches_a_tampered_result(workload):
    records = harness.run_rounds(workload, seed=3, scale=TINY, seconds=0.0)
    tampered = dict(records[0].result, batchesExecuted=-1)
    records[0].digest = harness.result_digest(tampered)
    harness.verify(workload, records)
    assert harness.failed_count(records) == 1
    assert "digest" in records[0].error


def test_verification_catches_a_dropped_tournament_cell():
    workload = WORKLOADS["tournament"]
    records = harness.run_rounds(workload, seed=3, scale=TINY, seconds=0.0)
    records[-1].result = {"error": "tampered"}
    harness.verify(workload, records)
    assert all("leaderboard" in r.error for r in records)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tournament",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
