"""Workloads, phases and metrics of the simulator benchmark.

A *unit* is one JSON sweep cell (``fixed_config``, ``nostop`` or
``tournament``) run in-process through
:func:`repro.runner.cells.execute_cell`, with no result cache.  A
*round* is the list of units a workload runs together: one unit per
paper workload on ``exact-steady`` and ``exact-nostop``, the default
7-tuner x 3-scenario grid on ``tournament``.  Rounds keep the mix of
units identical however long a run lasts; round ``r`` of a run with
seed ``s`` uses simulation seed ``1000 * s + r``.

An untraced run (``trace=0``) measures, in order: a warm-up round at a
tiny size, fresh-process set-up probes, the closed-loop timed phase,
the tier-gap cells and the verification pass; see :func:`run_untraced`.
A traced run (``trace=1``) times one fixed list of units traced and
untraced; see :func:`run_traced`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from perfbench.calibration import Bracket
from perfbench.tracing import (
    UNIT_SPAN,
    SpanRecorder,
    layer_targets,
    patched,
    traced_layers,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

PAPER_WORKLOADS = (
    "logistic_regression",
    "linear_regression",
    "wordcount",
    "page_analyze",
)

#: Seed for quoting results, and a second seed kept out of tuning so a
#: claimed gain can be re-checked on inputs its author never looked at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

#: Round index of the warm-up round (timed rounds count up from 0).
WARM_UP_INDEX = 999

#: Fresh-process set-up probes per untraced run (``setup_s`` is their
#: median).
SETUP_PROBES = 7

#: Rounds the verification pass reruns with checkers attached.  One
#: round keeps a run inside its time budget; every round that raises is
#: still counted as failed.
VERIFY_ROUNDS = 1

#: Environment variables that turn the repo's telemetry bundle on.
TELEMETRY_ENV = ("REPRO_TRACE", "REPRO_FORCE_TRACE")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("batches_per_s", "batches/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tier_gap_pct", "%"),
)


@dataclass(frozen=True)
class Scale:
    """Size knobs of one unit; ``FULL`` is the benchmark, ``TINY`` warms
    code paths and drives the benchmark's own tests."""

    batches: int = 600
    rounds: int = 40
    budget: int = 30


FULL = Scale()
TINY = Scale(batches=12, rounds=2, budget=2)


@dataclass(frozen=True)
class Unit:
    kind: str
    params: Dict[str, Any]

    @property
    def label(self) -> str:
        keys = ("workload", "tuner", "scenario", "seed")
        return self.kind + ":" + ",".join(
            str(self.params[k]) for k in keys if k in self.params
        )


@dataclass
class UnitRecord:
    unit: Unit
    round: int
    #: Position of the unit in its round; a slot holds one kind of cell.
    slot: int
    wall: float = 0.0
    batches: int = 0
    result: Optional[Dict[str, Any]] = None
    digest: str = ""
    #: Empty while the unit is good; the first failure reason otherwise.
    error: str = ""
    #: Host seconds of each exact-tier batch boundary the unit crossed.
    steps: List[float] = field(default_factory=list)
    #: Host slowness around the unit (see :class:`Bracket`); 1.0 when the
    #: unit ran uncalibrated.
    speed: float = 1.0


def unit_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def _steady_round(seed: int, index: int, scale: Scale) -> List[Unit]:
    return [
        Unit("fixed_config", {
            "workload": w,
            "seed": unit_seed(seed, index),
            "batch_interval": 10.0,
            "num_executors": 10,
            "batches": scale.batches,
        })
        for w in PAPER_WORKLOADS
    ]


def _nostop_round(seed: int, index: int, scale: Scale) -> List[Unit]:
    return [
        Unit("nostop", {
            "workload": w,
            "seed": unit_seed(seed, index),
            "rounds": scale.rounds,
        })
        for w in PAPER_WORKLOADS
    ]


def _tournament_round(seed: int, index: int, scale: Scale) -> List[Unit]:
    from repro.tuners import DEFAULT_SCENARIOS, tuner_names

    return [
        Unit("tournament", {
            "tuner": tuner,
            "scenario": scenario,
            "seed": unit_seed(seed, index),
            "workload": "wordcount",
            "budget": scale.budget,
            "fidelity": "vectorized",
            "slo_delay": 30.0,
        })
        for tuner in tuner_names()
        for scenario in DEFAULT_SCENARIOS
    ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; README.md records why each was chosen."""

    name: str
    #: What one step is: a batch boundary of the exact context, or a cell.
    step: str
    #: Whether units run with ``REPRO_TRACE=1`` (tracer, metrics, audit).
    telemetry: bool
    round_units: Callable[[int, int, Scale], List[Unit]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-steady",
            step="batch",
            telemetry=False,
            round_units=_steady_round,
        ),
        Workload(
            "exact-nostop",
            step="batch",
            telemetry=True,
            round_units=_nostop_round,
        ),
        Workload(
            "tournament",
            step="cell",
            telemetry=False,
            round_units=_tournament_round,
        ),
    )
}


# -- running units ----------------------------------------------------------


@contextlib.contextmanager
def telemetry_env(enabled: bool) -> Iterator[None]:
    """Set or clear ``REPRO_TRACE`` for the block, then restore."""
    saved = {k: os.environ.get(k) for k in TELEMETRY_ENV}
    for key in TELEMETRY_ENV:
        os.environ.pop(key, None)
    if enabled:
        os.environ["REPRO_TRACE"] = "1"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def result_digest(result: Dict[str, Any]) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_unit(
    unit: Unit,
    round_index: int,
    slot: int,
    recorder: Optional[SpanRecorder] = None,
    steps: Optional[List[float]] = None,
    bracket: Optional[Bracket] = None,
) -> UnitRecord:
    """Run one cell; a raising cell becomes a failed record.

    ``steps`` is the list a :func:`step_clock` fills; the boundaries this
    unit adds to it are kept on the record.  ``bracket`` times the
    calibration loop (untimed) after the unit.
    """
    from repro.runner.cells import execute_cell

    def call():
        return execute_cell(unit.kind, dict(unit.params))

    record = UnitRecord(unit=unit, round=round_index, slot=slot)
    first_step = len(steps) if steps is not None else 0
    start = time.perf_counter()
    try:
        if recorder is None:
            result = call()
        else:
            result = recorder.run_unit(unit.label, call)
    except Exception:  # the benchmark keeps going and counts the failure
        record.wall = time.perf_counter() - start
        record.error = "raised: " + traceback.format_exc(limit=4)
    else:
        record.wall = time.perf_counter() - start
        record.result = result
        record.batches = int(result.get("batchesExecuted", 0))
        record.digest = result_digest(result)
    if bracket is not None:
        record.speed = bracket.slowness()
    if steps is not None:
        record.steps = steps[first_step:]
    return record


def run_rounds(
    workload: Workload,
    seed: int,
    scale: Scale,
    seconds: float,
    steps: Optional[List[float]] = None,
    calibrate: bool = False,
) -> List[UnitRecord]:
    """Closed loop: whole rounds back to back until the units have run
    for ``seconds`` of host time (calibration time not counted)."""
    records: List[UnitRecord] = []
    measured = 0.0
    index = 0
    bracket = Bracket() if calibrate else None
    while True:
        gc.collect()  # every round starts from a collected heap
        units = workload.round_units(seed, index, scale)
        for slot, unit in enumerate(units):
            rec = run_unit(unit, index, slot, steps=steps, bracket=bracket)
            records.append(rec)
            measured += rec.wall
        index += 1
        if measured >= seconds:
            return records


@contextlib.contextmanager
def step_clock(steps: List[float]) -> Iterator[None]:
    """Time every exact-tier batch boundary into ``steps``."""
    from repro.streaming.context import StreamingContext

    original = StreamingContext.advance_one_batch
    clock = time.perf_counter

    def advance_one_batch(self):
        start = clock()
        completed = original(self)
        steps.append(clock() - start)
        return completed

    with patched([(StreamingContext, "advance_one_batch", advance_one_batch)]):
        yield


@contextlib.contextmanager
def captured_setups(attach_invariants: bool = False) -> Iterator[list]:
    """Capture every deployment the cells build (they import
    ``build_experiment`` from its module at call time).

    With ``attach_invariants`` each exact-tier context gets an
    :class:`~repro.check.InvariantEngine` before its first batch.
    """
    import repro.experiments.common as common
    from repro.check import InvariantEngine
    from repro.streaming.context import StreamingContext

    original = common.build_experiment
    setups: list = []

    def build_experiment(*args, **kwargs):
        setup = original(*args, **kwargs)
        engine = None
        if attach_invariants and isinstance(setup.context, StreamingContext):
            engine = InvariantEngine(setup.context)
        setups.append((setup, engine))
        return setup

    with patched([(common, "build_experiment", build_experiment)]):
        yield setups


# -- verification -----------------------------------------------------------


def unit_problems(setups: list, result: Dict[str, Any], digest: str) -> List[str]:
    """Property checks on one verified unit.

    Exact-tier units must raise no invariant violation and pass the
    analytic oracles; fast-tier units must pass ``check_fast_run``; and
    the result must hash to the timed run's digest.
    """
    from repro.check import run_oracles
    from repro.fast import check_fast_run

    problems = []
    for setup, engine in setups:
        if engine is not None:
            for v in engine.violations[:3]:
                problems.append(f"invariant {v.invariant}: {v.message}")
            for oracle in run_oracles(setup):
                if not oracle.passed:
                    problems.append(
                        f"oracle {oracle.oracle}: delta {oracle.delta:.4g} "
                        f"> {oracle.tolerance:.4g}"
                    )
        else:
            _, violations = check_fast_run(setup.context)
            for v in violations[:3]:
                problems.append(f"fast invariant {v.invariant}: {v.message}")
    if result_digest(result) != digest:
        problems.append("result digest differs from the timed run")
    return problems


def leaderboard_problems(records: List[UnitRecord]) -> List[str]:
    """Aggregate one tournament round and check it ranks every tuner."""
    from repro.tuners import build_leaderboard, tuner_names

    rows = [r.result if r.result is not None else {} for r in records]
    unit = records[0].unit.params
    board = build_leaderboard(
        rows,
        budget=unit["budget"],
        slo_delay=unit["slo_delay"],
        fidelity=unit["fidelity"],
    )
    problems = []
    if board["cellsDropped"] != 0:
        problems.append(f"leaderboard dropped {board['cellsDropped']} cells")
    ranked = sorted(e["tuner"] for e in board["leaderboard"])
    if ranked != tuner_names():
        problems.append(f"leaderboard ranks {ranked}, not {tuner_names()}")
    return problems


def verify(workload: Workload, records: List[UnitRecord]) -> None:
    """Rerun the good units of the first ``VERIFY_ROUNDS`` rounds with the
    repo's checkers attached, and aggregate every tournament round.

    Runs untimed, after timing, on the same seeds.  Marks failed records
    in place through ``UnitRecord.error``.
    """
    from repro.runner.cells import execute_cell

    with telemetry_env(workload.telemetry), \
            captured_setups(attach_invariants=True) as setups:
        for rec in records:
            if rec.error or rec.round >= VERIFY_ROUNDS:
                continue
            setups.clear()
            try:
                result = execute_cell(rec.unit.kind, dict(rec.unit.params))
            except Exception:
                rec.error = "verification rerun raised: " + (
                    traceback.format_exc(limit=4)
                )
                continue
            problems = unit_problems(setups, result, rec.digest)
            if problems:
                rec.error = "; ".join(problems)
        setups.clear()
    if workload.name == "tournament":
        by_round: Dict[int, List[UnitRecord]] = {}
        for rec in records:
            by_round.setdefault(rec.round, []).append(rec)
        for round_records in by_round.values():
            problems = leaderboard_problems(round_records)
            for rec in round_records:
                if problems and not rec.error:
                    rec.error = "; ".join(problems)


def failed_count(records: List[UnitRecord]) -> int:
    return sum(1 for r in records if r.error)


# -- end-to-end metrics -----------------------------------------------------


def tier_gap_pct(scale: Scale) -> float:
    """Mean relative gap in mean processing time, vectorized vs exact.

    Both tiers run the same center-point ``fixed_config`` cells on the
    default seed, so the value is deterministic and moves only when a
    tier's model changes.
    """
    from repro.runner.cells import execute_cell

    gaps = []
    with telemetry_env(False):
        for unit in _steady_round(DEFAULT_SEED, 0, scale):
            params = dict(unit.params, seed=DEFAULT_SEED)
            exact = execute_cell("fixed_config", dict(params))
            fast = execute_cell(
                "fixed_config", dict(params, fidelity="vectorized")
            )
            base = exact["meanProcessingTime"]
            gaps.append(abs(fast["meanProcessingTime"] - base) / base)
    return 100.0 * statistics.fmean(gaps)


def setup_seconds(workload: Workload, seed: int, probes: int) -> List[float]:
    """Import ``repro`` and build the first unit's deployment, each time
    in a fresh interpreter; returns the seconds each probe took.

    Not calibrated: the calibration loop, timed between child processes,
    read 1.5-9x slow while the probes themselves held steady.
    """
    unit = workload.round_units(seed, 0, FULL)[0]
    payload = json.dumps({"kind": unit.kind, "params": unit.params})
    env = dict(os.environ)
    for key in TELEMETRY_ENV:
        env.pop(key, None)
    if workload.telemetry:
        env["REPRO_TRACE"] = "1"
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             str(ROOT / "src"), payload],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def percentile_ms(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) * 1e3


def faster_half(records: List[UnitRecord]) -> List[UnitRecord]:
    """The faster half of each slot's units, by calibrated host seconds
    per batch.

    The host is shared: other tenants slow it by up to 2x for seconds to
    minutes at a time, and calibration removes most but not all of it.
    Like ``timeit``'s best-of-repeats, keeping the faster half of each
    cell kind's runs drops the slowed ones, while every slot keeps the
    same share of the mix.
    """
    slots: Dict[int, List[UnitRecord]] = {}
    for rec in records:
        slots.setdefault(rec.slot, []).append(rec)
    kept: List[UnitRecord] = []
    for runs in slots.values():
        runs.sort(key=lambda r: r.wall / r.speed / max(r.batches, 1))
        kept += runs[: (len(runs) + 1) // 2]
    return kept


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    records: List[UnitRecord]
    metrics: Dict[str, Dict[str, Any]]
    details: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return failed_count(self.records)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def warm_up(workload: Workload, seed: int) -> None:
    """One tiny round so lazy imports and first calls leave the timing."""
    with telemetry_env(workload.telemetry):
        units = workload.round_units(seed, WARM_UP_INDEX, TINY)
        for slot, unit in enumerate(units):
            rec = run_unit(unit, WARM_UP_INDEX, slot)
            if rec.error:
                raise RuntimeError(f"warm-up unit failed: {rec.error}")


def run_untraced(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: Scale = FULL,
    probes: int = SETUP_PROBES,
) -> RunResult:
    """The ``trace=0`` run: every end-to-end metric.

    Each unit's host times are divided by the host slowness around it
    (see :mod:`perfbench.calibration`), and the step metrics are taken
    over :func:`faster_half` of the units.  The details keep the
    uncalibrated figures of the same units.
    """
    warm_up(workload, seed)
    setups = setup_seconds(workload, seed, probes)
    clock: List[float] = []
    with telemetry_env(workload.telemetry), step_clock(clock):
        records = run_rounds(
            workload, seed, scale, seconds, steps=clock, calibrate=True
        )
    rss = peak_rss_mb()
    gap = tier_gap_pct(scale)
    verify(workload, records)
    kept = faster_half(records)

    def figures(speed: Callable[[UnitRecord], float]):
        if workload.step == "cell":
            steps = [r.wall / speed(r) for r in kept]
        else:
            steps = [s / speed(r) for r in kept for s in r.steps]
        return {
            "batches_per_s": sum(r.batches for r in kept)
            / sum(r.wall / speed(r) for r in kept),
            "step_ms_p50": percentile_ms(steps, 50),
            "step_ms_p90": percentile_ms(steps, 90),
        }, len(steps)

    values, step_count = figures(lambda r: r.speed)
    raw, _ = figures(lambda r: 1.0)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = rss
    values["tier_gap_pct"] = gap
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
    }
    details = {
        "rounds": max(r.round for r in records) + 1,
        "units": len(records),
        "unitsKept": len(kept),
        "steps": step_count,
        "batches": sum(r.batches for r in records),
        "timedSeconds": sum(r.wall for r in records),
        "hostSlowness": statistics.median(r.speed for r in records),
        "uncalibrated": raw,
        "setupProbes": setups,
        "failed_frac": failed_count(records) / len(records),
    }
    return RunResult(records=records, metrics=metrics, details=details)


# -- traced run -------------------------------------------------------------


def per_layer_names() -> List[tuple]:
    """Per-layer metrics: (name, unit), in report order."""
    names: List[tuple] = []
    for span, _, _, count in layer_targets():
        metric = (f"{span}.self_s", "s")
        if metric not in names:
            names.append(metric)
        if count is not None:
            names.append((count[0], "count"))
        if span in ("engine.run_job", "cluster.scale_to",
                    "fast.batch_proc_times"):
            names.append((f"{span}.calls", "count"))
    names += [
        ("kafka.segments", "count"),
        ("kafka.appends", "count"),
        ("streaming.dropped_frac", "ratio"),
        ("fast.batches_per_cost_call", "ratio"),
        ("obs.overhead_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("unattributed_s", "s"),
    ]
    return names


def fold_setups(setups: list, counts: Counter) -> None:
    """Add the work counts a finished unit's deployments hold."""
    from repro.streaming.context import StreamingContext

    for setup, _ in setups:
        context = setup.context
        if isinstance(context, StreamingContext):
            partitions = setup.generator.producer.topic.partitions
            counts["kafka.segments"] += sum(p.segment_count for p in partitions)
            counts["kafka.appends"] += sum(p.nonempty_appends for p in partitions)
            counts["streaming.dropped"] += context.queue.total_dropped
            counts["streaming.formed"] += context.queue.total_enqueued
        else:
            counts["fast.batches"] += len(context.listener.metrics)
    setups.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead_pct(slow: List[UnitRecord], fast: List[UnitRecord]) -> float:
    """Median over units of the extra calibrated wall time of ``slow``
    over ``fast``, in percent; both lists hold the same units in order."""
    return 100.0 * (
        statistics.median(
            (s.wall / s.speed) / (f.wall / f.speed) for s, f in zip(slow, fast)
        )
        - 1.0
    )


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: Scale = FULL,
) -> RunResult:
    """The ``trace=1`` run: every per-layer metric.

    A first pass runs whole rounds untraced for a quarter of ``seconds``;
    it fixes the unit list and warms the process.  Then every unit runs
    three more times, back to back in rotating order: traced (every layer
    wrapped), untraced with telemetry off, and untraced as the workload
    runs.  The checker pass verifies the list.  All runs must agree on
    every result digest.  Layer values are totals per round, so runs of
    different length compare; the overheads are medians over units of
    the calibrated per-unit wall ratio (traced over untraced, untraced
    over telemetry off).
    """
    warm_up(workload, seed)
    with telemetry_env(workload.telemetry):
        base = run_rounds(workload, seed, scale, seconds / 4.0)
    recorder = SpanRecorder()
    counts: Counter = Counter()
    bracket = Bracket()
    runs: Dict[str, List[UnitRecord]] = {"traced": [], "quiet": [], "plain": []}
    for index, rec in enumerate(base):
        gc.collect()
        modes = list(runs)
        for mode in modes[index % 3:] + modes[: index % 3]:
            again = functools.partial(
                run_unit, rec.unit, rec.round, rec.slot, bracket=bracket
            )
            if mode == "traced":
                with telemetry_env(workload.telemetry), \
                        captured_setups() as setups, traced_layers(recorder):
                    runs[mode].append(again(recorder=recorder))
                fold_setups(setups, counts)
            else:
                with telemetry_env(workload.telemetry and mode == "plain"):
                    runs[mode].append(again())
    traced, quiet, plain = runs["traced"], runs["quiet"], runs["plain"]
    verify(workload, base)
    for passed in (traced, quiet, plain):
        for rec, other in zip(base, passed):
            if not rec.error and (other.error or other.digest != rec.digest):
                rec.error = other.error or "traced/untraced digests differ"

    rounds = max(r.round for r in base) + 1
    self_time = recorder.self_time
    calls = recorder.calls
    totals: Dict[str, float] = {}
    for name, _ in per_layer_names():
        if name.endswith(".self_s"):
            totals[name] = self_time.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            totals[name] = calls.get(name[: -len(".calls")], 0)
    totals["workloads.tasks"] = recorder.counts.get("workloads.tasks", 0)
    totals["kafka.segments"] = counts["kafka.segments"]
    totals["kafka.appends"] = counts["kafka.appends"]
    totals["unattributed_s"] = self_time.get(UNIT_SPAN, 0.0)
    values = {name: total / rounds for name, total in totals.items()}
    values["streaming.dropped_frac"] = _ratio(
        counts["streaming.dropped"], counts["streaming.formed"]
    )
    values["fast.batches_per_cost_call"] = _ratio(
        counts["fast.batches"], calls.get("fast.batch_proc_times", 0)
    )
    values["obs.overhead_pct"] = overhead_pct(plain, quiet)
    values["trace.overhead_pct"] = overhead_pct(traced, plain)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in per_layer_names()
    }
    details = {
        "rounds": rounds,
        "units": len(base),
        "spans": len(recorder.spans),
        "wallTraced": sum(r.wall for r in traced),
        "wallTelemetryOff": sum(r.wall for r in quiet),
        "wallUntraced": sum(r.wall for r in plain),
        "failed_frac": failed_count(base) / len(base),
    }
    return RunResult(
        records=base, metrics=metrics, details=details, recorder=recorder
    )


# -- environment stamp -------------------------------------------------------


def git_commit(root: Path = ROOT) -> Optional[str]:
    """HEAD commit read from ``.git`` files, or None outside a git tree."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over ``src/repro``'s Python sources (path + content)."""
    h = hashlib.sha256()
    base = root / "src"
    for path in sorted(base.joinpath("repro").rglob("*.py")):
        h.update(path.relative_to(base).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_stamp(seed: int) -> Dict[str, Any]:
    import platform

    import numpy

    return {
        "seed": seed,
        "defaultSeed": DEFAULT_SEED,
        "heldOutSeed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "cpusUsable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blasThreads": {k: os.environ.get(k) for k in BLAS_ENV},
        "gitCommit": git_commit(),
        "sourceDigest": source_digest(),
    }

