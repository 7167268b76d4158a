"""Driver-failure recovery: checkpointed restore vs §5.5 cold restart.

Shape contract: after a chaos ``driver_failure`` kills the controller
post-convergence, a checkpoint-restored controller resumes from the
exact SPSA iterate it died with (audit-verified ``restore`` firing) and
re-pauses in **measurably fewer batches** than the paper's stateless
cold restart — that gap is the hard assertion, and the headline number
recorded in ``BENCH_recovery.json``.
"""

from repro.analysis.tables import format_table
from repro.experiments.recovery import run_recovery_comparison

from .conftest import emit, run_once

WORKLOAD = "logistic_regression"
SEED = 3
PAUSE_N = 4
# LR seed 3 first pauses (pause_n=4) at round 25, t=7547 s, so the kill
# at 7600 s lands post-convergence.  The cold restart then needs a fresh
# convergence budget (18 rounds), hence 50 rounds in all.
KILL_TIME = 7600.0
OUTAGE = 60.0
ROUNDS = 50


def test_checkpoint_recovery_beats_cold_restart(benchmark, bench_record):
    comparison = run_once(
        benchmark, run_recovery_comparison,
        WORKLOAD, rounds=ROUNDS, seed=SEED,
        kill_time=KILL_TIME, outage=OUTAGE, pause_n=PAUSE_N,
    )
    cold = comparison["cold"]
    ckpt = comparison["checkpoint"]

    # Both runs saw the same scheduled kill, post-convergence.
    assert cold.paused_before_kill and ckpt.paused_before_kill
    assert cold.killed_at == ckpt.killed_at
    assert cold.restarts == 1 and ckpt.restarts == 1

    # The restored controller resumed from the exact checkpointed
    # iterate: its audit trail carries the restore firing with the
    # pre-kill k, something a cold restart cannot produce.
    restores = [
        f for f in ckpt.controller.audit.firings if f.kind == "restore"
    ]
    assert len(restores) == 1
    pre_kill = [r for r in ckpt.records if r.sim_time < ckpt.killed_at[0]]
    assert f"k={pre_kill[-1].k}" in restores[0].detail

    # The headline: checkpoint recovery re-converges in measurably
    # fewer batches than the §5.5 cold-restart baseline.
    assert cold.batches_to_repause is not None, "cold run never re-paused"
    assert ckpt.batches_to_repause is not None, "restored run never re-paused"
    assert ckpt.batches_to_repause < cold.batches_to_repause
    assert comparison["batches_saved"] > 0

    rows = [
        (
            r.mode,
            r.rounds_to_repause,
            r.batches_to_repause,
            f"{r.sim_time_to_repause:.0f}",
            "yes" if r.final_paused else "no",
        )
        for r in (cold, ckpt)
    ]
    emit(format_table(
        ["recovery mode", "rounds to re-pause", "batches to re-pause",
         "sim s to re-pause", "re-paused"],
        rows,
        title=(
            f"driver_failure at t={KILL_TIME:.0f}s ({OUTAGE:.0f}s outage), "
            f"{WORKLOAD} seed={SEED}"
        ),
    ))

    bench_record(
        metrics=ckpt.setup.context.listener.metrics,
        coldBatchesToRepause=cold.batches_to_repause,
        checkpointBatchesToRepause=ckpt.batches_to_repause,
        batchesSaved=comparison["batches_saved"],
        coldRoundsToRepause=cold.rounds_to_repause,
        checkpointRoundsToRepause=ckpt.rounds_to_repause,
        killTime=KILL_TIME,
        outageSeconds=OUTAGE,
    )
