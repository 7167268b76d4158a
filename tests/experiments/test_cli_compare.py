"""CLI: ``repro compare`` reports each baseline's confirmed best.

Every baseline row comes from the shared ``run_tuner`` loop followed by
``confirm_best``, so it reports the pause rule's stable-first,
per-θ-averaged winner — never a configuration whose processing time
exceeds its interval while stable ones were evaluated.
"""

from repro.cli import _COMPARE_BASELINES, _compare_baseline, main

ARGS = ["compare", "--workload", "wordcount", "--seed", "1", "--rounds", "10"]


def _row_delay(out: str, label: str) -> str:
    row = next(line for line in out.splitlines() if line.startswith(label))
    return row.split("|")[1].strip()


class TestCompareBaselineWinners:
    def test_random_search_winner_is_stable(self):
        # wordcount, seed 1, 20 evaluations, exact tier: 16 of the 20
        # random draws are stable, but the lowest raw objective ran at
        # processing/interval 1.067.
        report, best = _compare_baseline("random", "wordcount", 1, 20)
        assert any(e.stable for e in report.evaluated)
        assert best.stable
        assert best.mean_processing_time <= best.batch_interval

    def test_rows_print_the_confirmed_stable_bests(self, capsys):
        assert main(ARGS) == 0
        out = capsys.readouterr().out
        for label, name in _COMPARE_BASELINES:
            _, best = _compare_baseline(name, "wordcount", 1, 20)
            assert best.stable, label
            assert _row_delay(out, label) == f"{best.end_to_end_delay:.2f}"
