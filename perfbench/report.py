"""Output files and the printed table of one benchmark run."""

from __future__ import annotations

import json
from typing import Any, Dict, List

from perfbench.harness import OUT_DIR, RunResult, Workload


def failures(result: RunResult) -> List[Dict[str, Any]]:
    """Failed units with their reasons (first ten)."""
    failed = [
        {"unit": r.unit.label, "round": r.round, "error": r.error}
        for r in result.records
        if r.error
    ]
    return failed[:10]


def render_table(workload: Workload, result: RunResult) -> str:
    lines = [f"perfbench {workload.name}"]
    for name, metric in result.metrics.items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(
        f"  units attempted {result.attempted}, failed {result.failed}"
    )
    return "\n".join(lines)


def write_outputs(
    workload: Workload,
    seed: int,
    trace: int,
    result: RunResult,
    stamp: Dict[str, Any],
) -> None:
    """Write the run's result JSON and, for a traced run, the layer table
    and the Chrome trace (open it in Perfetto)."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    payload = dict(result.line(), details=result.details,
                   environment=stamp, failures=failures(result))
    _dump(OUT_DIR / f"result-{stem}.json", payload)
    if result.recorder is not None:
        _dump(
            OUT_DIR / f"trace-{stem}.json",
            result.recorder.chrome_trace({
                "workload": workload.name,
                "layers": result.metrics,
                **stamp,
            }),
        )


def _dump(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
