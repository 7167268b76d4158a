"""Host-time benchmark of the NoStop simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-steady --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric from a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details
and environment stamp.  Result, layer-table and Chrome trace files go
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import harness, report  # noqa: E402  (imports no repro)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload", required=True, choices=sorted(harness.WORKLOADS)
    )
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("run.py: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no simulator sources under {ROOT / 'src'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in harness.TELEMETRY_ENV:
        os.environ.pop(key, None)

    workload = harness.WORKLOADS[args.workload]
    if args.trace:
        result = harness.run_traced(workload, args.seed, args.seconds)
    else:
        result = harness.run_untraced(workload, args.seed, args.seconds)
    stamp = harness.environment_stamp(args.seed)
    report.write_outputs(workload, args.seed, args.trace, result, stamp)
    print(report.render_table(workload, result))
    print(json.dumps({"details": result.details, "environment": stamp,
                      "failures": report.failures(result)}, sort_keys=True))
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
