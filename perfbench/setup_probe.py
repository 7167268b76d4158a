"""Set-up probe: run in a fresh interpreter by the benchmark.

Usage: ``python3 perfbench/setup_probe.py <src-dir> '<unit json>'``

Imports ``repro`` and executes the unit's cell only until the cell has
built its deployment, then prints the seconds that took.  The cell is
stopped by raising from a wrapped ``build_experiment`` (cells import it
from its module at call time).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


class _Built(Exception):
    pass


def main() -> int:
    src, payload = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import repro.experiments.common as common
    from repro.runner.cells import execute_cell

    build = common.build_experiment

    def build_then_stop(*args, **kwargs):
        build(*args, **kwargs)
        raise _Built

    common.build_experiment = build_then_stop
    try:
        execute_cell(payload["kind"], payload["params"])
    except _Built:
        print(time.perf_counter() - START)
        return 0
    print("setup probe: the cell never built a deployment", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
