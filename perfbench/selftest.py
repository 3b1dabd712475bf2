"""Self-test of the benchmark's own checks and counters.

    python3 perfbench/selftest.py

For each workload, at seed 1, it runs one round with a wrong answer
injected into the library (the first call of the workload's target returns
a corrupted value) and one with an injected exception, and requires both to
be counted as failed queries.  It then runs two traced rounds and requires
every count to repeat exactly.  Exit code 0 means all held.
"""

from __future__ import annotations

import sys

from metrics import PER_LAYER
from run import WORKLOADS, spawn

COUNTS = [name for name, unit in PER_LAYER if unit == "count"]
SEED = 1


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", str(SEED)]
        for mode in ("wrong", "raise"):
            res = spawn(base + ["--inject", mode])
            print(f"{workload}: injected {mode}: fail_frac = {res['failed']}/{res['attempted']}")
            if res["failed"] == 0:
                problems.append(f"{workload}: an injected {mode} answer was not counted as a failure")
        first, second = (spawn(base + ["--trace"]) for _ in range(2))
        if first["failed"] or second["failed"]:
            problems.append(f"{workload}: a traced round failed")
        for name in COUNTS:
            a, b = first["layers"][name], second["layers"][name]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced rounds at one seed: {a} vs {b}")
        print(f"{workload}: {len(COUNTS)} counts compared across two traced rounds")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
