"""One round of one workload in a fresh process; prints one JSON line.

Started by run.py with --t0 set to the parent's time.monotonic() just before
the spawn (CLOCK_MONOTONIC is system-wide), so setup_s covers interpreter
start, numpy and `import polycount`.  The timed loop runs every query of
the seeded workload; the answers are checked after it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

import polycount
import probes
import tracer
from workloads import WORKLOADS


def _inject(target, mode):
    """Make the first call of polycount.<module>.<attr> answer wrongly or raise."""
    module = sys.modules[f"polycount.{target[0]}"]
    original = getattr(module, target[1])
    calls = []

    def faulty(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            return original(*args, **kwargs)
        if mode == "raise":
            raise RuntimeError("injected fault")
        return original(*args, **kwargs) + 1

    tracer.rebind(original, faulty)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced round's spans to this TSV file")
    ap.add_argument("--inject", choices=("wrong", "raise"), default=None)
    ap.add_argument("--probe", action="store_true", help="measure set-up only")
    args = ap.parse_args()
    setup_s = time.monotonic() - args.t0
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(polycount.__file__).resolve().parent != src / "polycount":
        print(f"imported polycount from {polycount.__file__}, not from {src}", file=sys.stderr)
        return 2
    meta = {"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__}
    if args.probe:
        print(json.dumps(meta))
        return 0

    workload = WORKLOADS[args.workload]
    queries = workload.generate(args.seed)
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        probes.install(tr)
    if args.inject:
        _inject(workload.inject, args.inject)

    answers, errors, latencies = [], {}, []
    loop_start = time.perf_counter()
    for i, query in enumerate(queries):
        if tr:
            tr.query = i
        t = time.perf_counter()
        try:
            answers.append(workload.run(query))
        except Exception:  # a failed query is counted, and the loop goes on
            answers.append(None)
            errors[i] = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tr:
        layers = probes.per_layer(tr, wall_s)
        if args.spans:
            tr.write_spans(args.spans)

    failed = []
    for i, (query, answer) in enumerate(zip(queries, answers)):
        if i in errors:
            failed.append(i)
            print(f"{args.workload} query {i} {query} raised:\n{errors[i]}", file=sys.stderr)
            continue
        try:
            ok = workload.check(query, answer)
        except Exception:
            ok = False
            print(f"{args.workload} check of query {i} {query} raised:\n{traceback.format_exc(limit=3)}", file=sys.stderr)
        if not ok:
            failed.append(i)
            print(f"{args.workload} query {i} {query} gave a wrong answer", file=sys.stderr)

    meta.update(
        wall_s=wall_s,
        latencies_ms=[1000 * t for t in latencies],
        peak_rss_mb=peak_rss_mb,
        attempted=len(queries),
        failed=len(failed),
        layers=layers,
    )
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
