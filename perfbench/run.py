"""polycount benchmark: run one workload, or every workload with --all.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 45

Each round is a fresh `python3 perfbench/worker.py` process, so no library
cache carries over between rounds; the queries of one round share the
process, as a sweep script or one CLI call does.  A run makes a fixed
number of rounds per workload (ROUNDS); --seconds only caps it, by starting
no round that would end past it (at least one round is made).  Each query's
latency is its best over the rounds; wall_s, query_p50_ms and query_p90_ms
are the sum, median and 90th percentile of those over the queries.
setup_s is the median over every spawn.  --trace 1 adds one traced round
after them, whose per-layer metrics are reported instead.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
# Rounds per run.  A fixed count, so that two commits take each query's best over
# the same number of samples.  At the baseline each fills 32-38 s of the 45 s cap.
ROUNDS = {"scan": 5, "catalog": 8, "verify": 5}
WORKLOADS = tuple(ROUNDS)
SETUP_PROBES = 3  # extra import-only spawns, so set-up has enough samples for a median
ROUND_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def spawn(args: list[str]) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(args)} ran over {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """ROUNDS[workload] untraced rounds within `seconds`, then one traced round if asked."""
    base = ["--workload", workload, "--seed", str(seed)]
    probes = [spawn(base + ["--probe"]) for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while len(rounds) < ROUNDS[workload]:
        t = time.monotonic()
        rounds.append(spawn(base))
        if time.monotonic() - start + (time.monotonic() - t) > seconds:  # the next round would overrun
            break
    elapsed_s = time.monotonic() - start
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        traced = spawn(base + ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.tsv")])
    done = rounds + ([traced] if traced else [])
    # Rounds repeat identical work in fresh processes, so what differs between them is
    # interference from the rest of the machine, which comes in phases of a few seconds.
    # Each query's latency is therefore its best over the rounds; the timings are the
    # sum, median and 90th percentile of those over the queries.
    best = [min(lat) for lat in zip(*(r["latencies_ms"] for r in rounds))]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
        "wall_s": sum(best) / 1000,
        "query_p50_ms": statistics.median(best),
        "query_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    layers = None
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["wall_s"] / statistics.median(r["wall_s"] for r in rounds)
    return {
        "workload": workload,
        "rounds": len(rounds),
        "rounds_planned": ROUNDS[workload],
        "rounds_elapsed_s": elapsed_s,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_samples": len(probes) + len(rounds),
        "queries_per_round": rounds[0]["attempted"],
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "end_to_end": e2e,
        "per_layer": layers,
        "python": probes[0]["python"],
        "numpy": probes[0]["numpy"],
    }


def report_line(res: dict, trace: bool) -> str:
    values, listed = (res["per_layer"], PER_LAYER) if trace else (res["end_to_end"], END_TO_END)
    return json.dumps(
        {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in listed},
        }
    )


def print_table(res: dict) -> None:
    print(
        f"# {res['workload']}: {res['rounds']} of {res['rounds_planned']} rounds of {res['queries_per_round']} queries "
        f"(query timings are each query's best over the rounds; setup_s is a median over "
        f"{res['setup_samples']} spawns, peak_rss_mb over the rounds); rounds took {res['rounds_elapsed_s']:.1f} s; "
        f"fail_frac = {res['failed']}/{res['attempted']}; round wall_s "
        + " ".join(f"{w:.3f}" for w in res["round_wall_s"])
    )
    for section, listed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if res[section]:
            for name, unit in listed:
                print(f"{res['workload']}\t{name}\t{res[section][name]:.6g}\t{unit}")


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, traced and untraced, written to --out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(OUT / "results.json"), help="where --all writes its results")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinding kills a running worker
    if not (ROOT / "src" / "polycount" / "__init__.py").is_file():
        print(f"no polycount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.workload:
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print_table(res)
            print(report_line(res, bool(args.trace)))
            return 0
        results = []
        for workload in WORKLOADS:
            res = measure(workload, args.seed, args.seconds, trace=True)
            print_table(res)
            results.append(res)
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    doc = {
        "git_sha": _git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": results[0]["python"],
        "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "results": results,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
