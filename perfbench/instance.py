"""One whole benchmark process: import, set up, run one workload, check it.

``run.py`` starts this script once per measured instance, so every
instance pays what a user's process pays: interpreter start, ``import
repro``, provisioning (CA keys are generated on demand, none ahead of
time) and the measured phase, with the garbage collector on.  It prints
one JSON object as its last line of standard output::

    python3 perfbench/instance.py --workload go_storm --seed 1 \
        --spawned-at <time.monotonic() of the parent at spawn> [--trace]

Timestamps are ``time.monotonic()`` readings, which share one clock
across processes on the same host, so the parent can place them on its
own timeline.  With ``--trace`` the layer entry points are wrapped
(``layers.py``) between the start of set-up and the end of the measured
phase, and the per-layer table rides along in the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import resource
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return sorted_values[rank - 1]


def virtual_metrics(outcome) -> dict[str, float]:
    """End-to-end metrics on the virtual clock (deterministic per seed)."""
    done = [op for op in outcome.ops if op.ok]
    latencies = sorted(op.end_vs - op.start_vs for op in done)
    start = min((op.start_vs for op in outcome.ops), default=0.0)
    makespan = max((op.end_vs for op in done), default=start) - start
    delivered = sum(op.nbytes for op in done)
    # Jain's index over each user's mean latency times their fair-share
    # weight: weighted fair service gives every user the same value, and a
    # starved user a larger one, which pulls the index below 1
    per_user: dict[str, list[float]] = {}
    for op in done:
        row = per_user.setdefault(op.user, [0.0, 0])
        row[0] += op.end_vs - op.start_vs
        row[1] += 1
    delays = [lat / n * outcome.weights.get(user, 1.0) for user, (lat, n) in per_user.items()]
    square_sum = sum(x * x for x in delays)
    return {
        "ops": len(outcome.ops),
        "latency_p50_vs": percentile(latencies, 0.50),
        "latency_p90_vs": percentile(latencies, 0.90),
        # the p99 rests on >= 10 samples beyond it only from 1000 ops up
        "latency_p99_vs": percentile(latencies, 0.99) if len(latencies) >= 1000 else 0.0,
        "makespan_vs": makespan,
        "goodput_gbps_v": delivered * 8 / 1e9 / makespan if makespan > 0 else 0.0,
        "jain_fairness": (sum(delays) ** 2 / (len(delays) * square_sum)
                          if square_sum else 0.0),
    }


def outcome_digest(outcome) -> str:
    """sha256 of the virtual outcome: per-op status, times, bytes, counts."""
    body = {
        "ops": [[op.op_id, op.user, op.ok, op.start_vs, op.end_vs, op.nbytes]
                for op in outcome.ops],
        "counts": outcome.counts,
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads  # the benchmark's own module; imports repro
    from repro.util.vector import HAS_NUMPY

    workload = workloads.WORKLOADS[args.workload]
    t = {"spawned": args.spawned_at}
    trace = None
    if args.trace:
        import layers

        trace = layers.LayerTrace()
        trace.install()
        trace.open_root()
    t["run_start"] = time.monotonic()

    def start_measuring() -> None:
        t["setup_end"] = time.monotonic()

    def stop_measuring() -> None:
        t["measured_end"] = time.monotonic()
        if trace is not None:
            trace.close_root()

    outcome = workload(args.seed, start_measuring, stop_measuring)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "t": t,
        "attempted": len(outcome.ops),
        "failed": sum(1 for op in outcome.ops if not op.ok),
        "problems": outcome.problems[:20],
        "virtual": virtual_metrics(outcome),
        "counts": outcome.counts,
        "digest": outcome_digest(outcome),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "has_numpy": HAS_NUMPY,
        "has_sympy": "sympy" in sys.modules,
    }
    if trace is not None:
        report["trace"] = trace.summary(args.workload)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
