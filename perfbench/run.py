"""The repo benchmark: whole-process runs of four workloads, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload go_storm [--seed 7] [--seconds 20] [--trace 0|1]

A run starts fresh processes of ``perfbench/instance.py``, one after
another, while the next one still fits in ``--seconds``.  Each process
is a whole user run of one workload on one seed: interpreter start,
``import repro``, provisioning, the measured phase and the output
checks, with the garbage collector on and no keys generated ahead of
need.  Every instance must pass its output checks and all instances must
reach the same outcome digest.

``--trace 0`` reports the end-to-end metrics as the median over the
instances.  ``--trace 1`` alternates one plain and one traced instance
(``layers.py`` wraps each layer's entry points) and reports per-layer
self time, calls and share, the exact work counts, and ``trace.overhead``;
it fails if the traced outcome differs from the plain one or if an entry
point the workload should call recorded nothing.

The last line of standard output is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it is ``{"perfbench": {...}}``: the environment stamp,
the outcome digest and the per-instance details that ``compare.py``
reads.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PLAN = json.loads((HERE / "plan.json").read_text())
#: an instance that outlives this is killed and the run fails
INSTANCE_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_vs": "vs",
    "latency_p90_vs": "vs",
    "makespan_vs": "vs",
    "goodput_gbps_v": "Gbit/vs",
    "jain_fairness": "ratio",
}

#: exact counts reported by the traced run: name -> unit
COUNTS = {
    "gridftp.commands": "count",
    "gridftp.pool_reuse_ratio": "ratio",
    "gridftp.dcau_full": "count",
    "gridftp.dcau_cached": "count",
    "gsi.handshakes_full": "count",
    "gsi.handshakes_resumed": "count",
    "gsi.resume_ratio": "ratio",
    "pki.rsa_sign": "count",
    "pki.rsa_verify": "count",
    "pki.rsa_keygen": "count",
    "pki.chain_validate": "count",
    "myproxy.logons": "count",
    "scheduler.claims": "count",
    "scheduler.requeues": "count",
    "scheduler.worker_crashes": "count",
    "scheduler.steals": "count",
    "scheduler.batches_coalesced": "count",
    "scheduler.useful_ratio": "ratio",
    "scheduler.queue_wait_p50_vs": "vs",
    "scheduler.queue_wait_p99_vs": "vs",
    "sim.events_fired": "count",
    "sim.faults_armed": "count",
    "storage.bytes_written": "bytes",
    "recovery.retries": "count",
    "archive.claims": "count",
    "archive.claim_lapses": "count",
    "archive.useful_ratio": "ratio",
    "telemetry.spans": "count",
    "telemetry.events": "count",
    "telemetry.metric_updates": "count",
}


class RunFailed(Exception):
    """An instance crashed, hung or printed no result: no metrics exist."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str | None:
    """The checkout's git commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over every ``src/`` Python file: names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_instance(workload: str, seed: int, traced: bool) -> dict:
    """Start one whole-process instance and wait for its report."""
    cmd = [sys.executable, str(HERE / "instance.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} seed {seed}: instance ran over "
                        f"{INSTANCE_TIMEOUT_S:.0f}s") from exc
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed}: instance exited {proc.returncode}\n"
                        f"{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["t"]["exited"] = ended
    return report


def host_metrics(report: dict) -> dict[str, float]:
    t = report["t"]
    measured = t["measured_end"] - t["setup_end"]
    return {
        "wall_s": t["exited"] - t["spawned"],
        "setup_s": t["setup_end"] - t["spawned"],
        "ops_per_s": report["attempted"] / measured,
        "peak_rss_mb": report["peak_rss_mb"],
        "run_s": t["measured_end"] - t["run_start"],
    }


def run_batch(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Instances (plain, or plain/traced pairs) while the next one fits.

    A plain run makes at least two instances, so set-up is always timed
    more than once.
    """
    reports: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        reports.append(run_instance(workload, seed, traced=False))
        if traced:
            reports.append(run_instance(workload, seed, traced=True))
        longest = max(longest, time.monotonic() - t0)
        enough = traced or len(reports) >= 2
        if enough and time.monotonic() - started + longest > seconds:
            return reports


def check(reports: list[dict], workload: str) -> list[str]:
    """Every output correct, one digest across instances, no missing layer."""
    problems = []
    for r in reports:
        label = "traced" if r["traced"] else "plain"
        problems += [f"{label}: {p}" for p in r["problems"]]
        for target in r.get("trace", {}).get("missing", ()):
            problems.append(f"traced: entry point {target} recorded no calls on {workload}")
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        problems.append(f"instances of one seed reached {len(digests)} different outcomes")
    # where a public counter counts the same calls a wrapper sees, the two
    # must agree, or some caller reaches the layer past the wrapper
    same = (("repro.gridftp.server:GridFTPSession.handle", "gridftp.commands_total"),
            ("repro.util.logging:EventLog.emit_event", "telemetry.events"))
    for r in reports:
        if "trace" not in r:
            continue
        for target, counter in same:
            wrapped = r["trace"]["entry_points"][target]["calls"]
            if wrapped != r["counts"][counter]:
                problems.append(f"{target} wrapped {wrapped} calls, but {counter} "
                                f"counts {r['counts'][counter]:.0f}")
    return problems


def end_to_end(reports: list[dict]) -> dict[str, float]:
    plain = [host_metrics(r) for r in reports if not r["traced"]]
    metrics = {name: statistics.median(m[name] for m in plain)
               for name in ("wall_s", "setup_s", "ops_per_s", "peak_rss_mb")}
    virtual = reports[0]["virtual"]
    metrics.update({name: virtual[name] for name in END_TO_END_UNITS if name in virtual})
    return metrics


def per_layer(reports: list[dict]) -> dict[str, tuple[float, str]]:
    """The layer table of the traced instance with the median ``run_s``.

    One instance supplies every self time, so the layers and
    ``unattributed`` sum exactly to its ``trace.run_s``.
    """
    traced = sorted((r for r in reports if r["traced"]), key=lambda r: r["trace"]["run_s"])
    chosen = traced[(len(traced) - 1) // 2]
    trace = chosen["trace"]
    out: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        row = trace["layers"][layer]
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.self_share"] = (row["self_share"], "ratio")
    out["unattributed.self_s"] = (trace["layers"]["unattributed"]["self_s"], "s")
    out["trace.run_s"] = (trace["run_s"], "s")
    plain_run_s = statistics.median(host_metrics(r)["run_s"] for r in reports if not r["traced"])
    out["trace.overhead"] = (trace["raw_run_s"] / plain_run_s, "ratio")
    counts = {**chosen["counts"], **trace["counts"]}
    for name, unit in COUNTS.items():
        out[name] = (counts[name], unit)
    out["latency_p99_vs"] = (chosen["virtual"]["latency_p99_vs"], "vs")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN["workloads"]))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default_seed in plan.json)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure while the next instance still fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else PLAN["workloads"][args.workload]["default_seed"]

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # compile once up front: the first instance should not pay for
    # bytecode that every later process (and every user) finds cached
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    try:
        reports = run_batch(args.workload, seed, args.seconds, traced=bool(args.trace))
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = check(reports, args.workload)
    first = reports[0]
    env = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": first["has_numpy"],
        "sympy": first["has_sympy"],
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    if args.trace:
        metrics = per_layer(reports)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(reports).items()}
    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "env": env,
        "digest": first["digest"],
        "problems": problems[:50],
        "counts": first["counts"],
        "virtual": first["virtual"],
        "instances": [{"traced": r["traced"], **host_metrics(r),
                       **({"trace": {k: v for k, v in r["trace"].items()
                                     if k != "entry_points"}} if r["traced"] else {})}
                      for r in reports],
    }
    if args.trace:
        detail["entry_points"] = [r["trace"]["entry_points"] for r in reports if r["traced"]][0]
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    if problems:
        print("perfbench: " + "\n  ".join(problems[:20]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
