"""Fleet scheduler benchmark: a multi-user job storm through Globus Online.

Drives >= 5k transfer jobs from >= 50 contending users through the fleet
scheduler — fair-share queue, lease-based workers, admission control,
small-file coalescing — over the chaos fault backdrop (host crashes on
the worker fleet), and reports:

* wall-clock throughput (jobs/sec of simulator progress);
* virtual-time queue waits (p50/p99 seconds between submit and claim);
* Jain's fairness index over per-user delivered bytes;
* crash/requeue/batch counts as campaign evidence.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py           # full run
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --quick   # 500 jobs
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --quick \
        --overhead-check                                  # observability tax gate

``--out FILE`` saves the run's JSON report.  ``--observability`` runs
the same storm with the flight recorder and SLO engine attached
(``World.enable_observability``).  ``--overhead-check`` runs the
scenario both ways in 5 interleaved pairs, alternating which mode goes
first, and fails if the median per-pair ratio of instrumented to bare
jobs/sec falls more than ``OVERHEAD_TOLERANCE`` (default 10%) below 1 —
the "observability is near-free" gate.  It compares runs on one
machine, so it needs no committed baseline.

Sharded control plane (DESIGN.md §14)::

    # the GO storm through N scheduler shards with work-stealing
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --shards 8

    # control-plane-only scale tier: 100k users hashed across 8 shards,
    # reporting jobs/s and bytes of RSS per queued job
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py \
        --scale --shards 8 --users 100000 --out BENCH_scheduler_sharded.json

``BENCH_scheduler_sharded.json`` is the committed full scale-tier
record and ``BENCH_scheduler_sharded_quick.json`` the quick-mode one CI
gates against (``--scale --quick --check ...``): ``--check`` fails when
bytes of RSS per queued job grow more than 30% (``BENCH_TOLERANCE``
overrides the tolerance, a fraction).  Wall-clock speed is not gated
here: the repo benchmark's same-runner A/B (``perfbench/``) drives the
same ``ShardedFleetScheduler`` over 8 shards in its control_wide
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.auth import (  # noqa: E402
    AccountDatabase,
    Control,
    LdapDirectory,
    LdapPamModule,
    PamStack,
)
from repro.core.gcmu import install_gcmu  # noqa: E402
from repro.globusonline.service import GlobusOnline  # noqa: E402
from repro.globusonline.transfer import JobStatus  # noqa: E402
from repro.scheduler import (  # noqa: E402
    ScheduledTask,
    SchedulerConfig,
    SchedulerLimits,
    ShardedFleetScheduler,
    jain_index,
)
from repro.sim.faults import ChaosConfig  # noqa: E402
from repro.sim.world import World  # noqa: E402
from repro.storage.data import SyntheticData  # noqa: E402
from repro.util.units import KB, MB, gbps  # noqa: E402
from repro.util.stats import percentile  # noqa: E402

SCHEMA = "bench_scheduler_fleet/v1"
DEFAULT_TOLERANCE = 0.30
#: interleaved bare/instrumented pairs behind the --overhead-check median
OVERHEAD_PAIRS = 5
WORKER_HOSTS = tuple(f"go-worker-{i}" for i in range(8))


def make_site(world, host, site_name, users, register_with, endpoint_name):
    """GCMU install with LDAP-backed users (mirrors tests/conftest.py)."""
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack(f"myproxy-{site_name}").add(
        Control.SUFFICIENT, LdapPamModule(ldap))
    endpoint = install_gcmu(
        world, host, site_name, accounts, pam,
        register_with=register_with, endpoint_name=endpoint_name,
        charge_install_time=False)
    for username in users:
        endpoint.make_home(username)
    return endpoint


def build_fleet(seed: int, users: int, shards: int | None = None):
    """The soak topology at benchmark scale, chaos armed on the workers."""
    world = World(seed=seed, event_capacity=50_000, span_capacity=50_000)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
        workers=len(WORKER_HOSTS),
        worker_hosts=WORKER_HOSTS,
        lease_s=120.0,
        heartbeat_s=20.0,
        max_task_attempts=50,
    ), shards=shards)
    ep_a = make_site(
        world, "dtn-a", "alcf",
        {f"user{i}": f"pw{i}" for i in range(users)},
        register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_site(world, "dtn-b", "nersc", {"sink": "pwS"},
                     register_with=go, endpoint_name="nersc#dtn")
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=120.0,
        host_downtime_s=(10.0, 40.0),
        horizon_s=6 * 3600.0,
    ))
    world.chaos.arm(hosts=list(WORKER_HOSTS))
    # MyProxy key pregeneration (a real myproxy-server feature): prime
    # search runs here, at provision time, instead of inside logons during
    # the timed drain.  Issued keys are bit-identical either way — the
    # pool replays the CA rng stream in issue order.
    ep_a.myproxy.ca.pregenerate(192)
    ep_b.myproxy.ca.pregenerate(192)
    return world, go, ep_a, ep_b


def run_bench(seed: int, users: int, jobs: int, quick: bool,
              observability: bool = False, shards: int | None = None) -> dict:
    world, go, ep_a, ep_b = build_fleet(seed, users, shards=shards)
    if observability:
        world.enable_observability()
    accounts = []
    for u in range(users):
        account = go.register_user(f"user{u}@globusid")
        go.activate(account, "alcf#dtn", f"user{u}", f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        accounts.append(account)

    # the drain allocates millions of short-lived events/spans that the
    # ring buffers drop almost immediately; cyclic-GC passes over that
    # churn are pure measurement noise, so collect once and pause the
    # collector for the timed region (reference counting still reclaims
    # the garbage — nothing here is cyclic)
    import gc
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    submitted = []
    for n in range(jobs):
        u = n % users
        username = f"user{u}"
        uid = ep_a.accounts.get(username).uid
        # 3 of 4 jobs are sub-threshold small files (they coalesce into
        # pipelined batches); the rest stream alone.  The mix is keyed to
        # the per-user job index so every user submits the same byte
        # profile and the Jain index measures scheduling, not workload.
        small = (n // users) % 4 != 3
        size = 256 * KB if small else 8 * MB
        path = f"/home/{username}/j{n}.dat"
        ep_a.storage.write_file(path, SyntheticData(seed=n, length=size), uid=uid)
        submitted.append(go.submit_transfer(
            accounts[u], "alcf#dtn", path,
            "nersc#dtn", f"/home/sink/{username}-j{n}.dat", defer=True))
    submit_wall = time.perf_counter() - t0

    t1 = time.perf_counter()
    go.process_queue()
    drain_wall = time.perf_counter() - t1
    if gc_was_enabled:
        gc.enable()

    ok = sum(1 for j in submitted if j.status is JobStatus.SUCCEEDED)
    failed = len(submitted) - ok
    waits = [t.claimed_at - t.submitted_at
             for t in go.scheduler.completed_tasks]
    delivered = go.scheduler.queue.delivered_bytes()
    metrics = world.metrics

    def total(name: str) -> int:
        metric = metrics.get(name)
        return int(metric.total()) if metric is not None else 0

    total_wall = submit_wall + drain_wall
    observability_results = {}
    if observability:
        observability_results = {
            "flight_records": len(world.flight_recorder),
            "slo_alerts_fired": int(
                metrics.get("slo_alerts_total").total()),
        }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "observability": observability,
        "scenario": {
            "seed": seed,
            "users": users,
            "jobs": jobs,
            "workers": len(WORKER_HOSTS),
            # only sharded runs carry the key: unsharded scenarios stay
            # byte-identical to the pre-sharding baselines
            **({"shards": shards} if shards is not None else {}),
        },
        "results": {
            "wall_s": round(total_wall, 4),
            "submit_wall_s": round(submit_wall, 4),
            "drain_wall_s": round(drain_wall, 4),
            "jobs_per_s": round(jobs / total_wall, 2),
            "succeeded": ok,
            "failed": failed,
            "virtual_duration_s": round(world.now, 2),
            "queue_wait_p50_s": round(percentile(waits, 0.50), 3),
            "queue_wait_p99_s": round(percentile(waits, 0.99), 3),
            "jain_fairness": round(jain_index(delivered.values()), 4),
            "bytes_delivered": sum(delivered.values()),
            "worker_crashes": total("scheduler_worker_crashes_total"),
            "requeues": total("scheduler_requeued_total"),
            "batches_coalesced": total("scheduler_batches_coalesced_total"),
            "batched_files": total("scheduler_batched_files_total"),
            **({"steals": total("scheduler_steals_total")}
               if shards is not None else {}),
            **observability_results,
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def _rss_bytes() -> int:
    """Resident set size, bytes.  /proc on Linux, ru_maxrss elsewhere."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return rss * 1024 if sys.platform != "darwin" else rss


def run_scale_bench(seed: int, users: int, jobs: int, shards: int,
                    quick: bool) -> dict:
    """The "millions of users" tier: control plane only, no data plane.

    100k users hashed across N shards, each submitting no-op jobs
    directly to the sharded scheduler — no Globus Online accounts, no
    topology, no byte movement — so the numbers isolate what the
    control plane itself costs: scheduler operations per second and
    resident bytes per queued job (sampled at peak queue depth, after
    the submit storm and before the drain).
    """
    import gc

    world = World(seed=seed, event_capacity=10_000, span_capacity=10_000)
    # scale tier runs admission wide open: the point is to *hold* a
    # 100k-user backlog, not to reject it at the door
    config = SchedulerConfig(
        workers=max(64, shards),
        lease_s=3600.0,
        heartbeat_s=600.0,
        limits=SchedulerLimits(
            max_queue_depth=None, max_queued_per_user=None,
            max_active_per_endpoint=None,
            max_bytes_in_flight_per_endpoint=None),
    )
    sched = ShardedFleetScheduler(world, config, shards=shards)
    size = 1_000_000

    gc.collect()
    rss_before = _rss_bytes()
    t0 = time.perf_counter()
    for n in range(jobs):
        sched.submit(ScheduledTask(
            task_id=f"task-{n}", user=f"user{n % users}",
            src_endpoint=f"src-{n % 64}", dst_endpoint=f"dst-{n % 64}",
            size_hint=size, execute=lambda: size, measure=lambda r: r,
        ))
    submit_wall = time.perf_counter() - t0
    queued = len(sched.queue)
    gc.collect()
    rss_peak = _rss_bytes()

    t1 = time.perf_counter()
    serviced = sched.run_until_idle(max_ticks=100_000_000)
    drain_wall = time.perf_counter() - t1
    assert serviced == jobs, f"lost jobs: {serviced} != {jobs}"

    total_wall = submit_wall + drain_wall
    rss_per_job = max(0, rss_peak - rss_before) / max(1, queued)
    delivered = sched.queue.delivered_bytes()
    return {
        "schema": SCHEMA,
        "quick": quick,
        "observability": False,
        "scenario": {
            "mode": "scale",
            "seed": seed,
            "users": users,
            "jobs": jobs,
            "shards": shards,
            "workers": config.workers,
        },
        "results": {
            "wall_s": round(total_wall, 4),
            "submit_wall_s": round(submit_wall, 4),
            "drain_wall_s": round(drain_wall, 4),
            "jobs_per_s": round(jobs / total_wall, 2),
            "submit_jobs_per_s": round(jobs / submit_wall, 2),
            "drain_jobs_per_s": round(jobs / drain_wall, 2),
            "succeeded": serviced,
            "failed": 0,
            "peak_queue_depth": queued,
            "rss_bytes_per_queued_job": round(rss_per_job, 1),
            "rss_peak_bytes": rss_peak,
            "jain_fairness": round(jain_index(delivered.values()), 4),
            "virtual_duration_s": round(world.now, 2),
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def check_rss(current: dict, baseline_path: pathlib.Path) -> int:
    """Exit code 1 if RSS bytes per queued job grew beyond tolerance.

    Memory per queued job (scale tier).  RSS is allocator- and
    machine-dependent, so the tolerance is loose: this catches a
    per-task bookkeeping structure growing a copy of the queue, not
    malloc jitter.
    """
    baseline = json.loads(baseline_path.read_text())
    tol = float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE))
    base_rss = baseline["results"]["rss_bytes_per_queued_job"]
    cur_rss = current["results"]["rss_bytes_per_queued_job"]
    ceiling = base_rss * (1.0 + tol)
    verdict = "OK" if cur_rss <= ceiling else "REGRESSION"
    print(
        f"[check] RSS bytes/queued job: current={cur_rss:.1f} "
        f"baseline={base_rss:.1f} ceiling={ceiling:.1f} -> {verdict}"
    )
    return 0 if cur_rss <= ceiling else 1


def overhead_check(seed: int, users: int, jobs: int, quick: bool) -> int:
    """Exit code 1 if full observability costs more than the tolerance.

    ``OVERHEAD_PAIRS`` interleaved bare/instrumented pairs, alternating
    which mode runs first, so drift in the machine's speed lands on both
    modes alike; the gate is the median per-pair ratio of instrumented
    to bare jobs/sec, and every run is printed.  The virtual-time outcome
    must be bit-identical in every run — the recorder and SLO engine
    only observe — so that is asserted too.
    """
    tol = float(os.environ.get("OVERHEAD_TOLERANCE", "0.10"))
    ratios = []
    virtual = set()
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        rates = {}
        for mode in order:
            rep = run_bench(seed, users, jobs, quick=quick, observability=mode)
            rates[mode] = rep["results"]["jobs_per_s"]
            virtual.add((rep["results"]["virtual_duration_s"],
                         rep["results"]["queue_wait_p99_s"],
                         rep["results"]["bytes_delivered"]))
        ratios.append(rates[True] / rates[False])
        first = "observability" if order[0] else "bare"
        print(f"[overhead] pair {pair + 1} ({first} first): "
              f"bare {rates[False]:.1f} jobs/s, observability "
              f"{rates[True]:.1f} jobs/s, ratio {ratios[-1]:.3f}")
    if len(virtual) != 1:
        print(f"[overhead] FAIL: virtual outcome diverged across runs: "
              f"{sorted(virtual)}")
        return 1
    median = statistics.median(ratios)
    ok = median >= 1.0 - tol
    print(f"[overhead] median ratio {median:.3f}: tax {1.0 - median:+.1%} "
          f"(tolerance {tol:.0%}) -> {'OK' if ok else 'REGRESSION'}")
    return 0 if ok else 1


def save(report: dict, out: pathlib.Path | None) -> None:
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke size (500 jobs, 50 users)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="save the JSON report here")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="scale tier: baseline JSON whose RSS bytes per queued "
                             "job may grow at most 30%%")
    parser.add_argument("--observability", action="store_true",
                        help="attach the flight recorder + SLO engine")
    parser.add_argument("--overhead-check", action="store_true",
                        help="gate instrumented jobs/sec against the bare run "
                             "(OVERHEAD_TOLERANCE, default 10%%)")
    parser.add_argument("--shards", type=int, default=None,
                        help="run the sharded control plane with N shards")
    parser.add_argument("--scale", action="store_true",
                        help="control-plane-only scale tier: direct "
                             "submissions, no data plane (default 100000 "
                             "users / 2 jobs each / 8 shards)")
    args = parser.parse_args(argv)
    if args.check is not None and not args.scale:
        parser.error("--check gates the scale tier only (add --scale)")
    saved = f"  [saved to {args.out}]" if args.out is not None else ""

    if args.scale:
        users = args.users if args.users is not None else (
            5000 if args.quick else 100_000)
        jobs = args.jobs if args.jobs is not None else 2 * users
        shards = args.shards if args.shards is not None else 8
        report = run_scale_bench(args.seed, users, jobs, shards,
                                 quick=args.quick)
        save(report, args.out)
        r = report["results"]
        print(
            f"[scale] {jobs} jobs / {users} users / {shards} shards in "
            f"{r['wall_s']}s ({r['jobs_per_s']} jobs/s; submit "
            f"{r['submit_jobs_per_s']}, drain {r['drain_jobs_per_s']})"
        )
        print(
            f"[scale] {r['rss_bytes_per_queued_job']} RSS bytes per queued "
            f"job at depth {r['peak_queue_depth']}; jain {r['jain_fairness']}"
            f"{saved}"
        )
        if args.check is not None:
            return check_rss(report, args.check)
        return 0

    users = args.users if args.users is not None else 50
    jobs = args.jobs if args.jobs is not None else (500 if args.quick else 5000)

    if args.overhead_check:
        return overhead_check(args.seed, users, jobs, quick=args.quick)

    report = run_bench(args.seed, users, jobs, quick=args.quick,
                       observability=args.observability, shards=args.shards)
    save(report, args.out)
    r = report["results"]
    shard_note = f" / {args.shards} shards" if args.shards is not None else ""
    print(
        f"{jobs} jobs / {users} users{shard_note} in {r['wall_s']}s "
        f"({r['jobs_per_s']} jobs/s wall, {r['virtual_duration_s']}s virtual)"
    )
    print(
        f"queue wait p50 {r['queue_wait_p50_s']}s p99 {r['queue_wait_p99_s']}s; "
        f"jain {r['jain_fairness']}; "
        f"{r['worker_crashes']} crashes, {r['requeues']} requeues, "
        f"{r['batches_coalesced']} batches ({r['batched_files']} files folded)"
        + (f", {r['steals']} steals" if "steals" in r else "")
    )
    print(f"succeeded {r['succeeded']} / failed {r['failed']}{saved}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
