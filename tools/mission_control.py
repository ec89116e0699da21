#!/usr/bin/env python
"""Mission control: one snapshot dashboard for a simulated fleet.

``render(world, scheduler, breaker=...)`` assembles the operator view
the REST portal will eventually serve: per-user queue depths and
fair-share virtual tags, outstanding leases ordered by expiry, circuit
breaker states per endpoint, SLO burn rates with alert status, and the
top-N slowest flight records (with their exemplar trace ids, so a row
here links to a ``# {trace_id=...}`` exemplar in the Prometheus text).
A ``ShardedFleetScheduler`` renders one lane/lease/admission panel set
per shard under a fleet-totals header (``--shards N`` in the demo).
Pass ``catalog=`` an archive :class:`~repro.archive.Catalog` to prepend
the archival pipeline's panels — per-request fan-out, bundle counts by
state-machine status, live component claims (``--archive`` in the demo
runs a quick chaos campaign and renders its aftermath).

Requires ``world.enable_observability()`` for the SLO and flight
recorder panels; without it those panels report "not attached".  Run
directly for a self-contained chaos demo:

    PYTHONPATH=src python tools/mission_control.py
    PYTHONPATH=src python tools/mission_control.py --seed 11 --top 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.report import render_table  # noqa: E402


def _fmt_vt(value: float | None) -> str:
    return f"{value:.0f}" if value is not None else "-"


def _scheduler_panels(snap: dict, prefix: str = "") -> list[str]:
    """Lane, lease, and admission tables for one scheduler (or one
    shard of a sharded control plane)."""
    panels = [render_table(
        f"{prefix}fair-share lanes ({len(snap['lanes'])} users, "
        f"global vtime {snap['global_vtime']:.0f})",
        ["user", "depth", "weight", "vtime_tag", "delivered_bytes"],
        [
            [ln["user"], ln["depth"], f"{ln['weight']:g}",
             _fmt_vt(ln["vtime"]), ln["delivered_bytes"]]
            for ln in snap["lanes"]
        ],
    )]
    panels.append(render_table(
        f"{prefix}outstanding leases ({len(snap['expiry_heap'])}, by expiry)",
        ["task", "worker", "expires_in_s", "abandoned"],
        [
            [le["task"], le["worker"], f"{le['expires_in_s']:.1f}",
             le["abandoned"]]
            for le in snap["expiry_heap"]
        ],
    ))
    adm = snap["admission"]
    ewma = adm["service_ewma_s"]
    panels.append(render_table(
        f"{prefix}admission control",
        ["rejections", "service_ewma_s", "retry_after_hint_s"],
        [[
            ", ".join(f"{k}={v}" for k, v in adm["rejections"].items()) or "-",
            f"{ewma:.2f}" if ewma is not None else "-",
            f"{adm['retry_after_hint_s']:.1f}",
        ]],
    ))
    return panels


def _catalog_panels(catalog) -> list[str]:
    """Archival pipeline panels: per-request fan-out, bundle status
    counts, and the component claims currently in flight."""
    snap = catalog.snapshot()
    panels = [render_table(
        f"archive requests ({len(snap['requests'])})",
        ["request", "user", "status", "files", "bundles", "attempts"],
        [
            [r["request"], r["user"], r["status"], r["files"],
             r["bundles"], r["attempts"]]
            for r in snap["requests"]
        ],
    )]
    counts = snap["counts"]
    panels.append(render_table(
        "bundle pipeline (by status)",
        list(counts), [list(counts.values())],
    ))
    panels.append(render_table(
        f"component claims ({len(snap['leases'])})",
        ["item", "component", "expires_at", "abandoned"],
        [
            [le["item"], le["component"], f"{le['expires_at']:.2f}",
             le["abandoned"]]
            for le in snap["leases"]
        ],
    ))
    return panels


def render(world, scheduler=None, breaker=None, catalog=None,
           top: int = 10) -> str:
    """The full dashboard as one printable block."""
    sections = [f"mission control @ t={world.now:.2f}s (virtual)"]

    if catalog is not None:
        sections.extend(_catalog_panels(catalog))

    if scheduler is not None:
        snap = scheduler.snapshot()
        if "shards" in snap:
            sections.append(
                f"sharded control plane: {snap['n_shards']} shards, "
                f"{snap['queued_total']} queued, "
                f"{snap['leases_total']} leases outstanding")
            for shard_snap in snap["shards"]:
                sections.extend(
                    _scheduler_panels(shard_snap,
                                      prefix=f"shard {shard_snap['shard']} "))
        else:
            sections.extend(_scheduler_panels(snap))

    if breaker is not None:
        endpoints = breaker.endpoints()
        sections.append(render_table(
            f"circuit breakers ({len(endpoints)} endpoints)",
            ["endpoint", "state", "failures", "times_opened", "retry_after_s"],
            [
                [ep, breaker.state(ep).value, breaker.failures(ep),
                 breaker.times_opened(ep), f"{breaker.retry_after_s(ep):.1f}"]
                for ep in endpoints
            ],
        ))

    # session-layer caches: the wall-clock amortization tier (DESIGN.md
    # §17) — reuse ratios at a glance, invalidations proving the chaos /
    # expiry rules are actually firing.  Both are read only if the world
    # already built them.
    pool = getattr(world, "_control_channel_pool", None)
    engine = getattr(world, "_transfer_engine", None)
    rows = []
    if pool is not None:
        ps = pool.stats()
        rows.append(["control-channel pool", ps["reuses"], ps["misses"],
                     ps["invalidations"], ps["evictions"], ps["pooled"]])
    if engine is not None:
        ds = engine.dcau_cache.stats()
        rows.append(["dcau cache", ds["hits"], ds["misses"], "-", "-",
                     ds["entries"]])
    sections.append(render_table(
        "session caches (wall-clock only; REPRO_NO_SESSION_CACHE=1 disables)",
        ["layer", "hits", "misses", "invalidated", "evicted", "live"],
        rows,
    ))

    slo = getattr(world, "slo", None)
    if slo is not None:
        rows = []
        for row in slo.status():
            burn = " ".join(f"{w}={b:g}x" for w, b in row["burn"].items())
            rows.append([
                row["slo"], f"{row['objective']:.0%}", row["good"], row["bad"],
                burn, f"{row['budget_remaining']:g}",
                "FIRING" if row["alert"] else "ok",
                row["exemplar_trace"] or "-",
            ])
        sections.append(render_table(
            "SLO burn rates",
            ["slo", "objective", "good", "bad", "burn", "budget_left",
             "alert", "exemplar"],
            rows,
        ))
    else:
        sections.append("SLO engine: not attached "
                        "(call world.enable_observability())")

    recorder = getattr(world, "flight_recorder", None)
    if recorder is not None:
        rows = []
        for rec in recorder.slowest(top, by="total_s"):
            rows.append([
                rec.task_id, rec.user, rec.status, rec.attempts,
                f"{rec.queue_wait_s:.1f}", f"{rec.total_s:.1f}",
                rec.recovery_faults, rec.trace_id or "-",
            ])
        sections.append(render_table(
            f"slowest flight records (top {top} of {len(recorder)})",
            ["task", "user", "status", "attempts", "wait_s", "total_s",
             "faults", "trace"],
            rows,
        ))
    else:
        sections.append("flight recorder: not attached "
                        "(call world.enable_observability())")

    return "\n\n".join(sections)


def _demo(seed: int, top: int, shards: int | None = None) -> str:
    """A small chaotic fleet drained to idle, then snapshotted."""
    from repro.scheduler import (
        FleetScheduler, ScheduledTask, SchedulerConfig, ShardedFleetScheduler,
    )
    from repro.sim.world import World

    world = World(seed=seed)
    world.enable_observability(queue_wait_slo_s=120.0)
    world.faults.crash_host("wh-1", 60.0, 120.0)
    config = SchedulerConfig(
        workers=max(2, shards or 0), worker_hosts=("wh-0", "wh-1"),
        lease_s=40.0, heartbeat_s=8.0, batch_threshold_bytes=0)
    if shards is None:
        sched = FleetScheduler(world, config)
    else:
        sched = ShardedFleetScheduler(world, config, shards=shards)

    def payload(duration_s: float):
        def run():
            world.advance(duration_s)
        return run

    rng = world.rng.python("mission-control-demo")
    for i in range(12):
        sched.submit(ScheduledTask(
            task_id=f"task-{i:06d}", user=f"user{i % 4}",
            src_endpoint="alcf#dtn", dst_endpoint="nersc#dtn",
            size_hint=(i + 1) * 4_000_000,
            execute=payload(rng.uniform(10.0, 40.0)),
        ))
    sched.run_until_idle()
    return render(world, sched, top=top)


def _archive_demo(seed: int, top: int) -> str:
    """A quick chaos-soaked archival campaign, dashboarded post-run."""
    from repro.archive import ArchivalCampaign, CampaignConfig

    campaign = ArchivalCampaign(CampaignConfig(seed=seed).quick())
    campaign.run()
    return render(campaign.world, campaign.scheduler,
                  catalog=campaign.catalog, top=top)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=10,
                        help="slowest flight records to show")
    parser.add_argument("--shards", type=int, default=None,
                        help="demo the sharded control plane with N shards")
    parser.add_argument("--archive", action="store_true",
                        help="demo the dashboard on a quick archival "
                             "chaos campaign")
    args = parser.parse_args(argv)
    if args.archive:
        print(_archive_demo(args.seed, args.top))
    else:
        print(_demo(args.seed, args.top, shards=args.shards))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
