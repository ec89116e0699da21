"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is a closed batch: every operation is offered at one
virtual instant and the system drains it.  A workload function takes the
seed and two callbacks.  Everything before ``start_measuring`` is set-up
(world, GCMU/CA install, accounts, pre-existing activations, source
data); from there to ``stop_measuring`` is the measured phase; after it
the workload checks its outputs.  It returns an :class:`Outcome`: one :class:`Op` per operation,
the output-check problems found, and the exact work counts read from the
program's public counters.

Sizes are chosen so one whole process (interpreter start, import,
set-up, measured phase, checks) takes a few seconds on a 2-vCPU host:
long enough that one host hiccup is a small share of it, short enough
that one benchmark run holds several of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.archive import ArchivalCampaign, CampaignConfig
from repro.archive.catalog import BundleStatus
from repro.auth import AccountDatabase, Control, LdapDirectory, LdapPamModule, PamStack
from repro.core.gcmu import install_gcmu
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.gridftp.client import ControlChannelPool
from repro.gsi import default_session_cache
from repro.scheduler import (
    ScheduledTask,
    SchedulerConfig,
    SchedulerLimits,
    ShardedFleetScheduler,
)
from repro.sim.faults import ChaosConfig
from repro.sim.world import World
from repro.storage.data import SyntheticData, checksum
from repro.util import opcount
from repro.util.stats import percentile
from repro.util.units import KB, MB, gbps


@dataclass(frozen=True)
class Op:
    """One offered operation and its virtual outcome."""

    op_id: str
    user: str
    ok: bool
    start_vs: float
    end_vs: float
    nbytes: int


@dataclass
class Outcome:
    """What one workload instance did, as the benchmark checks it."""

    ops: list[Op]
    #: output-check failures; empty means every output was correct
    problems: list[str]
    #: exact work counts from public counters (identical on every machine)
    counts: dict[str, float]
    #: fair-share weight per user (1.0 where the workload sets none)
    weights: dict[str, float] = field(default_factory=dict)


Workload = Callable[[int, Callable[[], None], Callable[[], None]], Outcome]

GO_WORKERS = tuple(f"go-worker-{i}" for i in range(8))


# -- shared building blocks --------------------------------------------------


def _site(world, host, site_name, users, go, endpoint_name):
    """A GCMU install whose MyProxy CA logs users in over PAM/LDAP."""
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack(f"myproxy-{site_name}").add(Control.SUFFICIENT, LdapPamModule(ldap))
    endpoint = install_gcmu(
        world, host, site_name, accounts, pam,
        register_with=go, endpoint_name=endpoint_name, charge_install_time=False)
    for username in users:
        endpoint.make_home(username)
    return endpoint


def _go_world(seed, alcf_users, nersc_users, event_capacity, span_capacity):
    """alcf#dtn and nersc#dtn: two GCMU sites with separate CAs, one GO."""
    world = World(seed=seed, event_capacity=event_capacity, span_capacity=span_capacity)
    net = world.network
    for host in ("dtn-a", "dtn-b", "saas"):
        net.add_host(host, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
        workers=len(GO_WORKERS), worker_hosts=GO_WORKERS,
        lease_s=120.0, heartbeat_s=20.0, max_task_attempts=50))
    alcf = _site(world, "dtn-a", "alcf", alcf_users, go, "alcf#dtn")
    nersc = _site(world, "dtn-b", "nersc", nersc_users, go, "nersc#dtn")
    return world, go, alcf, nersc


def _metric_total(world, name: str) -> float:
    metric = world.metrics.get(name)
    return metric.total() if metric is not None else 0.0


def _histogram_count(world, name: str) -> int:
    metric = world.metrics.get(name)
    if metric is None:
        return 0
    return int(sum(s.value for s in metric.samples() if s.name == name + "_count"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _public_counts(world, scheduler, ops_before: dict[str, int]) -> dict[str, float]:
    """Exact per-layer work counts, read only through public counters."""
    ops = opcount.since(ops_before)
    total = lambda name: _metric_total(world, name)  # noqa: E731
    claims = _histogram_count(world, "scheduler_queue_wait_seconds")
    waits = [t.claimed_at - t.submitted_at for t in scheduler.completed_tasks]
    archive_claims = total("archive_claims_total")
    archive_lapses = total("archive_lease_expirations_total")
    plan = world.faults
    counts = {
        "gridftp.commands_total": total("gridftp_commands_total"),
        "gridftp.dcau_full": ops.get("dcau.full", 0),
        "gridftp.dcau_cached": ops.get("dcau.cached", 0),
        "gsi.handshakes_full": ops.get("gsi.handshake.full", 0),
        "gsi.handshakes_resumed": ops.get("gsi.handshake.resumed", 0),
        "gsi.contexts_full": ops.get("gsi.context.full", 0),
        "gsi.contexts_resumed": ops.get("gsi.context.resumed", 0),
        "pki.rsa_sign": ops.get("rsa.sign", 0),
        "pki.rsa_verify": ops.get("rsa.verify", 0),
        "pki.rsa_verify_memo": ops.get("rsa.verify.memo", 0),
        "pki.rsa_keygen": ops.get("rsa.keygen.full", 0),
        "pki.rsa_keygen_memo": ops.get("rsa.keygen.memo", 0),
        "pki.chain_validate": ops.get("chain.validate.full", 0),
        "pki.chain_validate_memo": ops.get("chain.validate.memo", 0),
        "myproxy.logons": total("myproxy_certs_issued_total"),
        "scheduler.claims": claims,
        "scheduler.completed": total("scheduler_completed_total"),
        "scheduler.requeues": total("scheduler_requeued_total"),
        "scheduler.worker_crashes": total("scheduler_worker_crashes_total"),
        "scheduler.steals": total("scheduler_steals_total"),
        "scheduler.batches_coalesced": total("scheduler_batches_coalesced_total"),
        "scheduler.queue_wait_p50_vs": percentile(waits, 0.50) if waits else 0.0,
        "scheduler.queue_wait_p99_vs": percentile(waits, 0.99) if waits else 0.0,
        "sim.events_fired": world.scheduler.stats.total_events,
        "sim.faults_armed": (len(plan.host_faults) + len(plan.link_faults)
                             + len(plan.degradation_faults)),
        # what the data channels wrote into destination storage
        "storage.bytes_written": total("data_channel_bytes_total"),
        "recovery.retries": total("recovery_retries_total"),
        "archive.claims": archive_claims,
        "archive.claim_lapses": archive_lapses,
        "telemetry.events": len(world.log) + world.log.dropped_events,
    }
    counts["scheduler.useful_ratio"] = _ratio(counts["scheduler.completed"], claims)
    counts["archive.useful_ratio"] = _ratio(archive_claims - archive_lapses, archive_claims)
    handshakes = counts["gsi.handshakes_full"] + counts["gsi.handshakes_resumed"]
    counts["gsi.resume_ratio"] = _ratio(counts["gsi.handshakes_resumed"], handshakes)
    # read last: for_world creates the pool (and its metrics) on first use
    pool = ControlChannelPool.for_world(world).stats()
    counts["gridftp.pool_reuses"] = pool["reuses"]
    counts["gridftp.pool_misses"] = pool["misses"]
    counts["gridftp.pool_reuse_ratio"] = _ratio(pool["reuses"], pool["reuses"] + pool["misses"])
    session = default_session_cache().stats()
    counts["gsi.session_hits"] = session.get("hits", 0)
    return counts


def _go_ops(jobs, starts, src_storage, dst_storage):
    """Per-job outcome, each checked against the bytes at both ends."""
    ops, problems = [], []
    for job, start_vs in zip(jobs, starts):
        ok = job.status is JobStatus.SUCCEEDED
        src = src_storage.open_read(job.src_path, 0)
        if not ok:
            problems.append(f"{job.job_id}: {job.status.value} {job.error}")
        elif not dst_storage.exists(job.dst_path):
            ok = False
            problems.append(f"{job.job_id}: destination missing")
        else:
            dst = dst_storage.open_read(job.dst_path, 0)
            if dst.size != src.size or checksum(dst) != checksum(src):
                ok = False
                problems.append(f"{job.job_id}: destination bytes differ")
        ops.append(Op(job.job_id, job.user, ok, start_vs,
                      job.completed_at if job.completed_at is not None else -1.0,
                      src.size))
    return ops, problems


# -- go_storm ----------------------------------------------------------------

STORM_USERS = 50
STORM_JOBS_PER_USER = 100


def go_storm(seed: int, start_measuring: Callable[[], None],
             stop_measuring: Callable[[], None]) -> Outcome:
    """50 activated users x 100 jobs, 3:1 small:large, worker-crash chaos."""
    ops_before = opcount.snapshot()
    users = STORM_USERS
    world, go, alcf, nersc = _go_world(
        seed, {f"user{i}": f"pw{i}" for i in range(users)}, {"sink": "pwS"},
        event_capacity=50_000, span_capacity=50_000)
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=1800.0, host_downtime_s=(10.0, 40.0), horizon_s=6 * 3600.0))
    world.chaos.arm(hosts=list(GO_WORKERS))
    accounts = []
    for u in range(users):
        account = go.register_user(f"user{u}@globusid")
        go.activate(account, "alcf#dtn", f"user{u}", f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        accounts.append(account)
    # the seed shuffles which jobs are large (one in four per user) and
    # the synthetic content of every file
    rng = random.Random(seed)
    plan = []
    for u in range(users):
        large = set(rng.sample(range(STORM_JOBS_PER_USER), STORM_JOBS_PER_USER // 4))
        plan.append(large)
    files = []
    for k in range(STORM_JOBS_PER_USER):
        for u in range(users):
            size = 8 * MB if k in plan[u] else 256 * KB
            path = f"/home/user{u}/j{k}.dat"
            uid = alcf.accounts.get(f"user{u}").uid
            alcf.storage.write_file(path, SyntheticData(seed=rng.getrandbits(48), length=size),
                                    uid=uid)
            files.append((u, k, path))

    start_measuring()
    start_vs = world.now
    jobs = [go.submit_transfer(accounts[u], "alcf#dtn", path, "nersc#dtn",
                               f"/home/sink/user{u}-j{k}.dat", defer=True)
            for u, k, path in files]
    go.process_queue()
    stop_measuring()

    ops, problems = _go_ops(jobs, [start_vs] * len(jobs), alcf.storage, nersc.storage)
    # a job that ran alone carries its own CKSM verdict; jobs folded into a
    # coalesced batch have no result of their own and rely on the check above
    problems += [f"{j.job_id}: no CKSM verification" for j in jobs
                 if j.result is not None and not j.checksum_verified]
    return Outcome(ops, problems, _public_counts(world, go.scheduler, ops_before))


# -- go_onboard --------------------------------------------------------------

ONBOARD_USERS = 200


def go_onboard(seed: int, start_measuring: Callable[[], None],
               stop_measuring: Callable[[], None]) -> Outcome:
    """First-time users: register, activate both sites, one transfer each."""
    ops_before = opcount.snapshot()
    users = ONBOARD_USERS
    names = [f"new{i}" for i in range(users)]
    world, go, alcf, nersc = _go_world(
        seed, {n: f"pw-{n}" for n in names}, {n: f"pwN-{n}" for n in names},
        event_capacity=None, span_capacity=20_000)
    rng = random.Random(seed)
    for name in names:
        size = rng.randint(5, 16) * MB
        alcf.storage.write_file(f"/home/{name}/data.bin",
                                SyntheticData(seed=rng.getrandbits(48), length=size),
                                uid=alcf.accounts.get(name).uid)

    start_measuring()
    jobs, registered = [], []
    for name in names:
        registered.append(world.now)
        account = go.register_user(f"{name}@globusid")
        go.activate(account, "alcf#dtn", name, f"pw-{name}")
        go.activate(account, "nersc#dtn", name, f"pwN-{name}")
        jobs.append(go.submit_transfer(account, "alcf#dtn", f"/home/{name}/data.bin",
                                       "nersc#dtn", f"/home/{name}/data.bin", defer=True))
    go.process_queue()
    stop_measuring()

    ops, problems = _go_ops(jobs, registered, alcf.storage, nersc.storage)
    problems += [f"{j.job_id}: no CKSM verification" for j in jobs if not j.checksum_verified]
    # the sites share no trust anchor, so every transfer needs DCSC
    anchors = [set(go.endpoint(name).trust.anchors) for name in ("alcf#dtn", "nersc#dtn")]
    if anchors[0] & anchors[1]:
        problems.append("alcf and nersc share a CA: the transfers are not cross-domain")
    installed = world.log.count("gridftp.dcsc")
    if installed < users:
        problems.append(f"DCSC installed {installed} times for {users} cross-CA transfers")
    return Outcome(ops, problems, _public_counts(world, go.scheduler, ops_before))


# -- archive_campaign --------------------------------------------------------

ARCHIVE_REQUESTS = 150


def archive_campaign(seed: int, start_measuring: Callable[[], None],
                     stop_measuring: Callable[[], None]) -> Outcome:
    """Bundle, replicate to two sites, verify and delete the source."""
    ops_before = opcount.snapshot()
    campaign = ArchivalCampaign(CampaignConfig(
        seed=seed, requests=ARCHIVE_REQUESTS, files_per_request=24, file_bytes=16 * KB))

    start_measuring()
    start_vs = campaign.world.now
    stats = campaign.run()
    stop_measuring()

    problems = []
    if stats["counts"].get("failed", 0):
        problems.append(f"catalog counts {stats['counts']}")
    ops = []
    for bundle in campaign.catalog.bundles:
        ok = bundle.status is BundleStatus.SOURCE_DELETED
        if not ok:
            problems.append(f"{bundle.bundle_id}: {bundle.status.value}")
        expected = campaign.expected_bundle_payload(bundle.bundle_id)
        for site in campaign.sites:
            if campaign.replica_payload(bundle.bundle_id, site) != expected:
                ok = False
                problems.append(f"{bundle.bundle_id}: replica at {site} differs")
        if any(campaign.source.storage.exists(p) for p in bundle.files):
            ok = False
            problems.append(f"{bundle.bundle_id}: source files not deleted")
        ops.append(Op(bundle.bundle_id, bundle.request_id, ok, start_vs,
                      bundle.completed_at, bundle.size))
    counts = _public_counts(campaign.world, campaign.scheduler, ops_before)
    counts["archive.history_rows"] = len(campaign.catalog.history)
    return Outcome(ops, problems, counts)


# -- control_wide ------------------------------------------------------------

WIDE_USERS = 12_000
WIDE_JOBS_PER_USER = 2
WIDE_SHARDS = 8
#: virtual service seconds per job: fixed by the job's size, no data plane
WIDE_SERVICE_S_PER_MB = 0.06
WIDE_WORKER_HOSTS = tuple(f"ctl-worker-{i}" for i in range(16))


def control_wide(seed: int, start_measuring: Callable[[], None],
                 stop_measuring: Callable[[], None]) -> Outcome:
    """Thousands of weighted fair-share lanes over 8 shards; no data plane."""
    ops_before = opcount.snapshot()
    world = World(seed=seed, event_capacity=10_000, span_capacity=10_000)
    config = SchedulerConfig(
        workers=len(WIDE_WORKER_HOSTS), worker_hosts=WIDE_WORKER_HOSTS,
        lease_s=40.0, heartbeat_s=8.0, max_task_attempts=100,
        limits=SchedulerLimits(max_queue_depth=None, max_queued_per_user=None,
                               max_active_per_endpoint=None,
                               max_bytes_in_flight_per_endpoint=None))
    sched = ShardedFleetScheduler(world, config, shards=WIDE_SHARDS)
    rng = random.Random(seed)
    weights = {}
    for i in range(WIDE_USERS):
        user = f"user{i}"
        weights[user] = float(rng.choice((1, 1, 1, 2, 2, 4)))
        sched.set_weight(user, weights[user])
    runs: dict[str, int] = {}
    done_at: dict[str, float] = {}
    sizes = [rng.randint(1, 64) * MB for _ in range(WIDE_USERS * WIDE_JOBS_PER_USER)]
    # workers execute one claim after another on the virtual clock, so the
    # makespan is the sum of service times; chaos must cover all of it
    horizon = 1.2 * WIDE_SERVICE_S_PER_MB * sum(sizes) / MB
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=900.0, host_downtime_s=(10.0, 30.0), horizon_s=horizon))
    world.chaos.arm(hosts=list(WIDE_WORKER_HOSTS))

    def service(task_id: str, size: int) -> Callable[[], int]:
        def execute() -> int:
            runs[task_id] = runs.get(task_id, 0) + 1
            world.advance(WIDE_SERVICE_S_PER_MB * size / MB)
            done_at[task_id] = world.now
            return size
        return execute

    start_measuring()
    start_vs = world.now
    tasks = []
    for n, size in enumerate(sizes):
        task_id = f"wide-{n:06d}"
        user = f"user{n % WIDE_USERS}"
        tasks.append(sched.submit(ScheduledTask(
            task_id=task_id, user=user,
            src_endpoint=f"src-{n % 64}", dst_endpoint=f"dst-{n % 61}",
            size_hint=size, execute=service(task_id, size), measure=lambda r: r)))
    sched.run_until_idle(max_ticks=100_000_000)
    stop_measuring()

    problems = []
    completed = [t.task_id for t in sched.completed_tasks]
    if len(completed) != len(tasks) or len(set(completed)) != len(completed):
        problems.append(f"{len(completed)} completions ({len(set(completed))} distinct) "
                        f"for {len(tasks)} tasks")
    ops = []
    for task in tasks:
        ok = runs.get(task.task_id) == 1 and task.delivered_bytes == task.size_hint
        if not ok:
            problems.append(f"{task.task_id}: ran {runs.get(task.task_id, 0)} times, "
                            f"delivered {task.delivered_bytes}")
        ops.append(Op(task.task_id, task.user, ok, start_vs,
                      done_at.get(task.task_id, -1.0), task.size_hint))
    return Outcome(ops, problems, _public_counts(world, sched, ops_before), weights)


WORKLOADS: dict[str, Workload] = {
    "go_storm": go_storm,
    "go_onboard": go_onboard,
    "archive_campaign": archive_campaign,
    "control_wide": control_wide,
}
