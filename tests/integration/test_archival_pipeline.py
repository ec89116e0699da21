"""Archival soak: a crashing five-component pipeline over a crashing
worker fleet cannot lose, duplicate, or prematurely delete a bundle.

The campaign: a small-file-heavy multi-request backlog archived to two
destination sites while a chaos campaign repeatedly crashes every
component host and scheduler worker host, and a destination site goes
entirely dark in repeated blackout windows.  Acceptance:

* every bundle reaches ``source-deleted`` (zero lost), exactly once
  (zero duplicated — one terminal transition per bundle in the catalog
  history);
* >= 20 faults actually bit a claim (component crashes mid-claim plus
  worker crashes), and at least one replica transfer had to wait out a
  whole-site blackout;
* every surviving replica is byte-identical to the retained source
  payload, and no source file was removed before its bundle had
  ``quorum`` verified replicas;
* the catalog history replays bit-for-bit under the same seed.

``CHAOS_SEED`` narrows the seed matrix (one seed per CI matrix entry).
"""

import os

import pytest

from repro.archive import ArchivalCampaign, BundleStatus, CampaignConfig

SEEDS = [7, 11, 23]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

MIN_FAULTS = 20


def _run(seed, **overrides):
    campaign = ArchivalCampaign(CampaignConfig(seed=seed, **overrides))
    stats = campaign.run()
    return campaign, stats


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_zero_lost_zero_duplicated(seed):
    campaign, stats = _run(seed)
    catalog = campaign.catalog
    bundles = catalog.bundles
    assert bundles, "campaign produced no bundles"
    # zero lost: every bundle reached the terminal happy state
    assert all(b.status is BundleStatus.SOURCE_DELETED for b in bundles)
    assert stats["counts"]["failed"] == 0
    # the lease books are empty and every request fanned out
    assert len(catalog.leases) == 0
    assert catalog.done()
    metrics = campaign.world.metrics
    assert metrics.counter("archive_requests_total").value() \
        == campaign.config.requests
    assert metrics.counter("archive_bundles_failed_total").value() == 0
    # zero duplicated: exactly one source-deleted transition per bundle
    deletes = [row for row in catalog.history
               if row[2] == "bundle" and row[5] == "source-deleted"]
    assert len(deletes) == len(bundles)
    # the campaign actually bit: >= MIN_FAULTS claims died to crashes,
    # on both sides of the house
    assert stats["injected_faults"] >= MIN_FAULTS, stats
    assert stats["component_crashes"] >= 5, stats
    # every component crash lapsed exactly one catalog lease
    expirations = metrics.counter("archive_lease_expirations_total").value()
    assert expirations >= stats["component_crashes"]


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_replicas_byte_identical_and_source_retired(seed):
    campaign, _ = _run(seed)
    for bundle in campaign.catalog.bundles:
        expected = campaign.expected_bundle_payload(bundle.bundle_id)
        assert len(bundle.replicas) >= campaign.config.quorum
        for replica in bundle.replicas:
            assert replica.transferred and replica.verified
            got = campaign.replica_payload(bundle.bundle_id, replica.site)
            assert got == expected, (
                f"replica {bundle.bundle_id}@{replica.site} diverged")
        # the source copies really are gone
        for path in bundle.files:
            assert not campaign.source.storage.exists(path)
        assert not campaign.source.storage.exists(bundle.staged_path)


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_no_premature_source_delete(seed):
    campaign, _ = _run(seed)
    # state-machine ordering in the committed history: for every bundle
    # the completed transition (which the verifier only commits at
    # quorum) precedes source-deleted
    for bundle in campaign.catalog.bundles:
        rows = [row for row in campaign.catalog.history
                if row[2] == "bundle" and row[3] == bundle.bundle_id]
        sequence = [row[5] for row in rows]
        assert "completed" in sequence and "source-deleted" in sequence
        assert sequence.index("completed") < sequence.index("source-deleted")
        assert bundle.verified_replicas() >= campaign.config.quorum
    # and the deletion events agree with the verification events in time
    log = campaign.world.log
    for bundle in campaign.catalog.bundles:
        verified_times = sorted(
            e.time for e in log.select(
                "archive.replica_verified", bundle=bundle.bundle_id))
        deleted = log.select("archive.source_deleted", bundle=bundle.bundle_id)
        assert len(deleted) == 1
        quorum_at = verified_times[campaign.config.quorum - 1]
        assert deleted[0].time >= quorum_at


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_blackout_bites(seed):
    campaign, _ = _run(seed)
    # at least one replica transfer hit a whole-site blackout and had to
    # wait the outage out before landing
    blocked = campaign.world.log.select("archive.replica_blocked")
    assert blocked, "no transfer ever overlapped a site blackout window"
    assert all(e.fields["site"] == "site-1" for e in blocked)


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_replays_bit_for_bit(seed):
    a_campaign, a = _run(seed)
    b_campaign, b = _run(seed)
    assert a["history_digest"] == b["history_digest"]
    assert a_campaign.world.now == b_campaign.world.now
    for name in ("archive_lease_expirations_total", "archive_requests_total",
                 "archive_bundles_failed_total"):
        assert (a_campaign.world.metrics.counter(name).value()
                == b_campaign.world.metrics.counter(name).value())
    assert a["component_crashes"] == b["component_crashes"]
    assert a["worker_crashes"] == b["worker_crashes"]


def test_quick_campaign_virtual_outcome_is_pinned():
    """The quick campaign at seed 7 (2 requests x 8 files x 64 KiB, 2
    destination sites, quorum 2) is seeded virtual time, so its outcome
    is pinned exactly: any drift is a pipeline-behaviour change."""
    campaign = ArchivalCampaign(CampaignConfig(seed=7).quick())
    stats = campaign.run()
    assert round(campaign.world.now, 2) == 1260.15
    assert stats["injected_faults"] == 28
    assert campaign.world.metrics.get("archive_lease_expirations_total").total() == 24
    assert stats["history_digest"] == (
        "eb41c723d736acc2e906ced2b66696847b5717cd10416e0301b722416eaecf86")


def test_sharded_scheduler_campaign_completes():
    campaign, stats = _run(SEEDS[0], shards=2)
    assert all(b.status is BundleStatus.SOURCE_DELETED
               for b in campaign.catalog.bundles)
    assert stats["injected_faults"] >= MIN_FAULTS


def test_archive_metrics_present_from_init():
    campaign = ArchivalCampaign(CampaignConfig(
        seed=SEEDS[0], chaos=False, site_blackout=False))
    exposition = campaign.world.metrics.render_prometheus()
    for name in (
        "archive_requests_total",
        "archive_transitions_total",
        "archive_claims_total",
        "archive_lease_expirations_total",
        "archive_component_crashes_total",
        "archive_bundles_failed_total",
        "archive_bundles",
        "archive_bundle_latency_seconds",
        "archive_bytes_replicated_total",
        "archive_replicas_submitted_total",
        "archive_replicas_verified_total",
        "archive_checksum_mismatches_total",
        "archive_source_deletes_total",
    ):
        assert f"# TYPE {name}" in exposition, name


def test_archive_slos_wired():
    campaign, _ = _run(SEEDS[0], chaos=False, site_blackout=False)
    rows = {row["slo"]: row for row in campaign.world.slo.status()}
    assert "archive_bundle_latency" in rows
    assert "archive_replication_success" in rows
    latency = rows["archive_bundle_latency"]
    assert latency["good"] + latency["bad"] == len(campaign.catalog.bundles)
    success = rows["archive_replication_success"]
    assert success["good"] == len(campaign.catalog.bundles)
    assert success["bad"] == 0
