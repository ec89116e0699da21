"""ArchivePipeline: drives the five components to campaign completion.

One ``run_until_idle()`` loop interleaves every stage round-robin —
requeue lapsed leases, pick, bundle, submit replicas, drain the fleet
scheduler, collect landed transfers, verify, delete — counting work
units per pass.  When a full pass makes no progress and the catalog is
not done, the pipeline is event-blocked: either a lease must lapse
(crashed claimant) or a downed component host must come back.  The loop
advances virtual time to the earliest such event, exactly the idle
step of the fleet scheduler's :func:`~repro.scheduler.workers.drain`; if no
future event exists the catalog has genuinely stalled and that is an
error, never a silent hang.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.errors import ArchiveError

if TYPE_CHECKING:  # pragma: no cover
    from repro.archive.bundler import Bundler
    from repro.archive.catalog import Catalog
    from repro.archive.deleter import Deleter
    from repro.archive.picker import Picker
    from repro.archive.replicator import Replicator
    from repro.archive.verifier import SiteMoveVerifier
    from repro.sim.world import World


class ArchivePipeline:
    """Round-robin driver over picker/bundler/replicator/verifier/deleter."""

    def __init__(
        self,
        world: "World",
        catalog: "Catalog",
        picker: "Picker",
        bundler: "Bundler",
        replicator: "Replicator",
        verifier: "SiteMoveVerifier",
        deleter: "Deleter",
        scheduler,
        max_cycles: int = 10_000,
    ) -> None:
        self.world = world
        self.catalog = catalog
        self.picker = picker
        self.bundler = bundler
        self.replicator = replicator
        self.verifier = verifier
        self.deleter = deleter
        self.scheduler = scheduler
        self.max_cycles = max_cycles
        self.cycles = 0

    @property
    def components(self):
        return (self.picker, self.bundler, self.replicator,
                self.verifier, self.deleter)

    def component_crashes(self) -> int:
        return sum(c.crashes for c in self.components)

    def run_until_idle(self) -> dict[str, Any]:
        """Drive every stage until all bundles are terminal."""
        catalog = self.catalog
        while not catalog.done():
            self.cycles += 1
            if self.cycles > self.max_cycles:
                raise ArchiveError(
                    f"archive pipeline exceeded {self.max_cycles} cycles; "
                    f"catalog counts: {catalog.counts()}")
            progress = 0
            progress += catalog.requeue_lapsed()
            progress += self.picker.cycle()
            progress += self.bundler.cycle()
            progress += self.replicator.cycle()
            progress += self.scheduler.run_until_idle()
            progress += self.replicator.collect_cycle()
            progress += self.verifier.cycle()
            progress += self.deleter.cycle()
            if progress == 0 and not catalog.done():
                self._wait_for_next_event()
        return self.stats()

    def _wait_for_next_event(self) -> None:
        """Advance virtual time to the earliest unblocking event."""
        world = self.world
        now = world.now
        candidates: list[float] = []
        expiry = self.catalog.leases.next_expiry()
        if expiry is not None:
            candidates.append(expiry)
        for component in self.components:
            if component.host is not None and not component.alive(now):
                candidates.append(
                    world.faults.next_clear_time((), (component.host,), now))
        candidates = [t for t in candidates if t > now and math.isfinite(t)]
        if not candidates:
            raise ArchiveError(
                f"archive pipeline stalled at t={now:.1f}s with no future "
                f"event; catalog counts: {self.catalog.counts()}")
        world.advance_to(min(candidates))

    def stats(self) -> dict[str, Any]:
        counts = self.catalog.counts()
        return {
            "cycles": self.cycles,
            "counts": counts,
            "component_crashes": self.component_crashes(),
            "crashes_by_component": {
                c.name: c.crashes for c in self.components},
            "history_digest": self.catalog.history_digest(),
        }
