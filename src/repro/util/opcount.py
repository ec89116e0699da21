"""Deterministic crypto/protocol operation tallies.

Wall-clock benchmarks are machine-dependent; the *number* of RSA
exponentiations, chain walks, and GSI handshakes a scenario performs is
not — every stream in the simulation is seeded, so one scenario run in
a fresh process executes the identical operation sequence on any
machine or Python version.  The session-layer caches (the
control-channel pool and the DCAU cache) exist precisely to shrink
these counts.  The repo benchmark (``perfbench/``) reads them into
its work counts, and CI gates a traced seed-7 run of each workload
exactly against ``BENCH_work_counts.json``: a count off the committed
baseline means a cache stopped hitting (or hit where it should not).
The outcome digest gated there hashes every tally, memo hits included.

The tallies are exact per fresh process, not per (seed, scenario): the
process-global memos (keygen, certificate parse, credential round trip)
outlive a world and partly serve a second one.  The go_storm benchmark
workload run twice in one process reads ``rsa.keygen.full`` 105 then 0
and ``rsa.verify`` 202 then 200.  So every exact gate measures one
scenario in a fresh process.

Counters are process-global, like the memo layers they observe.  Bump
sites pay one ``Counter.__iadd__`` — noise next to a 512-bit ``pow``.
"""

from __future__ import annotations

from collections import Counter

#: operation name -> count since process start (or last ``reset``)
OPS: Counter[str] = Counter()


def bump(name: str, n: int = 1) -> None:
    """Record ``n`` occurrences of operation ``name``."""
    OPS[name] += n


def snapshot() -> dict[str, int]:
    """A point-in-time copy of every tally."""
    return dict(OPS)


def since(before: dict[str, int]) -> dict[str, int]:
    """Tallies accumulated after ``before`` (a prior :func:`snapshot`)."""
    return {
        name: OPS[name] - before.get(name, 0)
        for name in sorted(set(OPS) | set(before))
        if OPS[name] - before.get(name, 0)
    }


def reset() -> None:
    """Forget every tally (tests and benchmark setup)."""
    OPS.clear()
