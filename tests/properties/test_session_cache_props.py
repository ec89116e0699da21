"""Differential property: session caches change no virtual outcome.

The control-channel pool and the DCAU cache are wall-clock
optimizations.  This test drives *twin worlds* — identical seed,
identical randomized op sequence — once with both caches enabled and
once under ``REPRO_NO_SESSION_CACHE=1``, and
requires bit-identical virtual outcomes: the clock, the mapped account,
and every byte a transfer moved.  Any divergence means a cache replayed
state the full pipeline would not have produced.

The toggle leaves the process-global memos (keygen, certificate parse,
credential round trip) on in both twins;
``tests/integration/test_memo_replay.py`` covers those.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util.units import gbps
from tests.conftest import make_conventional_site

# op alphabet: (connect pooled / connect fresh), transfer over the live
# session, advance virtual time, release the session
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("connect"), st.booleans()),
        st.tuples(st.just("get"), st.integers(1, 4)),
        st.tuples(st.just("advance"), st.floats(0.5, 600.0,
                                                allow_nan=False,
                                                allow_infinity=False)),
        st.tuples(st.just("release")),
    ),
    min_size=1,
    max_size=12,
)


def _run(seed: int, ops, *, cached: bool):
    """One world, one op sequence; returns its observable outcome."""
    if cached:
        os.environ.pop("REPRO_NO_SESSION_CACHE", None)
    else:
        os.environ["REPRO_NO_SESSION_CACHE"] = "1"
    try:
        world = World(seed=seed)
        net = world.network
        net.add_host("server1", nic_bps=gbps(10))
        net.add_host("laptop", nic_bps=gbps(1))
        net.add_link("server1", "laptop", gbps(1), 0.01, loss=0.0)
        site = make_conventional_site(world, "Lab", "server1")
        site.add_user(world, "alice")
        uid = site.accounts.get("alice").uid
        for i in range(4):
            site.storage.write_file(
                f"/home/alice/f{i}.dat", LiteralData(b"d" * (4096 * (i + 1))),
                uid=uid)
        client = site.client_for(world, "alice", "laptop")

        session = None
        mapped: list[str] = []
        moved: list[int] = []
        for op in ops:
            kind = op[0]
            if kind == "connect":
                if session is not None:
                    session.release()
                session = client.connect(site.server, pooled=op[1])
                mapped.append(session.logged_in_as)
            elif kind == "get" and session is not None:
                n = op[1]
                result = session.get(f"/home/alice/f{n - 1}.dat", "/tmp/out.dat")
                moved.append(result.nbytes)
            elif kind == "advance":
                world.clock.advance(op[1])
            elif kind == "release" and session is not None:
                session.release()
                session = None
        return world.now, tuple(mapped), tuple(moved)
    finally:
        os.environ.pop("REPRO_NO_SESSION_CACHE", None)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), _ops)
def test_cached_and_uncached_worlds_agree(seed, ops):
    """Cache-on and cache-off twins reach bit-identical outcomes."""
    assert _run(seed, ops, cached=True) == _run(seed, ops, cached=False)
