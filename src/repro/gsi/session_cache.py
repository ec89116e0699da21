"""The ``REPRO_NO_SESSION_CACHE`` switch for the session-layer caches.

Real GridFTP deployments amortize authentication by holding control
connections open and caching data channels (Allcock et al.).  Here that
is the control-channel pool (:class:`repro.gridftp.client.
ControlChannelPool`) and the DCAU cache (:class:`repro.gridftp.dcau.
DataChannelAuthCache`); both ask :func:`caching_enabled` on every call,
so tests can monkeypatch the environment.
"""

from __future__ import annotations

import os
from types import SimpleNamespace


def caching_enabled() -> bool:
    """True unless ``REPRO_NO_SESSION_CACHE`` is set (read per call)."""
    return not os.environ.get("REPRO_NO_SESSION_CACHE")


def default_session_cache() -> SimpleNamespace:
    """A stub whose ``stats()`` reports zero hits.

    GSI contexts are never resumed; repeat logins reuse pooled control
    channels instead.  The stub exists only because
    ``perfbench/workloads.py`` imports it and reads
    ``stats().get("hits", 0)``.
    """
    return SimpleNamespace(stats=lambda: {"hits": 0})
