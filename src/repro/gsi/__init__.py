"""Grid Security Infrastructure: gridmaps, callouts, delegation.

Implements the security handling of paper Section II.C: the
authorization callout that maps a certificate subject to a local user
id, gridmap files (the error prone mechanism GCMU eliminates), and
proxy delegation (what lets Globus Online act for the user).  GSI
mutual authentication itself runs on the wire: the client validates the
server's chain at login and the server validates the client's in ADAT
(:mod:`repro.gridftp`).
"""

from repro.gsi.credentials import CredentialStore
from repro.gsi.gridmap import Gridmap
from repro.gsi.authz import AuthorizationCallout, GridmapCallout
from repro.gsi.delegation import delegate_credential
from repro.gsi.session_cache import caching_enabled, default_session_cache

__all__ = [
    "CredentialStore",
    "Gridmap",
    "AuthorizationCallout",
    "GridmapCallout",
    "delegate_credential",
    "caching_enabled",
    "default_session_cache",
]
