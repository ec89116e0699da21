"""Gridmap files.

The gridmap is "a list of certificate subject to user id mapping
maintained by the server administrator.  This file is, however, a
frequent source of errors and complaints, because of the difficulties
inherent in keeping it up to date" (paper Section IV.C).  We implement
the file faithfully — including its failure mode (stale/missing entries
raising :class:`GridmapError`) — because the conventional baseline in
the setup benchmark depends on it, and GCMU's contribution is precisely
to delete it.
"""

from __future__ import annotations

from repro.errors import GridmapError
from repro.pki.dn import DistinguishedName


class Gridmap:
    """DN → local-username mappings, with grid-mapfile text round-trip."""

    def __init__(self) -> None:
        self._entries: dict[str, list[str]] = {}

    def add(self, subject: DistinguishedName | str, username: str) -> None:
        """Map ``subject`` to ``username`` (a DN may map to several accounts)."""
        key = str(subject)
        users = self._entries.setdefault(key, [])
        if username not in users:
            users.append(username)

    def remove(self, subject: DistinguishedName | str, username: str | None = None) -> None:
        """Remove one mapping (or all mappings of a subject)."""
        key = str(subject)
        if key not in self._entries:
            return
        if username is None:
            del self._entries[key]
            return
        users = self._entries[key]
        if username in users:
            users.remove(username)
        if not users:
            del self._entries[key]

    def lookup(self, subject: DistinguishedName | str) -> str:
        """Default (first) local account for ``subject``; raises if absent."""
        key = str(subject)
        users = self._entries.get(key)
        if not users:
            raise GridmapError(f"no gridmap entry for {key!r}", subject=key)
        return users[0]

    def lookup_all(self, subject: DistinguishedName | str) -> list[str]:
        """All accounts ``subject`` may run as (empty list if unmapped)."""
        return list(self._entries.get(str(subject), []))

    def authorize(self, subject: DistinguishedName | str, username: str) -> bool:
        """May ``subject`` run as ``username``?"""
        return username in self._entries.get(str(subject), [])

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, subject: DistinguishedName | str) -> bool:
        return str(subject) in self._entries

    # -- file format ----------------------------------------------------------

    def format_file(self) -> str:
        """Render as a classic grid-mapfile: ``"<dn>" user1,user2``."""
        lines = [
            f'"{dn}" {",".join(users)}'
            for dn, users in sorted(self._entries.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse_file(text: str) -> "Gridmap":
        """Parse :meth:`format_file` output (blank lines and # comments ok)."""
        gm = Gridmap()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith('"'):
                raise GridmapError(f"malformed gridmap line: {raw!r}")
            end = line.find('"', 1)
            if end < 0:
                raise GridmapError(f"unterminated DN quote: {raw!r}")
            dn = line[1:end]
            users = line[end + 1 :].strip()
            if not users:
                raise GridmapError(f"gridmap line has no usernames: {raw!r}")
            for user in users.split(","):
                user = user.strip()
                if not user:
                    raise GridmapError(f"empty username in gridmap line: {raw!r}")
                gm.add(dn, user)
        return gm
