"""Gridmap files — including the failure modes GCMU eliminates."""

import pytest

from repro.errors import GridmapError
from repro.gsi.gridmap import Gridmap
from repro.pki.dn import DistinguishedName as DN

ALICE = DN.parse("/O=Grid/CN=alice")


def test_add_and_lookup():
    gm = Gridmap()
    gm.add(ALICE, "alice")
    assert gm.lookup(ALICE) == "alice"
    assert ALICE in gm


def test_stale_gridmap_raises():
    """The 'frequent source of errors and complaints' (Section IV.C)."""
    gm = Gridmap()
    with pytest.raises(GridmapError) as exc:
        gm.lookup(ALICE)
    assert exc.value.subject == str(ALICE)


def test_multiple_accounts_first_is_default():
    gm = Gridmap()
    gm.add(ALICE, "alice")
    gm.add(ALICE, "shared")
    assert gm.lookup(ALICE) == "alice"
    assert gm.lookup_all(ALICE) == ["alice", "shared"]
    assert gm.authorize(ALICE, "shared")
    assert not gm.authorize(ALICE, "root")


def test_duplicate_add_is_idempotent():
    gm = Gridmap()
    gm.add(ALICE, "alice")
    gm.add(ALICE, "alice")
    assert gm.lookup_all(ALICE) == ["alice"]


def test_remove_specific_user():
    gm = Gridmap()
    gm.add(ALICE, "a")
    gm.add(ALICE, "b")
    gm.remove(ALICE, "a")
    assert gm.lookup_all(ALICE) == ["b"]
    gm.remove(ALICE, "b")
    assert ALICE not in gm


def test_remove_all():
    gm = Gridmap()
    gm.add(ALICE, "a")
    gm.remove(ALICE)
    assert ALICE not in gm
    gm.remove(ALICE)  # removing absent entry is fine


def test_file_round_trip():
    gm = Gridmap()
    gm.add(ALICE, "alice")
    gm.add(DN.parse("/O=Grid/CN=bob"), "bob")
    gm.add(DN.parse("/O=Grid/CN=bob"), "research")
    text = gm.format_file()
    back = Gridmap.parse_file(text)
    assert back.lookup(ALICE) == "alice"
    assert back.lookup_all("/O=Grid/CN=bob") == ["bob", "research"]


def test_parse_skips_comments_and_blanks():
    text = '# comment\n\n"/O=Grid/CN=alice" alice\n'
    gm = Gridmap.parse_file(text)
    assert gm.lookup(ALICE) == "alice"


@pytest.mark.parametrize(
    "bad",
    [
        "/O=Grid/CN=x alice",  # missing quotes
        '"/O=Grid/CN=x alice',  # unterminated quote
        '"/O=Grid/CN=x"',  # no username
        '"/O=X/CN=b" ,bob',  # empty default account
        '"/O=X/CN=b" a, ,b',  # empty account between two names
        '"/O=X/CN=b" a,',  # trailing comma
    ],
)
def test_parse_malformed_lines(bad):
    with pytest.raises(GridmapError):
        Gridmap.parse_file(bad)


def test_len():
    gm = Gridmap()
    gm.add(ALICE, "a")
    gm.add("/O=Grid/CN=bob", "b")
    assert len(gm) == 2
