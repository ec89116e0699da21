"""Process-global memos replay exactly across worlds.

Three memos outlive the world that filled them: the RSA keygen memo
(``rsa._KEYGEN_MEMO``), the certificate-parse memo
(``certificate._DER_MEMO``) and the credential PEM round-trip memo
(``credential._ROUNDTRIP``).  A second world built from the same seed in
the same process is served from them.  This test starts from empty
memos, runs one small seeded cross-CA third-party transfer twice, and
requires the second, memo-served run to reach the identical virtual
outcome: clock, mapped accounts, delivered bytes, and the same number
of key generations, whether computed or replayed.
"""

import pytest

from repro.core import install_client
from repro.gridftp.client import GridFTPClient
from repro.gridftp.third_party import third_party_transfer
from repro.pki import certificate, credential, rsa
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util import opcount
from repro.util.units import gbps
from tests.conftest import make_gcmu_site

PAYLOAD = b"memo-replay" * 4096


def _cross_ca_transfer(seed: int) -> dict:
    """One two-CA world, DCSC third-party copy; its virtual outcome."""
    before = opcount.snapshot()
    world = World(seed=seed)
    net = world.network
    net.add_host("dtn-a", nic_bps=gbps(10))
    net.add_host("dtn-b", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.03)
    net.add_link("laptop", "dtn-a", gbps(0.02), 0.02)
    net.add_link("laptop", "dtn-b", gbps(0.02), 0.025)
    ep_a = make_gcmu_site(world, "dtn-a", "siteA", {"alice": "pwA"})
    ep_b = make_gcmu_site(world, "dtn-b", "siteB", {"asmith": "pwB"})
    ep_a.storage.write_file("/home/alice/in.dat", LiteralData(PAYLOAD),
                            uid=ep_a.accounts.get("alice").uid)
    tools = install_client(world, "laptop", username="alice",
                           charge_install_time=False)
    cred_a = tools.myproxy_logon(ep_a, "alice", "pwA")
    cred_b = tools.myproxy_logon(ep_b, "asmith", "pwB")
    sa = GridFTPClient(world, "laptop", credential=cred_a, trust=tools.trust,
                       username="alice").connect(ep_a.server)
    sb = GridFTPClient(world, "laptop", credential=cred_b, trust=tools.trust,
                       username="alice").connect(ep_b.server)
    result = third_party_transfer(sa, "/home/alice/in.dat",
                                  sb, "/home/asmith/out.dat", use_dcsc=cred_a)
    delivered = ep_b.storage.open_read(
        "/home/asmith/out.dat", ep_b.accounts.get("asmith").uid).read_all()
    ops = opcount.since(before)
    return {
        "now": world.now,
        "accounts": (sa.logged_in_as, sb.logged_in_as),
        "nbytes": result.nbytes,
        "delivered": delivered,
        "keygens": ops.get("rsa.keygen.full", 0) + ops.get("rsa.keygen.memo", 0),
        "keygen_full": ops.get("rsa.keygen.full", 0),
    }


def _memo_sizes() -> tuple[int, int, int]:
    return (len(rsa._KEYGEN_MEMO), len(certificate._DER_MEMO),
            len(credential._ROUNDTRIP))


@pytest.fixture
def empty_memos(monkeypatch):
    """Run against empty process-global memos, restoring them afterwards."""
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", {})
    monkeypatch.setattr(certificate, "_DER_MEMO", {})
    monkeypatch.setattr(credential, "_ROUNDTRIP", {})


def test_second_world_replays_memos_exactly(empty_memos):
    cold = _cross_ca_transfer(seed=2012)
    sizes = _memo_sizes()
    warm = _cross_ca_transfer(seed=2012)
    assert cold["delivered"] == warm["delivered"] == PAYLOAD
    assert cold["accounts"] == warm["accounts"] == ("alice", "asmith")
    assert cold["now"] == warm["now"]
    assert cold["nbytes"] == warm["nbytes"] == len(PAYLOAD)
    assert cold["keygens"] == warm["keygens"] > 0
    # the second world was served from the memos, not recomputed
    assert cold["keygen_full"] > 0
    assert warm["keygen_full"] == 0
    assert _memo_sizes() == sizes
