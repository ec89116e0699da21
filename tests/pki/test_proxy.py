"""Proxy certificates and delegation chains."""

import pytest

from repro.errors import CertificateError
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName as DN
from repro.pki.proxy import create_proxy, is_proxy_subject, strip_proxy_cns
from repro.sim.clock import Clock
from repro.sim.random import RngFactory
from repro.util.units import DAY, HOUR


@pytest.fixture
def setup():
    clock = Clock()
    rng = RngFactory(4).python("proxy-tests")
    ca = CertificateAuthority(DN.parse("/O=T/CN=CA"), clock, rng, key_bits=256)
    user = ca.issue_credential(DN.parse("/O=T/CN=alice"), lifetime=30 * DAY)
    return clock, rng, ca, user


def test_proxy_subject_extends_parent(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng)
    assert user.subject.is_prefix_of(proxy.subject)
    assert len(proxy.subject.rdns) == len(user.subject.rdns) + 1
    assert proxy.certificate.is_proxy


def test_proxy_issuer_is_parent_subject(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng)
    assert proxy.certificate.issuer == user.subject
    assert proxy.certificate.verify_signature(user.key.public)


def test_proxy_has_fresh_key(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng)
    assert proxy.key != user.key


def test_proxy_chain_includes_parent_chain(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng)
    assert proxy.chain == (proxy.certificate, *user.chain)


def test_proxy_lifetime_clipped_to_parent(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng, lifetime=90 * DAY)
    assert proxy.certificate.not_after <= user.expires_at()


def test_proxy_of_expired_credential_rejected(setup):
    clock, rng, ca, user = setup
    clock.advance(31 * DAY)
    with pytest.raises(CertificateError):
        create_proxy(user, clock, rng)


def test_identity_strips_proxy_cns(setup):
    clock, rng, ca, user = setup
    p1 = create_proxy(user, clock, rng)
    p2 = create_proxy(p1, clock, rng, lifetime=HOUR)
    assert strip_proxy_cns(p2.subject) == user.subject
    assert p2.identity == user.subject


def test_strip_does_not_eat_non_numeric_cn():
    dn = DN.parse("/O=T/CN=alice")
    assert strip_proxy_cns(dn) == dn


def test_is_proxy_subject(setup):
    clock, rng, ca, user = setup
    proxy = create_proxy(user, clock, rng)
    assert is_proxy_subject(proxy.subject, user.subject)
    assert not is_proxy_subject(user.subject, proxy.subject)
    assert not is_proxy_subject(user.subject, user.subject)
