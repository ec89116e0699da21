"""A small, real RSA implementation.

Key generation uses Miller-Rabin probable primes; signing is
hash-and-sign (SHA-256 digest interpreted as an integer, exponentiated
with the private key).  Keys default to 512 bits — cryptographically toy,
but the *behaviour* is genuine: signatures verify only with the matching
public key, any tampering with signed bytes breaks verification, and
that is precisely what the trust-root logic of Figures 4-5 exercises.

No padding scheme is implemented (the digest is orders of magnitude
smaller than the modulus); do not reuse outside this simulation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.util import opcount

try:  # pragma: no cover - exercised whenever sympy is present
    from sympy import isprime as _bpsw_isprime
except Exception:  # pragma: no cover - environments without sympy
    _bpsw_isprime = None

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]

_MR_ROUNDS = 24


@dataclass(frozen=True)
class PublicKey:
    """RSA public key (n, e)."""

    n: int
    e: int

    def to_dict(self) -> dict:
        """Plain-dict form (serialization)."""
        return {"n": f"{self.n:x}", "e": self.e}

    @staticmethod
    def from_dict(d: dict) -> "PublicKey":
        """Rebuild from :meth:`to_dict` output."""
        return PublicKey(n=int(d["n"], 16), e=int(d["e"]))

    def fingerprint(self) -> str:
        """Short stable identifier for the key."""
        return hashlib.sha256(f"{self.n:x}:{self.e:x}".encode()).hexdigest()[:16]


@dataclass(frozen=True)
class KeyPair:
    """RSA key pair.  ``public`` carries (n, e); ``d`` is the private exponent."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> PublicKey:
        """The public half of the key pair."""
        return PublicKey(n=self.n, e=self.e)

    def to_dict(self) -> dict:
        """Plain-dict form (serialization)."""
        return {"n": f"{self.n:x}", "e": self.e, "d": f"{self.d:x}"}

    @staticmethod
    def from_dict(d: dict) -> "KeyPair":
        """Rebuild from :meth:`to_dict` output."""
        return KeyPair(n=int(d["n"], 16), e=int(d["e"]), d=int(d["d"], 16))


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n-1 = d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for round_no in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            pass
        else:
            for _ in range(r - 1):
                x = pow(x, 2, n)
                if x == n - 1:
                    break
            else:
                return False
        # A genuinely prime n passes every round, so the loop consumes
        # exactly _MR_ROUNDS randrange draws and no other randomness.
        # Once the first round passes, a deterministic BPSW check settles
        # primality; for primes we replay the remaining draws and skip
        # their modexps — bit-identical verdict and rng stream, ~6x
        # cheaper.  Composites that slip past round one (rare
        # pseudoprimes) fall back to the full loop unchanged.
        if round_no == 0 and _bpsw_isprime is not None and _bpsw_isprime(n):
            for _ in range(_MR_ROUNDS - 1):
                rng.randrange(2, n - 1)
            return True
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A probable prime with exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


#: (bits, rng state) -> (keypair, rng state after generation).  GSI
#: delegation re-derives its rng stream from the world seed on every
#: login, so fleet runs request the identical (bits, state) pair
#: thousands of times; replaying the memo — same keypair, same
#: post-generation state — is bit-for-bit identical to regenerating.
_KEYGEN_MEMO: dict[tuple[int, tuple], tuple[KeyPair, tuple]] = {}
_KEYGEN_MEMO_MAX = 256


def generate_keypair(bits: int = 512, rng: random.Random | None = None) -> KeyPair:
    """Generate an RSA key pair of (approximately) ``bits`` modulus bits."""
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    rng = rng or random.Random()
    memo_key = (bits, rng.getstate())
    hit = _KEYGEN_MEMO.get(memo_key)
    if hit is not None:
        pair, post_state = hit
        rng.setstate(post_state)
        opcount.bump("rsa.keygen.memo")
        return pair
    opcount.bump("rsa.keygen.full")
    e = 65537
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        pair = KeyPair(n=n, e=e, d=d)
        # Stash the CRT parameters on the instance (KeyPair is frozen, so
        # via object.__setattr__): signing with p/q halves the modulus
        # width, ~4x faster, and produces the identical signature integer.
        # Keys rebuilt from serialized (n, e, d) simply lack the stash and
        # fall back to the plain private-exponent path.
        object.__setattr__(
            pair, "_crt", (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))
        )
        if len(_KEYGEN_MEMO) >= _KEYGEN_MEMO_MAX:
            _KEYGEN_MEMO.pop(next(iter(_KEYGEN_MEMO)))
        _KEYGEN_MEMO[memo_key] = (pair, rng.getstate())
        return pair


def _digest_int(data: bytes, n: int) -> int:
    """SHA-256 digest of ``data`` reduced into the modulus group."""
    h = int.from_bytes(hashlib.sha256(data).digest(), "big")
    return h % n


def sign(key: KeyPair, data: bytes) -> int:
    """Sign ``data`` with the private exponent; returns the signature integer.

    Uses the CRT decomposition when the key carries one (generated keys
    do); the result is bit-identical to ``pow(m, d, n)``.
    """
    opcount.bump("rsa.sign")
    m = _digest_int(data, key.n)
    crt = getattr(key, "_crt", None)
    if crt is None:
        return pow(m, key.d, key.n)
    p, q, dp, dq, qinv = crt
    mp = pow(m % p, dp, p)
    mq = pow(m % q, dq, q)
    return mq + ((mp - mq) * qinv % p) * q


def verify(public: PublicKey, data: bytes, signature: int) -> bool:
    """True iff ``signature`` over ``data`` verifies with ``public``."""
    if not 0 < signature < public.n:
        return False
    opcount.bump("rsa.verify")
    return pow(signature, public.e, public.n) == _digest_int(data, public.n)
