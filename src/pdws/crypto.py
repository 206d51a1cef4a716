"""Hash oracles and pluggable signature schemes.

Three domain-separated oracles stand in for the protocol's random oracles:
``OracleSuite.h_sign`` (256-bit signing digest), ``OracleSuite.h_mask``
(extendable-output one-time pad for the codeword) and the beta-bit
rejection hash, which the embedder and detector evaluate only through a
``BitChain``, one gadget's chain of ``HashOracle.bit_value`` calls on a
running state; the module-level ``h_bit`` is its one-shot form. Every
oracle input is framed with its domain tag and an optional public salt, so
distinct roles can never collide and experiments can draw fresh oracles by
re-salting.

Signature schemes live behind a small registry keyed by scheme_id:

* ``schnorr-p1024``: deterministic Schnorr over a fixed 1024-bit modulus
  with a 164-bit prime-order subgroup. Signatures are e||s, exactly 328
  bits. The group gives roughly 80-bit security, sized to match the short
  signature budget; treat it as demonstration-grade, not long-term key
  material.
* ``ed25519``: RFC 8032 via the cryptography package, 512-bit signatures,
  for deployments that prefer a standard scheme over the compact one. The
  package is imported at the first Ed25519 sign, verify or key derivation,
  so a Schnorr-only process never loads it.

Both schemes sign deterministically; embedding relies on equal message,
equal signature. No ``KeyMaterial`` can hold a public key its scheme
refuses (truncated, out-of-group or off-curve), read from an envelope or
built directly, nor a secret key that does not derive its public key, so
the schemes sign and verify without re-checking keys. The public-key check
is cached per key.

A scan runs one verify at every offset whose decode succeeds, which is
every offset under a bypass code such as ``gamma0-328``. Schnorr verify
therefore evaluates both of its powers from fixed-base tables, one cache
holding g's and those of the last 8 public keys y. A table row covers 8
exponent bits, so a 164-bit power is at most 21 multiplies and a verify
at most 43. A new table holds only each row's powers of two, 8 squarings
a row; an entry read while missing is filled from two others, one
multiply, and kept. Schnorr sign fills g's table once per signing process
(about 4,950 multiplies, 0.9 MB): every entry a nonce below q can index is
filled before sign reads, so a secret nonce's digits never choose between
reading an entry and filling it. A key check runs once per key and stays
on ``pow``.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Optional

from .core import BitString, ParameterError, _require_hex, _require_int, json_fields

class KeyMaterialError(ValueError):
    """Raised for malformed or incomplete key material."""


TAG_SIGN = b"SIGN"
TAG_MASK = b"MASK"
TAG_BIT = b"BIT"


class HashOracle:
    """One domain-separated hash role (one of the TAG_ constants), optionally salted.

    The frame prepended to every input is
    ``len(tag) || tag || len(salt) as 4 bytes || salt`` which keeps
    (tag, salt, data) triples injective as byte strings.
    """

    __slots__ = ("_prefix",)

    def __init__(self, domain_tag: bytes, salt: bytes = b""):
        self._prefix = bytes([len(domain_tag)]) + domain_tag + len(salt).to_bytes(4, "big") + salt

    def running(self, data: bytes = b""):
        """A SHA-256 state that has absorbed the frame and data; extend it with update()."""
        return hashlib.sha256(self._prefix + data)

    def bit_value(self, data: bytes, beta: int, state) -> int:
        """First beta bits of the digest of what state absorbed followed by data.

        state comes from running(), possibly updated since; it is copied, not
        consumed. This is the per-block call of a BitChain.
        """
        h = state.copy()
        h.update(data)
        return h.digest()[0] >> (8 - beta)


class BitChain:
    """One gadget's chained rejection hash: block j hashes to h_bit(m || x || c_prev).

    m is the blocks committed so far, x the block and c_prev the chunk values
    so far, packed MSB-first and zero-padded to a whole byte. One running
    SHA-256 state absorbs the oracle frame and each block once, and a
    block's value hashes only the c_prev bytes on a copy of it, so a chain
    of n blocks feeds SHA-256 about ell * n bytes plus the c_prev tails and
    a detector scan costs time linear in the text length. absorb takes any
    number of blocks in one call: the detector passes all of an offset's
    signature blocks at once. The embedder peeks at candidates and pushes
    the one it keeps with its peeked value, which leaves the chain as
    absorb would, hashing it once. c_prev is one bytearray, filled in place
    block by block, and each value is one HashOracle.bit_value call.
    """

    __slots__ = ("oracle", "beta", "_state", "_tail", "_free")

    def __init__(self, oracle: HashOracle, beta: int):
        self.oracle = oracle
        self.beta = beta
        self._state = oracle.running()
        # c_prev as bytes; the low _free bits of its last byte are still unset.
        self._tail = bytearray()
        self._free = 0

    def peek(self, window: bytes) -> int:
        """The value window would take as the next block; the chain is unchanged."""
        return self.oracle.bit_value(window + self._tail, self.beta, self._state)

    def push(self, window: bytes, value: int) -> None:
        """Commit window as the next block, given value = peek(window); as absorb((window,))."""
        self._state.update(window)
        if not self._free:
            self._tail.append(0)
        self._free = (self._free or 8) - self.beta
        self._tail[-1] |= value << self._free

    def absorb(self, windows) -> bytes:
        """Absorb each window as the next block, in order; return a copy of c_prev after them.

        With no windows this returns c_prev as it stands.
        """
        beta, state, tail, free = self.beta, self._state, self._tail, self._free
        for window in windows:
            state.update(window)
            value = self.oracle.bit_value(tail, beta, state)
            if not free:
                tail.append(0)
                free = 8
            free -= beta
            tail[-1] |= value << free
        self._free = free
        return bytes(tail)


def h_bit(data: bytes, beta: int, salt: bytes = b"") -> BitString:
    """beta-bit rejection hash, domain tag BIT: a fresh chain's first value."""
    _require_int("beta", beta)
    if beta not in (1, 2, 4, 8):
        raise ParameterError("beta must be one of 1, 2, 4, 8")
    return BitString(BitChain(HashOracle(TAG_BIT, salt), beta).peek(data), beta)


@dataclass(frozen=True)
class OracleSuite:
    """The three protocol oracles with their public salts.

    Salts are public detection material; they ride along in the public key
    envelope. Fresh salts give statistically fresh oracles, which the
    balanced-partition experiments rely on.
    """

    sign_salt: bytes = b""
    mask_salt: bytes = b""
    bit_salt: bytes = b""

    def bit_oracle(self) -> HashOracle:
        return HashOracle(TAG_BIT, self.bit_salt)

    def h_sign(self, data: bytes) -> BitString:
        """256-bit signing digest, domain tag SIGN."""
        digest = HashOracle(TAG_SIGN, self.sign_salt).running(data).digest()
        return BitString.from_bytes(digest, 256)

    def h_mask(self, data: bytes, out_bits: int) -> BitString:
        """Exactly out_bits mask bits, domain tag MASK, extendable-output."""
        frame = HashOracle(TAG_MASK, self.mask_salt)._prefix
        raw = hashlib.shake_256(frame + data).digest((out_bits + 7) // 8)
        return BitString.from_bytes(raw, out_bits)

    def to_json_dict(self) -> dict:
        return {
            "sign": self.sign_salt.hex(),
            "mask": self.mask_salt.hex(),
            "bit": self.bit_salt.hex(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "OracleSuite":
        """Salts from an object holding exactly the sign, mask and bit roles, as hex."""
        roles = ("sign", "mask", "bit")
        json_fields(d, roles, [], "salts")
        return cls(*(_require_hex("salts." + role, d[role]) for role in roles))


# ---------------------------------------------------------------------------
# Signature schemes
# ---------------------------------------------------------------------------

# Exponent bits per table row; each row holds 2^_ROW_BITS powers.
_ROW_BITS = 8


def _table_pow(table: list[list[int]], exponent: int, modulus: int) -> int:
    """base^exponent mod modulus from _table(base), one multiply per non-zero digit.

    A digit whose entry is still missing (0) is filled first and kept.
    """
    if exponent < 0 or exponent >> (_ROW_BITS * len(table)):
        raise ValueError("exponent outside the table's range")
    mask = (1 << _ROW_BITS) - 1
    acc = 1
    for row in table:
        digit = exponent & mask
        if digit:
            acc = acc * (row[digit] or _fill(row, digit, modulus)) % modulus
        exponent >>= _ROW_BITS
    return acc


def _fill(row: list[int], digit: int, modulus: int) -> int:
    """Set row[digit] from the entries of two digits that split its bits, filled as needed.

    A digit with both nibbles set splits into its nibbles; any other into its
    lowest bit and the rest. So the filled entries beyond the digits read
    are nibble digits, at most 22 a row.
    """
    low = digit & 0x0F
    if low == digit or not low:
        low = digit & -digit
    high = digit ^ low
    row[digit] = ((row[high] or _fill(row, high, modulus))
                  * (row[low] or _fill(row, low, modulus)) % modulus)
    return row[digit]


@dataclass(frozen=True)
class KeyMaterial:
    """A key pair (or public half) tagged with a scheme that accepts it; a pair must match."""

    scheme_id: str
    verify_key: bytes
    signing_key: Optional[bytes] = None

    def __post_init__(self) -> None:
        scheme, sk = get_scheme(self.scheme_id), self.signing_key
        if sk is None:
            scheme.check_verify_key(self.verify_key)
        elif scheme.derive_verify_key(sk) != self.verify_key:
            raise KeyMaterialError("secret_key does not derive public_key")

    def public_only(self) -> "KeyMaterial":
        return KeyMaterial(self.scheme_id, self.verify_key)

    def to_json_dict(self) -> dict:
        d = {"scheme_id": self.scheme_id, "public_key": self.verify_key.hex()}
        if self.signing_key is not None:
            d["secret_key"] = self.signing_key.hex()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "KeyMaterial":
        try:
            scheme_id = d["scheme_id"]
            public_key = bytes.fromhex(d["public_key"])
            secret = d.get("secret_key")
            return cls(scheme_id, public_key, secret if secret is None else bytes.fromhex(secret))
        except (KeyError, TypeError, ValueError) as exc:
            raise KeyMaterialError("malformed key envelope: %s" % exc) from exc


class SchnorrP1024:
    """Deterministic Schnorr over a pinned Schnorr group.

    The group was produced by a deterministic SHAKE-256 search (tags
    "pdws-group-q" and "pdws-group-r") for a 164-bit prime q and a 1024-bit
    prime p = q*r + 1; g = 2^((p-1)/q) mod p generates the order-q subgroup.
    A signature is the challenge e (164 bits, the truncated hash of
    R || y || digest) followed by s = k + e*x mod q (164 bits): 328 bits.
    """

    scheme_id = "schnorr-p1024"
    sig_bits = 328

    P = int(
        "9d6f9d951198572266a71a42d361d2a028a0935f97c4d2adb231f64422b767c3"
        "3c7c00c5f05272fd5e059076c54255d78a2eace07503e2fcfd1f2afc1625d091"
        "8d9be9f368a1d1e4dfd4dce623b46333acf693da50d6eb76417d656797743f03"
        "bbf52be152a603b6b7649b4e56ad422735b8eaaf8caff4ec9d9b8caf4b2821a3",
        16,
    )
    Q = int("df0f01afbfe0bf078d62928c62586a2d1eb166f03", 16)
    G = int(
        "3561650778aad0b0088fb789baeb3aa3714790622282ab0e439a8be0ad183ff3"
        "a03e5c6300e8994a9d36e70eb9a533a9c7f4cc36ba80727007abb0fd741bec6e"
        "f28c60731fff2314def5f512eceb9e34c8f862f49bfb3466eca52ffb973e469e"
        "759db96624487e93118616889a3831e8c6621acd5e512dd79431cc98ee669cd3",
        16,
    )

    _HALF_BITS = 164
    _SK_LEN = 21   # ceil(164 / 8)
    _PK_LEN = 128

    def keygen(self, seed: bytes) -> KeyMaterial:
        x = int.from_bytes(
            hashlib.shake_256(b"pdws-schnorr-keygen|" + seed).digest(42), "big"
        ) % (self.Q - 1) + 1
        signing_key = x.to_bytes(self._SK_LEN, "big")
        return KeyMaterial(self.scheme_id, self.derive_verify_key(signing_key), signing_key)

    def derive_verify_key(self, signing_key: bytes) -> bytes:
        """y = g^x; KeyMaterialError unless x is a 21-byte exponent in [1, q)."""
        x = int.from_bytes(signing_key, "big")
        if len(signing_key) != self._SK_LEN or not 1 <= x < self.Q:
            raise KeyMaterialError("schnorr signing key out of range")
        return pow(self.G, x, self.P).to_bytes(self._PK_LEN, "big")

    @functools.lru_cache(maxsize=8)
    def check_verify_key(self, verify_key: bytes) -> None:
        """Raise KeyMaterialError unless y is an element of the order-q subgroup."""
        if len(verify_key) != self._PK_LEN:
            raise KeyMaterialError("schnorr public key must be %d bytes" % self._PK_LEN)
        y = int.from_bytes(verify_key, "big")
        if not 1 < y < self.P or pow(y, self.Q, self.P) != 1:
            raise KeyMaterialError("schnorr public key is not in the order-q subgroup")

    def _challenge(self, r_point: int, verify_key: bytes, digest: bytes) -> int:
        raw = hashlib.shake_256(
            b"pdws-schnorr-chal|" + r_point.to_bytes(self._PK_LEN, "big") + verify_key + digest
        ).digest(self._SK_LEN)
        return int.from_bytes(raw, "big") >> (8 * self._SK_LEN - self._HALF_BITS)

    def sign(self, signing_key: bytes, verify_key: bytes, digest: bytes) -> BitString:
        """Sign under the pair (x, y) of a KeyMaterial, which holds x in [1, q) and y = g^x."""
        x = int.from_bytes(signing_key, "big")
        # Derandomized nonce: a function of the key and the digest only.
        k = int.from_bytes(
            hashlib.shake_256(b"pdws-schnorr-nonce|" + signing_key + digest).digest(42),
            "big",
        ) % self.Q
        if k == 0:
            k = 1
        # Every entry is filled first, so the nonce's digits only ever read.
        r_point = _table_pow(_full_table(self.G), k, self.P)
        e = self._challenge(r_point, verify_key, digest)
        s = (k + e * x) % self.Q
        return BitString(e << self._HALF_BITS | s, self.sig_bits)

    def verify(self, verify_key: bytes, digest: bytes, sig: BitString) -> bool:
        e, s = divmod(sig.value, 1 << self._HALF_BITS)  # crypto.verify checked the length
        if s >= self.Q:
            return False
        # R' = g^s * y^(-e); y has order q so reduce the exponent mod q.
        t = self.Q - e % self.Q
        y = int.from_bytes(verify_key, "big")
        g_s = _table_pow(_table(self.G), s, self.P)
        y_t = _table_pow(_table(y), t, self.P)
        return self._challenge(g_s * y_t % self.P, verify_key, digest) == e


# g is read first in every verify, so no key's table evicts g's; the
# signing path holds g's full table besides.
@functools.lru_cache(maxsize=9)
def _table(base: int) -> list[list[int]]:
    """Row i holds base^(d * 2^(8i)) mod P at digit d; only 1 and the powers of two are set."""
    rows = []
    for _ in range(-(-SchnorrP1024._HALF_BITS // _ROW_BITS)):
        row = [0] * (1 << _ROW_BITS)
        row[0] = 1
        for bit in range(_ROW_BITS):
            row[1 << bit] = base
            base = base * base % SchnorrP1024.P
        rows.append(row)
    return rows


@functools.lru_cache(maxsize=1)
def _full_table(base: int) -> list[list[int]]:
    """_table(base) with every entry an exponent below 2^164 can index filled, once."""
    table = _table(base)
    for i, row in enumerate(table):  # the top row, bits 160-167, only below digit 16
        for digit in range(1 << min(_ROW_BITS, SchnorrP1024._HALF_BITS - _ROW_BITS * i)):
            if not row[digit]:
                _fill(row, digit, SchnorrP1024.P)
    return table


class Ed25519Scheme:
    """RFC 8032 Ed25519; deterministic by construction, 512-bit signatures."""

    scheme_id = "ed25519"
    sig_bits = 512

    def keygen(self, seed: bytes) -> KeyMaterial:
        if len(seed) != 32:
            seed = hashlib.sha256(seed).digest()
        # The raw RFC 8032 private key is the 32-byte seed itself.
        return KeyMaterial(self.scheme_id, self.derive_verify_key(seed), seed)

    def derive_verify_key(self, signing_key: bytes) -> bytes:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
        from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

        try:
            key = Ed25519PrivateKey.from_private_bytes(signing_key)
        except (ValueError, TypeError) as exc:
            raise KeyMaterialError("malformed ed25519 signing key") from exc
        return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)

    _P = 2**255 - 19
    _D = -121665 * pow(121666, -1, _P) % _P

    @functools.lru_cache(maxsize=8)
    def check_verify_key(self, verify_key: bytes) -> None:
        """Raise KeyMaterialError unless the key decodes to a point (RFC 8032 5.1.3)."""
        if len(verify_key) != 32:
            raise KeyMaterialError("ed25519 public key must be 32 bytes")
        y = int.from_bytes(verify_key, "little")
        x_sign, y = y >> 255, y & ((1 << 255) - 1)
        if y >= self._P:
            raise KeyMaterialError("ed25519 public key y is not below p")
        x2 = (y * y - 1) * pow(self._D * y * y + 1, -1, self._P) % self._P
        if x2 and pow(x2, (self._P - 1) // 2, self._P) != 1:
            raise KeyMaterialError("ed25519 public key is not on the curve")
        if not x2 and x_sign:
            raise KeyMaterialError("ed25519 public key has x = 0 with the sign bit set")

    def sign(self, signing_key: bytes, verify_key: bytes, digest: bytes) -> BitString:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        key = Ed25519PrivateKey.from_private_bytes(signing_key)
        return BitString.from_bytes(key.sign(digest), self.sig_bits)

    def verify(self, verify_key: bytes, digest: bytes, sig: BitString) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        try:
            Ed25519PublicKey.from_public_bytes(verify_key).verify(sig.to_bytes(), digest)
            return True
        except (InvalidSignature, ValueError, TypeError):
            return False


_SCHEMES = {s.scheme_id: s for s in (SchnorrP1024(), Ed25519Scheme())}
DEFAULT_SCHEME = SchnorrP1024.scheme_id


def available_schemes() -> tuple[str, ...]:
    return tuple(sorted(_SCHEMES))


def get_scheme(scheme_id: str):
    try:
        return _SCHEMES[scheme_id]
    except KeyError:
        raise KeyMaterialError("unknown signature scheme %r" % scheme_id) from None


def check_signature_bits(scheme_id: str, lambda_sig: int) -> None:
    """Raise ParameterError unless the scheme's signatures are lambda_sig bits long."""
    sig_bits = get_scheme(scheme_id).sig_bits
    if sig_bits != lambda_sig:
        raise ParameterError(
            "scheme %s signs %d bits but params expect lambda_sig=%d"
            % (scheme_id, sig_bits, lambda_sig)
        )


def keygen(seed: Optional[bytes] = None, scheme_id: str = DEFAULT_SCHEME) -> KeyMaterial:
    """Fresh key pair; deterministic when a seed is supplied."""
    return get_scheme(scheme_id).keygen(os.urandom(32) if seed is None else seed)


def sign(keys: KeyMaterial, msg_digest: BitString) -> BitString:
    """Deterministic signature over a digest, exactly sig_bits long."""
    if keys.signing_key is None:
        raise KeyMaterialError("signing requires the secret key")
    scheme = get_scheme(keys.scheme_id)
    return scheme.sign(keys.signing_key, keys.verify_key, msg_digest.to_bytes())


def verify(keys: KeyMaterial, msg_digest: BitString, sig: BitString) -> bool:
    """True iff sig validates under the public key. Total: garbage gives False.

    KeyMaterial checked its scheme and key, and each scheme maps a bad
    signature to False, so what raises here is a bug and is not caught.
    """
    scheme = get_scheme(keys.scheme_id)
    return sig.length == scheme.sig_bits and scheme.verify(
        keys.verify_key, msg_digest.to_bytes(), sig)
