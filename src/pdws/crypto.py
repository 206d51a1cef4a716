"""Hash oracles and pluggable signature schemes.

Three domain-separated oracles stand in for the protocol's random oracles:
``OracleSuite.h_sign`` (256-bit signing digest), ``OracleSuite.h_mask``
(extendable-output one-time pad for the codeword) and the beta-bit
rejection hash, which the embedder and detector evaluate through
``HashOracle.bit_value`` on a running state; the module-level ``h_bit`` is
its one-shot form. Every oracle input is framed with its domain tag and an
optional public salt, so distinct roles can never collide and experiments
can draw fresh oracles by re-salting.

Signature schemes live behind a small registry keyed by scheme_id:

* ``schnorr-p1024``: deterministic Schnorr over a fixed 1024-bit modulus
  with a 164-bit prime-order subgroup. Signatures are e||s, exactly 328
  bits. The group gives roughly 80-bit security, sized to match the short
  signature budget; treat it as demonstration-grade, not long-term key
  material.
* ``ed25519``: RFC 8032 via the cryptography package, 512-bit signatures,
  for deployments that prefer a standard scheme over the compact one.

Both schemes sign deterministically; embedding relies on equal message,
equal signature. A key envelope is checked against its scheme on load, so
a truncated or out-of-group public key is bad input, not a failed verify.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .core import BitString, ParameterError

__all__ = [
    "HashOracle",
    "OracleSuite",
    "KeyMaterial",
    "KeyMaterialError",
    "keygen",
    "sign",
    "verify",
    "h_bit",
    "get_scheme",
    "check_signature_bits",
    "available_schemes",
    "DEFAULT_SCHEME",
]


class KeyMaterialError(ValueError):
    """Raised for malformed or incomplete key material."""


TAG_SIGN = b"SIGN"
TAG_MASK = b"MASK"
TAG_BIT = b"BIT"
_VALID_TAGS = (TAG_SIGN, TAG_MASK, TAG_BIT)


class HashOracle:
    """One domain-separated hash role, optionally salted.

    The frame prepended to every input is
    ``len(tag) || tag || len(salt) as 4 bytes || salt`` which keeps
    (tag, salt, data) triples injective as byte strings.
    """

    __slots__ = ("domain_tag", "salt", "_prefix")

    def __init__(self, domain_tag: bytes, salt: bytes = b""):
        if domain_tag not in _VALID_TAGS:
            raise ValueError("unknown oracle domain tag %r" % domain_tag)
        self.domain_tag = domain_tag
        self.salt = salt
        self._prefix = bytes([len(domain_tag)]) + domain_tag + len(salt).to_bytes(4, "big") + salt

    def running(self, data: bytes = b""):
        """A SHA-256 state that has absorbed the frame and data; extend it with update()."""
        return hashlib.sha256(self._prefix + data)

    def bit_value(self, data: bytes, beta: int, state=None) -> int:
        """First beta bits of the digest as an int (hot-path form of h_bit).

        With state (from running(), possibly updated since) the digest covers
        what the state absorbed followed by data; the state itself is copied,
        not consumed.
        """
        h = self.running() if state is None else state.copy()
        h.update(data)
        return h.digest()[0] >> (8 - beta)


def h_bit(data: bytes, beta: int, salt: bytes = b"") -> BitString:
    """beta-bit rejection hash, domain tag BIT."""
    if beta not in (1, 2, 4, 8):
        raise ValueError("beta must be one of 1, 2, 4, 8")
    return BitString(HashOracle(TAG_BIT, salt).bit_value(data, beta), beta)


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
        return cls(
            sign_salt=bytes.fromhex(d.get("sign", "")),
            mask_salt=bytes.fromhex(d.get("mask", "")),
            bit_salt=bytes.fromhex(d.get("bit", "")),
        )


# ---------------------------------------------------------------------------
# Signature schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyMaterial:
    """A key pair (or public half) tagged with its scheme."""

    scheme_id: str
    verify_key: bytes
    signing_key: Optional[bytes] = None

    @property
    def has_secret(self) -> bool:
        return self.signing_key is not None

    def public_only(self) -> "KeyMaterial":
        return KeyMaterial(self.scheme_id, self.verify_key)

    def to_json_dict(self, include_secret: bool = True) -> dict:
        d = {"scheme_id": self.scheme_id, "public_key": self.verify_key.hex()}
        if include_secret and self.signing_key is not None:
            d["secret_key"] = self.signing_key.hex()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "KeyMaterial":
        try:
            scheme_id = d["scheme_id"]
            public_key = bytes.fromhex(d["public_key"])
            get_scheme(scheme_id).check_verify_key(public_key)
        except (KeyError, TypeError, ValueError) as exc:
            raise KeyMaterialError("malformed key envelope: %s" % exc) from exc
        secret = d.get("secret_key")
        signing_key = bytes.fromhex(secret) if secret is not None else None
        return cls(scheme_id, public_key, signing_key)


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

    def keygen(self, seed: Optional[bytes]) -> KeyMaterial:
        if seed is None:
            seed = os.urandom(32)
        x = int.from_bytes(
            hashlib.shake_256(b"pdws-schnorr-keygen|" + seed).digest(42), "big"
        ) % (self.Q - 1) + 1
        y = pow(self.G, x, self.P)
        return KeyMaterial(
            self.scheme_id,
            y.to_bytes(self._PK_LEN, "big"),
            x.to_bytes(self._SK_LEN, "big"),
        )

    def check_verify_key(self, verify_key: bytes) -> None:
        """Raise KeyMaterialError unless y is an element of the order-q subgroup."""
        if len(verify_key) != self._PK_LEN:
            raise KeyMaterialError("schnorr public key must be %d bytes" % self._PK_LEN)
        y = int.from_bytes(verify_key, "big")
        if not 1 < y < self.P or pow(y, self.Q, self.P) != 1:
            raise KeyMaterialError("schnorr public key is not in the order-q subgroup")

    def _challenge(self, r_point: int, y: int, digest: bytes) -> int:
        raw = hashlib.shake_256(
            b"pdws-schnorr-chal|"
            + r_point.to_bytes(self._PK_LEN, "big")
            + y.to_bytes(self._PK_LEN, "big")
            + digest
        ).digest(self._SK_LEN)
        return int.from_bytes(raw, "big") >> (8 * self._SK_LEN - self._HALF_BITS)

    def sign(self, signing_key: bytes, digest: bytes) -> BitString:
        if len(signing_key) != self._SK_LEN:
            raise KeyMaterialError("schnorr signing key must be %d bytes" % self._SK_LEN)
        x = int.from_bytes(signing_key, "big")
        if not 1 <= x < self.Q:
            raise KeyMaterialError("schnorr signing key out of range")
        # Derandomized nonce: a function of the key and the digest only.
        k = int.from_bytes(
            hashlib.shake_256(b"pdws-schnorr-nonce|" + signing_key + digest).digest(42),
            "big",
        ) % self.Q
        if k == 0:
            k = 1
        y = pow(self.G, x, self.P)
        r_point = pow(self.G, k, self.P)
        e = self._challenge(r_point, y, digest)
        s = (k + e * x) % self.Q
        return BitString(e, self._HALF_BITS).concat(BitString(s, self._HALF_BITS))

    def verify(self, verify_key: bytes, digest: bytes, sig: BitString) -> bool:
        if sig.length != self.sig_bits or len(verify_key) != self._PK_LEN:
            return False
        y = int.from_bytes(verify_key, "big")
        if not 1 < y < self.P:
            return False
        e = sig[: self._HALF_BITS].value
        s = sig[self._HALF_BITS :].value
        if s >= self.Q:
            return False
        # R' = g^s * y^(-e); y has order q so reduce the exponent mod q.
        r_point = pow(self.G, s, self.P) * pow(y, self.Q - e % self.Q, self.P) % self.P
        return self._challenge(r_point, y, digest) == e


class Ed25519Scheme:
    """RFC 8032 Ed25519; deterministic by construction, 512-bit signatures."""

    scheme_id = "ed25519"
    sig_bits = 512

    def keygen(self, seed: Optional[bytes]) -> KeyMaterial:
        if seed is None:
            seed = os.urandom(32)
        if len(seed) != 32:
            seed = hashlib.sha256(seed).digest()
        key = Ed25519PrivateKey.from_private_bytes(seed)
        return KeyMaterial(
            self.scheme_id,
            key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw),
            key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption()),
        )

    def check_verify_key(self, verify_key: bytes) -> None:
        if len(verify_key) != 32:
            raise KeyMaterialError("ed25519 public key must be 32 bytes")

    def sign(self, signing_key: bytes, digest: bytes) -> BitString:
        try:
            key = Ed25519PrivateKey.from_private_bytes(signing_key)
        except (ValueError, TypeError) as exc:
            raise KeyMaterialError("malformed ed25519 signing key") from exc
        return BitString.from_bytes(key.sign(digest), self.sig_bits)

    def verify(self, verify_key: bytes, digest: bytes, sig: BitString) -> bool:
        if sig.length != self.sig_bits:
            return False
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
    return get_scheme(scheme_id).keygen(seed)


def sign(keys: KeyMaterial, msg_digest: BitString) -> BitString:
    """Deterministic signature over a digest, exactly sig_bits long."""
    if keys.signing_key is None:
        raise KeyMaterialError("signing requires the secret key")
    return get_scheme(keys.scheme_id).sign(keys.signing_key, msg_digest.to_bytes())


def verify(keys: KeyMaterial, msg_digest: BitString, sig: BitString) -> bool:
    """True iff sig validates under the public key. Total: garbage gives False."""
    try:
        scheme = get_scheme(keys.scheme_id)
    except KeyMaterialError:
        return False
    try:
        return scheme.verify(keys.verify_key, msg_digest.to_bytes(), sig)
    except Exception:
        return False
