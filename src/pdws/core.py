"""Shared value types for the watermarking protocol.

Everything here is an immutable value: fixed-length bit strings (the
signature, codeword and chunk carriers), the gadget layout a verifier
needs, the full parameter profile the embedder reads its knobs from, and
the per-block transcript of an embedding run.

Bit order convention: bit 0 of a BitString is the most significant bit of
byte 0, and serialization is big-endian throughout. Characters are unicode
scalar values; all character counts index ``str`` positions, never bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional


class ParameterError(ValueError):
    """Raised for invalid protocol parameters or mismatched operand shapes."""


FORMAT_VERSION = 1

# JSON field names for a parameter profile. Anything else is rejected so a
# typo'd knob can never silently fall back to a default.
_PARAM_FIELDS = (
    "ell",
    "beta",
    "gamma_max",
    "a_max",
    "n",
    "lambda_sig",
    "lambda_c",
    "alpha",
)


@dataclass(frozen=True, slots=True)
class BitString:
    """An immutable sequence of bits with explicit length.

    Backed by an integer whose most significant bit (after left-padding to
    ``length``) is bit 0. Supports the operations the protocol needs: xor,
    concatenation and slicing; ``chunk`` splits one into beta-bit pieces.
    """

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ParameterError("negative BitString length")
        if self.value < 0 or self.value >> self.length:
            raise ParameterError("BitString value does not fit in %d bits" % self.length)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "BitString":
        return cls(0, 0)

    @classmethod
    def from_bytes(cls, data: bytes, length: Optional[int] = None) -> "BitString":
        """First ``length`` bits of ``data``, MSB-first (default: all bits)."""
        nbits = 8 * len(data)
        if length is None:
            length = nbits
        if length > nbits:
            raise ParameterError("requested %d bits from %d-byte input" % (length, len(data)))
        value = int.from_bytes(data, "big") >> (nbits - length)
        return cls(value, length)

    # -- serialization --------------------------------------------------

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padding the final partial byte."""
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")

    # -- element access -------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return (self.value >> (self.length - 1 - i)) & 1

    def __getitem__(self, key):
        if isinstance(key, int):
            return self.bit(key if key >= 0 else self.length + key)
        start, stop, step = key.indices(self.length)
        if step != 1:
            raise ParameterError("BitString slices must be contiguous")
        width = max(stop - start, 0)
        return BitString((self.value >> (self.length - stop)) & ((1 << width) - 1), width)

    # -- operations -----------------------------------------------------

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ParameterError(
                "xor length mismatch: %d vs %d" % (self.length, other.length)
            )
        return BitString(self.value ^ other.value, self.length)

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            (self.value << other.length) | other.value, self.length + other.length
        )


def chunk(c: BitString, beta: int) -> tuple[BitString, ...]:
    """Split c into consecutive beta-bit chunks; beta must divide the length."""
    if beta <= 0 or c.length % beta:
        raise ParameterError("chunk width %d does not divide length %d" % (beta, c.length))
    return tuple(c[i : i + beta] for i in range(0, c.length, beta))


@dataclass(frozen=True, slots=True)
class Layout:
    """Gadget geometry: everything detection reads besides the key and salts.

    ell        characters per block
    beta       bits embedded per block (1, 2, 4 or 8)
    lambda_sig raw signature length in bits
    lambda_c   codeword length in bits after error-correction encoding
               (equal to lambda_sig when there is no code)
    """

    ell: int = 16
    beta: int = 2
    lambda_sig: int = 328
    lambda_c: int = 360

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ParameterError("ell must be positive")
        if self.beta not in (1, 2, 4, 8):
            raise ParameterError("beta must divide 8 (one chunk error, one code symbol)")
        if self.lambda_sig < 1 or self.lambda_c < self.lambda_sig:
            raise ParameterError("need lambda_c >= lambda_sig >= 1")
        if self.lambda_c % self.beta:
            raise ParameterError("beta must divide lambda_c (whole chunks only)")

    @property
    def n_blocks(self) -> int:
        """Signature-carrying blocks per gadget: lambda_c / beta."""
        return self.lambda_c // self.beta

    @property
    def gadget_chars(self) -> int:
        """Characters in one complete gadget: message block + signature region."""
        return self.ell * (1 + self.n_blocks)


@dataclass(frozen=True, slots=True)
class WatermarkParams(Layout):
    """A Layout plus the knobs only the embedder reads.

    gamma_max  planted-error budget per gadget
    a_max      max rejection attempts per block (one extra sample is drawn
               before planting, so up to a_max+1 candidates are examined)
    n          total output length in characters; short-n profiles degrade
               to plain generation with a warning instead of refusing to run
    alpha      assumed min-entropy per block in bits (test harness only)
    """

    gamma_max: int = 2
    a_max: int = 16
    n: int = 2896
    alpha: float = 96.0

    def __post_init__(self) -> None:
        # Zero-argument super() fails in slots dataclasses on Python 3.11.
        Layout.__post_init__(self)
        if self.gamma_max < 0:
            raise ParameterError("gamma_max must be non-negative")
        if self.a_max < 1:
            raise ParameterError("a_max must be positive")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if self.alpha <= 0:
            raise ParameterError("alpha must be positive")

    @property
    def layout(self) -> Layout:
        """The public part, as a verifier receives it."""
        return Layout(self.ell, self.beta, self.lambda_sig, self.lambda_c)

    def to_json_dict(self) -> dict:
        d = {name: getattr(self, name) for name in _PARAM_FIELDS}
        d["format_version"] = FORMAT_VERSION
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "WatermarkParams":
        if not isinstance(d, dict):
            raise ParameterError("parameter profile must be a JSON object")
        known = set(_PARAM_FIELDS) | {"format_version", "ecc"}
        unknown = set(d) - known
        if unknown:
            raise ParameterError("unknown parameter fields: %s" % ", ".join(sorted(unknown)))
        missing = [name for name in _PARAM_FIELDS if name not in d]
        if missing:
            raise ParameterError("missing parameter fields: %s" % ", ".join(missing))
        try:
            params = cls(**{name: d[name] for name in _PARAM_FIELDS})
        except TypeError as exc:
            raise ParameterError(str(exc)) from exc
        if "ecc" in d:
            from .ecc import EccProfile

            EccProfile.for_params(params).check_stated(d["ecc"])
        return params

    @classmethod
    def from_json(cls, text: str) -> "WatermarkParams":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError("parameter profile is not valid JSON: %s" % exc) from exc
        return cls.from_json_dict(d)


@dataclass(frozen=True, slots=True)
class BlockRecord:
    """One embedded block: how it was found and what it says."""

    attempts: int
    planted_error: bool
    best_hamming: int
    text: str

    def to_json_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "planted_error": self.planted_error,
            "best_hamming": self.best_hamming,
            "text": self.text,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockRecord":
        return cls(
            attempts=d["attempts"],
            planted_error=d["planted_error"],
            best_hamming=d["best_hamming"],
            text=d["text"],
        )


@dataclass(frozen=True)
class EmbedTranscript:
    """Complete record of an embedding run.

    blocks holds every gadget's message block followed by its signature
    blocks, in output order. gamma_used is the total planted-error count
    (the per-gadget budget gamma_max is enforced during embedding).
    """

    params: WatermarkParams
    seed: int
    blocks: tuple[BlockRecord, ...]
    gamma_used: int

    def __post_init__(self) -> None:
        planted = sum(1 for b in self.blocks if b.planted_error)
        if planted != self.gamma_used:
            raise ParameterError("gamma_used disagrees with planted block count")
        if any(b.attempts > self.params.a_max + 1 for b in self.blocks):
            raise ParameterError("block exceeds a_max+1 attempts")

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "seed": self.seed,
            "blocks": [b.to_json_dict() for b in self.blocks],
            "gamma_used": self.gamma_used,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "EmbedTranscript":
        return cls(
            params=WatermarkParams.from_json_dict(d["params"]),
            seed=d["seed"],
            blocks=tuple(BlockRecord.from_json_dict(b) for b in d["blocks"]),
            gamma_used=d["gamma_used"],
        )

    @classmethod
    def from_json(cls, text: str) -> "EmbedTranscript":
        return cls.from_json_dict(json.loads(text))
