"""Shared value types and errors for the watermarking protocol.

The errors are those the command line maps to exit codes (ParameterError 2,
EmbedFailure 3, TransportError and ProtocolError 4), kept here so that
catching them loads neither the embedder nor the model. Every other name is
an immutable value: fixed-length bit strings (the signature, digest, mask
and codeword carriers), the gadget layout a verifier needs, the full
parameter profile the embedder reads its knobs from, and the per-block
transcript of an embedding run. Each stores only its independent fields;
what follows from them (n_blocks, gadget_chars, the error-correcting code,
planted_error, gamma_used) is computed. A Layout that constructs has a
code: none when lambda_c == lambda_sig, else Reed-Solomon over bytes with
an even, positive parity count and at most 255 symbols. Layout and
parameter fields other than alpha must be ints, and alpha a finite positive
number, so a JSON 2.0 or true is rejected rather than read as 2 or 1.

Bit order convention: bit 0 of a BitString is the most significant bit of
byte 0, and serialization is big-endian throughout. A BitString has no
indexing (TypeError) and no len(); inside the protocol, chunks and
signature halves are plain ints cut from its value by shifts. Characters
are unicode scalar values; all character counts index ``str`` positions,
never bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional


class ParameterError(ValueError):
    """Raised for invalid protocol parameters or mismatched operand shapes."""


class EmbedFailure(RuntimeError):
    """A block found no hash match and the planted-error budget was spent."""

    def __init__(self, gadget_index: int, block_index: int):
        self.gadget_index = gadget_index
        self.block_index = block_index
        super().__init__(
            "no matching block within a_max attempts and gamma budget exhausted "
            "(gadget %d, block %d)" % (gadget_index, block_index)
        )


class TransportError(RuntimeError):
    """Remote endpoint unreachable or persistently failing."""


class ProtocolError(RuntimeError):
    """Remote endpoint answered with something other than the wire format."""


FORMAT_VERSION = 1


def parse_json(text, what: str):
    """json.loads(text), any failure to read it a ParameterError that names what.

    ValueError covers bad syntax, bytes that are not UTF-8 and an integer
    past CPython's digit limit; RecursionError, nesting too deep to decode.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError("%s is not valid JSON or nests too deeply: %s" % (what, exc)) from exc


def json_fields(d, required, optional, what: str) -> dict:
    """Return the JSON object d once it holds every required key and no other.

    Keys in optional may be absent. A format_version, where optional allows
    one, must be the int FORMAT_VERSION (not 1.0 or true). Anything else
    raises ParameterError, so a misspelled or smuggled key is refused rather
    than ignored.
    """
    if not isinstance(d, dict):
        raise ParameterError("%s must be a JSON object" % what)
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ParameterError("unknown %s fields: %s" % (what, ", ".join(sorted(unknown))))
    missing = [name for name in required if name not in d]
    if missing:
        raise ParameterError("missing %s fields: %s" % (what, ", ".join(missing)))
    version = d.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParameterError("%s has format_version %r, not %d" % (what, version, FORMAT_VERSION))
    return d


@dataclass(frozen=True, slots=True)
class BitString:
    """An immutable sequence of bits with explicit length.

    Backed by an integer whose most significant bit (after left-padding to
    ``length``) is bit 0. Supports the operations the protocol needs: xor
    and conversion to and from bytes.
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

    # -- operations -----------------------------------------------------

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ParameterError(
                "xor length mismatch: %d vs %d" % (self.length, other.length)
            )
        return BitString(self.value ^ other.value, self.length)


def _require_int(name: str, value) -> None:
    """Reject a value that is not an int; bool, float and numeric strings too."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError("%s must be an integer, got %r" % (name, value))


def _require_hex(name: str, value) -> bytes:
    """The bytes a hex string spells; a ParameterError naming name for anything else."""
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise ParameterError("%s must be a string of hex digits" % name) from None


def _require_ints(obj, *names: str) -> None:
    for name in names:
        _require_int(name, getattr(obj, name))


@dataclass(frozen=True, slots=True)
class Layout:
    """Gadget geometry: everything detection reads besides the key and salts.

    ell        characters per block
    beta       bits embedded per block (1, 2, 4 or 8)
    lambda_sig raw signature length in bits
    lambda_c   codeword length in bits after error-correction encoding
               (equal to lambda_sig when there is no code)

    The code is a function of (lambda_sig, lambda_c): the signature's bytes,
    the last zero-padded, followed by parity_symbols parity bytes.
    """

    ell: int = 16
    beta: int = 2
    lambda_sig: int = 328
    lambda_c: int = 360

    def __post_init__(self) -> None:
        _require_ints(self, "ell", "beta", "lambda_sig", "lambda_c")
        if self.ell < 1:
            raise ParameterError("ell must be positive")
        if self.beta not in (1, 2, 4, 8):
            raise ParameterError("beta must divide 8 (one chunk error, one code symbol)")
        if self.lambda_sig < 1 or self.lambda_c < self.lambda_sig:
            raise ParameterError("need lambda_c >= lambda_sig >= 1")
        if self.lambda_c % self.beta:
            raise ParameterError("beta must divide lambda_c (whole chunks only)")
        if self.lambda_c != self.lambda_sig:
            if self.lambda_c % 8:
                raise ParameterError("lambda_c must be byte-aligned when it exceeds lambda_sig")
            if self.parity_symbols < 2 or self.parity_symbols % 2:
                raise ParameterError(
                    "lambda_c leaves %d parity symbols; need a positive even count"
                    % self.parity_symbols
                )
            if self.lambda_c > 8 * 255:
                raise ParameterError("lambda_c exceeds the 255 symbols of a byte code")

    @property
    def parity_symbols(self) -> int:
        """RS parity bytes after the signature's data bytes; 0 means no code."""
        if self.lambda_c == self.lambda_sig:
            return 0
        return self.lambda_c // 8 - (self.lambda_sig + 7) // 8

    def ecc_block(self) -> dict:
        """The code's shape, as profiles and public envelopes write it for readers."""
        return {
            "data_symbols": (self.lambda_sig + 7) // 8,
            "parity_symbols": self.parity_symbols,
            "symbol_bits": 8,
            "t_correctable": self.parity_symbols // 2,
            "data_bits": self.lambda_sig,
        }

    def check_ecc_block(self, stated) -> None:
        """Reject a stated ecc block unless it is ecc_block(), every value an int."""
        if stated != self.ecc_block() or any(type(v) is not int for v in stated.values()):
            raise ParameterError(
                "ecc block disagrees with the code derived from lambda_sig/lambda_c"
            )

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
        _require_ints(self, "gamma_max", "a_max", "n")
        if self.gamma_max < 0:
            raise ParameterError("gamma_max must be non-negative")
        if self.a_max < 1:
            raise ParameterError("a_max must be positive")
        if self.n < 1:
            raise ParameterError("n must be positive")
        if isinstance(self.alpha, bool) or not 0 < self.alpha < math.inf:
            raise ParameterError("alpha must be a finite positive number, got %r" % self.alpha)
        if self.gamma_max == 0 and self.parity_symbols:
            raise ParameterError("gamma_max=0 requires lambda_c == lambda_sig")
        if self.gamma_max > self.parity_symbols // 2:
            raise ParameterError(
                "gamma_max %d exceeds correction capacity t=%d"
                % (self.gamma_max, self.parity_symbols // 2)
            )

    @property
    def layout(self) -> Layout:
        """The public part, as a verifier receives it."""
        return Layout(self.ell, self.beta, self.lambda_sig, self.lambda_c)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["format_version"] = FORMAT_VERSION
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "WatermarkParams":
        # Every field is required, so a typo'd knob can never fall back to a default.
        names = [f.name for f in fields(cls)]
        json_fields(d, names, ("format_version", "ecc"), "params")
        try:
            params = cls(**{name: d[name] for name in names})
        except TypeError as exc:
            raise ParameterError(str(exc)) from exc
        if "ecc" in d:
            params.check_ecc_block(d["ecc"])
        return params

    @classmethod
    def from_json(cls, text: str) -> "WatermarkParams":
        return cls.from_json_dict(parse_json(text, "parameter profile"))


@dataclass(frozen=True, slots=True)
class BlockRecord:
    """One embedded block: how it was found and what it says."""

    attempts: int
    best_hamming: int
    text: str

    @property
    def planted_error(self) -> bool:
        """The block's value misses its chunk, so the code must correct it."""
        return self.best_hamming > 0


@dataclass(frozen=True)
class EmbedTranscript:
    """Complete record of an embedding run.

    blocks holds every gadget's message block followed by its signature
    blocks, in output order. The per-gadget budget gamma_max is enforced
    during embedding.
    """

    params: WatermarkParams
    seed: int
    blocks: tuple[BlockRecord, ...]

    def __post_init__(self) -> None:
        if any(b.attempts > self.params.a_max + 1 for b in self.blocks):
            raise ParameterError("block exceeds a_max+1 attempts")

    @property
    def gamma_used(self) -> int:
        """Total planted-error count: the blocks marked planted_error."""
        return sum(b.planted_error for b in self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "seed": self.seed,
            "blocks": [dict(asdict(b), planted_error=b.planted_error) for b in self.blocks],
            "gamma_used": self.gamma_used,
        }
