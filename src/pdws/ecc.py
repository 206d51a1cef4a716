"""Error correction for the signature codeword.

A systematic byte-symbol code over GF(256): the codeword is the signature's
data bytes followed by 2*t parity symbols, correcting up to t corrupted
bytes. Because the chunk width beta divides 8, one bad chunk touches exactly
one symbol, so a planted-error budget of gamma_max <= t is always
recoverable.

The generator's roots are alpha^0 .. alpha^(2t-1). Decoding is one textbook
pipeline: syndromes, Berlekamp-Massey, a Chien search for the error
positions, Forney's formula for the error values, and a final syndrome check.
It returns the unique codeword within t symbols of the word, or None.

Decoding failure is a normal return value (None), never an exception: the
caller treats any decode output as a candidate and relies on signature
verification for the final word, so a miscorrection is harmless.

A layout with lambda_c == lambda_sig bypasses the code entirely (the
embedder's gamma_max must then be 0); encode is the identity.

The code follows from (lambda_sig, lambda_c) alone, so EccProfile stores
only data_bits and parity_symbols. The ecc block that profiles and public
envelopes carry is written from it and accepted only when it equals the
derived one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .core import BitString, Layout, ParameterError, WatermarkParams

_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

# log/antilog tables for the field generated by alpha = 2
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM_POLY


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


def _eval(poly: list[int], e: int) -> int:
    """poly(alpha^e), coefficients lowest degree first."""
    y = 0
    for k, c in enumerate(poly):
        if c:
            y ^= _EXP[(_LOG[c] + k * e) % 255]
    return y


@cache
def _generator_poly(nsym: int) -> list[int]:
    """Product of (x - alpha^j) for j = 0..nsym-1, highest degree first."""
    g = [1]
    for j in range(nsym):
        g = [a ^ _mul(b, _EXP[j]) for a, b in zip(g + [0], [0] + g)]
    return g


def rs_encode_bytes(data: bytes, nsym: int) -> bytes:
    """Systematic encoding: data followed by nsym parity bytes."""
    if len(data) + nsym > 255:
        raise ParameterError("codeword exceeds 255 symbols")
    gen = _generator_poly(nsym)
    buf = list(data) + [0] * nsym
    for i in range(len(data)):
        coef = buf[i]
        if coef:
            for j in range(1, len(gen)):
                buf[i + j] ^= _mul(gen[j], coef)
    return bytes(data) + bytes(buf[len(data):])


def _syndromes(word: list[int], nsym: int) -> list[int]:
    """word(alpha^j) for j = 0..nsym-1; word[0] is the highest coefficient."""
    synd = []
    for j in range(nsym):
        s = 0
        for c in word:
            s = (_EXP[_LOG[s] + j] if s else 0) ^ c
        synd.append(s)
    return synd


def _berlekamp_massey(synd: list[int]) -> tuple[list[int], int]:
    """Shortest LFSR generating synd: (locator lowest degree first, length)."""
    nsym = len(synd)
    loc = prev = [1] + [0] * nsym
    length, shift, prev_delta = 0, 0, 1
    for i in range(nsym):
        shift += 1
        delta = synd[i]
        for k in range(1, length + 1):
            delta ^= _mul(loc[k], synd[i - k])
        if delta:
            scale = _mul(delta, _inv(prev_delta))
            new = loc[:]
            for k in range(nsym + 1 - shift):
                new[k + shift] ^= _mul(scale, prev[k])
            if 2 * length <= i:
                prev, prev_delta, length, shift = loc, delta, i + 1 - length, 0
            loc = new
    return loc[: length + 1], length


def rs_decode_bytes(received: bytes, nsym: int) -> Optional[tuple[bytes, int]]:
    """Correct up to nsym/2 byte errors: (corrected codeword, #errors) or None.

    A word beyond capacity gives None or the codeword nearest to it, which
    was not the one sent (a miscorrection the caller must catch by verifying).
    """
    word = list(received)
    n = len(word)
    if n > 255 or nsym >= n:
        return None
    synd = _syndromes(word, nsym)
    if not any(synd):
        return bytes(received), 0
    loc, v = _berlekamp_massey(synd)
    if 2 * v > nsym:
        return None
    # Chien search: byte index n-1-p holds the coefficient of x^p, and an
    # error there is a root of the locator at alpha^(-p).
    degrees = [p for p in range(n) if not _eval(loc, -p)]
    if len(degrees) != v:
        return None
    # Forney with first consecutive root alpha^0: the error value at
    # X = alpha^p is X * omega(1/X) / loc'(1/X), omega = synd * loc mod x^v.
    omega = [0] * v
    for i in range(v):
        for k in range(i + 1):
            omega[i] ^= _mul(loc[k], synd[i - k])
    deriv = [loc[k] if k % 2 else 0 for k in range(1, v + 1)]
    for p in degrees:
        y = _mul(_mul(_EXP[p], _eval(omega, -p)), _inv(_eval(deriv, -p)))
        word[n - 1 - p] ^= y
    if any(_syndromes(word, nsym)):
        return None
    return bytes(word), v


@dataclass(frozen=True)
class EccProfile:
    """Shape of the codeword: the signature length and the parity symbol count.

    data_bits records the true signature length; the final data byte is
    zero-padded when data_bits is not byte-aligned. parity_symbols == 0 is
    the bypass profile (no code at all). Everything else is derived, and
    to_json_dict writes the derived values too, for readers of the ecc block.
    """

    data_bits: int
    parity_symbols: int

    def __post_init__(self) -> None:
        if self.parity_symbols % 2 or self.parity_symbols < 0:
            raise ParameterError("parity_symbols must be even and non-negative")

    @property
    def data_symbols(self) -> int:
        return (self.data_bits + 7) // 8

    @property
    def symbol_bits(self) -> int:
        return 8

    @property
    def t_correctable(self) -> int:
        return self.parity_symbols // 2

    @property
    def is_bypass(self) -> bool:
        return self.parity_symbols == 0

    @property
    def codeword_bits(self) -> int:
        if self.is_bypass:
            return self.data_bits
        return (self.data_symbols + self.parity_symbols) * self.symbol_bits

    @classmethod
    def for_layout(cls, layout: Layout) -> "EccProfile":
        """Derive the code from (lambda_sig, lambda_c): none when equal, else <= 255 symbols."""
        parity = 0
        if layout.lambda_c != layout.lambda_sig:
            if layout.lambda_c % 8:
                raise ParameterError("lambda_c must be byte-aligned when it exceeds lambda_sig")
            parity = layout.lambda_c // 8 - (layout.lambda_sig + 7) // 8
            if parity < 2 or parity % 2:
                raise ParameterError(
                    "lambda_c leaves %d parity symbols; need a positive even count" % parity
                )
            if layout.lambda_c > 8 * 255:
                raise ParameterError("lambda_c exceeds the 255 symbols of a byte code")
        return cls(data_bits=layout.lambda_sig, parity_symbols=parity)

    @classmethod
    def for_params(cls, params: WatermarkParams) -> "EccProfile":
        """for_layout, checking that the code fits the planted-error budget gamma_max."""
        profile = cls.for_layout(params)
        if params.gamma_max == 0 and not profile.is_bypass:
            raise ParameterError("gamma_max=0 requires lambda_c == lambda_sig")
        if params.gamma_max > profile.t_correctable:
            raise ParameterError(
                "gamma_max %d exceeds correction capacity t=%d"
                % (params.gamma_max, profile.t_correctable)
            )
        return profile

    def check_stated(self, stated: dict) -> None:
        """Reject a document whose ecc block does not equal this code's to_json_dict()."""
        if stated != self.to_json_dict():
            raise ParameterError(
                "ecc block disagrees with the code derived from lambda_sig/lambda_c"
            )

    def to_json_dict(self) -> dict:
        return {
            "data_symbols": self.data_symbols,
            "parity_symbols": self.parity_symbols,
            "symbol_bits": self.symbol_bits,
            "t_correctable": self.t_correctable,
            "data_bits": self.data_bits,
        }


def encode(sigma: BitString, profile: EccProfile) -> BitString:
    """Systematic codeword: sigma's bits, then pad and parity."""
    if sigma.length != profile.data_bits:
        raise ParameterError(
            "signature is %d bits, profile expects %d" % (sigma.length, profile.data_bits)
        )
    if profile.is_bypass:
        return sigma
    codeword = rs_encode_bytes(sigma.to_bytes(), profile.parity_symbols)
    return BitString.from_bytes(codeword)


def decode(c: BitString, profile: EccProfile) -> Optional[BitString]:
    """Recover sigma from a codeword with at most t_correctable bad symbols.

    Returns None on decode failure. May return a wrong signature when the
    error weight exceeds capacity; the caller must verify.
    """
    if c.length != profile.codeword_bits:
        raise ParameterError(
            "codeword is %d bits, profile expects %d" % (c.length, profile.codeword_bits)
        )
    if profile.is_bypass:
        return c
    result = rs_decode_bytes(c.to_bytes(), profile.parity_symbols)
    if result is None:
        return None
    corrected, _ = result
    return BitString.from_bytes(corrected[: profile.data_symbols], profile.data_bits)


def symbol_distance(a: BitString, b: BitString) -> int:
    """Byte-symbol positions where two equal-length codewords differ."""
    if a.length != b.length:
        raise ParameterError("codeword length mismatch")
    return sum(x != y for x, y in zip(a.to_bytes(), b.to_bytes()))
