"""Error correction for the signature codeword.

A systematic byte-symbol code over GF(256): the codeword is the signature's
data bytes followed by 2*t parity symbols, correcting up to t corrupted
bytes. Because the chunk width beta divides 8, one bad chunk touches exactly
one symbol, so a planted-error budget of gamma_max <= t is always
recoverable.

The generator's roots are alpha^0 .. alpha^(2t-1). Decoding is one textbook
pipeline: syndromes, Berlekamp-Massey, a Chien search for the error
positions, Forney's formula for the error values, and a final syndrome check.
It returns the unique codeword within t symbols of the word, or None. A
scan decodes at every offset and nearly every decode fails after the
Chien search, so the syndromes and the search run from tables built on
first use: one multiply-by-alpha^j row per syndrome, and the powers of
alpha that the search slices.

Decoding failure is a normal return value (None), never an exception: the
caller treats any decode output as a candidate and relies on signature
verification for the final word, so a miscorrection is harmless.

The code follows from (lambda_sig, lambda_c) alone, so encode and decode
take the Layout itself: the data is lambda_sig bits, the codeword lambda_c
bits, and Layout.parity_symbols the parity count. Layout accepts only
shapes that have a code. A layout with lambda_c == lambda_sig bypasses the
code entirely (the embedder's gamma_max must then be 0); encode is the
identity.
"""

from __future__ import annotations

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


@cache
def _times_alpha(j: int) -> bytes:
    """x * alpha^j for every byte x: one syndrome's Horner step as a table row."""
    return bytes(_mul(x, _EXP[j]) for x in range(256))


@cache
def _powers() -> bytes:
    """alpha^(i mod 255) for i < 128 * 255, as long as _chien's slices reach."""
    return bytes(_EXP[:255]) * 128


def _syndromes(word: list[int], nsym: int) -> list[int]:
    """word(alpha^j) for j = 0..nsym-1; word[0] is the highest coefficient."""
    synd = []
    for j in range(nsym):
        row = _times_alpha(j)
        s = 0
        for c in word:
            s = row[s] ^ c
        synd.append(s)
    return synd


def _chien(loc: list[int], n: int) -> bytes:
    """loc(alpha^(-p)) for p = 0..n-1; loc lowest degree first, loc[0] == 1.

    Term k is alpha^(log loc[k] - k*p): over p it is a slice of _powers()
    that starts at log loc[k] plus a multiple of 255 and steps back by k,
    so each term's log is looked up once. The terms are XORed n bytes at a
    time, as integers. n <= 255 and deg loc < 128.
    """
    powers = _powers()
    values = int.from_bytes(b"\x01" * n, "big")
    for k in range(1, len(loc)):
        if loc[k]:
            start = _LOG[loc[k]] - (-k * n // 255) * 255
            values ^= int.from_bytes(powers[start : start - k * n : -k], "big")
    return values.to_bytes(n, "big")


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
    at = _chien(loc, n)
    if at.count(0) != v:
        return None
    degrees = [p for p, y in enumerate(at) if not y]
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


class EccProfile:
    """A name kept for callers of for_params: the code is the Layout's own."""

    @staticmethod
    def for_params(params: WatermarkParams) -> WatermarkParams:
        return params


def encode(sigma: BitString, layout: Layout) -> BitString:
    """Systematic codeword: sigma's bits, then pad and parity."""
    if sigma.length != layout.lambda_sig:
        raise ParameterError(
            "signature is %d bits, layout expects %d" % (sigma.length, layout.lambda_sig)
        )
    if not layout.parity_symbols:
        return sigma
    return BitString.from_bytes(rs_encode_bytes(sigma.to_bytes(), layout.parity_symbols))


def decode(c: BitString, layout: Layout) -> Optional[BitString]:
    """Recover sigma from a codeword with at most parity_symbols/2 bad symbols.

    Returns None on decode failure. May return a wrong signature when the
    error weight exceeds capacity; the caller must verify.
    """
    if c.length != layout.lambda_c:
        raise ParameterError(
            "codeword is %d bits, layout expects %d" % (c.length, layout.lambda_c)
        )
    if not layout.parity_symbols:
        return c
    result = rs_decode_bytes(c.to_bytes(), layout.parity_symbols)
    if result is None:
        return None
    corrected, _ = result
    return BitString.from_bytes(corrected, layout.lambda_sig)


def symbol_distance(a: BitString, b: BitString) -> int:
    """Byte-symbol positions where two equal-length codewords differ."""
    if a.length != b.length:
        raise ParameterError("codeword length mismatch")
    return sum(x != y for x, y in zip(a.to_bytes(), b.to_bytes()))
