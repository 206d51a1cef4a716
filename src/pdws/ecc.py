"""Error correction for the signature codeword.

A systematic byte-symbol code over GF(256): the codeword is the signature's
data bytes followed by 2*t parity symbols, correcting up to t corrupted
bytes. Because the chunk width beta divides 8, one bad chunk touches exactly
one symbol, so a planted-error budget of gamma_max <= t is always
recoverable.

Decoding failure is a normal return value (None), never an exception: the
caller treats any decode output as a candidate and relies on signature
verification for the final word, so a miscorrection is harmless.

A layout with lambda_c == lambda_sig bypasses the code entirely (the
embedder's gamma_max must then be 0); encode is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import BitString, Layout, ParameterError, WatermarkParams

_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

# log/antilog tables for the field generated by alpha = 2
_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIM_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of zero")
    return _EXP[255 - _LOG[a]]


def _poly_scale(p: list[int], s: int) -> list[int]:
    return [_mul(c, s) for c in p]


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    # coefficients ordered highest degree first; align on the right
    out = [0] * max(len(p), len(q))
    out[len(out) - len(p):] = p
    for i, c in enumerate(q):
        out[i + len(out) - len(q)] ^= c
    return out


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= _mul(a, b)
    return out


def _poly_eval(p: list[int], x: int) -> int:
    y = p[0]
    for c in p[1:]:
        y = _mul(y, x) ^ c
    return y


_GEN_CACHE: dict[int, list[int]] = {}


def _generator_poly(nsym: int) -> list[int]:
    """Product of (x - alpha^j) for j = 0..nsym-1."""
    if nsym not in _GEN_CACHE:
        g = [1]
        for j in range(nsym):
            g = _poly_mul(g, [1, _EXP[j]])
        _GEN_CACHE[nsym] = g
    return _GEN_CACHE[nsym]


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


def _syndromes(codeword: list[int], nsym: int) -> list[int]:
    return [_poly_eval(codeword, _EXP[j]) for j in range(nsym)]


def _error_locator(synd: list[int], nsym: int) -> Optional[list[int]]:
    """Berlekamp-Massey; returns the locator polynomial (highest degree first)."""
    err_loc = [1]
    old_loc = [1]
    for i in range(nsym):
        old_loc.append(0)
        delta = synd[i]
        for j in range(1, len(err_loc)):
            delta ^= _mul(err_loc[-(j + 1)], synd[i - j])
        if delta:
            if len(old_loc) > len(err_loc):
                new_loc = _poly_scale(old_loc, delta)
                old_loc = _poly_scale(err_loc, _inv(delta))
                err_loc = new_loc
            err_loc = _poly_add(err_loc, _poly_scale(old_loc, delta))
    while err_loc and err_loc[0] == 0:
        err_loc.pop(0)
    if not err_loc or 2 * (len(err_loc) - 1) > nsym:
        return None
    return err_loc


def rs_decode_bytes(received: bytes, nsym: int) -> Optional[tuple[bytes, int]]:
    """Correct up to nsym/2 byte errors; (corrected codeword, #errors) or None.

    A received word too far from every codeword either fails one of the
    internal consistency checks (None) or lands on a different codeword
    (an undetectable miscorrection the caller must catch by verification).
    """
    word = list(received)
    n = len(word)
    if n > 255 or nsym >= n:
        return None
    synd = _syndromes(word, nsym)
    if not any(synd):
        return bytes(received), 0
    loc = _error_locator(synd, nsym)
    if loc is None or len(loc) == 1:
        return None
    v = len(loc) - 1
    # Chien search: a root at z = alpha^(-p) marks an error at degree p,
    # i.e. byte index n-1-p.
    positions = []
    for p in range(n):
        if _poly_eval(loc, _EXP[(255 - p % 255) % 255]) == 0:
            positions.append(n - 1 - p)
    if len(positions) != v:
        return None
    # Magnitudes from the first v syndrome equations:
    #   S_j = sum_k Y_k * X_k^j  with  X_k = alpha^(n-1-i_k)
    xs = [_EXP[(n - 1 - i) % 255] for i in positions]
    mat = [[1] * v for _ in range(v)]
    for j in range(1, v):
        for k in range(v):
            mat[j][k] = _mul(mat[j - 1][k], xs[k])
    rhs = synd[:v]
    mags = _solve_gf(mat, rhs)
    if mags is None:
        return None
    for i, y in zip(positions, mags):
        word[i] ^= y
    if any(_syndromes(word, nsym)):
        return None
    return bytes(word), v


def _solve_gf(mat: list[list[int]], rhs: list[int]) -> Optional[list[int]]:
    """Gaussian elimination over GF(256) for a small square system."""
    v = len(rhs)
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    for col in range(v):
        pivot = next((r for r in range(col, v) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = _inv(aug[col][col])
        aug[col] = [_mul(c, inv_p) for c in aug[col]]
        for r in range(v):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a ^ _mul(f, b) for a, b in zip(aug[r], aug[col])]
    return [aug[r][v] for r in range(v)]


@dataclass(frozen=True)
class EccProfile:
    """Shape of the codeword: data/parity symbol counts and capacity.

    data_bits records the true signature length; the final data byte is
    zero-padded when data_bits is not byte-aligned. parity_symbols == 0 is
    the bypass profile (no code at all).
    """

    data_symbols: int
    parity_symbols: int
    symbol_bits: int
    t_correctable: int
    data_bits: int

    def __post_init__(self) -> None:
        if self.symbol_bits != 8:
            raise ParameterError("only 8-bit symbols are supported")
        if self.parity_symbols % 2 or self.parity_symbols < 0:
            raise ParameterError("parity_symbols must be even and non-negative")
        if self.t_correctable != self.parity_symbols // 2:
            raise ParameterError("t_correctable must equal parity_symbols / 2")
        if self.data_symbols * self.symbol_bits < self.data_bits:
            raise ParameterError("data symbols cannot hold data_bits")

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
        """Derive the code from (lambda_sig, lambda_c): none when they are equal."""
        data_symbols = (layout.lambda_sig + 7) // 8
        parity = 0
        if layout.lambda_c != layout.lambda_sig:
            if layout.lambda_c % 8:
                raise ParameterError("lambda_c must be byte-aligned when it exceeds lambda_sig")
            parity = layout.lambda_c // 8 - data_symbols
            if parity < 2 or parity % 2:
                raise ParameterError(
                    "lambda_c leaves %d parity symbols; need a positive even count" % parity
                )
        return cls(
            data_symbols=data_symbols,
            parity_symbols=parity,
            symbol_bits=8,
            t_correctable=parity // 2,
            data_bits=layout.lambda_sig,
        )

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
        """Reject a document whose redundant ecc block disagrees with this code."""
        if EccProfile.from_json_dict(stated) != self:
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "EccProfile":
        try:
            return cls(
                data_symbols=d["data_symbols"],
                parity_symbols=d["parity_symbols"],
                symbol_bits=d["symbol_bits"],
                t_correctable=d["t_correctable"],
                data_bits=d["data_bits"],
            )
        except (KeyError, TypeError) as exc:
            raise ParameterError("malformed ecc profile: %s" % exc) from exc


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
