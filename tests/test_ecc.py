import random

import pytest
from hypothesis import given, settings, strategies as st

from pdws.core import BitString, ParameterError, WatermarkParams
from pdws.ecc import (
    EccProfile,
    decode,
    encode,
    rs_decode_bytes,
    rs_encode_bytes,
    symbol_distance,
)
from pdws.ecc import _generator_poly, _inv, _mul


# -- independent field arithmetic oracle ------------------------------------
# Slow bitwise carry-less multiply reduced mod x^8+x^4+x^3+x^2+1, written
# without reference to the table-driven implementation under test.

def slow_gf_mul(a: int, b: int) -> int:
    prod = 0
    for i in range(8):
        if (b >> i) & 1:
            prod ^= a << i
    for deg in range(15, 7, -1):
        if (prod >> deg) & 1:
            prod ^= 0x11D << (deg - 8)
    return prod


def slow_poly_remainder(message: list, gen: list) -> list:
    """Schoolbook long division of message * x^(len(gen)-1) by gen."""
    work = message + [0] * (len(gen) - 1)
    for i in range(len(message)):
        lead = work[i]
        if lead:
            for j, g in enumerate(gen):
                work[i + j] ^= slow_gf_mul(lead, g)
    return work[len(message):]


def test_table_mul_matches_slow_oracle():
    rng = random.Random(1)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert _mul(a, b) == slow_gf_mul(a, b)


def test_inverse_against_slow_oracle():
    for a in range(1, 256):
        assert slow_gf_mul(a, _inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        _inv(0)


def test_parity_matches_schoolbook_division():
    rng = random.Random(2)
    gen = list(_generator_poly(4))
    for _ in range(50):
        data = bytes(rng.randrange(256) for _ in range(41))
        cw = rs_encode_bytes(data, 4)
        assert cw[:41] == data
        assert list(cw[41:]) == slow_poly_remainder(list(data), gen)


# -- encode / decode ---------------------------------------------------------

PROFILE = EccProfile(
    data_symbols=41, parity_symbols=4, symbol_bits=8, t_correctable=2, data_bits=328
)


def corrupt(word: bytes, positions, rng) -> bytes:
    out = bytearray(word)
    for p in positions:
        out[p] ^= rng.randrange(1, 256)
    return bytes(out)


@pytest.mark.parametrize("n_errors", [0, 1, 2])
def test_decode_within_capacity(n_errors):
    rng = random.Random(10 + n_errors)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(41))
        cw = rs_encode_bytes(data, 4)
        positions = rng.sample(range(len(cw)), n_errors)
        got = rs_decode_bytes(corrupt(cw, positions, rng), 4)
        assert got is not None
        corrected, count = got
        assert corrected == cw
        assert count == n_errors


def test_beyond_capacity_never_returns_original_quietly():
    rng = random.Random(20)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(41))
        cw = rs_encode_bytes(data, 4)
        positions = rng.sample(range(len(cw)), 3)
        result = rs_decode_bytes(corrupt(cw, positions, rng), 4)
        if result is not None:
            corrected, count = result
            assert corrected != cw  # any answer is a miscorrection
            assert count <= 2


def test_rs_encode_rejects_oversized_blocks():
    with pytest.raises(ParameterError):
        rs_encode_bytes(bytes(252), 4)


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=41, max_size=41), st.integers(0, 2), st.randoms())
def test_roundtrip_property(data, n_errors, pyrandom):
    cw = rs_encode_bytes(data, 4)
    positions = pyrandom.sample(range(len(cw)), n_errors)
    got = rs_decode_bytes(corrupt(cw, positions, pyrandom), 4)
    assert got is not None and got[0] == cw


class TestProfile:
    def test_for_params_default(self):
        p = EccProfile.for_params(WatermarkParams())
        assert p == PROFILE
        assert p.codeword_bits == 360
        assert not p.is_bypass

    def test_for_params_bypass(self):
        params = WatermarkParams(gamma_max=0, lambda_c=328, n=2640)
        p = EccProfile.for_params(params)
        assert p.is_bypass
        assert p.codeword_bits == 328

    def test_bypass_requires_matching_lengths(self):
        with pytest.raises(ParameterError):
            EccProfile.for_params(WatermarkParams(gamma_max=0))

    def test_budget_cannot_exceed_capacity(self):
        with pytest.raises(ParameterError):
            EccProfile.for_params(WatermarkParams(gamma_max=3))

    def test_json_roundtrip(self):
        assert EccProfile.from_json_dict(PROFILE.to_json_dict()) == PROFILE

    def test_validation(self):
        with pytest.raises(ParameterError):
            EccProfile(41, 3, 8, 1, 328)  # odd parity count
        with pytest.raises(ParameterError):
            EccProfile(41, 4, 8, 1, 328)  # t != parity/2
        with pytest.raises(ParameterError):
            EccProfile(1, 4, 8, 2, 328)  # data does not fit


class TestBitLevel:
    def test_encode_shape_and_systematic_prefix(self):
        sig = BitString.from_bytes(bytes(range(41)), 328)
        cw = encode(sig, PROFILE)
        assert cw.length == 360
        assert cw[:328] == sig

    def test_encode_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            encode(BitString(0, 327), PROFILE)

    def test_decode_inverts_encode(self):
        rng = random.Random(30)
        sig = BitString.from_bytes(bytes(rng.randrange(256) for _ in range(41)), 328)
        assert decode(encode(sig, PROFILE), PROFILE) == sig

    def test_decode_with_symbol_errors(self):
        rng = random.Random(31)
        sig = BitString.from_bytes(bytes(rng.randrange(256) for _ in range(41)), 328)
        cw = encode(sig, PROFILE).to_bytes()
        bad = corrupt(cw, rng.sample(range(45), 2), rng)
        assert decode(BitString.from_bytes(bad, 360), PROFILE) == sig

    def test_bypass_identity(self):
        profile = EccProfile(41, 0, 8, 0, 328)
        sig = BitString.from_bytes(bytes(range(41)), 328)
        assert encode(sig, profile) == sig
        assert decode(sig, profile) == sig

    def test_symbol_distance(self):
        a = BitString.from_bytes(b"\x00\x00\x00", 24)
        b = BitString.from_bytes(b"\x00\xff\x01", 24)
        assert symbol_distance(a, a) == 0
        assert symbol_distance(a, b) == 2
