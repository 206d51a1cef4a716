import random

import pytest
from hypothesis import given, settings, strategies as st

from pdws.core import BitString, Layout, ParameterError, WatermarkParams
from pdws.ecc import (
    EccProfile,
    decode,
    encode,
    rs_decode_bytes,
    rs_encode_bytes,
    symbol_distance,
)
from pdws.ecc import _chien, _eval, _generator_poly, _inv, _mul, _syndromes

from conftest import layouts


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

# The default layout's code: 41 data and 4 parity symbols, t = 2.
LAYOUT = Layout()


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


# -- bounded-distance decoding ------------------------------------------------
# A bounded-distance decoder has exactly one correct answer for every word:
# the unique codeword within t = nsym // 2 symbols, with its distance, or
# None. On a code with one data byte the 256 codewords can be listed, so a
# brute-force nearest-codeword search is the oracle.


def hamming(a: bytes, b: bytes) -> int:
    return sum(x != y for x, y in zip(a, b))


def brute_force_decode(word: bytes, codewords: list):
    t = (len(word) - 1) // 2  # one data byte: nsym = len(word) - 1
    best = min(codewords, key=lambda cw: hamming(cw, word))
    d = hamming(best, word)
    return (best, d) if d <= t else None


@pytest.mark.parametrize("nsym", [2, 4, 6])
def test_short_codes_decode_to_the_unique_nearby_codeword(nsym):
    codewords = [rs_encode_bytes(bytes([b]), nsym) for b in range(256)]
    n = nsym + 1
    rng = random.Random(40 + nsym)
    words = [bytes(rng.randrange(256) for _ in range(n)) for _ in range(300)]
    for _ in range(600):
        cw = rng.choice(codewords)
        k = rng.randrange(0, nsym // 2 + 3)
        words.append(corrupt(cw, rng.sample(range(n), min(k, n)), rng))
    outcomes = set()
    for word in words:
        expected = brute_force_decode(word, codewords)
        assert rs_decode_bytes(word, nsym) == expected, word.hex()
        outcomes.add(None if expected is None else expected[1])
    # every outcome, from no error to beyond capacity, was exercised
    assert outcomes == {None, *range(nsym // 2 + 1)}


def test_real_code_decodes_within_capacity_and_never_beyond():
    rng = random.Random(50)
    for _ in range(300):
        cw = rs_encode_bytes(bytes(rng.randrange(256) for _ in range(41)), 4)
        k = rng.randrange(0, 5)
        word = corrupt(cw, rng.sample(range(45), k), rng)
        got = rs_decode_bytes(word, 4)
        if k <= 2:
            assert got == (cw, k)
        elif got is not None:
            corrected, count = got
            assert rs_encode_bytes(corrected[:41], 4) == corrected
            assert count == hamming(corrected, word) <= 2


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_syndromes_match_horner(data):
    nsym = data.draw(st.integers(2, 16))
    word = data.draw(st.lists(st.integers(0, 255), min_size=nsym + 1, max_size=255))
    expected, alpha_j = [], 1
    for _ in range(nsym):
        s = 0
        for c in word:
            s = _mul(s, alpha_j) ^ c
        expected.append(s)
        alpha_j = slow_gf_mul(alpha_j, 2)
    assert _syndromes(word, nsym) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chien_search_matches_eval_at_every_position(data):
    nsym = data.draw(st.integers(2, 16))
    n = data.draw(st.integers(nsym + 1, 255))
    # A Berlekamp-Massey locator: constant term 1, degree at most nsym / 2.
    tail = data.draw(st.lists(st.integers(0, 255), max_size=nsym // 2))
    loc = [1] + tail
    assert list(_chien(loc, n)) == [_eval(loc, -p) for p in range(n)]


def test_chien_search_reaches_the_longest_locator():
    rng = random.Random(4)
    for n in (128, 254, 255):
        loc = [1] + [rng.randrange(1, 256) for _ in range(127)]
        assert list(_chien(loc, n)) == [_eval(loc, -p) for p in range(n)]


class TestProfile:
    """The code is the Layout's: parity_symbols, ecc_block and its checks."""

    def test_for_params_default(self):
        p = WatermarkParams()
        assert EccProfile.for_params(p) is p
        assert p.parity_symbols == 4
        assert p.ecc_block() == {
            "data_symbols": 41,
            "parity_symbols": 4,
            "symbol_bits": 8,
            "t_correctable": 2,
            "data_bits": 328,
        }

    def test_for_params_bypass(self):
        params = WatermarkParams(gamma_max=0, lambda_c=328, n=2640)
        assert EccProfile.for_params(params) is params
        assert params.parity_symbols == 0
        assert params.ecc_block()["t_correctable"] == 0

    def test_bypass_requires_matching_lengths(self):
        with pytest.raises(ParameterError, match="gamma_max=0"):
            WatermarkParams(gamma_max=0)

    def test_codeword_fits_255_symbols(self):
        # 41 data and 214 parity symbols fill a byte code; two more do not fit.
        assert Layout(1, 8, 328, 2040).parity_symbols == 214
        with pytest.raises(ParameterError, match="255"):
            Layout(1, 8, 328, 2056)
        # the bypass layout has no code, so no symbol limit
        assert Layout(1, 8, 4096, 4096).parity_symbols == 0

    def test_budget_cannot_exceed_capacity(self):
        with pytest.raises(ParameterError, match="capacity"):
            WatermarkParams(gamma_max=3)

    @given(layout=layouts(), data=st.data())
    def test_check_ecc_block_accepts_only_the_derived_block(self, layout, data):
        block = layout.ecc_block()
        layout.check_ecc_block(block)
        key = data.draw(st.sampled_from(sorted(block)))
        json_values = st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
            st.lists(st.integers(), max_size=2),
        )
        changed = dict(block, **{key: data.draw(json_values.filter(lambda v: v != block[key]))})
        # equal under ==, but not the int keygen writes
        inexact = dict(block, **{key: data.draw(st.sampled_from(
            [float(block[key])] + [bool(block[key])] * (block[key] in (0, 1))
        ))})
        dropped = {k: v for k, v in block.items() if k != key}
        added_key = data.draw(st.text(max_size=12).filter(lambda k: k not in block))
        added = dict(block, **{added_key: data.draw(json_values)})
        not_an_object = data.draw(
            st.one_of(json_values, st.just(list(block.items())), st.just(sorted(block)))
        )
        for stated in (changed, inexact, dropped, added, not_an_object):
            with pytest.raises(ParameterError):
                layout.check_ecc_block(stated)

    def test_validation(self):
        # A layout with a code needs whole, even, positive parity bytes.
        for lambda_c, match in ((340, "byte-aligned"), (336, "parity"), (352, "parity")):
            with pytest.raises(ParameterError, match=match):
                Layout(lambda_c=lambda_c)


class TestBitLevel:
    def test_encode_shape_and_systematic_prefix(self):
        sig = BitString.from_bytes(bytes(range(41)), 328)
        cw = encode(sig, LAYOUT)
        assert cw.length == 360
        assert cw.value >> 32 == sig.value

    def test_encode_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            encode(BitString(0, 327), LAYOUT)

    def test_decode_inverts_encode(self):
        rng = random.Random(30)
        sig = BitString.from_bytes(bytes(rng.randrange(256) for _ in range(41)), 328)
        assert decode(encode(sig, LAYOUT), LAYOUT) == sig

    def test_decode_with_symbol_errors(self):
        rng = random.Random(31)
        sig = BitString.from_bytes(bytes(rng.randrange(256) for _ in range(41)), 328)
        cw = encode(sig, LAYOUT).to_bytes()
        bad = corrupt(cw, rng.sample(range(45), 2), rng)
        assert decode(BitString.from_bytes(bad, 360), LAYOUT) == sig

    def test_bypass_identity(self):
        bypass = Layout(lambda_c=328)
        sig = BitString.from_bytes(bytes(range(41)), 328)
        assert encode(sig, bypass) == sig
        assert decode(sig, bypass) == sig

    def test_symbol_distance(self):
        a = BitString.from_bytes(b"\x00\x00\x00", 24)
        b = BitString.from_bytes(b"\x00\xff\x01", 24)
        assert symbol_distance(a, a) == 0
        assert symbol_distance(a, b) == 2
