import json

import pytest
from hypothesis import given, strategies as st

from pdws.core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    Layout,
    ParameterError,
    WatermarkParams,
    chunk,
)

bitstrings = st.integers(min_value=0, max_value=512).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0).map(
        lambda v: BitString(v, n)
    )
)


class TestBitString:
    def test_msb_first_indexing(self):
        b = BitString(0b101, 3)
        assert (b[0], b[1], b[2]) == (1, 0, 1)
        assert b[-1] == 1

    def test_to_bytes_pads_tail_with_zeros(self):
        assert BitString(0b1, 1).to_bytes() == b"\x80"
        assert BitString(0b101, 3).to_bytes() == b"\xa0"
        assert BitString(0xAB, 8).to_bytes() == b"\xab"

    def test_from_bytes_truncates_to_length(self):
        b = BitString.from_bytes(b"\xff\x00", 4)
        assert b == BitString(0b1111, 4)
        assert BitString.from_bytes(b"\xa5") == BitString(0xA5, 8)
        with pytest.raises(ParameterError):
            BitString.from_bytes(b"\xff", 9)

    def test_value_must_fit(self):
        with pytest.raises(ParameterError):
            BitString(4, 2)
        with pytest.raises(ParameterError):
            BitString(-1, 4)

    def test_slicing(self):
        b = BitString(0b110010, 6)
        assert b[1:4] == BitString(0b100, 3)
        assert b[:0] == BitString.empty()
        assert b[2:] == BitString(0b0010, 4)
        with pytest.raises(ParameterError):
            b[::2]

    def test_concat_and_add(self):
        a = BitString(0b11, 2)
        b = BitString(0b001, 3)
        assert a.concat(b) == BitString(0b11001, 5)
        assert a.concat(BitString.empty()) == a

    def test_xor_requires_equal_length(self):
        with pytest.raises(ParameterError):
            BitString(1, 1) ^ BitString(1, 2)

    @given(bitstrings)
    def test_bytes_roundtrip(self, b):
        assert BitString.from_bytes(b.to_bytes(), b.length) == b

    @given(bitstrings)
    def test_xor_involution(self, b):
        assert b ^ b == BitString(0, b.length)

    @given(bitstrings, st.sampled_from([1, 2, 4, 8]))
    def test_chunk_concat_inverse(self, b, beta):
        if b.length % beta:
            with pytest.raises(ParameterError):
                chunk(b, beta)
        else:
            parts = chunk(b, beta)
            assert all(p.length == beta for p in parts)
            joined = BitString.empty()
            for p in parts:
                joined = joined.concat(p)
            assert joined == b

    @given(bitstrings, bitstrings)
    def test_hamming_symmetry(self, a, b):
        if a.length != b.length:
            return
        assert (a ^ b).value.bit_count() == (b ^ a).value.bit_count()
        assert a ^ b == b ^ a


class TestLayout:
    def test_default_geometry(self):
        layout = Layout()
        assert (layout.ell, layout.beta) == (16, 2)
        assert (layout.lambda_sig, layout.lambda_c) == (328, 360)
        assert layout.n_blocks == 180
        assert layout.gadget_chars == 2896

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 3},
            {"beta": 16},
            {"lambda_c": 361},  # beta=2 does not divide
            {"lambda_c": 320},  # shorter than lambda_sig
            {"ell": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            Layout(**kwargs)


class TestWatermarkParams:
    def test_default_layout(self):
        p = WatermarkParams()
        assert (p.ell, p.beta, p.gamma_max, p.a_max) == (16, 2, 2, 16)
        assert (p.n, p.lambda_sig, p.lambda_c) == (2896, 328, 360)
        assert p.n_blocks == 180
        assert p.gadget_chars == 2896
        assert p.layout == Layout()

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Layout's cases too: the subclass must still run Layout's checks.
            {"beta": 3},
            {"beta": 16},
            {"lambda_c": 361},  # beta=2 does not divide
            {"lambda_c": 320},  # shorter than lambda_sig
            {"ell": 0},
            {"n": 0},
            {"a_max": 0},
            {"gamma_max": -1},
            {"alpha": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            WatermarkParams(**kwargs)

    def test_json_roundtrip(self):
        p = WatermarkParams(ell=32, n=5792, alpha=192.0)
        assert WatermarkParams.from_json(p.to_json()) == p

    def test_json_rejects_unknown_and_missing_fields(self):
        d = WatermarkParams().to_json_dict()
        d["gamma"] = 1
        with pytest.raises(ParameterError):
            WatermarkParams.from_json_dict(d)
        d2 = WatermarkParams().to_json_dict()
        del d2["ell"]
        with pytest.raises(ParameterError):
            WatermarkParams.from_json_dict(d2)

    def test_json_checks_embedded_ecc_consistency(self):
        d = WatermarkParams().to_json_dict()
        d["ecc"] = {
            "data_symbols": 41,
            "parity_symbols": 4,
            "symbol_bits": 8,
            "t_correctable": 2,
            "data_bits": 328,
        }
        assert WatermarkParams.from_json_dict(d) == WatermarkParams()
        d["ecc"]["parity_symbols"] = 8
        d["ecc"]["t_correctable"] = 4
        with pytest.raises(ParameterError):
            WatermarkParams.from_json_dict(d)


class TestTranscript:
    def test_block_record_roundtrip(self):
        r = BlockRecord(attempts=3, planted_error=False, best_hamming=0, text="abcd")
        assert BlockRecord.from_json_dict(r.to_json_dict()) == r

    def test_transcript_roundtrip(self):
        p = WatermarkParams()
        blocks = (
            BlockRecord(1, False, 0, "m" * 16),
            BlockRecord(17, True, 1, "x" * 16),
        )
        t = EmbedTranscript(p, 7, blocks, 1)
        again = EmbedTranscript.from_json(t.to_json())
        assert again == t
        assert json.loads(t.to_json())["blocks"][1]["planted_error"] is True

    def test_transcript_validates_gamma_and_attempts(self):
        p = WatermarkParams()
        good = (BlockRecord(1, False, 0, "m" * 16),)
        with pytest.raises(ParameterError):
            EmbedTranscript(p, 0, good, 1)
        too_many = (BlockRecord(p.a_max + 2, False, 0, "m" * 16),)
        with pytest.raises(ParameterError):
            EmbedTranscript(p, 0, too_many, 0)
