import dataclasses
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
)
from conftest import layouts

bitstrings = st.integers(min_value=0, max_value=512).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0).map(
        lambda v: BitString(v, n)
    )
)


class TestBitString:
    def test_msb_first_indexing(self):
        # Bit 0 is the most significant; a BitString has no indexing at all.
        b = BitString(0b101, 3)
        assert b.to_bytes() == b"\xa0"
        for key in (0, -1, 3, slice(1, 2), slice(None)):
            with pytest.raises(TypeError):
                b[key]

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

    def test_xor_requires_equal_length(self):
        with pytest.raises(ParameterError):
            BitString(1, 1) ^ BitString(1, 2)

    @given(bitstrings)
    def test_bytes_roundtrip(self, b):
        assert BitString.from_bytes(b.to_bytes(), b.length) == b

    @given(bitstrings)
    def test_xor_involution(self, b):
        assert b ^ b == BitString(0, b.length)

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
            {"alpha": True},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ParameterError):
            WatermarkParams(**kwargs)

    @given(data=st.data(), layout=layouts())
    def test_json_roundtrip(self, data, layout):
        t = layout.parity_symbols // 2
        p = WatermarkParams(
            *dataclasses.astuple(layout),
            gamma_max=data.draw(st.integers(min(t, 1), t)),
            a_max=data.draw(st.integers(1, 64)),
            n=data.draw(st.integers(1, 10**6)),
            alpha=data.draw(st.floats(1e-3, 1e3)),
        )
        assert WatermarkParams.from_json_dict(p.to_json_dict()) == p
        assert WatermarkParams.from_json(json.dumps(p.to_json_dict())) == p
        # as a bundled profile writes it, with the redundant ecc block
        d = dict(p.to_json_dict(), ecc=p.ecc_block())
        assert WatermarkParams.from_json_dict(d) == p

    def test_json_rejects_unknown_and_missing_fields(self):
        d = WatermarkParams().to_json_dict()
        d["gamma"] = 1
        with pytest.raises(ParameterError):
            WatermarkParams.from_json_dict(d)
        d2 = WatermarkParams().to_json_dict()
        del d2["ell"]
        with pytest.raises(ParameterError):
            WatermarkParams.from_json_dict(d2)
        for version in (2, 1.0, True):
            with pytest.raises(ParameterError, match="format_version"):
                WatermarkParams.from_json_dict(
                    dict(WatermarkParams().to_json_dict(), format_version=version)
                )
        for text in ("{not json", "[" * 1500):
            with pytest.raises(ParameterError, match="not valid JSON"):
                WatermarkParams.from_json(text)

    def test_json_integer_past_the_digit_limit_is_a_parameter_error(self):
        # json.loads raises a plain ValueError here, not JSONDecodeError.
        text = json.dumps(dict(WatermarkParams().to_json_dict(), n=1)).replace(
            '"n": 1', '"n": ' + "9" * 5000
        )
        assert "9" * 5000 in text
        with pytest.raises(ParameterError, match="parameter profile is not valid JSON"):
            WatermarkParams.from_json(text)

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
        d["ecc"].update(parity_symbols=4, t_correctable=2.0)
        with pytest.raises(ParameterError, match="ecc"):
            WatermarkParams.from_json_dict(d)


class TestTranscript:
    def test_block_record_roundtrip(self):
        r = BlockRecord(attempts=3, best_hamming=0, text="abcd")
        d = {"attempts": 3, "best_hamming": 0, "text": "abcd"}
        assert dataclasses.asdict(r) == d
        assert BlockRecord(**json.loads(json.dumps(d))) == r
        # planted_error is derived: a block whose value misses its chunk
        assert not r.planted_error
        assert BlockRecord(17, 1, "x" * 4).planted_error

    def test_transcript_roundtrip(self):
        p = WatermarkParams()
        blocks = (
            BlockRecord(1, 0, "m" * 16),
            BlockRecord(17, 1, "x" * 16),
        )
        t = EmbedTranscript(p, 7, blocks)
        assert t.gamma_used == 1
        assert json.loads(json.dumps(t.to_json_dict())) == {
            "params": p.to_json_dict(),
            "seed": 7,
            "blocks": [
                {"attempts": 1, "planted_error": False, "best_hamming": 0, "text": "m" * 16},
                {"attempts": 17, "planted_error": True, "best_hamming": 1, "text": "x" * 16},
            ],
            "gamma_used": 1,
        }

    def test_transcript_validates_attempts(self):
        p = WatermarkParams()
        too_many = (BlockRecord(p.a_max + 2, 0, "m" * 16),)
        with pytest.raises(ParameterError):
            EmbedTranscript(p, 0, too_many)
