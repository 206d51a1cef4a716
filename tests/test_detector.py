import json
import os
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from pdws import crypto, detector, ecc
from pdws.core import Layout, ParameterError, WatermarkParams
from pdws.crypto import OracleSuite, keygen, sign
from pdws.detector import DetectionResult, detect, detect_all
from pdws.embedder import tile_compress, watermark
from pdws.model import ModelHandle

import spec_detector
from conftest import make_blocked_script

JUNK = "the watermark never hides in plain filler text like this. "


def junk_text(n):
    return (JUNK * (n // len(JUNK) + 1))[:n]


@pytest.fixture(scope="module")
def marked(params328, schnorr_keys, model64, suite):
    text, tr = watermark(params328, schnorr_keys, model64, "p", seed=100, suite=suite)
    assert tr.gamma_used == 0
    return text


class TestDetect:
    def test_known_offset_and_scan_agree(self, marked, params328, schnorr_keys, suite):
        known = detect(schnorr_keys, params328, marked, suite=suite, known_offset=0)
        scanned = detect(schnorr_keys, params328, marked, suite=suite)
        assert known.detected and known == scanned
        assert known.offset == 0
        assert known.corrected_errors == 0
        assert known.message_block == marked[: params328.ell]

    def test_recovered_signature_is_the_real_one(
        self, marked, params328, schnorr_keys, suite
    ):
        result = detect(schnorr_keys, params328, marked, suite=suite, known_offset=0)
        msg = marked[: params328.ell].encode("utf-8")
        assert result.recovered_sig == sign(schnorr_keys, suite.h_sign(msg))

    @pytest.mark.parametrize("pad", [1, 16, 33])
    def test_prefix_and_suffix_survive(self, marked, params328, schnorr_keys, suite, pad):
        text = junk_text(pad) + marked + junk_text(2 * pad)
        result = detect(schnorr_keys, params328, text, suite=suite)
        assert result.detected and result.offset == pad

    def test_wrong_known_offset_misses(self, marked, params328, schnorr_keys, suite):
        text = junk_text(8) + marked
        hit = detect(schnorr_keys, params328, text, suite=suite, known_offset=8)
        assert hit.detected
        for wrong in (7, 9, -1, len(text)):
            miss = detect(schnorr_keys, params328, text, suite=suite, known_offset=wrong)
            assert not miss.detected

    @pytest.mark.parametrize("bad", [1.5, 8.0, "3", True])
    def test_known_offset_must_be_an_int(self, marked, params328, schnorr_keys, suite, bad):
        text = marked + junk_text(16)
        with pytest.raises(ParameterError, match="known_offset"):
            detect(schnorr_keys, params328, text, suite=suite, known_offset=bad)

    def test_short_text_not_detected(self, marked, params328, schnorr_keys, suite):
        for text in ("", "ab", marked[:-1]):
            assert not detect(schnorr_keys, params328, text, suite=suite).detected

    def test_truncation_inside_gadget_breaks(
        self, marked, params328, schnorr_keys, suite
    ):
        ell = params328.ell
        # splice one block out of the middle, pad back above gadget length
        spliced = marked[: 5 * ell] + marked[6 * ell :] + junk_text(ell + 48)
        assert not detect(schnorr_keys, params328, spliced, suite=suite).detected

    def test_corrupting_an_early_block_breaks(
        self, marked, params328, schnorr_keys, suite
    ):
        pos = params328.ell + 3  # inside the first signature block
        flip = "A" if marked[pos] != "A" else "B"
        text = marked[:pos] + flip + marked[pos + 1 :]
        assert not detect(
            schnorr_keys, params328, text, suite=suite, known_offset=0
        ).detected

    def test_corrupting_the_message_block_breaks(
        self, marked, params328, schnorr_keys, suite
    ):
        flip = "A" if marked[0] != "A" else "B"
        text = flip + marked[1:]
        assert not detect(
            schnorr_keys, params328, text, suite=suite, known_offset=0
        ).detected

    @pytest.mark.parametrize("block", range(173, 181))
    def test_an_edit_in_the_last_8_blocks_is_absorbed(
        self, marked, params328, schnorr_keys, suite, block
    ):
        # An edit in signature block j redraws chunks j..180, which lie in
        # code symbols 43 and 44 (four 2-bit chunks per byte) for j >= 173:
        # two bad symbols, within t = 2 when nothing was planted.
        ell = params328.ell
        clean = detect(schnorr_keys, params328, marked, suite=suite, known_offset=0)
        for pos in (block * ell, block * ell + ell // 2, (block + 1) * ell - 1):
            flip = "A" if marked[pos] != "A" else "B"
            text = marked[:pos] + flip + marked[pos + 1 :]
            result = detect(schnorr_keys, params328, text, suite=suite, known_offset=0)
            assert result.detected, pos
            assert result.corrected_errors <= 2
            assert result.recovered_sig == clean.recovered_sig

    def test_wrong_key_not_detected(self, marked, params328, suite):
        other = keygen(b"a different keypair")
        assert not detect(other, params328, marked, suite=suite, known_offset=0).detected

    def test_wrong_salts_not_detected(self, marked, params328, schnorr_keys):
        other = OracleSuite(b"x-sign", b"x-mask", b"x-bit")
        assert not detect(
            schnorr_keys, params328, marked, suite=other, known_offset=0
        ).detected

    def test_gamma0_roundtrip(self, params_gamma0, schnorr_keys, model64, suite):
        text, tr = watermark(
            params_gamma0, schnorr_keys, model64, "p", seed=101, suite=suite
        )
        assert tr.gamma_used == 0
        result = detect(schnorr_keys, params_gamma0, text, suite=suite, known_offset=0)
        assert result.detected and result.corrected_errors == 0

    def test_planted_errors_are_corrected(self, params328, schnorr_keys, suite):
        model = make_blocked_script(params328, {1, 2})
        seen = set()
        for seed in range(20):
            text, tr = watermark(
                params328, schnorr_keys, model, "p", seed=seed, suite=suite
            )
            result = detect(schnorr_keys, params328, text, suite=suite, known_offset=0)
            assert result.detected
            if tr.gamma_used:
                assert 1 <= result.corrected_errors <= tr.gamma_used
            seen.add(tr.gamma_used)
            if {1, 2} <= seen:
                break
        assert {1, 2} <= seen


class TestDetectAll:
    def test_tiled_pairs_all_found(self, params328, schnorr_keys, model64, suite):
        text = tile_compress(
            params328, schnorr_keys, model64, "p", k_pairs=2, seed=102, suite=suite
        )
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        stride = params328.gadget_chars - params328.ell
        assert [h.offset for h in hits] == [0, stride]

    def test_disjoint_gadgets_found(self, marked, params328, schnorr_keys, model64, suite):
        other, _ = watermark(params328, schnorr_keys, model64, "p", seed=103, suite=suite)
        gap = 35
        text = marked + junk_text(gap) + other
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        assert [h.offset for h in hits] == [0, len(marked) + gap]

    def test_plain_text_yields_nothing(self, params328, schnorr_keys, suite):
        text = junk_text(params328.gadget_chars + 200)
        assert detect_all(schnorr_keys, params328, text, suite=suite) == []

    def test_single_gadget_single_hit(self, marked, params328, schnorr_keys, suite):
        hits = detect_all(schnorr_keys, params328, marked + junk_text(30), suite=suite)
        assert len(hits) == 1 and hits[0].offset == 0


class TestDetectionResultJson:
    def test_positive_result_roundtrips(self, marked, params328, schnorr_keys, suite):
        result = detect(schnorr_keys, params328, marked, suite=suite, known_offset=0)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["detected"] is True
        assert doc["offset"] == 0
        assert doc["recovered_sig"]["bits"] == params328.lambda_sig
        assert len(doc["recovered_sig"]["hex"]) == 2 * ((params328.lambda_sig + 7) // 8)
        assert doc["message_block"] == marked[: params328.ell]

    def test_negative_result_shape(self):
        doc = DetectionResult(detected=False).to_json_dict()
        assert doc["detected"] is False
        assert doc["offset"] is None
        assert doc["recovered_sig"] is None

    def test_equality_is_structural(self):
        assert DetectionResult(False) == DetectionResult(False)
        assert DetectionResult(True, 3) != DetectionResult(True, 4)


class TestScanOrder:
    def test_lowest_offset_wins(self, marked, params328, schnorr_keys, model64, suite):
        other, _ = watermark(params328, schnorr_keys, model64, "p", seed=104, suite=suite)
        text = marked + other
        result = detect(schnorr_keys, params328, text, suite=suite)
        assert result.offset == 0


# 42 characters: one-char message block plus 41 one-byte chunks.
TINY_PARAMS = WatermarkParams(
    ell=1, beta=8, gamma_max=0, lambda_sig=328, lambda_c=328, n=42
)
# Lone surrogates (category Cs) cannot be UTF-8 encoded; mix them in on purpose.
ANY_CHAR = st.one_of(
    st.characters(categories=["Cs"]), st.characters(exclude_categories=())
)


class TestLoneSurrogates:
    def test_gadget_after_surrogate_is_found(self, marked, params328, schnorr_keys, suite):
        pad = "a" * 20 + "\ud800" + "b" * 5
        text = pad + marked + "\udfff"
        assert detect(schnorr_keys, params328, text, suite=suite).offset == len(pad)
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        assert [h.offset for h in hits] == [len(pad)]

    @settings(deadline=None)
    @given(text=st.text(ANY_CHAR, min_size=42, max_size=120), offset=st.integers(-1, 90))
    def test_detection_is_total(self, schnorr_keys, suite, text, offset):
        assert not detect(schnorr_keys, TINY_PARAMS, text, suite=suite).detected
        assert not detect(
            schnorr_keys, TINY_PARAMS, text, suite=suite, known_offset=offset
        ).detected
        assert detect_all(schnorr_keys, TINY_PARAMS, text, suite=suite) == []


class TestEveryLayoutScans:
    """A Layout that constructs has a code, so scanning it never raises."""

    @settings(deadline=None, max_examples=300)
    @given(
        ell=st.integers(1, 8),
        beta=st.sampled_from((1, 2, 3, 4, 8)),
        lambda_sig=st.integers(1, 400),
        # Any length, or a whole number of bytes up to past 255 symbols.
        lambda_c=st.one_of(st.integers(1, 2100), st.integers(1, 263).map(lambda n: 8 * n)),
        pattern=st.text(ANY_CHAR, max_size=12),
        extra=st.integers(-1, 3),
        cut=st.integers(0, 2**20),
        offset=st.integers(-1, 4),
    )
    # 3 parity symbols, a codeword that is not whole bytes, and 257 symbols.
    @example(16, 2, 328, 352, "", 0, 0, 0)
    @example(16, 2, 328, 340, "", 0, 0, 0)
    @example(1, 8, 328, 2056, "", 0, 0, 0)
    def test_detect_and_detect_all_are_total(
        self, schnorr_keys, suite, ell, beta, lambda_sig, lambda_c, pattern, extra, cut, offset
    ):
        # Most raw shapes are refused here; those that construct must scan.
        try:
            layout = Layout(ell, beta, lambda_sig, lambda_c)
        except ParameterError:
            return
        # Repeat a short pattern, always with multi-byte characters, to about
        # one gadget, then put a lone surrogate somewhere in it.
        pattern += "\u00e9\u20ac\U0001f600"
        length = layout.gadget_chars + extra
        text = (pattern * (length // len(pattern) + 1))[:length]
        cut %= len(text) + 1
        text = text[:cut] + "\ud800" + text[cut:]
        assert not detect(schnorr_keys, layout, text, suite=suite).detected
        assert not detect(schnorr_keys, layout, text, suite=suite, known_offset=offset).detected
        assert detect_all(schnorr_keys, layout, text, suite=suite) == []

    def test_a_long_block_costs_nothing_before_an_offset_fits(self, schnorr_keys, suite):
        # ell is read from outside (a params or public-key file), so a scan
        # may not allocate per residue ahead of the offsets it tries.
        layout = Layout(10**6, 2, 328, 360)
        tracemalloc.start()
        try:
            for known_offset in (None, 0):
                assert not detect(
                    schnorr_keys, layout, "abc" * 100, suite=suite, known_offset=known_offset
                ).detected
            assert detect_all(schnorr_keys, layout, "abc" * 100, suite=suite) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# 2-, 3- and 4-byte UTF-8 characters, as model output and as padding.
MULTIBYTE = "äöüßéèçñøåæœαβγδλπσω中文字符检测水印签名😀🔏📜✅"


@pytest.fixture(scope="module")
def multibyte_marked(params328, schnorr_keys, suite):
    model = ModelHandle(kind="uniform-mock", alphabet=MULTIBYTE)
    text, _ = watermark(params328, schnorr_keys, model, "p", seed=105, suite=suite)
    return text


class TestEncodeOnce:
    """In the calling process a scan encodes each window once, when an offset first reads it;
    a probe only its gadget's."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        seen = []
        original = detector._windows

        def spy(text, ell, starts):
            seen.append(starts)
            return original(text, ell, starts)

        monkeypatch.setattr(detector, "_windows", spy)
        return seen

    def test_scan_encodes_each_window_once(self, encoded, schnorr_keys, suite):
        for layout in (TINY_PARAMS, WatermarkParams()):
            ell, gadget_len = layout.ell, layout.gadget_chars
            text = junk_text(gadget_len + 3 * ell + 5)
            assert detect_all(schnorr_keys, layout, text, suite=suite) == []
            assert sorted(i for s in encoded for i in s) == list(range(len(text) - ell + 1))
            encoded.clear()

    def test_hit_and_probe_encode_only_near_the_gadget(
        self, encoded, marked, params328, schnorr_keys, suite
    ):
        ell, gadget_len = params328.ell, params328.gadget_chars
        text = junk_text(30) + marked + junk_text(3 * gadget_len)
        assert detect(schnorr_keys, params328, text, suite=suite).offset == 30
        # Offsets 0..30 read every window up to offset 30's last, each once.
        assert sorted(i for s in encoded for i in s) == list(range(30 + gadget_len - ell + 1))
        encoded.clear()
        assert detect(schnorr_keys, params328, text, suite=suite, known_offset=30).detected
        assert encoded == [range(30, 30 + gadget_len, ell)]
        encoded.clear()
        assert detect(schnorr_keys, params328, marked + text, suite=suite).offset == 0
        assert encoded == [range(0, gadget_len, ell)]
        encoded.clear()
        assert not detect(schnorr_keys, params328, marked[:-1], suite=suite).detected
        assert encoded == []

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_lone_surrogate_hides_only_the_gadget_it_touches(
        self, multibyte_marked, params328, schnorr_keys, suite, data
    ):
        left = data.draw(st.text(MULTIBYTE, max_size=24), label="left")
        right = data.draw(st.text(MULTIBYTE, max_size=24), label="right")
        text = left + multibyte_marked + right
        gadget_len = params328.gadget_chars
        # A changed character in the last block is within the code's reach,
        # so only the unencodable window can hide the gadget there.
        last_block = range(len(left) + gadget_len - params328.ell, len(left) + gadget_len)
        pos = data.draw(st.integers(0, len(text)) | st.sampled_from(last_block), label="pos")
        replace = data.draw(st.booleans(), label="replace")
        text = text[:pos] + "\ud800" + text[pos + replace :]
        offset = len(left) + (not replace and pos <= len(left))

        found = detect(schnorr_keys, params328, text, suite=suite)
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        probe = detect(schnorr_keys, params328, text, suite=suite, known_offset=offset)
        if offset <= pos < offset + gadget_len:
            assert not found.detected and hits == [] and not probe.detected
        else:
            assert found.offset == offset and [h.offset for h in hits] == [offset]
            assert probe == found


class TestSeams:
    """Per offset tried: one _try_offset, one ecc.decode, one bit_value per signature block.

    These are the calls the perfbench tracer counts as detector.offsets,
    ecc.decode.calls and crypto.bit_value.calls. A full detect's child makes
    the bit_value calls of its share in its own process, where no counter
    sees them, so detect's are pinned with the shard off; TestReference
    pins what the child hashes.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for owner, name in (
            (detector, "_try_offset"),
            (ecc, "decode"),
            (crypto.HashOracle, "bit_value"),
        ):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_calls_per_offset(self, calls, monkeypatch, marked, params328, schnorr_keys, suite):
        n_blocks, gadget_len = params328.n_blocks, params328.gadget_chars

        # 100 offsets: enough for detect to fork its child where it can.
        clean = junk_text(gadget_len + 99)
        assert detector._SHARD_MIN <= 100
        assert not detect(schnorr_keys, params328, clean, suite=suite).detected
        assert calls["_try_offset"] == calls["decode"] == 100

        calls.clear()
        monkeypatch.setattr(detector, "_SHARD_MIN", sys.maxsize)
        assert not detect(schnorr_keys, params328, clean, suite=suite).detected
        assert calls == {"_try_offset": 100, "decode": 100, "bit_value": 100 * n_blocks}

        # Offsets 0..20 up to the hit; the skip past it leaves the text.
        calls.clear()
        text = junk_text(20) + marked + junk_text(40)
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        assert [h.offset for h in hits] == [20]
        assert calls == {"_try_offset": 21, "decode": 21, "bit_value": 21 * n_blocks}

        calls.clear()
        assert detect(schnorr_keys, params328, text, suite=suite, known_offset=20).detected
        assert calls == {"_try_offset": 1, "decode": 1, "bit_value": n_blocks}


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShard:
    """A full detect's forked child: the serial scan's result on every path, and no child left."""

    @pytest.fixture
    def forks(self, monkeypatch):
        forks, fork = [], os.fork

        def spy():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", spy)
        return forks

    @pytest.fixture
    def texts(self, marked):
        # 161 offsets; the first hits in the front share, the second in the child's.
        return junk_text(10) + marked + junk_text(150), junk_text(150) + marked + junk_text(10)

    def serial(self, params, keys, text, suite):
        return next(detector._scan(keys, params, text, suite, range(len(text))))

    def test_a_hit_in_either_share(self, forks, texts, params328, schnorr_keys, suite):
        for text, offset in zip(texts, (10, 150)):
            result = detect(schnorr_keys, params328, text, suite=suite)
            assert result.offset == offset
            assert result == self.serial(params328, schnorr_keys, text, suite)
            no_child_left()
        assert len(forks) == (2 if detector._may_shard() else 0)

    def test_fork_fails(self, monkeypatch, texts, params328, schnorr_keys, suite):
        def fail():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", fail)
        monkeypatch.setattr(detector, "_may_shard", lambda: True)
        for text in texts:
            result = detect(schnorr_keys, params328, text, suite=suite)
            assert result == self.serial(params328, schnorr_keys, text, suite)
        no_child_left()

    def test_child_exits_before_it_writes(
        self, monkeypatch, forks, texts, params328, schnorr_keys, suite
    ):
        monkeypatch.setattr(detector, "_may_shard", lambda: True)
        monkeypatch.setattr(detector, "_chains", lambda *args: os._exit(1))
        for text in texts:
            result = detect(schnorr_keys, params328, text, suite=suite)
            assert result == self.serial(params328, schnorr_keys, text, suite)
            no_child_left()
        assert len(forks) == 2

    def test_a_front_hit_kills_the_child(
        self, monkeypatch, forks, texts, params328, schnorr_keys, suite
    ):
        # The child hangs in its share, so only the kill can end it in time.
        monkeypatch.setattr(detector, "_may_shard", lambda: True)
        monkeypatch.setattr(detector, "_chains", lambda *args: time.sleep(60))
        start = time.perf_counter()
        assert detect(schnorr_keys, params328, texts[0], suite=suite).offset == 10
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        no_child_left()

    def test_a_raise_reaps_the_child(self, monkeypatch, forks, texts, params328, schnorr_keys, suite):
        def fail(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(detector, "_may_shard", lambda: True)
        monkeypatch.setattr(detector, "_try_offset", fail)
        with pytest.raises(KeyboardInterrupt):
            detect(schnorr_keys, params328, texts[0], suite=suite)
        assert len(forks) == 1
        no_child_left()

    def test_one_cpu_scans_serially(self, monkeypatch, forks, texts, params328, schnorr_keys, suite):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert detect(schnorr_keys, params328, texts[1], suite=suite).offset == 150
        assert forks == []


# A layout the reference scans quickly: 86 four-bit chunks, t = 1.
SMALL = WatermarkParams(
    ell=2, beta=4, lambda_sig=328, lambda_c=344, gamma_max=1, a_max=255, n=174
)
# Padding and edits: one-, two-, three- and four-byte characters and a lone surrogate.
PAD_CHAR = st.sampled_from("ab \u00e9\u20ac\U0001f600\ud800")


@pytest.fixture(scope="module")
def small_gadgets(schnorr_keys, suite):
    """A plain gadget, a tiled pair and a gadget with one planted error, in SMALL."""
    model = ModelHandle(kind="uniform-mock", alphabet="abcdefgh" + MULTIBYTE)
    plain, _ = watermark(SMALL, schnorr_keys, model, "p", seed=1, suite=suite)
    tiled = tile_compress(SMALL, schnorr_keys, model, "p", k_pairs=2, seed=2, suite=suite)
    blocked = make_blocked_script(SMALL, {5})
    planted, tr = watermark(SMALL, schnorr_keys, blocked, "p", seed=3, suite=suite)
    assert tr.gamma_used == 1
    return plain, tiled, planted


class TestReference:
    """detect, detect_all and known_offset probes against tests/spec_detector.py.

    With the shard forced on, every full detect forks a child that hashes
    the back share of its offsets, so this also pins the child's chains
    and the offsets they are tried at; with it off, the serial scan.
    """

    @pytest.mark.parametrize("sharded", [True, False], ids=["shard-on", "shard-off"])
    @settings(deadline=None, max_examples=25)
    @given(
        base=st.integers(0, 2),
        left=st.text(PAD_CHAR, max_size=40),
        right=st.text(PAD_CHAR, max_size=12),
        edit=st.none() | st.tuples(st.integers(0, 2**20), PAD_CHAR),
        probe=st.integers(-1, 60),
    )
    # The forced shard splits 41 offsets at 17: a hit in the front share, then in the child's.
    @example(base=0, left="", right="ab" * 20, edit=None, probe=0)
    @example(base=0, left="ab" * 20, right="", edit=None, probe=0)
    def test_agrees(self, small_gadgets, schnorr_keys, suite, sharded, base, left, right, edit, probe):
        gadgets = small_gadgets[base]
        text = left + gadgets + right
        if edit is not None:
            pos = len(left) + edit[0] % len(gadgets)
            text = text[:pos] + edit[1] + text[pos + 1 :]
        forks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detector, "_SHARD_MIN", 1 if sharded else sys.maxsize)
            mp.setattr(detector, "_may_shard", lambda: True)
            fork = os.fork
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())

            hits = spec_detector.detect_all(schnorr_keys, SMALL, text, suite)
            assert detect_all(schnorr_keys, SMALL, text, suite=suite) == hits
            assert detect(schnorr_keys, SMALL, text, suite=suite) == (
                hits[0] if hits else DetectionResult(False))
            for k in {probe} | {h.offset + d for h in hits for d in (-1, 0, 1)}:
                expected = spec_detector.gadget_at(schnorr_keys, SMALL, text, k, suite)
                result = detect(schnorr_keys, SMALL, text, suite=suite, known_offset=k)
                assert result == (expected or DetectionResult(False)), k
        assert len(forks) == (sharded and len(text) >= SMALL.gadget_chars)
        no_child_left()
