import pytest

from pdws.core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    ParameterError,
    WatermarkParams,
    chunk,
)
from pdws.crypto import h_bit, sign
from pdws.ecc import EccProfile, encode
from pdws.embedder import (
    EmbedFailure,
    generate_message_signature_pair,
    reject_sample_tokens,
    tile_compress,
    watermark,
)
from pdws.model import ModelHandle
from pdws.rng import SamplerState

from conftest import make_blocked_script


def replay_gadget(params, suite, keys, records):
    """Recompute the chunk chain from a gadget's block records.

    Returns (mismatch_count, masked_codeword, reconstructed_chain) and
    checks that mismatches happen exactly at planted blocks.
    """
    msg = records[0].text.encode("utf-8")
    sigma = sign(keys, suite.h_sign(msg))
    profile = EccProfile.for_params(params)
    masked = suite.h_mask(msg, params.lambda_c) ^ encode(sigma, profile)
    targets = chunk(masked, params.beta)
    assert len(records) == 1 + len(targets)

    m_acc = b""
    c_prev = BitString.empty()
    mismatches = 0
    for rec, target in zip(records[1:], targets):
        x = rec.text.encode("utf-8")
        achieved = h_bit(m_acc + x + c_prev.to_bytes(), params.beta, suite.bit_salt)
        if achieved == target:
            assert not rec.planted_error
        else:
            mismatches += 1
            assert rec.planted_error
            assert rec.best_hamming >= 1
        m_acc += x
        c_prev = c_prev.concat(achieved)
    return mismatches, masked, c_prev


class TestWatermark:
    def test_exact_length_and_block_count(self, params328, schnorr_keys, model64, suite):
        text, tr = watermark(params328, schnorr_keys, model64, "p", seed=1, suite=suite)
        assert len(text) == params328.n
        assert len(tr.blocks) == 1 + params328.n_blocks
        assert all(len(b.text) == params328.ell for b in tr.blocks)
        assert tr.seed == 1
        assert tr.gamma_used <= params328.gamma_max

    def test_two_gadgets_plus_tail(self, params328, schnorr_keys, model64, suite):
        import dataclasses

        params = dataclasses.replace(params328, n=2 * params328.gadget_chars + 5)
        text, tr = watermark(params, schnorr_keys, model64, "p", seed=2, suite=suite)
        assert len(text) == params.n
        assert len(tr.blocks) == 2 * (1 + params.n_blocks)

    def test_determinism(self, params328, schnorr_keys, model64, suite):
        a = watermark(params328, schnorr_keys, model64, "p", seed=3, suite=suite)
        b = watermark(params328, schnorr_keys, model64, "p", seed=3, suite=suite)
        c = watermark(params328, schnorr_keys, model64, "p", seed=4, suite=suite)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert c[0] != a[0]

    def test_chain_replay_matches_masked_codeword(
        self, params328, schnorr_keys, model64, suite
    ):
        text, tr = watermark(params328, schnorr_keys, model64, "p", seed=5, suite=suite)
        mismatches, _, _ = replay_gadget(params328, suite, schnorr_keys, tr.blocks)
        assert mismatches == tr.gamma_used
        # transcript text is the gadget region of the output
        assert "".join(b.text for b in tr.blocks) == text[: params328.gadget_chars]

    def test_short_n_degrades_to_plain_text(
        self, params328, schnorr_keys, model64, suite, caplog
    ):
        import dataclasses

        params = dataclasses.replace(params328, n=100)
        with caplog.at_level("WARNING", logger="pdws.embedder"):
            text, tr = watermark(params, schnorr_keys, model64, "p", seed=6, suite=suite)
        assert len(text) == 100
        assert tr.blocks == ()
        assert tr.gamma_used == 0
        assert any("below one gadget" in r.message for r in caplog.records)

    def test_scheme_params_mismatch_rejected(self, params328, ed_keys, model64, suite):
        with pytest.raises(ParameterError):
            watermark(params328, ed_keys, model64, "p", seed=7, suite=suite)

    def test_transcript_json_roundtrip(self, params328, schnorr_keys, model64, suite):
        _, tr = watermark(params328, schnorr_keys, model64, "p", seed=8, suite=suite)
        assert EmbedTranscript.from_json(tr.to_json()) == tr

    def test_planted_errors_are_corrected_downstream(
        self, params328, schnorr_keys, suite
    ):
        from pdws.detector import detect

        model = make_blocked_script(params328, {1, 2})
        saw_plants = False
        for seed in range(10):
            text, tr = watermark(params328, schnorr_keys, model, "p", seed=seed, suite=suite)
            assert tr.gamma_used <= 2
            mismatches, _, _ = replay_gadget(params328, suite, schnorr_keys, tr.blocks)
            assert mismatches == tr.gamma_used
            result = detect(schnorr_keys, params328, text, suite=suite, known_offset=0)
            assert result.detected
            assert result.corrected_errors <= tr.gamma_used
            if tr.gamma_used:
                saw_plants = True
        assert saw_plants

    def test_per_gadget_budget_scoping(self, params328, schnorr_keys, suite):
        import dataclasses

        params = dataclasses.replace(params328, n=2 * params328.gadget_chars)
        model = make_blocked_script(params328, {1, 2})
        best = None
        for seed in range(20):
            _, tr = watermark(params, schnorr_keys, model, "p", seed=seed, suite=suite)
            per_gadget = 1 + params.n_blocks
            g0 = sum(1 for b in tr.blocks[:per_gadget] if b.planted_error)
            g1 = sum(1 for b in tr.blocks[per_gadget:] if b.planted_error)
            assert g0 <= params.gamma_max and g1 <= params.gamma_max
            assert tr.gamma_used == g0 + g1
            if g0 and g1:
                best = tr
                break
        # budget is per gadget: total plants may exceed gamma_max
        assert best is not None and best.gamma_used >= 2

    def test_embed_failure_when_budget_exhausted(self, params328, schnorr_keys, suite):
        model = ModelHandle(
            kind="scripted-mock",
            script=(("forced", "Z" * params328.gadget_chars),),
            script_cycle=True,
        )
        with pytest.raises(EmbedFailure) as info:
            watermark(params328, schnorr_keys, model, "p", seed=9, suite=suite)
        assert info.value.gadget_index == 0
        assert info.value.block_index >= 3  # two plants spent first


class TestAttemptStatistics:
    def test_beta1_mean_attempts_near_two(self, params_beta1, schnorr_keys, model64, suite):
        attempts = []
        for seed in range(14):
            _, tr = watermark(
                params_beta1, schnorr_keys, model64, "p", seed=seed, suite=suite
            )
            attempts.extend(
                b.attempts for b in tr.blocks[1:] if not b.planted_error
            )
        assert len(attempts) >= 5000
        mean = sum(attempts) / len(attempts)
        assert 1.6 <= mean <= 2.4


class TestRejectSampleTokens:
    def test_accepted_block_satisfies_hash(self, params328, model64, suite):
        rng = SamplerState(11)
        target = BitString(0b10, 2)
        text, m_acc, c_prev, rec = reject_sample_tokens(
            target,
            "",
            b"",
            BitString.empty(),
            params328,
            model64,
            suite=suite,
            window_start=0,
            rng=rng,
            gamma_available=True,
        )
        assert text == rec.text
        assert len(text) == params328.ell
        assert m_acc == rec.text.encode()
        assert not rec.planted_error
        assert rec.attempts >= 1
        assert c_prev == target
        achieved = h_bit(rec.text.encode(), params328.beta, suite.bit_salt)
        assert achieved == target

    def test_wrong_chunk_width_rejected(self, params328, model64, suite):
        with pytest.raises(ParameterError):
            reject_sample_tokens(
                BitString(0, 1),
                "",
                b"",
                BitString.empty(),
                params328,
                model64,
                suite=suite,
                window_start=0,
                rng=SamplerState(0),
            )

    def test_window_beyond_text_rejected(self, params328, model64, suite):
        with pytest.raises(ParameterError):
            reject_sample_tokens(
                BitString(0, 2),
                "abc",
                b"",
                BitString.empty(),
                params328,
                model64,
                suite=suite,
                window_start=4,
                rng=SamplerState(0),
            )

    def test_forced_block_plants_with_achieved_chunk(self, params328, suite):
        model = ModelHandle(
            kind="scripted-mock",
            script=(("forced", "Z" * params328.ell),),
            script_cycle=True,
        )
        achieved = h_bit(("Z" * params328.ell).encode(), params328.beta, suite.bit_salt)
        bad_target = BitString(achieved.value ^ 0b01, 2)
        text, m_acc, c_prev, rec = reject_sample_tokens(
            bad_target,
            "",
            b"",
            BitString.empty(),
            params328,
            model,
            suite=suite,
            window_start=0,
            rng=SamplerState(12),
            gamma_available=True,
        )
        assert rec.planted_error
        assert rec.attempts == params328.a_max + 1
        assert rec.best_hamming == 1
        assert rec.text == "Z" * params328.ell
        # the chain records what the block really hashes to
        assert c_prev == achieved

    def test_forced_block_without_budget_fails(self, params328, suite):
        model = ModelHandle(
            kind="scripted-mock",
            script=(("forced", "Z" * params328.ell),),
            script_cycle=True,
        )
        achieved = h_bit(("Z" * params328.ell).encode(), params328.beta, suite.bit_salt)
        bad_target = BitString(achieved.value ^ 0b11, 2)
        with pytest.raises(EmbedFailure) as info:
            reject_sample_tokens(
                bad_target,
                "",
                b"",
                BitString.empty(),
                params328,
                model,
                suite=suite,
                window_start=0,
                rng=SamplerState(13),
                gamma_available=False,
                gadget_index=4,
                block_index=7,
            )
        assert (info.value.gadget_index, info.value.block_index) == (4, 7)


class TestGenerateMessageSignaturePair:
    def test_blocks_start_at_msg_start(self, params328, schnorr_keys, model64, suite):
        prefix = "x" * 32
        text, records, gamma_used = generate_message_signature_pair(
            prefix,
            params328,
            schnorr_keys,
            model64,
            suite=suite,
            prompt="p",
            rng=SamplerState(17),
            msg_start=32,
        )
        assert text.startswith(prefix)
        assert len(text) == 32 + params328.gadget_chars
        assert len(records) == 1 + params328.n_blocks
        assert "".join(r.text for r in records) == text[32:]
        mismatches, _, _ = replay_gadget(params328, suite, schnorr_keys, records)
        assert mismatches == gamma_used

    def test_message_block_already_present_is_kept(
        self, params328, schnorr_keys, model64, suite
    ):
        held = "m" * (params328.ell + 3)  # message block plus surplus characters
        text, records, _ = generate_message_signature_pair(
            held,
            params328,
            schnorr_keys,
            model64,
            suite=suite,
            prompt="p",
            rng=SamplerState(18),
            msg_start=0,
        )
        assert records[0] == BlockRecord(1, False, 0, "m" * params328.ell)
        assert text.startswith(held)
        assert records[1].text.startswith("mmm")


class TestTiling:
    def test_length_formula_and_detection(self, params328, schnorr_keys, model64, suite):
        from pdws.detector import detect_all

        text = tile_compress(
            params328, schnorr_keys, model64, "p", k_pairs=3, seed=14, suite=suite
        )
        expected = 3 * params328.gadget_chars - 2 * params328.ell
        assert len(text) == expected
        hits = detect_all(schnorr_keys, params328, text, suite=suite)
        stride = params328.gadget_chars - params328.ell
        assert [h.offset for h in hits] == [0, stride, 2 * stride]

    def test_k1_matches_plain_gadget(self, params328, schnorr_keys, model64, suite):
        single = tile_compress(
            params328, schnorr_keys, model64, "p", k_pairs=1, seed=15, suite=suite
        )
        text, _ = watermark(params328, schnorr_keys, model64, "p", seed=15, suite=suite)
        assert single == text[: params328.gadget_chars]

    def test_rejects_bad_arguments(self, params328, schnorr_keys, model64, suite):
        with pytest.raises(ParameterError):
            tile_compress(params328, schnorr_keys, model64, "p", k_pairs=0, suite=suite)
        import dataclasses

        wide = dataclasses.replace(params328, ell=512, n=512 * 181)
        with pytest.raises(ParameterError):
            tile_compress(wide, schnorr_keys, model64, "p", k_pairs=2, suite=suite)


class TestMultiCharTokens:
    def test_surplus_commits_into_next_block(self, params328, suite, multichar_endpoint):
        model = ModelHandle(kind="remote", endpoint=multichar_endpoint)
        text = ""
        m_acc = b""
        c_prev = BitString.empty()
        rng = SamplerState(16)
        targets = []
        for j in range(3):
            # targets must be achievable, not fixed: pick whatever we like;
            # rejection keeps sampling until the chain hash matches
            target = BitString(j % 4, 2)
            window_start = j * params328.ell
            prefix_before = text
            text, m_acc, c_prev, rec = reject_sample_tokens(
                target,
                text,
                m_acc,
                c_prev,
                params328,
                model,
                suite=suite,
                prompt="p",
                window_start=window_start,
                rng=rng.fork(j),
                gamma_available=False,
            )
            targets.append(target)
            assert not rec.planted_error
            assert len(text) >= window_start + params328.ell
            # surplus from the previous block was reused, never discarded
            assert text.startswith(prefix_before)

        # detector-style replay over fixed character windows agrees
        m_replay = b""
        c_replay = BitString.empty()
        for j, target in enumerate(targets):
            window = text[j * params328.ell : (j + 1) * params328.ell]
            achieved = h_bit(
                m_replay + window.encode() + c_replay.to_bytes(), params328.beta, suite.bit_salt
            )
            assert achieved == target
            m_replay += window.encode()
            c_replay = c_replay.concat(achieved)
