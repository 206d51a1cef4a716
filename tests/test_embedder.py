import json
import sys
import threading
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pdws import embedder
from pdws.core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    Layout,
    ParameterError,
    WatermarkParams,
)
from pdws.crypto import BitChain, h_bit, sign
from pdws.detector import detect_all
from pdws.ecc import encode
from pdws.embedder import (
    EmbedFailure,
    generate_message_signature_pair,
    reject_sample_tokens,
    tile_compress,
    watermark,
)
from pdws.model import DEFAULT_ALPHABET, ModelHandle, TokenDistribution, sample_min_chars
from pdws.rng import SamplerState

import spec_embedder
from conftest import layouts, make_blocked_script


def chain_replay(params, suite, keys, msg_text, block_texts):
    """Hash blocks one-shot through h_bit(m || x || c_prev) against the gadget's targets.

    Returns (j, achieved, target) for every signature block j, 1-based.
    """
    msg = msg_text.encode("utf-8")
    sigma = sign(keys, suite.h_sign(msg))
    masked = (suite.h_mask(msg, params.lambda_c) ^ encode(sigma, params)).value
    beta, n = params.beta, params.n_blocks
    # Chunk j takes bits (j-1)*beta .. j*beta-1, bit 0 the most significant.
    targets = [masked >> (n - j) * beta & ((1 << beta) - 1) for j in range(1, n + 1)]
    assert len(block_texts) == len(targets)

    m_acc = b""
    c_prev = 0  # the chunk values so far, beta bits each
    out = []
    for j, (text, target) in enumerate(zip(block_texts, targets), start=1):
        x = text.encode("utf-8")
        c_bytes = BitString(c_prev, (j - 1) * beta).to_bytes()
        achieved = h_bit(m_acc + x + c_bytes, beta, suite.bit_salt).value
        out.append((j, achieved, target))
        m_acc += x
        c_prev = c_prev << beta | achieved
    return out


def replay_gadget(params, suite, keys, records):
    """Recompute the chunk chain from a gadget's block records.

    Returns the mismatch count and checks that mismatches happen exactly at
    planted blocks.
    """
    blocks = records[1:]
    replay = chain_replay(params, suite, keys, records[0].text, [b.text for b in blocks])
    mismatches = 0
    for rec, (_, achieved, target) in zip(blocks, replay):
        if achieved == target:
            assert not rec.planted_error
        else:
            mismatches += 1
            assert rec.planted_error
            assert rec.best_hamming >= 1
    return mismatches


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

    def test_concurrent_threads_match_serial_runs(
        self, params328, schnorr_keys, model64, suite
    ):
        # Each thread draws from its own re-keyed generator; one shared
        # between threads would mix their streams. More threads than cores
        # and a short switch interval make the threads interleave often.
        def text(seed):
            return watermark(params328, schnorr_keys, model64, "p", seed=seed, suite=suite)[0]

        seeds = (21, 22, 23)
        serial = {seed: text(seed) for seed in seeds}
        results = {}

        def run(seed):
            results[seed] = text(seed)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_chain_replay_matches_masked_codeword(
        self, params328, schnorr_keys, model64, suite
    ):
        text, tr = watermark(params328, schnorr_keys, model64, "p", seed=5, suite=suite)
        mismatches = replay_gadget(params328, suite, schnorr_keys, tr.blocks)
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

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_non_int_seed_rejected(self, params328, schnorr_keys, model64, suite, seed):
        # A float or string used to escape as AttributeError or TypeError,
        # and True was read as seed 1.
        with pytest.raises(ParameterError, match="seed must be an integer"):
            watermark(params328, schnorr_keys, model64, "p", seed=seed, suite=suite)

    def test_transcript_json_roundtrip(self, params328, schnorr_keys, model64, suite):
        _, tr = watermark(params328, schnorr_keys, model64, "p", seed=8, suite=suite)
        doc = json.loads(json.dumps(tr.to_json_dict()))
        assert doc == tr.to_json_dict()
        for b in doc["blocks"]:
            assert b.pop("planted_error") == (b["best_hamming"] > 0)
        blocks = tuple(BlockRecord(**b) for b in doc["blocks"])
        assert EmbedTranscript(tr.params, doc["seed"], blocks) == tr

    def test_planted_errors_are_corrected_downstream(
        self, params328, schnorr_keys, suite
    ):
        from pdws.detector import detect

        model = make_blocked_script(params328, {1, 2})
        saw_plants = False
        for seed in range(10):
            text, tr = watermark(params328, schnorr_keys, model, "p", seed=seed, suite=suite)
            assert tr.gamma_used <= 2
            mismatches = replay_gadget(params328, suite, schnorr_keys, tr.blocks)
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
        target = 0b10
        chain = BitChain(suite.bit_oracle(), params328.beta)
        text, window, achieved, rec = reject_sample_tokens(
            target, "", chain, params328, model64, window_start=0, rng=rng
        )
        assert text == rec.text
        assert len(text) == params328.ell
        assert window == rec.text.encode()
        assert not rec.planted_error
        assert rec.attempts >= 1
        assert achieved == target
        assert chain.absorb(()) == b""  # candidates are only peeked
        assert h_bit(window, params328.beta, suite.bit_salt).value == target

    def test_forced_block_plants_with_achieved_chunk(self, params328, suite):
        model = ModelHandle(
            kind="scripted-mock",
            script=(("forced", "Z" * params328.ell),),
            script_cycle=True,
        )
        achieved = h_bit(("Z" * params328.ell).encode(), params328.beta, suite.bit_salt)
        bad_target = achieved.value ^ 0b01
        chain = BitChain(suite.bit_oracle(), params328.beta)
        text, window, value, rec = reject_sample_tokens(
            bad_target, "", chain, params328, model, window_start=0, rng=SamplerState(12)
        )
        assert rec.planted_error
        assert rec.attempts == params328.a_max + 1
        assert rec.best_hamming == 1
        assert rec.text == "Z" * params328.ell
        # the returned value is what the block really hashes to
        assert value == achieved.value
        assert chain.absorb([window]) == achieved.to_bytes()

    def test_window_the_text_fills_takes_one_attempt(self, params328, model64, suite):
        # Nothing is sampled, so every attempt would peek this one candidate.
        text = "x" * 40
        window = text[16:32].encode()
        chain = BitChain(suite.bit_oracle(), params328.beta)
        achieved = chain.peek(window)
        for value in range(4):
            got = reject_sample_tokens(
                value, text, chain, params328, model64,
                window_start=16, rng=SamplerState(3),
            )
            record = BlockRecord(1, (value ^ achieved).bit_count(), text[16:32])
            assert got == (text, window, achieved, record)


def whole_text_reject_sample(target, text, chain, params, model, *, prompt="",
                             window_start, rng):
    """The rejection loop that built each candidate's whole text: the oracle.

    reject_sample_tokens builds only each attempt's window and joins the
    text once; it must return exactly what this loop returns.
    """
    window_end = window_start + params.ell
    best = None
    dists: dict = {}
    for attempt in range(1, params.a_max + 2):
        cand = text
        if len(cand) < window_end:
            cand += embedder.sample_min_chars(
                model, window_end - len(cand), prompt, cand, rng.fork(attempt), dists
            )
        window_bytes = cand[window_start:window_end].encode("utf-8")
        achieved = chain.peek(window_bytes)
        distance = (achieved ^ target).bit_count()
        if best is None or distance < best[0]:
            best = (distance, cand, window_bytes, achieved)
        if not distance or len(text) >= window_end:
            break
    distance, cand, window_bytes, achieved = best
    return cand, window_bytes, achieved, BlockRecord(attempt, distance, cand[window_start:window_end])


# name -> (model, or None for rotating_remote; text; window_start)
ORACLE_CASES = {
    "uniform": (ModelHandle(kind="uniform-mock"), "", 0),
    # forced at 10..21 and 28..37: both straddle the window 16..31
    "script-straddles-window": (
        ModelHandle(kind="scripted-mock", script=(
            ("free", 10), ("forced", "Z" * 12), ("free", 6), ("forced", "Y" * 10))),
        "a" * 16, 16,
    ),
    "remote-carried-prefix": (None, "abcdeab" * 3, 16),  # 5 of the window's 16 carried
    "text-fills-window": (ModelHandle(kind="uniform-mock"), "x" * 40, 16),
    "long-text": (ModelHandle(kind="uniform-mock"), "ab" * 10_003, 20_000),
}


class TestRejectSampleTokensOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_the_whole_text_loop(self, params328, suite, rotating_remote, case):
        model, text, window_start = ORACLE_CASES[case]
        model = model or rotating_remote[0]
        assert window_start <= len(text)
        chain = BitChain(suite.bit_oracle(), params328.beta)
        chain.absorb((b"0123456789abcdef", "\u00e9t\u00e9 \u00e0 la mer".encode()))
        retried = 0
        for seed in range(6):
            for value in range(2**params328.beta):
                args = (value, text, chain, params328, model)
                kwargs = dict(prompt="p", window_start=window_start)
                got = reject_sample_tokens(*args, **kwargs, rng=SamplerState(seed))
                want = whole_text_reject_sample(*args, **kwargs, rng=SamplerState(seed))
                assert got == want
                retried += got[3].attempts > 1
        assert retried or case == "text-fills-window"


class TestGenerateMessageSignaturePair:
    def test_blocks_start_at_msg_start(self, params328, schnorr_keys, model64, suite):
        prefix = "x" * 32
        text, records = generate_message_signature_pair(
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
        mismatches = replay_gadget(params328, suite, schnorr_keys, records)
        assert mismatches == sum(r.planted_error for r in records)

    def test_message_block_already_present_is_kept(
        self, params328, schnorr_keys, model64, suite
    ):
        held = "m" * (params328.ell + 3)  # message block plus surplus characters
        text, records = generate_message_signature_pair(
            held,
            params328,
            schnorr_keys,
            model64,
            suite=suite,
            prompt="p",
            rng=SamplerState(18),
            msg_start=0,
        )
        assert records[0] == BlockRecord(1, 0, "m" * params328.ell)
        assert text.startswith(held)
        assert records[1].text.startswith("mmm")

    def test_budget_exhausted_names_gadget_and_block(self, params328, schnorr_keys, suite):
        forced = "Z" * params328.ell
        model = ModelHandle(kind="scripted-mock", script=(("forced", forced),), script_cycle=True)
        # Every block is forced, so the one-shot replay knows each miss in
        # advance; the budget runs out at miss number gamma_max + 1.
        replay = chain_replay(
            params328, suite, schnorr_keys, forced, [forced] * params328.n_blocks
        )
        misses = [j for j, achieved, target in replay if achieved != target]
        with pytest.raises(EmbedFailure) as info:
            generate_message_signature_pair(
                "",
                params328,
                schnorr_keys,
                model,
                suite=suite,
                prompt="p",
                rng=SamplerState(19),
                msg_start=0,
                gadget_index=4,
            )
        assert (info.value.gadget_index, info.value.block_index) == (
            4,
            misses[params328.gamma_max],
        )


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
        # A float used to escape as TypeError from range, and True tiled one pair.
        for k_pairs in (1.5, True):
            with pytest.raises(ParameterError, match="k_pairs must be an integer"):
                tile_compress(params328, schnorr_keys, model64, "p", k_pairs=k_pairs, suite=suite)
        import dataclasses

        wide = dataclasses.replace(params328, ell=512, n=512 * 181)
        with pytest.raises(ParameterError):
            tile_compress(wide, schnorr_keys, model64, "p", k_pairs=2, suite=suite)


class TestMultiCharTokens:
    def test_surplus_commits_into_next_block(self, params328, suite, multichar_endpoint):
        model = ModelHandle(kind="remote", endpoint=multichar_endpoint)
        text = ""
        chain = BitChain(suite.bit_oracle(), params328.beta)
        rng = SamplerState(16)
        targets = []
        for j in range(3):
            # targets must be achievable, not fixed: pick whatever we like;
            # rejection keeps sampling until the chain hash matches
            target = j % 4
            window_start = j * params328.ell
            prefix_before = text
            text, window, _, rec = reject_sample_tokens(
                target,
                text,
                chain,
                params328,
                model,
                prompt="p",
                window_start=window_start,
                rng=rng.fork(j),
            )
            chain.absorb([window])
            targets.append(target)
            assert not rec.planted_error
            assert len(text) >= window_start + params328.ell
            # surplus from the previous block was reused, never discarded
            assert text.startswith(prefix_before)

        # detector-style replay over fixed character windows agrees
        m_replay = b""
        c_replay = 0  # the chunk values so far, 2 bits each
        for j, target in enumerate(targets):
            window = text[j * params328.ell : (j + 1) * params328.ell]
            c_bytes = BitString(c_replay, 2 * j).to_bytes()
            achieved = h_bit(m_replay + window.encode() + c_bytes, params328.beta, suite.bit_salt)
            assert achieved.value == target
            m_replay += window.encode()
            c_replay = c_replay << 2 | achieved.value


def embed_gadgets(params, keys, model, suite, k, tiled, seed):
    """Text of k gadgets from watermark or tile_compress, and each gadget's block records."""
    gadgets = []
    real = embedder.generate_message_signature_pair

    def spy(*args, **kwargs):
        text, records = real(*args, **kwargs)
        gadgets.append(records)
        return text, records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedder, "generate_message_signature_pair", spy)
        if tiled:
            text = tile_compress(params, keys, model, "p", k_pairs=k, seed=seed, suite=suite)
        else:
            text, _ = watermark(params, keys, model, "p", seed=seed, suite=suite)
    return text, gadgets


def check_completeness(params, keys, model, suite, k, tiled, seed):
    """Either the embed fails, or detect_all finds every gadget with its planted errors.

    A planted chunk corrupts the code symbol (byte) that holds it, so each
    gadget's corrected_errors counts the distinct symbols holding one.
    Returns whether the embed succeeded.
    """
    try:
        text, gadgets = embed_gadgets(params, keys, model, suite, k, tiled, seed)
    except EmbedFailure:
        return False
    stride = params.gadget_chars - (params.ell if tiled else 0)
    hits = detect_all(keys, params, text, suite=suite)
    assert [h.offset for h in hits] == [g * stride for g in range(k)]
    planted = [
        len({(j - 1) * params.beta // 8 for j, rec in enumerate(records) if rec.planted_error})
        for records in gadgets
    ]
    assert [h.corrected_errors for h in hits] == planted
    return True


class TestCompleteness:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), k=st.integers(1, 2), tiled=st.booleans(), seed=st.integers(0, 99))
    def test_embed_fails_or_every_gadget_is_found(self, schnorr_keys, suite, data, k, tiled, seed):
        layout = data.draw(layouts(lambda_sig=328, betas=(1, 2, 4), max_ell=4))
        t = layout.parity_symbols // 2
        params = WatermarkParams(
            layout.ell,
            layout.beta,
            layout.lambda_sig,
            layout.lambda_c,
            # gamma_max is 0 without a code and at least 1 with one.
            gamma_max=data.draw(st.integers(min(1, t), t)),
            a_max=data.draw(st.sampled_from((16, 64))),
            n=k * layout.gadget_chars,
        )
        # Up to one forced block past the budget, so both outcomes occur.
        blocks = st.integers(0, params.n_blocks)
        forced = data.draw(st.sets(blocks, max_size=params.gamma_max + 1))
        model = make_blocked_script(params, forced)
        ok = check_completeness(params, schnorr_keys, model, suite, k, tiled, seed)
        event("embedded" if ok else "EmbedFailure")

    @pytest.mark.parametrize("tiled", [False, True])
    def test_multi_character_tokens(self, schnorr_keys, suite, rotating_remote, tiled):
        model, requests = rotating_remote
        params = WatermarkParams(ell=4, a_max=64, n=2 * 4 * 181)
        assert check_completeness(params, schnorr_keys, model, suite, 2, tiled, seed=3)
        assert len(requests) >= params.n // 3


@pytest.fixture
def rotating_remote(monkeypatch):
    """A remote model answered in-process, and the contexts it was asked for, in order.

    Its distribution depends on the context and its tokens are 1-3
    characters long, so blocks inherit surplus characters from the block
    before them, as they do from a real remote model.
    """
    tokens = tuple(c * (1 + i % 3) for i, c in enumerate("abcdefghijklmnopqrstuvwx"))
    requests = []

    def rotating(model, prompt, context):
        requests.append(context)
        shift = len(context) % len(tokens)
        return TokenDistribution(tokens[shift:] + tokens[:shift], (1 / 24,) * 24)

    monkeypatch.setattr("pdws.model._remote_distribution", rotating)
    return ModelHandle(kind="remote", endpoint="http://127.0.0.1:9"), requests


def asking_every_attempt(mp):
    """Make the embedder's blocks ask the model for every context of every attempt."""
    real = embedder.sample_min_chars
    mp.setattr(embedder, "sample_min_chars", lambda *args: real(*args[:5]))  # drop dists


class TestOneRequestPerContext:
    def test_a_block_asks_once_per_distinct_context(self, params328, suite, rotating_remote):
        model, requests = rotating_remote
        retried = 0
        for value in range(2**params328.beta):
            runs = []
            for every_attempt in (False, True):
                requests.clear()
                with pytest.MonkeyPatch.context() as mp:
                    if every_attempt:
                        asking_every_attempt(mp)
                    out = reject_sample_tokens(
                        value,
                        "ab",
                        BitChain(suite.bit_oracle(), params328.beta),
                        params328,
                        model,
                        prompt="p",
                        window_start=0,
                        rng=SamplerState(value),
                    )
                runs.append((out, list(requests)))
            (out, once), (out_every, every) = runs
            assert out == out_every
            attempts = out[3].attempts
            retried += attempts > 1
            # Every attempt starts from the text given, "ab".
            assert once.count("ab") == 1 and every.count("ab") == attempts
            assert len(once) == len(set(once)) and set(once) == set(every)
        assert retried  # some block took more than one attempt

    def test_no_answer_outlives_a_call(self, schnorr_keys, suite, rotating_remote):
        model, requests = rotating_remote
        params = WatermarkParams(ell=4, a_max=64, n=4 * 181 + 10)
        counts, outputs = [], []
        for every_attempt in (False, False, True):
            requests.clear()
            with pytest.MonkeyPatch.context() as mp:
                if every_attempt:
                    asking_every_attempt(mp)
                outputs.append(watermark(params, schnorr_keys, model, "p", seed=3, suite=suite))
            counts.append(len(requests))
        assert outputs[0] == outputs[1] == outputs[2]
        assert 0 < counts[0] == counts[1] < counts[2]


# 1-, 2-, 3- and 4-byte UTF-8 characters.
CHARS = "aZ.äßéñαω中文字检签😀🔏📜✅"


def low_entropy(ell, alphabet=DEFAULT_ALPHABET):
    """perfbench's low-entropy shape: signature blocks 20 and 120 of the first gadget forced."""
    script = (("free", 20 * ell), ("forced", "x" * ell), ("free", 99 * ell), ("forced", "x" * ell))
    return ModelHandle(kind="scripted-mock", alphabet=alphabet, script=script)


def check_against_reference(params, keys, model, suite, seed):
    """watermark and the reference give equal text and records, or fail at one block."""
    try:
        expected = spec_embedder.watermark(params, keys, model, seed=seed, suite=suite)
    except EmbedFailure as failure:
        with pytest.raises(EmbedFailure) as info:
            watermark(params, keys, model, "p", seed=seed, suite=suite)
        assert (info.value.gadget_index, info.value.block_index) == (
            failure.gadget_index, failure.block_index)
        return False
    text, transcript = watermark(params, keys, model, "p", seed=seed, suite=suite)
    assert (text, list(transcript.blocks)) == expected
    return True


class _Drawn:
    """A stand-in for a sampler state whose one draw is the given uniforms."""

    def __init__(self, us):
        self.us = us

    def random(self, n):
        assert n == len(self.us)
        return np.array(self.us)


class TestReference:
    """watermark against tests/spec_embedder.py, built from the definitions alone."""

    @pytest.mark.parametrize("alphabet", ["abc", "0123456789", DEFAULT_ALPHABET, CHARS])
    @pytest.mark.parametrize("scripted", [False, True])
    def test_span_at_the_running_sums(self, alphabet, scripted):
        # A draw lands on a running sum with probability about 2^-53, so
        # these uniforms are chosen: 0, each sum and the float below it, and
        # the largest float below 1, at or past the last sum when the sums
        # end short of 1 (ten tenths do).
        sums = list(accumulate([1.0 / len(alphabet)] * len(alphabet)))
        us = [0.0] + sums[:-1] + [np.nextafter(s, 0.0) for s in sums] + [np.nextafter(1.0, 0.0)]
        script = (("free", 3), ("forced", "xy"), ("free", 2)) if scripted else ()
        model = ModelHandle(kind="scripted-mock" if scripted else "uniform-mock",
                            alphabet=alphabet, script=script, script_cycle=scripted)
        for start in (0, 4, 13):
            span = sample_min_chars(model, len(us), "", "c" * start, _Drawn(us))
            assert span == spec_embedder.span(model, start, us), start

    @pytest.mark.parametrize("beta, ell, a_max, gadgets, alphabet, scripted, seed", [
        (1, 1, 40, 2, DEFAULT_ALPHABET, False, 3),
        (1, 5, 40, 2, CHARS, True, 5),
        (2, 2, 600, 2, "äöü中文字😀🔏", False, 3),
        (2, 3, 40, 2, DEFAULT_ALPHABET, True, 11),
        (4, 3, 600, 2, CHARS, True, 1),
        (4, 1, 40, 2, "ab", False, 2),
        (8, 2, 1000, 1, DEFAULT_ALPHABET, False, 3),
        (8, 5, 40, 2, CHARS, True, 4),
    ])
    def test_examples(self, schnorr_keys, suite, beta, ell, a_max, gadgets, alphabet, scripted,
                      seed):
        layout = dict(ell=ell, beta=beta, lambda_c=392, gamma_max=4, a_max=a_max)  # t = 4
        n = gadgets * WatermarkParams(**layout).gadget_chars + ell + 1
        model = (low_entropy(ell, alphabet) if scripted
                 else ModelHandle(kind="uniform-mock", alphabet=alphabet))
        check_against_reference(WatermarkParams(**layout, n=n), schnorr_keys, model, suite, seed)

    @settings(deadline=None, max_examples=20)
    @given(data=st.data(), gadgets=st.integers(1, 2), seed=st.integers(0, 2**256 - 1))
    def test_drawn(self, schnorr_keys, suite, data, gadgets, seed):
        beta = data.draw(st.sampled_from((1, 2, 4, 8)))
        ell = data.draw(st.sampled_from((1, 2, 3, 5)))
        layout = Layout(ell, beta, 328, 8 * (41 + 2 * data.draw(st.integers(1, 4))))
        params = WatermarkParams(
            ell, beta, 328, layout.lambda_c,
            gamma_max=data.draw(st.integers(1, layout.parity_symbols // 2)),
            a_max=data.draw(st.sampled_from((40, 600))),
            n=gadgets * layout.gadget_chars + data.draw(st.integers(0, 2 * ell)),
        )
        alphabet = "".join(data.draw(st.lists(st.sampled_from(CHARS), min_size=6, unique=True)))
        if data.draw(st.booleans()):
            model = low_entropy(ell, alphabet)
        else:
            model = ModelHandle(kind="uniform-mock", alphabet=alphabet)
        ok = check_against_reference(params, schnorr_keys, model, suite, seed)
        event("embedded" if ok else "EmbedFailure")
