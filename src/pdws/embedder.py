"""Embedding: sign a sampled message block, then plant the masked codeword.

One gadget is an ell-char message block followed by n_blocks more ell-char
blocks. The message block is sampled natively and its digest signed; the
signature is error-correction encoded and XORed with a mask derived from
the message, restoring pseudorandomness. Each beta-bit chunk of that masked
codeword is then embedded into one block by rejection sampling: resample
the block until the chained hash h_bit(m || x || c_prev) equals the chunk.

When a block refuses to match within a_max+1 fresh samples (low entropy,
or plain bad luck), the best candidate by Hamming distance is planted
instead; the decoder's error correction absorbs it. Each gadget's block loop
owns its error budget gamma_max: it counts the planted blocks and
raises EmbedFailure past the budget. It pushes every block it keeps, with
its peeked value, into the gadget's crypto.BitChain, so c_prev carries what
each block really hashes to, which is what a detector recomputing the
chain will see, and a planted error stays confined to its own chunk.

Blocks live at fixed character offsets. Multi-character tokens may overrun
a block's window; the surplus is committed as the immutable prefix of the
next block and only characters beyond it are resampled. An attempt builds
only its window, so its cost does not grow with the text before it.
"""

from __future__ import annotations

import logging

from . import crypto, ecc
from .core import (
    BlockRecord,
    EmbedFailure,
    EmbedTranscript,
    ParameterError,
    WatermarkParams,
    _require_int,
)
from .crypto import KeyMaterial, OracleSuite
from .model import ModelHandle, sample_min_chars
from .rng import SamplerState

logger = logging.getLogger(__name__)

_MSG_BLOCK = 0  # rng label for the message block; signature blocks are 1-based


def reject_sample_tokens(
    target: int,
    text: str,
    chain: crypto.BitChain,
    params: WatermarkParams,
    model: ModelHandle,
    *,
    prompt: str = "",
    window_start: int,
    rng: SamplerState,
) -> tuple[str, bytes, int, BlockRecord]:
    """Sample the ell-char block at window_start until it hashes to target.

    Attempt a draws from the forked stream rng.fork(a), so evaluation order
    cannot change the outcome. Every attempt samples after the same text,
    so the attempts share one map from context to distribution: a remote
    model is asked once per distinct context of the block, and the map is
    dropped with the block. Candidates are only peeked, so the chain is
    unchanged. After a_max+1 misses the minimal-Hamming candidate, the
    earliest on ties, is returned marked planted. A window that text
    already fills has one candidate, tried once. Returns the extended
    text, the block's bytes, the value they hash to, and the block record.
    The caller passes a beta-bit chunk value and a window_start that text
    reaches.
    """
    ell, fork, peek = params.ell, rng.fork, chain.peek
    missing = window_start + ell - len(text)  # characters each attempt samples
    head = text[window_start:]  # the window's carried prefix, kept by every attempt

    best = None  # (distance, span, window bytes, achieved value)
    dists: dict = {}  # this block's contexts, each asked of the model once
    for attempt in range(1, params.a_max + 2):
        span = (sample_min_chars(model, missing, prompt, text, fork(attempt), dists)
                if missing > 0 else "")
        window_bytes = (head + span)[:ell].encode("utf-8")
        achieved = peek(window_bytes)
        distance = (achieved ^ target).bit_count()
        if best is None or distance < best[0]:
            best = (distance, span, window_bytes, achieved)
        if not distance or missing <= 0:  # nothing sampled: all attempts alike
            break

    distance, span, window_bytes, achieved = best
    record = BlockRecord(attempt, distance, (head + span)[:ell])
    return text + span, window_bytes, achieved, record


def generate_message_signature_pair(
    text: str,
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    *,
    suite: OracleSuite = OracleSuite(),
    prompt: str = "",
    rng: SamplerState,
    msg_start: int,
    gadget_index: int = 0,
) -> tuple[str, list[BlockRecord]]:
    """Extend the text by one complete gadget whose message block starts at msg_start.

    The ell-char message block is sampled natively unless the text already
    holds it, as it does for a tiled gadget. Then h_mask(msg) XOR
    encode(sign(sk, h_sign(msg))) is embedded chunk by chunk, signature
    block j at msg_start + j*ell. Returns the extended text and all
    1+n_blocks block records. Raises EmbedFailure(gadget_index, j) when
    block j would plant more than gamma_max errors in this gadget.
    """
    msg_end = msg_start + params.ell
    if len(text) < msg_end:
        text += sample_min_chars(
            model, msg_end - len(text), prompt, text, rng.fork(_MSG_BLOCK)
        )
    msg_window = text[msg_start:msg_end]
    msg_bytes = msg_window.encode("utf-8")
    sigma = crypto.sign(keys, suite.h_sign(msg_bytes))
    masked = (suite.h_mask(msg_bytes, params.lambda_c) ^ ecc.encode(sigma, params)).value

    records = [BlockRecord(1, 0, msg_window)]
    chain = crypto.BitChain(suite.bit_oracle(), params.beta)
    gamma_used, beta = 0, params.beta
    for j in range(1, params.n_blocks + 1):
        text, window_bytes, achieved, rec = reject_sample_tokens(
            masked >> (params.lambda_c - j * beta) & ((1 << beta) - 1),
            text,
            chain,
            params,
            model,
            prompt=prompt,
            window_start=msg_start + j * params.ell,
            rng=rng.fork(j),
        )
        gamma_used += rec.planted_error
        if gamma_used > params.gamma_max:
            raise EmbedFailure(gadget_index, j)
        chain.push(window_bytes, achieved)
        records.append(rec)
    return text, records


def _embed_gadgets(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str,
    count: int,
    stride: int,
    seed: int,
    suite: OracleSuite,
) -> tuple[str, list[BlockRecord]]:
    """Embed count gadgets, gadget g's message block at g * stride.

    Gadget g samples from SamplerState(seed).fork(g). Returns the text and
    every block record.
    """
    crypto.check_signature_bits(keys.scheme_id, params.lambda_sig)
    root = SamplerState(seed)
    text = ""
    records: list[BlockRecord] = []
    for g in range(count):
        text, recs = generate_message_signature_pair(
            text,
            params,
            keys,
            model,
            suite=suite,
            prompt=prompt,
            rng=root.fork(g),
            msg_start=g * stride,
            gadget_index=g,
        )
        records.extend(recs)
    return text, records


def watermark(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str = "",
    *,
    seed: int = 0,
    suite: OracleSuite = OracleSuite(),
) -> tuple[str, EmbedTranscript]:
    """Generate exactly n characters carrying as many whole gadgets as fit.

    Gadgets are embedded back to back from offset 0; leftover characters
    are plain model output. Raises EmbedFailure when a gadget exhausts its
    planted-error budget, and ParameterError for a seed that is not an int
    in [0, 2^256).
    """
    gadget_len = params.gadget_chars
    k_fit = params.n // gadget_len
    text, records = _embed_gadgets(
        params, keys, model, prompt, k_fit, gadget_len, seed, suite
    )
    if k_fit == 0:
        logger.warning(
            "n=%d is below one gadget (%d chars); emitting plain text only",
            params.n,
            gadget_len,
        )
    if len(text) < params.n:
        tail = SamplerState(seed).fork(k_fit)
        text += sample_min_chars(model, params.n - len(text), prompt, text, tail)
    return text[: params.n], EmbedTranscript(params, seed, tuple(records))


def tile_compress(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str = "",
    k_pairs: int = 2,
    *,
    seed: int = 0,
    suite: OracleSuite = OracleSuite(),
) -> str:
    """Pack k_pairs gadgets into k*(ell + ell*n_blocks) - (k-1)*ell chars.

    Pair j >= 2 reuses the final ell-char window of pair j-1's signature
    region as its message block, so consecutive gadgets overlap by one
    block and no fresh message characters are spent.
    """
    _require_int("k_pairs", k_pairs)
    if k_pairs < 1:
        raise ParameterError("k_pairs must be >= 1")
    if params.lambda_sig < params.ell:
        raise ParameterError("tiling needs lambda_sig >= ell")
    stride = params.gadget_chars - params.ell
    text, _ = _embed_gadgets(params, keys, model, prompt, k_pairs, stride, seed, suite)
    return text[: k_pairs * stride + params.ell]
