"""Embedding: sign a sampled message block, then plant the masked codeword.

One gadget is an ell-char message block followed by n_blocks more ell-char
blocks. The message block is sampled natively and its digest signed; the
signature is error-correction encoded and XORed with a mask derived from
the message, restoring pseudorandomness. Each beta-bit chunk of that masked
codeword is then embedded into one block by rejection sampling: resample
the block until the chained hash h_bit(m || x || c_prev) equals the chunk.

When a block refuses to match within a_max+1 fresh samples (low entropy,
or plain bad luck), the best candidate by Hamming distance is planted
instead and one unit of the per-gadget error budget gamma_max is spent;
the decoder's error correction absorbs it. The accumulator c_prev always
receives the hash value the planted block actually achieves, which is what
a detector recomputing the chain will see, so a planted error stays
confined to its own chunk instead of desynchronizing the rest.

Blocks live at fixed character offsets. Multi-character tokens may overrun
a block's window; the surplus is committed as the immutable prefix of the
next block and only characters beyond it are resampled.
"""

from __future__ import annotations

import logging

from . import crypto, ecc
from .core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    ParameterError,
    WatermarkParams,
    chunk,
)
from .crypto import KeyMaterial, OracleSuite
from .model import ModelHandle, sample_min_chars
from .rng import SamplerState

logger = logging.getLogger(__name__)

_MSG_BLOCK = 0  # rng label for the message block; signature blocks are 1-based


class EmbedFailure(RuntimeError):
    """A block found no hash match and the planted-error budget was spent."""

    def __init__(self, gadget_index: int, block_index: int):
        self.gadget_index = gadget_index
        self.block_index = block_index
        super().__init__(
            "no matching block within a_max attempts and gamma budget exhausted "
            "(gadget %d, block %d)" % (gadget_index, block_index)
        )


def reject_sample_tokens(
    target_chunk: BitString,
    text: str,
    m_acc: bytes,
    c_prev: BitString,
    params: WatermarkParams,
    model: ModelHandle,
    *,
    suite: OracleSuite = OracleSuite(),
    prompt: str = "",
    window_start: int,
    rng: SamplerState,
    gamma_available: bool = False,
    gadget_index: int = 0,
    block_index: int = 0,
) -> tuple[str, bytes, BitString, BlockRecord]:
    """Embed one chunk into the ell-char block at window_start.

    Samples fresh candidate blocks (attempt a uses the forked stream
    rng.fork(a), so evaluation order cannot change the outcome) until the
    chained hash matches target_chunk. Characters of text already inside
    the window are kept; only the rest is sampled. After a_max+1 misses the
    minimal-Hamming candidate is planted if budget remains, preferring the
    earliest attempt on ties. Returns the extended text, message
    accumulator, chunk accumulator, and the block record.
    """
    if target_chunk.length != params.beta:
        raise ParameterError("chunk width %d != beta %d" % (target_chunk.length, params.beta))
    if window_start > len(text):
        raise ParameterError("block window starts beyond the text")
    bit_oracle = suite.bit_oracle()
    m_state = bit_oracle.running(m_acc)
    c_prev_bytes = c_prev.to_bytes()
    target = target_chunk.value
    window_end = window_start + params.ell

    best = None  # (distance, attempt, full text, window bytes, achieved value)
    for attempt in range(1, params.a_max + 2):
        cand = text
        if len(cand) < window_end:
            cand += sample_min_chars(
                model, window_end - len(cand), prompt, cand, rng.fork(attempt)
            )
        window_bytes = cand[window_start:window_end].encode("utf-8")
        achieved = bit_oracle.bit_value(window_bytes + c_prev_bytes, params.beta, m_state)
        if achieved == target:
            record = BlockRecord(attempt, False, 0, cand[window_start:window_end])
            return cand, m_acc + window_bytes, c_prev.concat(target_chunk), record
        distance = (achieved ^ target).bit_count()
        if best is None or distance < best[0]:
            best = (distance, attempt, cand, window_bytes, achieved)

    if not gamma_available:
        raise EmbedFailure(gadget_index, block_index)
    distance, _, cand, window_bytes, achieved = best
    record = BlockRecord(params.a_max + 1, True, distance, cand[window_start:window_end])
    return (
        cand,
        m_acc + window_bytes,
        # The chain must carry what the block really hashes to, or every
        # later block would inherit the mismatch.
        c_prev.concat(BitString(achieved, params.beta)),
        record,
    )


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
) -> tuple[str, list[BlockRecord], int]:
    """Extend the text by one complete gadget whose message block starts at msg_start.

    The ell-char message block is sampled natively unless the text already
    holds it, as it does for a tiled gadget. Then h_mask(msg) XOR
    encode(sign(sk, h_sign(msg))) is embedded chunk by chunk, signature
    block j at msg_start + j*ell. Returns the extended text, all 1+n_blocks
    block records, and gamma_used.
    """
    crypto.check_signature_bits(keys.scheme_id, params.lambda_sig)
    msg_end = msg_start + params.ell
    if len(text) < msg_end:
        text += sample_min_chars(
            model, msg_end - len(text), prompt, text, rng.fork(_MSG_BLOCK)
        )
    msg_window = text[msg_start:msg_end]
    msg_bytes = msg_window.encode("utf-8")
    sigma = crypto.sign(keys, suite.h_sign(msg_bytes))
    profile = ecc.EccProfile.for_params(params)
    masked = suite.h_mask(msg_bytes, params.lambda_c) ^ ecc.encode(sigma, profile)

    records = [BlockRecord(1, False, 0, msg_window)]
    m_acc = b""
    c_prev = BitString.empty()
    gamma_used = 0
    for j, target in enumerate(chunk(masked, params.beta), start=1):
        text, m_acc, c_prev, rec = reject_sample_tokens(
            target,
            text,
            m_acc,
            c_prev,
            params,
            model,
            suite=suite,
            prompt=prompt,
            window_start=msg_start + j * params.ell,
            rng=rng.fork(j),
            gamma_available=gamma_used < params.gamma_max,
            gadget_index=gadget_index,
            block_index=j,
        )
        records.append(rec)
        if rec.planted_error:
            gamma_used += 1
    return text, records, gamma_used


def watermark(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str = "",
    *,
    seed: int | None = None,
    suite: OracleSuite = OracleSuite(),
) -> tuple[str, EmbedTranscript]:
    """Generate exactly n characters carrying as many whole gadgets as fit.

    Gadgets are embedded back to back from offset 0; leftover characters
    are plain model output. Raises EmbedFailure when a gadget exhausts its
    planted-error budget.
    """
    crypto.check_signature_bits(keys.scheme_id, params.lambda_sig)
    if seed is None:
        seed = model.seed
    root = SamplerState(seed)

    gadget_len = params.gadget_chars
    k_fit = params.n // gadget_len
    if k_fit == 0:
        logger.warning(
            "n=%d is below one gadget (%d chars); emitting plain text only",
            params.n,
            gadget_len,
        )

    text = ""
    records: list[BlockRecord] = []
    gamma_total = 0
    for g in range(k_fit):
        text, recs, gamma_used = generate_message_signature_pair(
            text,
            params,
            keys,
            model,
            suite=suite,
            prompt=prompt,
            rng=root.fork(g),
            msg_start=g * gadget_len,
            gadget_index=g,
        )
        records.extend(recs)
        gamma_total += gamma_used

    if len(text) < params.n:
        text += sample_min_chars(model, params.n - len(text), prompt, text, root.fork(k_fit))
    text = text[: params.n]

    transcript = EmbedTranscript(params, seed, tuple(records), gamma_total)
    return text, transcript


def tile_compress(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str = "",
    k_pairs: int = 2,
    *,
    seed: int | None = None,
    suite: OracleSuite = OracleSuite(),
) -> str:
    """Pack k_pairs gadgets into k*(ell + ell*n_blocks) - (k-1)*ell chars.

    Pair j >= 2 reuses the final ell-char window of pair j-1's signature
    region as its message block, so consecutive gadgets overlap by one
    block and no fresh message characters are spent.
    """
    if k_pairs < 1:
        raise ParameterError("k_pairs must be >= 1")
    if params.lambda_sig < params.ell:
        raise ParameterError("tiling needs lambda_sig >= ell")
    if seed is None:
        seed = model.seed
    root = SamplerState(seed)

    text = ""
    stride = params.gadget_chars - params.ell
    for j in range(k_pairs):
        text, _, _ = generate_message_signature_pair(
            text,
            params,
            keys,
            model,
            suite=suite,
            prompt=prompt,
            rng=root.fork(j),
            msg_start=j * stride,
            gadget_index=j,
        )
    return text[: k_pairs * params.gadget_chars - (k_pairs - 1) * params.ell]
