"""A reference embedder for the mock models, written from the protocol's definitions.

It shares with pdws only primitives that are pinned on their own: the
oracles (h_bit, h_sign, h_mask), sign and the error-correcting encode.
Each stream is a fresh Philox keyed by SHA-256 of the seed and its fork
labels, each character a bisection of the running sums, and each block's
value a one-shot h_bit(kept blocks || candidate || c_prev). So none of the
faster machinery pdws embeds with (its sampler states, re-keyed
generators, vectorised spans or running hash chain) is trusted here.
"""

import hashlib
from bisect import bisect_right
from itertools import accumulate

from numpy.random import Generator, Philox

from pdws import crypto, ecc
from pdws.core import BlockRecord, EmbedFailure


def uniforms(seed, labels, n):
    """The first n uniforms of the stream of seed forked by each label in turn."""
    data = b"pdws-rng|" + seed.to_bytes(32, "big") + b"".join(x.to_bytes(8, "big") for x in labels)
    key = int.from_bytes(hashlib.sha256(data).digest()[:16], "big")
    return Generator(Philox(key=key)).random(n).tolist()


def forced_char(model, pos):
    """The character a scripted mock forces at pos, or None where it is free."""
    sizes = [len(x) if kind == "forced" else x for kind, x in model.script]
    if model.script_cycle and sum(sizes):
        pos %= sum(sizes)
    for (kind, x), size in zip(model.script, sizes):
        if pos < size:
            return x[pos] if kind == "forced" else None
        pos -= size
    return None


def span(model, start, us):
    """A mock's characters at start, start + 1, ..., one per uniform."""
    alphabet = model.alphabet
    cum = list(accumulate([1.0 / len(alphabet)] * len(alphabet)))
    return "".join(
        forced_char(model, start + i) or alphabet[min(bisect_right(cum, u), len(alphabet) - 1)]
        for i, u in enumerate(us))


def watermark(params, keys, model, *, seed, suite):
    """pdws.watermark's text and block records for a mock model; EmbedFailure alike."""
    ell, beta, n_blocks = params.ell, params.beta, params.n_blocks
    text, records = "", []
    gadgets = params.n // params.gadget_chars
    for g in range(gadgets):
        msg = span(model, len(text), uniforms(seed, (g, 0), ell))
        text += msg
        digest = suite.h_sign(msg.encode())
        sigma = ecc.encode(crypto.sign(keys, digest), params)
        masked = (suite.h_mask(msg.encode(), params.lambda_c) ^ sigma).value
        kept, c_prev, planted = b"", 0, 0
        records.append(BlockRecord(1, 0, msg))
        for j in range(1, n_blocks + 1):
            target = masked >> (n_blocks - j) * beta & (1 << beta) - 1
            pad = -(j - 1) * beta % 8  # c_prev packed MSB-first, zero-padded to a byte
            packed = (c_prev << pad).to_bytes(((j - 1) * beta + pad) // 8, "big")
            best = None
            for attempt in range(1, params.a_max + 2):
                x = span(model, len(text), uniforms(seed, (g, j, attempt), ell))
                value = crypto.h_bit(kept + x.encode() + packed, beta, suite.bit_salt).value
                distance = bin(value ^ target).count("1")
                if best is None or distance < best[0]:
                    best = (distance, x, value)
                if not distance:
                    break
            distance, x, value = best
            planted += distance > 0
            if planted > params.gamma_max:
                raise EmbedFailure(g, j)
            records.append(BlockRecord(attempt, distance, x))
            text, kept, c_prev = text + x, kept + x.encode(), c_prev << beta | value
    tail = params.n - len(text)
    return text + span(model, len(text), uniforms(seed, (gadgets,), tail)), records
