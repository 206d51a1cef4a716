"""In-memory tracer that wraps pdws layer functions from outside the package.

Each wrapped binding times its calls and the time its wrapped children
took; self time is the difference. Calls are also kept as spans (name,
start, end, parent span) and written out when the run ends, except the
bindings that run once per character or per hash (rng, next_distribution,
bit_value): those are only aggregated, which bounds memory on long runs.
Their time is still subtracted from the enclosing call's self time.

A binding missing from the program is skipped and listed in `missing`, so
a later refactor of pdws makes a per-layer count read zero instead of
stopping the benchmark.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_chars(counts, args, out):
    counts["model.sample_min_chars.chars"] += len(out)


def _count_bytes(counts, args, out):
    counts["crypto.bit_value.bytes"] += len(args[1])


def _count_ok(counts, args, out):
    counts["crypto.verify.ok"] += bool(out)


def _count_failed(counts, args, out):
    counts["ecc.decode.failed"] += out is None


def _count_block(counts, args, out):
    record = out[3]
    counts["embedder.blocks"] += 1
    counts["embedder.attempts"] += record.attempts
    counts["embedder.planted"] += record.planted_error


def layer_bindings(pdws):
    """(owner, attribute, span name, keep spans, counter) for every layer seam.

    Each function is wrapped where its callers look it up: the benchmark
    calls the package-level names, the embedder resolves sample_min_chars
    from its own module, and the model resolves its own copy.
    """
    from pdws import crypto, ecc, embedder, model, rng

    return [
        (pdws, "watermark", "embedder.watermark", True, None),
        (pdws, "tile_compress", "embedder.tile_compress", True, None),
        (embedder, "generate_message_signature_pair", "embedder.gadget", True, None),
        (embedder, "reject_sample_tokens", "embedder.block", True, _count_block),
        (embedder, "sample_min_chars", "model.sample_min_chars", True, _count_chars),
        (model, "sample_min_chars", "model.sample_min_chars", True, _count_chars),
        (model, "next_distribution", "model.next_distribution", False, None),
        (rng.SamplerState, "fork", "rng.fork", False, None),
        (rng.SamplerState, "random", "rng.random", False, None),
        (rng, "Philox", "rng.philox_init", False, None),
        (crypto.HashOracle, "bit_value", "crypto.bit_value", False, _count_bytes),
        (crypto.OracleSuite, "h_mask", "crypto.h_mask", True, None),
        (crypto.OracleSuite, "h_sign", "crypto.h_sign", True, None),
        (crypto, "sign", "crypto.sign", True, None),
        (crypto, "verify", "crypto.verify", True, _count_ok),
        (ecc, "encode", "ecc.encode", True, None),
        (ecc, "decode", "ecc.decode", True, _count_failed),
        (ecc, "symbol_distance", "ecc.symbol_distance", True, None),
        (pdws, "detect", "detector.detect", True, None),
        (pdws, "detect_all", "detector.detect_all", True, None),
    ]


class Tracer:
    """Call counts, self times, extra counters and spans of wrapped calls."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.missing: list[str] = []
        # One frame per active wrapped call: [child seconds, nearest span index]
        self._stack = [[0.0, -1]]
        self._patches: list = []

    def wrap(self, owner, attr, name, keep_span=True, counter=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        calls, self_s, counts, spans, stack = (
            self.calls, self.self_s, self.counts, self.spans, self._stack
        )

        def traced(*args, **kwargs):
            frame = [0.0, len(spans) if keep_span else stack[-1][1]]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stack[-1][0] += took
                calls[name] += 1
                self_s[name] += took - frame[0]
                if keep_span:
                    spans[frame[1]] = (name, start, end, stack[-1][1])
            if counter is not None:
                counter(counts, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextmanager
    def installed(self, bindings):
        for binding in bindings:
            self.wrap(*binding)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span name equal to or under prefix."""
        return sum(s for n, s in self.self_s.items() if n == prefix or n.startswith(prefix + "."))

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
