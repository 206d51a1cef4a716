"""Seedable counter-based sampling state.

Philox is a counter-based generator, so a state is fully determined by its
128-bit key, and independent streams come from independent keys. Child
states are forked by hashing the parent key together with integer labels;
the embedder forks once per (gadget, block, attempt), which makes every
candidate attempt reproducible and order-independent. A fork's n uniforms
come from one ``random(n)`` call; they are the values n scalar draws from
the same stream would give.

Building a Philox costs several times more than a short draw, so each
thread keeps one generator and ``_rekey`` resets it to the start of a key's
stream before every draw: counter 0, the key's two 64-bit words, and an
empty output buffer, which is exactly the state ``Philox(key=key)`` starts
in. ``_rekey`` is looked up on the module at every draw, so a wrapper
installed there (as a profiler does) sees every stream.

numpy is imported on the first draw, not with the package: detection never
samples, and the import is most of the cost of ``import pdws``. Generator
and Philox resolve as module attributes on first use.
"""

from __future__ import annotations

import hashlib
import sys
import threading

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1

# One generator per thread, because a draw re-keys it in place.
_local = threading.local()


def __getattr__(name: str):
    if name in ("Generator", "Philox"):
        import numpy.random

        value = getattr(numpy.random, name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _key_from_labels(root: int, labels: tuple[int, ...]) -> int:
    payload = root.to_bytes(32, "big", signed=False)
    for lab in labels:
        payload += lab.to_bytes(8, "big", signed=False)
    digest = hashlib.sha256(b"pdws-rng|" + payload).digest()
    return int.from_bytes(digest[:16], "big")


def _rekey(key: int):
    """This thread's generator, reset to the first value of Philox(key=key)'s stream."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        module = sys.modules[__name__]
        gen = _local.gen = module.Generator(module.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key & _WORD_MASK, key >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class SamplerState:
    """A forkable stream of uniform variates backed by Philox."""

    __slots__ = ("seed", "_labels", "_drawn")

    def __init__(self, seed: int, _labels: tuple[int, ...] = ()):
        if not 0 <= seed < 1 << 256:
            raise ValueError("seed must be in [0, 2^256)")
        self.seed = seed
        self._labels = _labels
        self._drawn = 0

    def fork(self, *labels: int) -> "SamplerState":
        """Independent child stream; equal (seed, labels) gives equal streams."""
        child = SamplerState.__new__(SamplerState)
        child.seed = self.seed
        child._labels = self._labels + labels
        child._drawn = 0
        return child

    def random(self, n: int) -> list[float]:
        """The stream's next n uniforms in [0, 1), from one draw call.

        A later call continues the stream: it redraws the values already
        taken and drops them.
        """
        key = self.seed if not self._labels else _key_from_labels(self.seed, self._labels)
        drawn = self._drawn
        out = _rekey(key & _KEY_MASK).random(drawn + n)[drawn:].tolist()
        self._drawn = drawn + n
        return out
