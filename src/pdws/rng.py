"""Seedable counter-based sampling state.

Philox is a counter-based generator, so a stream is fully determined by its
128-bit key, and independent streams come from independent keys. A
``SamplerState`` is an immutable value: the running SHA-256 state of
``b"pdws-rng|"``, the seed as 32 bytes and each label forked in so far as 8
bytes, all big-endian. ``fork`` copies that state and feeds it the new
label; ``random(n)`` keys Philox with the first 16 bytes of the digest and
returns the stream's first n uniforms as numpy's float64 array, as drawn:
the values n scalar draws would give.
Drawing reads the state and never moves it, so the same state always gives
the same values. The embedder forks once per (gadget, block, attempt) and
draws each fork once, which makes every candidate attempt reproducible and
order-independent.

Building a Philox costs several times more than a short draw, so each
thread keeps one generator and ``_rekey`` resets it to the start of a key's
stream before every draw: counter 0, the key's two 64-bit words, and an
empty output buffer, which is exactly the state ``Philox(key=key)`` starts
in. The thread builds that state dict once, beside its generator, and a
draw rewrites only its key. ``_rekey`` is looked up on the module at every
draw, and ``Philox`` when a thread builds its generator, so a wrapper
installed on either (as a profiler does) sees every stream or every build.
"""

from __future__ import annotations

import hashlib
import threading

from numpy.random import Generator, Philox

from .core import ParameterError, _require_int

_WORD_MASK = (1 << 64) - 1

# One generator and its state dict per thread, because a draw re-keys both in place.
_local = threading.local()


def _rekey(key: int):
    """This thread's generator, reset to the first value of Philox(key=key)'s stream."""
    try:
        gen, state = _local.gen, _local.state
    except AttributeError:
        gen = _local.gen = Generator(Philox(key=0))
        state = _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state["state"]["key"] = (key & _WORD_MASK, key >> 64)
    gen.bit_generator.state = state
    return gen


class SamplerState:
    """A forkable stream of uniform variates backed by Philox; a value, never mutated."""

    __slots__ = ("_hash",)

    def __init__(self, seed: int):
        _require_int("seed", seed)
        if not 0 <= seed < 1 << 256:
            raise ParameterError("seed must be in [0, 2^256)")
        self._hash = hashlib.sha256(b"pdws-rng|" + seed.to_bytes(32, "big"))

    def fork(self, label: int) -> "SamplerState":
        """Independent child stream; equal (seed, labels forked in) gives equal streams."""
        h = self._hash.copy()
        h.update(label.to_bytes(8, "big"))
        child = SamplerState.__new__(SamplerState)
        child._hash = h
        return child

    def random(self, n: int):
        """The first n uniforms in [0, 1) of this state's stream, as one float64 array.

        The state does not move: every call starts the stream afresh, so a
        fork is drawn once, with n as large as its caller will need.
        """
        key = int.from_bytes(self._hash.digest()[:16], "big")
        return _rekey(key).random(n)
