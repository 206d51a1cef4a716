"""Seedable counter-based sampling state.

Philox is a counter-based generator, so a state is fully determined by its
128-bit key, and independent streams come from independent keys. Child
states are forked by hashing the parent key together with integer labels;
the embedder forks once per (gadget, block, attempt), which makes every
candidate attempt reproducible and order-independent. A fork's n uniforms
come from one ``random(n)`` call; they are the values n scalar draws from
the same stream would give.

numpy is imported on the first draw, not with the package: detection never
samples, and the import is most of the cost of ``import pdws``. Generator
and Philox still resolve as module attributes, and each new generator looks
them up on the module, so a wrapper installed there is seen.
"""

from __future__ import annotations

import hashlib
import sys

_KEY_MASK = (1 << 128) - 1


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


class SamplerState:
    """A forkable stream of uniform variates backed by Philox."""

    __slots__ = ("seed", "_labels", "_gen")

    def __init__(self, seed: int, _labels: tuple[int, ...] = ()):
        if not 0 <= seed < 1 << 256:
            raise ValueError("seed must be in [0, 2^256)")
        self.seed = seed
        self._labels = _labels
        self._gen = None

    @property
    def generator(self):
        if self._gen is None:
            key = self.seed if not self._labels else _key_from_labels(self.seed, self._labels)
            module = sys.modules[__name__]
            self._gen = module.Generator(module.Philox(key=key & _KEY_MASK))
        return self._gen

    def fork(self, *labels: int) -> "SamplerState":
        """Independent child stream; equal (seed, labels) gives equal streams."""
        child = SamplerState.__new__(SamplerState)
        child.seed = self.seed
        child._labels = self._labels + labels
        child._gen = None
        return child

    def random(self, n: int) -> list[float]:
        """The stream's next n uniforms in [0, 1), from one draw call."""
        return self.generator.random(n).tolist()
