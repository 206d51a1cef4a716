"""A fixed reference task that tracks the machine's current speed.

On a shared virtual machine the CPU speed can drift by up to 1.8x within a
minute (seen on a 2-vCPU Xeon VM), and all code slows alike. The benchmark
therefore also times, beside every call, a fixed task that does the kinds
of work pdws does (Philox stream set-up and draws, string building,
SHA-256, big-integer modular exponentiation) but runs none of its code.
A call's scaled time is its wall time on a machine where this task takes
REFERENCE_S, so a change to pdws moves it while a change of machine speed
does not.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

from numpy.random import Generator, Philox

REFERENCE_S = 0.0005
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ."
# A 1024-bit odd modulus, the size the schnorr-p1024 scheme verifies with.
_MODULUS = (1 << 1023) + 1155


def reference_seconds() -> float:
    """Best of two runs of the reference task, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc = pow(3, (1 << 40) + 11, _MODULUS) & 255
        for key in range(16):
            gen = Generator(Philox(key=key))
            text = "".join(_ALPHABET[int(gen.random() * 64)] for _ in range(16))
            acc ^= hashlib.sha256(text.encode() * 4).digest()[0]
        best = min(best, perf_counter() - start)
    return best
