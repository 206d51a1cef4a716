"""The decoder's acceptance region, against closed forms.

A scan decodes at every offset, and each word the decoder accepts costs a
signature verify, so how often it accepts is part of the scan's cost. Both
tests draw from seeds fixed before any run; a failure means the decoder
changed, not that the seed was unlucky.
"""

import math
import random

from pdws.ecc import rs_decode_bytes, rs_encode_bytes

# GF(256) over x^8+x^4+x^3+x^2+1 with alpha = 2: EXP[e] = alpha^e and LOG its
# inverse, built here rather than read from the decoder under test.
EXP, LOG = [], {}
_x = 1
for _e in range(255):
    EXP.append(_x)
    LOG[_x] = _e
    _x = (_x << 1) ^ (0x11D if _x & 0x80 else 0)


def syndromes2(word: bytes) -> tuple[int, int]:
    """(word(1), word(alpha)), word[0] the highest coefficient."""
    s0, s1 = 0, 0
    for c in word:
        s0 ^= c
        s1 = (EXP[(LOG[s1] + 1) % 255] if s1 else 0) ^ c
    return s0, s1


def accepts_nsym2(word: bytes) -> bool:
    """A codeword, or one error at a position the word has.

    One error of value e at the coefficient of x^p gives S0 = e and
    S1 = e * alpha^p, so p = log S1 - log S0 (mod 255), which must be < n.
    """
    s0, s1 = syndromes2(word)
    if not s0 and not s1:
        return True
    return bool(s0 and s1) and (LOG[s1] - LOG[s0]) % 255 < len(word)


def test_nsym2_accepts_exactly_the_words_within_one_symbol():
    rng = random.Random(2)
    outcomes = {True: 0, False: 0}
    for trial in range(20_000):
        n = rng.randint(3, 59)
        if trial % 2:
            word = bytearray(rng.randbytes(n))
        else:
            # A codeword with 0, 1 or 2 symbols changed, so both sides show.
            word = bytearray(rs_encode_bytes(rng.randbytes(n - 2), 2))
            for p in rng.sample(range(n), rng.randint(0, 2)):
                word[p] ^= rng.randrange(1, 256)
        accepted = rs_decode_bytes(bytes(word), 2) is not None
        assert accepted == accepts_nsym2(bytes(word)), (n, bytes(word).hex())
        outcomes[accepted] += 1
    assert min(outcomes.values()) > 5_000


def ball_volume(n: int, t: int) -> int:
    """Words within t byte symbols of a fixed n-byte word."""
    return sum(math.comb(n, i) * 255**i for i in range(t + 1))


def binomial_bounds(trials: int, p: float, tail: float) -> tuple[int, int]:
    """[lo, hi] with P(X < lo) <= tail / 2 and P(X > hi) <= tail / 2, X ~ Bin(trials, p)."""
    log_pmf = [
        math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
        + k * math.log(p) + (trials - k) * math.log1p(-p)
        for k in range(trials + 1)
    ]
    cdf, lo, hi = 0.0, 0, trials
    for k, lp in enumerate(log_pmf):
        if cdf <= tail / 2:
            lo = k
        cdf += math.exp(lp)
        if 1.0 - cdf <= tail / 2:
            hi = k
            break
    return lo, hi


def test_nsym4_accepts_random_words_at_the_ball_volume_rate():
    # A bounded-distance decoder accepts a word iff it lies within t = 2
    # symbols of a codeword; the 256^(n-4) balls are disjoint, so a uniform
    # word is accepted with probability V(n, 2) / 256^4 (0.01499 at n = 45).
    n, trials = 45, 40_000
    rng = random.Random(4)
    accepted = sum(rs_decode_bytes(rng.randbytes(n), 4) is not None for _ in range(trials))
    rate = ball_volume(n, 2) / 256**4
    lo, hi = binomial_bounds(trials, rate, 1e-4)
    assert lo <= accepted <= hi, (accepted, lo, hi, trials * rate)
