#!/usr/bin/env python3
"""Two statistical sanity checks.

First: accepted blocks keep the model's distribution. On a 4-char alphabet
with ell=4 every block is one of 256 equally likely strings; rejection
sampling selects among them by a salted hash, so the accepted ones should
still look uniform. Second: the bit oracle itself is balanced across salts.
"""

import numpy as np
from scipy import stats

from pdws import ModelHandle, OracleSuite, WatermarkParams, keygen, watermark
from pdws.crypto import h_bit

params = WatermarkParams(
    ell=4, beta=1, gamma_max=2, a_max=64, n=1444,
    lambda_sig=328, lambda_c=360, alpha=8,
)
model = ModelHandle(kind="uniform-mock", alphabet="ACGT")
index = {c: i for i, c in enumerate("ACGT")}

counts = np.zeros(256, dtype=np.int64)
for run in range(30):
    keys = keygen(b"distortion-%d" % run)
    suite = OracleSuite(b"s%d" % run, b"m%d" % run, b"b%d" % run)
    _, tr = watermark(params, keys, model, "", seed=run, suite=suite)
    for block in tr.blocks[1:]:
        if not block.planted_error:
            cell = 0
            for ch in block.text:
                cell = cell * 4 + index[ch]
            counts[cell] += 1

chi2, p = stats.chisquare(counts)
print("accepted blocks: %d over 256 cells" % counts.sum())
print("chi-square %.1f (dof 255), p = %.4f  -> uniform looks fine at p > 0.001" % (chi2, p))

# bit-oracle balance: over the 256 single-byte inputs, the fraction of ones
# should sit near 1/2 for almost every salt
deviations = []
for k in range(300):
    ones = sum(h_bit(bytes([v]), 1, b"salt-%d" % k).value for v in range(256))
    deviations.append(abs(ones / 256 - 0.5))
deviations = np.asarray(deviations)
print(
    "bit oracle over 300 salts: mean |Pr[h=1]-1/2| = %.4f, max = %.4f"
    % (deviations.mean(), deviations.max())
)
print("salts past 0.0884:", int((deviations >= 0.0884).sum()))
