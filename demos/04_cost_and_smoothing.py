#!/usr/bin/env python3
"""Sampling cost tracks 2^beta * (lambda_c/beta) * ell, and the planted-error
budget smooths runtime when some blocks have no entropy to work with."""

import dataclasses
import time

from pdws import EmbedFailure, ModelHandle, OracleSuite, WatermarkParams, keygen, watermark
from pdws.bench import expected_chars, run_bench

keys = keygen(b"demo-bench")
suite = OracleSuite(b"demo-sign", b"demo-mask", b"demo-bit")
model = ModelHandle(kind="uniform-mock")

# measured characters per run vs the closed-form cost model
for ell, beta, lam in ((16, 1, 360), (16, 2, 360), (32, 2, 360)):
    params = WatermarkParams(
        ell=ell, beta=beta, a_max=64, n=ell * (1 + lam // beta),
        lambda_c=lam, alpha=6 * ell,
    )
    report = run_bench(params, keys, model, ["p"], repeats=5, seed=1, suite=suite)
    predicted = expected_chars(ell, beta, lam) + ell
    print(
        "ell=%2d beta=%d: measured %8.0f chars, model %8d, attempts/block %.2f"
        % (ell, beta, report["mean_chars"], predicted, report["mean_attempts_per_block"])
    )

# now a model that forces two whole blocks per gadget. with an error budget
# the embedder plants the mismatch and moves on; without one it burns the
# entire attempt cap and fails.
base = WatermarkParams(a_max=64)
segments = []
for j in range(1 + base.n_blocks):
    segments.append(("forced", "Q" * base.ell) if j in (1, 2) else ("free", base.ell))
script = ModelHandle(kind="scripted-mock", script=tuple(segments), script_cycle=True)


def arm(params, label):
    times, fails = [], 0
    for seed in range(30):
        t0 = time.perf_counter()
        try:
            watermark(params, keys, script, "", seed=seed, suite=suite)
        except EmbedFailure:
            fails += 1
        times.append(time.perf_counter() - t0)
    times.sort()
    print(
        "%s: p50 %.4fs  p95 %.4fs  failures %d/30"
        % (label, times[14], times[28], fails)
    )


arm(base, "gamma_max=2, a_max=64  ")
hard = dataclasses.replace(base, gamma_max=0, lambda_c=328, n=2640, a_max=4096)
arm(hard, "gamma_max=0, a_max=4096")
