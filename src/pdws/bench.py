"""Cost model and wall-clock benchmark for embed and detect.

The dominant embedding cost is model sampling: each beta-bit chunk needs
2^beta block samples in expectation, so a lambda-bit payload costs about
2^beta * (lambda / beta) * ell characters drawn from the model. The
benchmark measures that directly, along with detection time and the
distribution of planted errors per run.
"""

from __future__ import annotations

import hashlib
import platform
import time
from collections import Counter
from typing import Sequence

from .core import FORMAT_VERSION, ParameterError, WatermarkParams, _require_int
from .crypto import KeyMaterial, OracleSuite
from .detector import detect
from .embedder import EmbedFailure, watermark
from .model import ModelHandle


def expected_chars(ell: int, beta: int, lambda_bits: int) -> int:
    """Expected characters sampled to embed lambda_bits: 2^beta blocks/chunk."""
    for name, value in (("ell", ell), ("beta", beta), ("lambda_bits", lambda_bits)):
        _require_int(name, value)
    if ell < 1 or beta < 1 or lambda_bits < 1:
        raise ParameterError("ell, beta and lambda_bits must be positive")
    if lambda_bits % beta != 0:
        raise ParameterError("beta must divide lambda_bits")
    return (2 ** beta) * (lambda_bits // beta) * ell


def _run_seed(seed: int, prompt_index: int, repeat: int) -> int:
    tag = "pdws-bench|%d|%d|%d" % (seed, prompt_index, repeat)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _timing(values: Sequence[float]) -> dict:
    """Mean and nearest-rank 95th percentile, both 0.0 for no values."""
    if not values:
        return {"mean": 0.0, "p95": 0.0}
    return {"mean": _mean(values), "p95": sorted(values)[(95 * len(values) + 99) // 100 - 1]}


def _run_once(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str,
    prompt_index: int,
    repeat: int,
    seed: int,
    suite: OracleSuite,
) -> dict:
    """Watermark one prompt on its derived seed, then time detect: one offset, the gadget at 0."""
    row = dict(
        prompt_index=prompt_index, repeat=repeat, seed=_run_seed(seed, prompt_index, repeat),
        failed=True, gen_seconds=0.0, detect_seconds=0.0, attempts=0, gamma_used=0, detected=False,
    )
    t0 = time.perf_counter()
    try:
        text, transcript = watermark(params, keys, model, prompt, seed=row["seed"], suite=suite)
    except EmbedFailure:
        return row
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = detect(keys, params, text, suite=suite)
    row.update(
        failed=False, gen_seconds=gen_s, detect_seconds=time.perf_counter() - t0,
        attempts=sum(b.attempts for b in transcript.blocks), gamma_used=transcript.gamma_used,
        detected=result.detected,
    )
    return row


def run_bench(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompts: Sequence[str],
    repeats: int = 3,
    *,
    seed: int = 0,
    suite: OracleSuite = OracleSuite(),
) -> dict:
    """Time watermark and detect over a prompt set; return the report.

    The report is a JSON-ready dict. rows holds one dict per (prompt,
    repeat): its derived seed, whether it failed, its timings, the
    transcript's summed block attempts, gamma_used and whether detect found
    the gadget. Every aggregate is computed from the rows. One warm-up runs
    the same watermark-plus-detect body on the first prompt and is
    discarded. Runs that end in EmbedFailure count only in failures; the
    timings, mean_chars, mean_attempts_per_block and gamma_histogram cover
    the successful runs (a failure aborts generation early, so its time
    would only flatter the numbers). mean_chars counts ell-char windows:
    each attempt draws one, and the tail past the last whole gadget is
    plain. mean_attempts_per_block averages over signature blocks only;
    message blocks always cost 1.
    """
    if not prompts:
        raise ParameterError("at least one prompt required")
    _require_int("repeats", repeats)
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")

    _run_once(params, keys, model, prompts[0], -1, 0, seed, suite)
    rows = [
        _run_once(params, keys, model, prompt, pi, r, seed, suite)
        for pi, prompt in enumerate(prompts)
        for r in range(repeats)
    ]
    ok = [row for row in rows if not row["failed"]]
    k_fit = params.n // params.gadget_chars
    tail = params.n - k_fit * params.gadget_chars
    gammas = Counter(row["gamma_used"] for row in ok)
    return {
        "format_version": FORMAT_VERSION,
        "params": params.to_json_dict(),
        "runs": len(ok),
        "failures": len(rows) - len(ok),
        "mean_chars": _mean([row["attempts"] * params.ell + tail for row in ok]),
        "mean_attempts_per_block": _mean(
            [(row["attempts"] - k_fit) / max(1, k_fit * params.n_blocks) for row in ok]
        ),
        "gen_seconds": _timing([row["gen_seconds"] for row in ok]),
        "detect_seconds": _timing([row["detect_seconds"] for row in ok]),
        "gamma_histogram": {str(k): v for k, v in sorted(gammas.items())},
        "host": {"platform": platform.platform(), "python": platform.python_version()},
        "rows": rows,
    }
