"""Cost model and wall-clock benchmark for embed and detect.

The dominant embedding cost is model sampling: each beta-bit chunk needs
2^beta block samples in expectation, so a lambda-bit payload costs about
2^beta * (lambda / beta) * ell characters drawn from the model. The
benchmark measures that directly, along with detection time and the
distribution of planted errors per run.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import time
from dataclasses import dataclass, fields
from typing import Sequence

from .core import FORMAT_VERSION, ParameterError, WatermarkParams
from .crypto import KeyMaterial, OracleSuite
from .detector import detect
from .embedder import EmbedFailure, watermark
from .model import ModelHandle


def expected_chars(ell: int, beta: int, lambda_bits: int) -> int:
    """Expected characters sampled to embed lambda_bits: 2^beta blocks/chunk."""
    if ell < 1 or beta < 1 or lambda_bits < 1:
        raise ParameterError("ell, beta and lambda_bits must be positive")
    if lambda_bits % beta != 0:
        raise ParameterError("beta must divide lambda_bits")
    return (2 ** beta) * (lambda_bits // beta) * ell


def _run_seed(seed: int, prompt_index: int, repeat: int) -> int:
    tag = "pdws-bench|%d|%d|%d" % (seed, prompt_index, repeat)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class BenchRun:
    """One (prompt, repeat) measurement."""

    prompt_index: int
    repeat: int
    seed: int
    failed: bool
    gen_seconds: float
    detect_seconds: float
    chars_sampled: int
    gamma_used: int
    detected: bool

    def to_row(self) -> dict:
        return {
            "prompt_index": self.prompt_index,
            "repeat": self.repeat,
            "seed": self.seed,
            "failed": int(self.failed),
            "gen_seconds": "%.6f" % self.gen_seconds,
            "detect_seconds": "%.6f" % self.detect_seconds,
            "chars_sampled": self.chars_sampled,
            "gamma_used": self.gamma_used,
            "detected": int(self.detected),
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0

def _p95(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    # nearest-rank percentile
    rank = max(0, min(len(ordered) - 1, int(0.95 * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class BenchReport:
    params: WatermarkParams
    runs: int
    failures: int
    mean_chars: float
    mean_attempts_per_block: float
    gen_seconds_mean: float
    gen_seconds_p95: float
    detect_seconds_mean: float
    detect_seconds_p95: float
    gamma_histogram: dict
    rows: tuple

    def __post_init__(self):
        if self.runs != sum(self.gamma_histogram.values()):
            raise ParameterError("gamma histogram does not account for every run")

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "params": self.params.to_json_dict(),
            "runs": self.runs,
            "failures": self.failures,
            "mean_chars": self.mean_chars,
            "mean_attempts_per_block": self.mean_attempts_per_block,
            "gen_seconds": {"mean": self.gen_seconds_mean, "p95": self.gen_seconds_p95},
            "detect_seconds": {
                "mean": self.detect_seconds_mean,
                "p95": self.detect_seconds_p95,
            },
            "gamma_histogram": {str(k): v for k, v in sorted(self.gamma_histogram.items())},
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def rows_csv(self) -> str:
        """Per-run rows for plotting, one line per (prompt, repeat)."""
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(BenchRun)])
        writer.writeheader()
        for run in self.rows:
            writer.writerow(run.to_row())
        return buf.getvalue()


def run_bench(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompts: Sequence[str],
    repeats: int = 3,
    *,
    seed: int = 0,
    suite: OracleSuite = OracleSuite(),
    warmup: int = 1,
) -> BenchReport:
    """Time watermark and a full-scan detect over a prompt set.

    Each (prompt, repeat) gets a derived seed recorded in its row. Warmup
    iterations run first and are discarded. Runs that end in EmbedFailure
    are counted as failures and excluded from timing and the histogram
    (their time is censored: the failure aborts generation early, so it
    would only flatter the numbers).
    """
    if not prompts:
        raise ParameterError("at least one prompt required")
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")

    for w in range(max(0, warmup)):
        try:
            watermark(params, keys, model, prompts[0],
                      seed=_run_seed(seed, -1, w), suite=suite)
        except EmbedFailure:
            pass

    runs: list[BenchRun] = []
    for pi, prompt in enumerate(prompts):
        for r in range(repeats):
            run_seed = _run_seed(seed, pi, r)
            t0 = time.perf_counter()
            try:
                text, transcript = watermark(
                    params, keys, model, prompt, seed=run_seed, suite=suite
                )
            except EmbedFailure:
                runs.append(
                    BenchRun(pi, r, run_seed, True, 0.0, 0.0, 0, 0, False)
                )
                continue
            gen_s = time.perf_counter() - t0

            # every attempt consumed one ell-char block; the tail is plain
            chars = sum(b.attempts for b in transcript.blocks) * params.ell
            chars += max(0, params.n - len(transcript.blocks) * params.ell)

            t0 = time.perf_counter()
            result = detect(keys, params, text, suite=suite)
            det_s = time.perf_counter() - t0
            runs.append(
                BenchRun(
                    pi, r, run_seed, False, gen_s, det_s, chars,
                    transcript.gamma_used, result.detected,
                )
            )

    ok = [run for run in runs if not run.failed]
    histogram: dict[int, int] = {}
    for run in ok:
        histogram[run.gamma_used] = histogram.get(run.gamma_used, 0) + 1

    # mean attempts over signature blocks only; message blocks always cost 1
    k_fit = params.n // params.gadget_chars
    sig_blocks = max(1, k_fit * params.n_blocks)
    tail_chars = max(0, params.n - k_fit * params.gadget_chars)
    attempts_mean = _mean(
        [
            (run.chars_sampled - tail_chars - k_fit * params.ell)
            / params.ell
            / sig_blocks
            for run in ok
        ]
    )

    return BenchReport(
        params=params,
        runs=len(ok),
        failures=len(runs) - len(ok),
        mean_chars=_mean([float(run.chars_sampled) for run in ok]),
        mean_attempts_per_block=attempts_mean,
        gen_seconds_mean=_mean([run.gen_seconds for run in ok]),
        gen_seconds_p95=_p95([run.gen_seconds for run in ok]),
        detect_seconds_mean=_mean([run.detect_seconds for run in ok]),
        detect_seconds_p95=_p95([run.detect_seconds for run in ok]),
        gamma_histogram=histogram,
        rows=tuple(runs),
    )
