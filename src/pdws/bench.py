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
    """The runs of one benchmark; every aggregate is computed from its rows.

    Failed runs count only in failures: the timings, mean_chars, the
    attempt estimate and gamma_histogram cover the successful runs.
    """

    params: WatermarkParams
    rows: tuple[BenchRun, ...]

    @property
    def _ok(self) -> list[BenchRun]:
        return [run for run in self.rows if not run.failed]

    @property
    def runs(self) -> int:
        return len(self._ok)

    @property
    def failures(self) -> int:
        return len(self.rows) - self.runs

    @property
    def mean_chars(self) -> float:
        return _mean([float(run.chars_sampled) for run in self._ok])

    @property
    def mean_attempts_per_block(self) -> float:
        """Mean attempts over signature blocks only; message blocks always cost 1."""
        params = self.params
        k_fit = params.n // params.gadget_chars
        sig_blocks = max(1, k_fit * params.n_blocks)
        tail_chars = max(0, params.n - k_fit * params.gadget_chars)
        return _mean(
            [
                (run.chars_sampled - tail_chars - k_fit * params.ell)
                / params.ell
                / sig_blocks
                for run in self._ok
            ]
        )

    @property
    def gen_seconds_mean(self) -> float:
        return _mean([run.gen_seconds for run in self._ok])

    @property
    def gen_seconds_p95(self) -> float:
        return _p95([run.gen_seconds for run in self._ok])

    @property
    def detect_seconds_mean(self) -> float:
        return _mean([run.detect_seconds for run in self._ok])

    @property
    def detect_seconds_p95(self) -> float:
        return _p95([run.detect_seconds for run in self._ok])

    @property
    def gamma_histogram(self) -> dict[int, int]:
        """Successful runs per planted-error count."""
        histogram: dict[int, int] = {}
        for run in self._ok:
            histogram[run.gamma_used] = histogram.get(run.gamma_used, 0) + 1
        return histogram

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

    def rows_csv(self) -> str:
        """Per-run rows for plotting, one line per (prompt, repeat)."""
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(BenchRun)])
        writer.writeheader()
        for run in self.rows:
            writer.writerow(run.to_row())
        return buf.getvalue()


def _run_once(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompt: str,
    prompt_index: int,
    repeat: int,
    seed: int,
    suite: OracleSuite,
) -> BenchRun:
    """Watermark one prompt on its derived seed, then time a full-scan detect."""
    run_seed = _run_seed(seed, prompt_index, repeat)
    t0 = time.perf_counter()
    try:
        text, transcript = watermark(params, keys, model, prompt, seed=run_seed, suite=suite)
    except EmbedFailure:
        return BenchRun(prompt_index, repeat, run_seed, True, 0.0, 0.0, 0, 0, False)
    gen_s = time.perf_counter() - t0

    # every attempt consumed one ell-char block; the tail is plain
    chars = sum(b.attempts for b in transcript.blocks) * params.ell
    chars += max(0, params.n - len(transcript.blocks) * params.ell)

    t0 = time.perf_counter()
    result = detect(keys, params, text, suite=suite)
    det_s = time.perf_counter() - t0
    return BenchRun(
        prompt_index, repeat, run_seed, False, gen_s, det_s, chars,
        transcript.gamma_used, result.detected,
    )


def run_bench(
    params: WatermarkParams,
    keys: KeyMaterial,
    model: ModelHandle,
    prompts: Sequence[str],
    repeats: int = 3,
    *,
    seed: int = 0,
    suite: OracleSuite = OracleSuite(),
) -> BenchReport:
    """Time watermark and a full-scan detect over a prompt set.

    Each (prompt, repeat) gets a derived seed recorded in its row. One
    warm-up runs the same watermark-plus-detect body on the first prompt
    and is discarded. Runs that end in EmbedFailure are counted as
    failures and excluded from timing and the histogram (their time is
    censored: the failure aborts generation early, so it would only
    flatter the numbers).
    """
    if not prompts:
        raise ParameterError("at least one prompt required")
    if repeats < 1:
        raise ParameterError("repeats must be >= 1")

    _run_once(params, keys, model, prompts[0], -1, 0, seed, suite)
    runs = [
        _run_once(params, keys, model, prompt, pi, r, seed, suite)
        for pi, prompt in enumerate(prompts)
        for r in range(repeats)
    ]
    return BenchReport(params=params, rows=tuple(runs))
