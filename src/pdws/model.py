"""Auto-regressive model abstraction and desk-scale mock models.

A model is anything that maps (prompt, previously emitted text) to a next-
token distribution. Two deterministic mocks cover testing: a uniform
single-character model over a configurable alphabet, and a scripted model
that alternates forced strings (zero entropy) with free regions, which is
the instrument for exercising planted errors. A third kind adapts a remote
HTTP endpoint that serves top-k candidates with logprobs.

Mock tokens are single characters so block boundaries land exactly;
the embedder handles multi-character tokens from remote models.
"""

from __future__ import annotations

import math
import string
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import ParameterError
from .rng import SamplerState

DEFAULT_ALPHABET = string.ascii_letters + string.digits + " ."  # 64 characters

MODEL_KINDS = ("uniform-mock", "scripted-mock", "remote")

_CONFIG_FIELDS = (
    "kind",
    "seed",
    "alphabet",
    "endpoint",
    "script",
    "script_cycle",
    "top_k",
    "timeout_ms",
    "retries",
)


class TransportError(RuntimeError):
    """Remote endpoint unreachable or persistently failing."""


class ProtocolError(RuntimeError):
    """Remote endpoint answered with something other than the wire format."""


@dataclass(frozen=True)
class TokenDistribution:
    """Distribution over next tokens: parallel (token, probability) tuples."""

    tokens: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.tokens or len(self.tokens) != len(self.probs):
            raise ParameterError("tokens and probs must be non-empty and parallel")
        if any(not t for t in self.tokens):
            raise ParameterError("empty token string in distribution")
        # Written so that NaN fails both checks.
        if any(not 0 <= p <= 1 for p in self.probs):
            raise ParameterError("probabilities outside [0, 1]")
        if not abs(sum(self.probs) - 1.0) <= 1e-9:
            raise ParameterError("probabilities must sum to 1")

    def cumulative(self) -> tuple[float, ...]:
        cached = getattr(self, "_cum", None)
        if cached is None:
            total, out = 0.0, []
            for p in self.probs:
                total += p
                out.append(total)
            cached = tuple(out)
            object.__setattr__(self, "_cum", cached)
        return cached


def sample_token(dist: TokenDistribution, rng: SamplerState) -> str:
    """One multinomial draw."""
    cum = dist.cumulative()
    i = bisect_right(cum, rng.random())
    return dist.tokens[min(i, len(dist.tokens) - 1)]


@dataclass(frozen=True)
class ModelHandle:
    """Immutable description of a model; all sampling state lives outside.

    script segments are ("forced", text) or ("free", char_count); free
    positions draw uniformly from the alphabet. With script_cycle the
    schedule repeats; otherwise positions past its end are free.
    """

    kind: str
    seed: int = 0
    alphabet: str = DEFAULT_ALPHABET
    endpoint: Optional[str] = None
    script: tuple = ()
    script_cycle: bool = False
    top_k: int = 64
    timeout_ms: int = 2000
    retries: int = 2

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ParameterError("unknown model kind %r" % self.kind)
        if self.kind != "remote" and not self.alphabet:
            raise ParameterError("mock models need a non-empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ParameterError("alphabet has duplicate characters")
        if self.kind == "remote" and not self.endpoint:
            raise ParameterError("remote model needs an endpoint")
        for seg in self.script:
            if len(seg) != 2 or seg[0] not in ("forced", "free"):
                raise ParameterError("script segments are ('forced', text) or ('free', count)")

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "kind": self.kind,
            "seed": self.seed,
            "alphabet": self.alphabet,
            "endpoint": self.endpoint,
            "script": [list(seg) for seg in self.script],
            "script_cycle": self.script_cycle,
            "top_k": self.top_k,
            "timeout_ms": self.timeout_ms,
            "retries": self.retries,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelHandle":
        unknown = set(d) - set(_CONFIG_FIELDS) - {"format_version"}
        if unknown:
            raise ParameterError("unknown model config fields: %s" % ", ".join(sorted(unknown)))
        if "kind" not in d:
            raise ParameterError("model config needs a kind")
        kwargs = {k: d[k] for k in _CONFIG_FIELDS if k in d and d[k] is not None}
        if "script" in kwargs:
            kwargs["script"] = tuple((seg[0], seg[1]) for seg in kwargs["script"])
        return cls(**kwargs)


@lru_cache(maxsize=32)
def _uniform_dist(alphabet: str) -> TokenDistribution:
    p = 1.0 / len(alphabet)
    return TokenDistribution(tuple(alphabet), (p,) * len(alphabet))


@lru_cache(maxsize=32)
def _script_forced_map(script: tuple) -> tuple:
    """Per-position forced character, or None for free positions."""
    out: list[Optional[str]] = []
    for seg_kind, payload in script:
        if seg_kind == "forced":
            out.extend(payload)
        else:
            out.extend([None] * int(payload))
    return tuple(out)


def next_distribution(model: ModelHandle, prompt: str, context: str) -> TokenDistribution:
    """The model's next-token distribution given prompt and emitted text."""
    if model.kind == "uniform-mock":
        return _uniform_dist(model.alphabet)
    if model.kind == "scripted-mock":
        forced = _script_forced_map(model.script)
        pos = len(context)
        if model.script_cycle and forced:
            pos %= len(forced)
        if pos < len(forced) and forced[pos] is not None:
            return TokenDistribution((forced[pos],), (1.0,))
        return _uniform_dist(model.alphabet)
    return _remote_distribution(model, prompt, context)


def _remote_distribution(model: ModelHandle, prompt: str, context: str) -> TokenDistribution:
    import requests  # deferred: only the remote kind needs HTTP, and it is slow to import

    payload = {"prompt": prompt, "context": context, "top_k": model.top_k}
    last_exc: Optional[Exception] = None
    for _ in range(model.retries + 1):
        try:
            resp = requests.post(model.endpoint, json=payload, timeout=model.timeout_ms / 1000.0)
            resp.raise_for_status()
            body = resp.json()
            break
        except requests.exceptions.HTTPError as exc:
            raise ProtocolError("endpoint returned HTTP %s" % exc.response.status_code) from exc
        except ValueError as exc:
            raise ProtocolError("endpoint response is not JSON") from exc
        except requests.exceptions.RequestException as exc:
            last_exc = exc
    else:
        raise TransportError("endpoint unreachable after %d tries: %s" % (model.retries + 1, last_exc))
    try:
        candidates = body["candidates"]
        tokens = tuple(c["token"] for c in candidates)
        logprobs = [float(c["logprob"]) for c in candidates]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("malformed candidates payload: %s" % exc) from exc
    if not tokens or any(not t for t in tokens):
        raise ProtocolError("endpoint returned an empty candidate list or empty token")
    if any(math.isnan(lp) or lp == math.inf for lp in logprobs):
        raise ProtocolError("endpoint returned a NaN or +inf logprob")
    # renormalize the top-k slice
    peak = max(logprobs)
    if peak == -math.inf:
        raise ProtocolError("endpoint gave every candidate zero weight")
    weights = [math.exp(lp - peak) for lp in logprobs]
    total = sum(weights)
    return TokenDistribution(tokens, tuple(w / total for w in weights))


def sample_min_chars(
    model: ModelHandle, min_chars: int, prompt: str, context: str, rng: SamplerState
) -> str:
    """Sample whole tokens until at least min_chars characters accumulate."""
    parts: list[str] = []
    total = 0
    while total < min_chars:
        tok = sample_token(next_distribution(model, prompt, context), rng)
        parts.append(tok)
        total += len(tok)
        context += tok
    return "".join(parts)

