"""Auto-regressive model abstraction and desk-scale mock models.

A model is anything that maps (prompt, previously emitted text) to a next-
token distribution. Two deterministic mocks cover testing: a uniform
single-character model over a configurable alphabet, and a scripted model
that alternates forced strings (zero entropy) with free regions, which is
the instrument for exercising planted errors. A third kind adapts a remote
HTTP endpoint that serves top-k candidates with logprobs.

Mock tokens are single characters so block boundaries land exactly;
the embedder handles multi-character tokens from remote models.

The remote adapter speaks HTTP/1.0 over a socket, imported on the first
request: per request one connection, one write and a read to EOF; no proxy
from the environment, no redirects, and for https the system CA store in
one SSL context per process. A 5xx reply, no status line or a body short
of its Content-Length is retried like a failed connection; any other
status outside 2xx, or Transfer-Encoding, is a protocol error. A span of n
characters is sampled with n uniforms drawn in one call, which is enough
because every token has at least one character.

The mocks never look at the context except for the position, so their spans
take one vectorised step: every position's token is found at once from its
uniform and mapped to its code point through numpy arrays cached per
alphabet beside its distribution, a scripted model's forced positions then
overwrite theirs with their own code points, and the span is decoded
straight from the code points' buffer, with no copy. A handle compiles its
script once, when it is made, into its length and its forced positions in
increasing order with their characters; a span bisects them in each script
period it touches. A remote model's distribution depends on the context,
and its tokens may be longer than one character, so its spans sample token
by token through next_distribution. Spans that share a dists map (the
attempts of one embedder block) ask the endpoint once per distinct context;
this assumes the endpoint answers a context the same way each time.
"""

from __future__ import annotations

import json
import math
import re
import string
from bisect import bisect_left, bisect_right
from codecs import utf_32_le_decode
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate
from threading import TIMEOUT_MAX  # seconds; a longer socket timeout overflows time_t
from typing import Iterator, Optional
from urllib.parse import urlsplit

import numpy

from .core import ParameterError, ProtocolError, TransportError, _require_ints
from .core import json_fields, parse_json
from .rng import SamplerState

DEFAULT_ALPHABET = string.ascii_letters + string.digits + " ."  # 64 characters
_SURROGATE = re.compile("[\ud800-\udfff]")  # no UTF-8 form, so the hash chain cannot read one
_STATUS_LINE = re.compile(rb"HTTP/\S*[ \t]+([1-9][0-9][0-9])(?:[ \t].*)?")  # http.client's form

# The fields each kind reads; any other field must keep its default.
_READS = {
    "uniform-mock": ("alphabet",),
    "scripted-mock": ("alphabet", "script", "script_cycle"),
    "remote": ("endpoint", "top_k", "timeout_ms", "retries"),
}


@dataclass(frozen=True)
class TokenDistribution:
    """Distribution over next tokens: parallel (token, probability) tuples."""

    tokens: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.tokens or len(self.tokens) != len(self.probs):
            raise ParameterError("tokens and probs must be non-empty and parallel")
        if not all(isinstance(t, str) and t and not _SURROGATE.search(t) for t in self.tokens):
            raise ParameterError("every token must be a non-empty string UTF-8 can encode")
        # Written so that NaN fails both checks.
        if any(not 0 <= p <= 1 for p in self.probs):
            raise ParameterError("probabilities outside [0, 1]")
        cum = tuple(accumulate(self.probs))  # left-to-right running sums
        if not abs(cum[-1] - 1.0) <= 1e-9:
            raise ParameterError("probabilities must sum to 1")
        object.__setattr__(self, "_cum", cum)


def sample_token(dist: TokenDistribution, u: float) -> str:
    """The token whose cumulative interval holds the uniform u in [0, 1)."""
    i = bisect_right(dist._cum, u)
    return dist.tokens[min(i, len(dist.tokens) - 1)]


@dataclass(frozen=True)
class ModelHandle:
    """Immutable description of a model; all sampling state lives outside.

    script segments are ("forced", text) or ("free", char_count); free
    positions draw uniformly from the alphabet. With script_cycle the
    schedule repeats; otherwise positions past its end are free. A field
    the kind never reads (a script on a remote model, top_k on a mock) must
    keep its default. A model config file holds these fields and no others,
    kind required; the sampling seed is an argument of watermark, not part
    of the model.
    """

    kind: str
    alphabet: str = DEFAULT_ALPHABET
    endpoint: Optional[str] = None
    script: tuple = ()
    script_cycle: bool = False
    top_k: int = 64
    timeout_ms: int = 2000
    retries: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _READS:
            raise ParameterError("unknown model kind %r" % self.kind)
        reads = ("kind",) + _READS[self.kind]
        unread = [
            f.name for f in fields(self)
            if f.name not in reads and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ParameterError("a %s model does not read %s" % (self.kind, ", ".join(unread)))
        if not isinstance(self.alphabet, str) or not self.alphabet:
            raise ParameterError("alphabet must be a non-empty string")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ParameterError("alphabet has duplicate characters")
        if self.kind == "remote":
            if not self.endpoint or not isinstance(self.endpoint, str):
                raise ParameterError("remote model needs an endpoint URL")
            _split_endpoint(self.endpoint)
        positions, chars, length = [], "", 0  # the forced positions, increasing, and their chars
        for seg in self.script:
            if len(seg) != 2 or (seg[0], type(seg[1])) not in (("forced", str), ("free", int)):
                raise ParameterError("script segments are ('forced', text) or ('free', count)")
            if seg[0] == "free" and seg[1] < 0:
                raise ParameterError("a free segment's count must be non-negative")
            if seg[0] == "forced":
                positions += range(length, length + len(seg[1]))
                chars += seg[1]
            length += seg[1] if seg[0] == "free" else len(seg[1])
        if _SURROGATE.search(self.alphabet + chars):
            raise ParameterError("alphabet or forced text holds a lone surrogate (not UTF-8)")
        object.__setattr__(self, "_forced", (positions, chars, length))
        if not isinstance(self.script_cycle, bool):
            raise ParameterError("script_cycle must be true or false")
        _require_ints(self, "top_k", "timeout_ms", "retries")
        if self.top_k < 1 or not 1 <= self.timeout_ms <= 1000 * TIMEOUT_MAX or self.retries < 0:
            raise ParameterError(
                "need top_k >= 1, 1 <= timeout_ms <= %d, retries >= 0" % (1000 * TIMEOUT_MAX))

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelHandle":
        names = [f.name for f in fields(cls)]
        kwargs = dict(json_fields(d, ["kind"], names + ["format_version"], "model config"))
        kwargs.pop("format_version", None)
        try:
            if "script" in kwargs:
                kwargs["script"] = tuple(map(tuple, kwargs["script"]))
            return cls(**kwargs)
        except TypeError as exc:
            raise ParameterError("malformed model config: %s" % exc) from exc


@lru_cache(maxsize=32)
def _uniform(alphabet: str):
    """The uniform distribution, its running sums without the last, and the code points.

    Counting the inner bounds at or below u gives sample_token's
    bisect_right over all the sums, clamped to the last index, even when
    the sums end just below 1.0. The code points are little-endian 32-bit,
    so a span's array of them is its UTF-32-LE encoding.
    """
    p = 1.0 / len(alphabet)
    dist = TokenDistribution(tuple(alphabet), (p,) * len(alphabet))
    return dist, numpy.array(dist._cum[:-1]), numpy.array(list(map(ord, alphabet)), dtype="<u4")


def next_distribution(model: ModelHandle, prompt: str, context: str) -> TokenDistribution:
    """The model's next-token distribution given prompt and emitted text."""
    if model.kind == "remote":
        return _remote_distribution(model, prompt, context)
    for _, char in _forced_positions(model, len(context), 1):  # none for a uniform mock
        return TokenDistribution((char,), (1.0,))
    return _uniform(model.alphabet)[0]


@lru_cache(maxsize=32)
def _split_endpoint(endpoint: str) -> tuple[bool, str, int, bytes]:
    """(https?, host, port, request head up to its Content-Length value); ParameterError if bad."""
    try:
        parts = urlsplit(endpoint)
        port = parts.port
        name = parts.hostname or ""
        host = name.encode("ascii") if name.isascii() else name.encode("idna")
    except ValueError as exc:  # UnicodeError included: a name IDNA cannot encode
        raise ParameterError("bad model endpoint %r: %s" % (endpoint, exc)) from None
    if parts.scheme not in ("http", "https") or not name or port == 0:
        raise ParameterError(
            "model endpoint must be an http or https URL with a host, got %r" % endpoint
        )
    https = parts.scheme == "https"
    path = (parts.path or "/") + ("?" + parts.query if parts.query else "")
    if any(not "!" <= ch <= "~" for ch in path):
        raise ParameterError("model endpoint path must be percent-encoded ASCII, got %r" % endpoint)
    default = 443 if https else 80
    host = b"[%s]" % host if b":" in host else host  # an IPv6 literal
    host += b":%d" % port if port not in (None, default) else b""
    head = (b"POST %s HTTP/1.0\r\nHost: %s\r\nAccept-Encoding: identity\r\nConnection: close\r\n"
            b"Content-Type: application/json\r\nContent-Length: " % (path.encode(), host))
    return https, name, port or default, head


@lru_cache(maxsize=None)
def _tls_context():
    """The client context checking the system CA store, built once: building reads the store."""
    import ssl

    return ssl.create_default_context()


def _parse_reply(reply: bytes) -> tuple[int, bytes]:
    """Status and body of a reply read to EOF; ConnectionError if no status line or cut short."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *lines = head.split(b"\r\n")
    status = _STATUS_LINE.fullmatch(status_line)
    if status is None:
        raise ConnectionError("reply has no HTTP status line")
    headers = {k.strip().lower(): v.strip() for k, _, v in (ln.partition(b":") for ln in lines)}
    if b"transfer-encoding" in headers:
        raise ProtocolError("endpoint sent Transfer-Encoding, which HTTP/1.0 forbids")
    length = headers.get(b"content-length", b"")
    length = int(length) if length.isdigit() else len(body)
    if len(body) < length:
        raise ConnectionError("reply body is shorter than its Content-Length")
    return int(status[1]), body[:length]


def _remote_distribution(model: ModelHandle, prompt: str, context: str) -> TokenDistribution:
    import socket  # deferred: only the remote kind opens sockets

    https, host, port, head = _split_endpoint(model.endpoint)
    data = json.dumps({"prompt": prompt, "context": context, "top_k": model.top_k}).encode()
    request = b"%s%d\r\n\r\n%s" % (head, len(data), data)
    last_failure = ""
    for _ in range(model.retries + 1):
        chunks = []
        try:  # one write, then the reply to EOF
            with socket.create_connection((host, port), model.timeout_ms / 1000.0) as sock:
                conn = _tls_context().wrap_socket(sock, server_hostname=host) if https else sock
                with conn:
                    conn.sendall(request)
                    while chunk := conn.recv(65536):
                        chunks.append(chunk)
            status, raw = _parse_reply(b"".join(chunks))
        except OSError as exc:
            last_failure = str(exc) or type(exc).__name__
            continue
        if 200 <= status < 300:
            break
        if status < 500:
            raise ProtocolError("endpoint returned HTTP %d" % status)
        last_failure = "HTTP %d" % status
    else:
        raise TransportError(
            "endpoint unreachable after %d tries: %s" % (model.retries + 1, last_failure)
        )
    try:
        body = parse_json(raw, "endpoint response")
    except ParameterError as exc:
        raise ProtocolError("endpoint response is not JSON, or nests too deeply") from exc
    try:
        candidates = body["candidates"]
        tokens = tuple(c["token"] for c in candidates)
        logprobs = [c["logprob"] for c in candidates]
        if not all(type(lp) in (int, float) for lp in logprobs):
            raise TypeError("logprob is not a number")
        # Renormalize the top-k slice; NaN, +inf or all -inf logprobs give NaN probs.
        peak = max(logprobs)
        weights = [math.exp(lp - peak) for lp in logprobs]
        total = sum(weights)
        return TokenDistribution(tokens, tuple(w / total for w in weights))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ProtocolError("malformed candidates payload: %s" % exc) from exc


def sample_min_chars(
    model: ModelHandle, min_chars: int, prompt: str, context: str, rng: SamplerState,
    dists: Optional[dict[str, TokenDistribution]] = None,
) -> str:
    """Sample whole tokens until at least min_chars characters accumulate.

    rng is a fork drawn by this call only: a state is a value, so its first
    min_chars uniforms are drawn at once, and those a multi-character token
    leaves over are discarded rather than kept for a later call. dists maps
    a context to its distribution: a remote model is asked only for a
    context not found there, and the answer is stored, so calls sharing one
    dict ask once per distinct context. The caller owns it and bounds its
    life; without it every context is asked for.
    """
    if model.kind != "remote":
        return _mock_span(model, len(context), rng.random(min_chars))
    if dists is None:
        dists = {}  # a call's own contexts grow with each token, so none repeats
    parts: list[str] = []
    total = 0
    for u in rng.random(min_chars).tolist():
        dist = dists.get(context)
        if dist is None:
            dist = dists[context] = next_distribution(model, prompt, context)
        tok = sample_token(dist, u)
        parts.append(tok)
        total += len(tok)
        if total >= min_chars:
            break
        context += tok
    return "".join(parts)


def _mock_span(model: ModelHandle, start: int, us) -> str:
    """A mock's characters at positions start, start + 1, ..., one per uniform.

    Equal to sample_token(next_distribution(...), u) at each position.
    """
    _, bounds, code_points = _uniform(model.alphabet)
    points = code_points[bounds.searchsorted(us, "right")]
    if model.script:
        for i, char in _forced_positions(model, start, len(points)):
            points[i] = ord(char)
    return utf_32_le_decode(points)[0]


def _forced_positions(model: ModelHandle, start: int, count: int) -> Iterator[tuple[int, str]]:
    """(i, char) for each forced position start + i of a scripted mock, i < count."""
    positions, chars, length = model._forced
    if not model.script_cycle or not length:
        count = min(count, length - start)  # no position past the script's end is forced
    if count > 0:  # only when the script has a length, which the period needs
        for shift in range(-(start % length), count, length):  # each period's offset from start
            for k in range(bisect_left(positions, -shift), bisect_left(positions, count - shift)):
                yield shift + positions[k], chars[k]
