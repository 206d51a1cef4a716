import contextlib
import datetime
import json
import math
import os
import socket
import ssl
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pdws
from pdws import WatermarkParams, keygen, watermark
from pdws import model as model_module
from pdws.core import ParameterError
from pdws.model import (
    DEFAULT_ALPHABET,
    ModelHandle,
    ProtocolError,
    TokenDistribution,
    TransportError,
    next_distribution,
    sample_min_chars,
    sample_token,
)
from pdws.rng import SamplerState


# Routes serving two candidates with these logprobs; none may reach sampling.
_BAD_LOGPROBS = {
    "/nan-logprob": [math.nan, 0.0],
    "/inf-logprob": [math.inf, 0.0],
    "/zero-weight": [-math.inf, -math.inf],
    "/text-logprob": ["high", 0.0],
    # JSON strings and booleans are not numbers, even where float() reads them.
    "/numeric-string-logprob": ["0.5", 0.0],
    "/bool-logprob": [True, 0.0],
}

# Routes serving this token beside a good one; none is a string UTF-8 can
# encode (JSON can spell a lone surrogate).
_BAD_TOKENS = {
    "/int-token": 5,
    "/list-token": ["a"],
    "/bool-token": True,
    "/null-token": None,
    "/surrogate-token": "a\ud800",
}


# Routes that always answer with this HTTP error status.
_ERROR_STATUS = {"/status-400": 400, "/status-500": 500}


class _StubHandler(BaseHTTPRequestHandler):
    """Serves multi-character candidates; other routes exercise failures.

    The server counts requests per path in server.hits.
    """

    def do_POST(self):
        self.server.hits[self.path] += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if self.path in _ERROR_STATUS:
            self.send_error(_ERROR_STATUS[self.path])
            return
        if self.path == "/flaky-503" and self.server.hits[self.path] == 1:
            self.send_error(503)
            return
        if self.path == "/redirect":
            self.send_response(302)
            self.send_header("Location", "/ok")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/bad-json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"this is not json")
            return
        if self.path == "/bad-shape":
            payload = {"tokens": ["oops"]}
        elif self.path in _BAD_LOGPROBS:
            payload = {
                "candidates": [
                    {"token": t, "logprob": lp}
                    for t, lp in zip("ab", _BAD_LOGPROBS[self.path])
                ]
            }
        elif self.path in _BAD_TOKENS:
            payload = {
                "candidates": [
                    {"token": _BAD_TOKENS[self.path], "logprob": 0.0},
                    {"token": "b", "logprob": 0.0},
                ]
            }
        else:
            payload = {
                "candidates": [
                    {"token": "ab", "logprob": math.log(0.4)},
                    {"token": "c", "logprob": math.log(0.3)},
                    {"token": "def", "logprob": math.log(0.2)},
                    {"token": "gh", "logprob": math.log(0.1)},
                ][: body.get("top_k", 64)]
            }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.hits = Counter()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def stub_server(stub):
    return "http://127.0.0.1:%d" % stub.server_port


# A two-candidate answer, as one HTTP/1.0 reply.
_OK_BODY = json.dumps({"candidates": [
    {"token": "ab", "logprob": math.log(0.4)}, {"token": "c", "logprob": math.log(0.6)}]}).encode()
_OK_REPLY = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_OK_BODY), _OK_BODY)


def _read_request(conn):
    """One request's bytes: the head, then as many body bytes as its Content-Length says."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(int(line.split(b":")[1]) for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length:"))
    while len(body) < length:
        body += conn.recv(4096)
    return data


@contextlib.contextmanager
def raw_endpoint(reply, tls=None):
    """A loopback socket endpoint on a thread; yields (its URL, the requests it read).

    Each connection gets reply, a list of byte strings each sent by its own
    write, and is closed. With an ssl server context as tls, the endpoint
    speaks https, and a connection whose handshake fails is counted as the
    request None.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    requests = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(10)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    sock = tls.wrap_socket(conn, server_side=True) if tls else conn
                    requests.append(_read_request(sock))
                    for part in reply:
                        sock.sendall(part)
                except OSError:
                    requests.append(None)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    scheme = "https" if tls else "http"
    try:
        yield "%s://127.0.0.1:%d" % (scheme, listener.getsockname()[1]), requests
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def _self_signed_tls(tmp_path):
    """A server context for 127.0.0.1 whose certificate signs itself."""
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(key.public_key()).serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        .sign(key, hashes.SHA256())
    )
    pem = tmp_path / "self-signed.pem"
    pem.write_bytes(
        cert.public_bytes(serialization.Encoding.PEM)
        + key.private_bytes(serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                            serialization.NoEncryption())
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(pem)
    return context


class TestTokenDistribution:
    def test_rejects_malformed(self):
        with pytest.raises(ParameterError):
            TokenDistribution((), ())
        with pytest.raises(ParameterError):
            TokenDistribution(("a",), (0.5,))
        with pytest.raises(ParameterError):
            TokenDistribution(("a", "b"), (0.7, 0.4))
        with pytest.raises(ParameterError):
            TokenDistribution(("a", ""), (0.5, 0.5))
        with pytest.raises(ParameterError):
            TokenDistribution(("a", "b"), (1.2, -0.2))
        with pytest.raises(ParameterError):
            TokenDistribution(("a", "b"), (math.nan, math.nan))
        with pytest.raises(ParameterError):
            TokenDistribution(("a", "b"), (math.nan, 1.0))
        with pytest.raises(ParameterError):
            TokenDistribution((5,), (1.0,))
        # A lone surrogate has no UTF-8 form, so the hash chain could not read it.
        with pytest.raises(ParameterError, match="UTF-8"):
            TokenDistribution(("a", "b\ud800"), (0.5, 0.5))

    def test_sample_deterministic(self):
        dist = TokenDistribution(("a", "b", "c"), (0.2, 0.3, 0.5))
        first = [sample_token(dist, SamplerState(5).fork(i).random(1)[0]) for i in range(20)]
        second = [sample_token(dist, SamplerState(5).fork(i).random(1)[0]) for i in range(20)]
        assert first == second
        # Each token owns the interval [cum[i-1], cum[i]) of the uniform.
        assert [sample_token(dist, u) for u in (0.0, 0.19, 0.2, 0.49, 0.5, 0.999)] == list(
            "aabbcc"
        )

    def test_sample_frequencies(self):
        dist = TokenDistribution(("a", "b"), (0.25, 0.75))
        counts = Counter(sample_token(dist, u) for u in SamplerState(6).random(8000))
        # 5 sigma around 0.25 * 8000 = 2000, sigma ~ 38.7
        assert abs(counts["a"] - 2000) < 5 * 38.8


class TestMocks:
    def test_uniform_distribution(self):
        model = ModelHandle(kind="uniform-mock")
        dist = next_distribution(model, "p", "ctx")
        assert dist.tokens == tuple(DEFAULT_ALPHABET)
        assert all(abs(p - 1 / 64) < 1e-12 for p in dist.probs)

    def test_uniform_covers_alphabet(self):
        model = ModelHandle(kind="uniform-mock", alphabet="xyz")
        rng = SamplerState(7)
        seen = {sample_min_chars(model, 1, "", "", rng.fork(i)) for i in range(300)}
        assert seen == {"x", "y", "z"}

    def test_scripted_forced_and_free(self):
        model = ModelHandle(
            kind="scripted-mock", script=(("forced", "AB"), ("free", 2))
        )
        assert next_distribution(model, "", "").tokens == ("A",)
        assert next_distribution(model, "", "A").tokens == ("B",)
        free = next_distribution(model, "", "AB")
        assert len(free.tokens) == 64
        # past schedule end: free
        assert len(next_distribution(model, "", "ABxy").tokens) == 64

    def test_scripted_cycle(self):
        model = ModelHandle(
            kind="scripted-mock", script=(("forced", "Q"), ("free", 3)), script_cycle=True
        )
        assert next_distribution(model, "", "abcd").tokens == ("Q",)
        assert next_distribution(model, "", "abcdefgh").tokens == ("Q",)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelHandle(kind="magic")
        with pytest.raises(ParameterError):
            ModelHandle(kind="uniform-mock", alphabet="aa")
        with pytest.raises(ParameterError):
            ModelHandle(kind="uniform-mock", alphabet=["a", "b"])
        with pytest.raises(ParameterError):
            ModelHandle(kind="remote")
        for script in ((("maybe", "x"),), (("forced", 5),), (("free", "5"),), (("free", True),)):
            with pytest.raises(ParameterError):
                ModelHandle(kind="scripted-mock", script=script)
        # A negative count would pull the forced text that follows it to position 0.
        with pytest.raises(ParameterError, match="non-negative"):
            ModelHandle(kind="scripted-mock", script=(("free", -5), ("forced", "xx")))
        for kind, fields in (
            ("uniform-mock", {"alphabet": "ab\udfff"}),
            ("scripted-mock", {"script": (("free", 2), ("forced", "x\ud800"))}),
        ):
            with pytest.raises(ParameterError, match="surrogate"):
                ModelHandle(kind=kind, **fields)
        with pytest.raises(ParameterError):  # a string "false" would read as true
            ModelHandle(kind="scripted-mock", script=(("free", 1),), script_cycle="false")
        for endpoint in (
            "localhost:8000", "ftp://x/", "http://", "http://h:99999/", "http://h/a b", 5
        ):
            with pytest.raises(ParameterError, match="endpoint"):
                ModelHandle(kind="remote", endpoint=endpoint)
        for endpoint in ("http://127.0.0.1:9", "https://h.example/v1?k=1", "http://[::1]:80/"):
            assert ModelHandle(kind="remote", endpoint=endpoint).endpoint == endpoint
        for bad in ({"top_k": 0}, {"top_k": -3}, {"timeout_ms": 0}, {"retries": -1},
                    {"retries": 1.5}, {"top_k": True}, {"timeout_ms": "2000"}):
            with pytest.raises(ParameterError):
                ModelHandle(kind="remote", endpoint="http://127.0.0.1:9", **bad)
        assert ModelHandle(kind="remote", endpoint="http://127.0.0.1:9", retries=0).retries == 0

    def test_timeout_stops_at_the_longest_a_socket_takes(self):
        longest = int(1000 * threading.TIMEOUT_MAX)
        model = ModelHandle(kind="remote", endpoint="http://127.0.0.1:9", timeout_ms=longest)
        assert model.timeout_ms == longest
        with pytest.raises(ParameterError, match="timeout_ms"):
            ModelHandle(kind="remote", endpoint="http://127.0.0.1:9", timeout_ms=longest + 1)

    def test_json_roundtrip(self):
        model = ModelHandle(
            kind="scripted-mock", script=(("forced", "ab"), ("free", 4)), script_cycle=True
        )
        doc = (
            '{"kind": "scripted-mock", "script": [["forced", "ab"], ["free", 4]],'
            ' "script_cycle": true}'
        )
        assert ModelHandle.from_json_dict(json.loads(doc)) == model
        with pytest.raises(ParameterError):
            ModelHandle.from_json_dict({"kind": "uniform-mock", "temperature": 1.0})
        with pytest.raises(ParameterError):
            ModelHandle.from_json_dict({})
        with pytest.raises(ParameterError):
            ModelHandle.from_json_dict({"kind": "scripted-mock", "script": [[]]})
        # the sampling seed is watermark's argument, not a model field
        with pytest.raises(ParameterError, match="seed"):
            ModelHandle.from_json_dict({"kind": "uniform-mock", "seed": 0})


class FixedDraws:
    """An rng stand-in whose one draw returns the given uniforms."""

    def __init__(self, us):
        self.us = us

    def random(self, n):
        assert n == len(self.us)
        return np.array(self.us, dtype=np.float64)


def per_token(model, context, us):
    """The reference: one next_distribution and sample_token per position."""
    out = ""
    for u in us:
        out += sample_token(next_distribution(model, "p", context + out), u)
    return out


@st.composite
def mock_spans(draw):
    """(mock model, context, uniforms), the uniforms on and beside the token bounds."""
    # Lone surrogates (category Cs) have no UTF-8 form, and ModelHandle
    # refuses them (TestMocks.test_validation), so neither draw offers one.
    utf8 = st.characters(exclude_categories=("Cs",))
    alphabet = "".join(draw(st.lists(utf8, min_size=1, max_size=97, unique=True)))
    if draw(st.booleans()):
        model = ModelHandle(kind="uniform-mock", alphabet=alphabet)
        length = 0
    else:
        script = draw(st.lists(
            st.one_of(
                st.tuples(st.just("forced"), st.text(utf8, min_size=1, max_size=5)),
                st.tuples(st.just("free"), st.integers(0, 5)),
            ),
            max_size=4,
        ))
        model = ModelHandle(kind="scripted-mock", alphabet=alphabet, script=tuple(script),
                            script_cycle=draw(st.booleans()))
        length = sum(len(p) if k == "forced" else p for k, p in script)
    cum = next_distribution(ModelHandle(kind="uniform-mock", alphabet=alphabet), "", "")._cum
    near = [u for b in cum for u in (math.nextafter(b, 0), b, math.nextafter(b, 1))]
    uniform = st.one_of(
        st.sampled_from([u for u in near if 0 <= u < 1] + [0.0, math.nextafter(1, 0)]),
        st.floats(0, 1, exclude_max=True),
    )
    us = draw(st.lists(uniform, min_size=1, max_size=40))
    # Contexts run past the end of the script, so its cycle (or its end) shows.
    context = "c" * draw(st.integers(0, 2 * length + 3))
    return model, context, us


def bench_spans(test):
    """test with 16-character spans of perfbench's low-entropy script as explicit examples.

    The script is two forced blocks of 16 in a 1936-character period; the
    spans start in, at, across and past its forced blocks, and one period
    on, with and without script_cycle.
    """
    script = (("free", 320), ("forced", "x" * 16), ("free", 1584), ("forced", "x" * 16))
    us = [k / 16 for k in range(16)]  # no draw maps to "x"
    for cycle in (False, True):
        model = ModelHandle(kind="scripted-mock", script=script, script_cycle=cycle)
        for start in (0, 312, 320, 330, 1935, 1936, 2000, 2 * 1936 + 310):
            test = example(case=(model, "c" * start, us))(test)
    return test


class TestMockSpans:
    @settings(deadline=None, max_examples=200)
    @given(case=mock_spans())
    @bench_spans
    def test_span_equals_per_token_loop(self, case):
        model, context, us = case
        span = sample_min_chars(model, len(us), "p", context, FixedDraws(us))
        assert span == per_token(model, context, us)

    @pytest.mark.parametrize("size", [6, 10, 37, 97])
    def test_last_token_takes_the_gap_below_one(self, size):
        # These alphabets' running sums end below 1.0; a uniform above the
        # last sum still picks the last character.
        model = ModelHandle(kind="uniform-mock", alphabet="".join(map(chr, range(48, 48 + size))))
        last = next_distribution(model, "", "")._cum[-1]
        assert last < 1.0
        us = [math.nextafter(1, 0), last, math.nextafter(last, 0)]
        assert sample_min_chars(model, 3, "p", "", FixedDraws(us)) == per_token(model, "", us)
        assert sample_min_chars(model, 1, "p", "", FixedDraws(us[:1])) == model.alphabet[-1]

    def test_span_past_a_scripts_end_is_the_uniform_mocks(self):
        scripted = ModelHandle(kind="scripted-mock", alphabet="abc", script=(("forced", "xyz"),))
        uniform = ModelHandle(kind="uniform-mock", alphabet="abc")
        us = [k / 16 for k in range(16)]
        for start in (1, 3, 4, 10_000):
            span, plain = (
                sample_min_chars(model, 16, "p", "c" * start, FixedDraws(us))
                for model in (scripted, uniform)
            )
            assert span == ("yz" + plain[2:] if start == 1 else plain)

    def test_long_free_segment_stores_nothing_per_position(self):
        tracemalloc.start()
        try:
            ModelHandle(kind="scripted-mock", script=(("free", 10**9), ("forced", "q")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# The fields each kind reads, each set away from its default.
READS = {
    "uniform-mock": {"alphabet": "xyz"},
    "scripted-mock": {"alphabet": "xyz", "script": [["forced", "ab"], ["free", 2]],
                      "script_cycle": True},
    "remote": {"endpoint": "http://127.0.0.1:9", "top_k": 8, "timeout_ms": 100, "retries": 0},
}
ANY_FIELD = {name: value for reads in READS.values() for name, value in reads.items()}
UNREAD = [(kind, name) for kind in READS for name in ANY_FIELD if name not in READS[kind]]


class TestFieldsPerKind:
    @pytest.mark.parametrize("kind", sorted(READS))
    def test_kind_loads_with_every_field_it_reads(self, kind):
        model = ModelHandle.from_json_dict(dict(READS[kind], kind=kind))
        assert model.kind == kind

    @pytest.mark.parametrize("kind, name", UNREAD, ids=["%s-%s" % case for case in UNREAD])
    def test_unread_field_is_refused(self, kind, name):
        doc = dict(READS[kind], kind=kind)
        doc[name] = ANY_FIELD[name]
        with pytest.raises(ParameterError, match="does not read %s" % name):
            ModelHandle.from_json_dict(doc)

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_alphabet_is_never_empty(self, kind):
        with pytest.raises(ParameterError, match="alphabet"):
            ModelHandle.from_json_dict(dict(READS[kind], kind=kind, alphabet=""))


class TestRemote:
    def test_distribution_renormalized(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/ok")
        dist = next_distribution(model, "p", "")
        assert dist.tokens == ("ab", "c", "def", "gh")
        assert abs(sum(dist.probs) - 1.0) < 1e-9
        assert abs(dist.probs[0] - 0.4) < 1e-9

    def test_top_k_forwarded(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/ok", top_k=2)
        assert next_distribution(model, "p", "").tokens == ("ab", "c")

    def test_multi_char_tokens_fill_and_truncate(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/ok")
        out = sample_min_chars(model, 7, "p", "", SamplerState(9).fork(0))
        assert len(out) >= 7
        # Below one gadget, watermark() is the same draw cut to exactly n.
        exact, _ = watermark(WatermarkParams(n=7), keygen(b"t"), model, "p", seed=9)
        assert out[:7] == exact

    def test_http_error_is_protocol_error(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/status-400")
        with pytest.raises(ProtocolError, match="HTTP 400"):
            next_distribution(model, "p", "")

    def test_redirect_is_not_followed(self, stub, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/redirect")
        before = stub.hits["/ok"]
        with pytest.raises(ProtocolError, match="HTTP 302"):
            next_distribution(model, "p", "")
        assert stub.hits["/ok"] == before

    def test_server_error_is_retried_then_transport_error(self, stub, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/status-500", retries=2)
        before = stub.hits["/status-500"]
        with pytest.raises(TransportError, match="HTTP 500"):
            next_distribution(model, "p", "")
        assert stub.hits["/status-500"] - before == model.retries + 1

    def test_server_error_then_answer(self, stub, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/flaky-503", retries=1)
        dist = next_distribution(model, "p", "")
        assert dist.tokens == ("ab", "c", "def", "gh")
        assert stub.hits["/flaky-503"] == 2

    def test_non_json_is_protocol_error(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/bad-json")
        with pytest.raises(ProtocolError):
            next_distribution(model, "p", "")

    def test_malformed_shape_is_protocol_error(self, stub_server):
        model = ModelHandle(kind="remote", endpoint=stub_server + "/bad-shape")
        with pytest.raises(ProtocolError):
            next_distribution(model, "p", "")

    @pytest.mark.parametrize("route", sorted(_BAD_LOGPROBS))
    def test_unusable_logprobs_are_protocol_errors(self, stub_server, route):
        model = ModelHandle(kind="remote", endpoint=stub_server + route)
        with pytest.raises(ProtocolError, match="malformed"):
            next_distribution(model, "p", "")

    @pytest.mark.parametrize("route", sorted(_BAD_TOKENS))
    def test_non_string_tokens_are_protocol_errors(self, stub_server, route):
        model = ModelHandle(kind="remote", endpoint=stub_server + route)
        with pytest.raises(ProtocolError, match="malformed"):
            next_distribution(model, "p", "")

    def test_unreachable_is_transport_error(self):
        model = ModelHandle(
            kind="remote", endpoint="http://127.0.0.1:9", timeout_ms=200, retries=1
        )
        with pytest.raises(TransportError):
            next_distribution(model, "p", "")


class TestWire:
    """The adapter's own HTTP/1.0 exchange, against a raw socket endpoint."""

    def test_request_bytes_are_pinned(self):
        with raw_endpoint([_OK_REPLY]) as (url, requests):
            model = ModelHandle(kind="remote", endpoint=url + "/v1/next?m=x", top_k=5)
            dist = next_distribution(model, "Dear caf\u00e9,", "It was \"late\"")
        assert dist.tokens == ("ab", "c")
        (request,) = requests
        head, _, body = request.partition(b"\r\n\r\n")
        assert body == (b'{"prompt": "Dear caf\\u00e9,", "context": "It was \\"late\\"", '
                        b'"top_k": 5}')
        line, *headers = head.split(b"\r\n")
        assert line == b"POST /v1/next?m=x HTTP/1.0"
        assert sorted(headers) == sorted([
            b"Host: 127.0.0.1:%s" % url.rsplit(":", 1)[1].encode(),
            b"Accept-Encoding: identity",
            b"Content-Type: application/json",
            b"Content-Length: %d" % len(body),
            b"Connection: close",
        ])

    @pytest.mark.parametrize("endpoint, host", [
        ("http://Example.COM/", b"example.com"),
        ("http://example.com:80/", b"example.com"),
        ("https://example.com:443/", b"example.com"),
        ("https://example.com:80/", b"example.com:80"),
        ("http://[::1]/", b"[::1]"),
        ("http://[::1]:8080/", b"[::1]:8080"),
        ("http://b\u00fccher.example/", b"xn--bcher-kva.example"),
    ])
    def test_host_header(self, endpoint, host):
        # As http.client wrote it: the port only when it is not the
        # scheme's default, and an IPv6 literal in brackets.
        head = model_module._split_endpoint(endpoint)[3]
        assert b"\r\nHost: %s\r\n" % host in head

    def test_host_idna_cannot_encode_is_refused(self):
        with pytest.raises(ParameterError, match="idna"):
            ModelHandle(kind="remote", endpoint="http://%s.example/" % ("\u00e9" * 70))

    @pytest.mark.parametrize("reply", [
        [bytes([b]) for b in _OK_REPLY],  # one byte per write
        [_OK_REPLY + b"trailing bytes past the Content-Length"],
        [_OK_REPLY.replace(b"Content-Length: %d\r\n" % len(_OK_BODY), b"")],  # read to EOF
    ], ids=["byte-at-a-time", "past-content-length", "no-content-length"])
    def test_reply_parses(self, reply):
        with raw_endpoint(reply) as (url, requests):
            dist = next_distribution(ModelHandle(kind="remote", endpoint=url), "p", "")
        assert dist.tokens == ("ab", "c") and len(requests) == 1

    @pytest.mark.parametrize("reply, failure", [
        (b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{}", "shorter than its Content-Length"),
        (b"not a status line\r\n\r\n" + _OK_BODY, "no HTTP status line"),
        (b"", "no HTTP status line"),
    ], ids=["short-body", "no-status-line", "empty"])
    def test_broken_reply_is_retried_then_transport_error(self, reply, failure):
        with raw_endpoint([reply]) as (url, requests):
            model = ModelHandle(kind="remote", endpoint=url, retries=2)
            with pytest.raises(TransportError, match=failure):
                next_distribution(model, "p", "")
        assert len(requests) == model.retries + 1

    def test_transfer_encoding_is_protocol_error(self):
        reply = b"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
        with raw_endpoint([reply % (len(_OK_BODY), _OK_BODY)]) as (url, requests):
            with pytest.raises(ProtocolError, match="Transfer-Encoding"):
                next_distribution(ModelHandle(kind="remote", endpoint=url, retries=2), "p", "")
        assert len(requests) == 1

    def test_self_signed_https_is_refused_with_one_context(self, tmp_path, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        real = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", counting)
        model_module._tls_context.cache_clear()
        try:
            with raw_endpoint([_OK_REPLY], tls=_self_signed_tls(tmp_path)) as (url, requests):
                model = ModelHandle(kind="remote", endpoint=url, retries=1)
                for _ in range(2):
                    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
                        next_distribution(model, "p", "")
        finally:
            model_module._tls_context.cache_clear()
        assert len(built) == 1
        assert requests == [None] * 2 * (model.retries + 1)  # no handshake completed


def test_import_pdws_does_not_load_requests():
    # Only the remote adapter speaks HTTP; detection and the mocks never pay
    # for importing the client.
    src = os.path.dirname(os.path.dirname(pdws.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, pdws; "
        "assert 'requests' not in sys.modules, 'requests loaded'; "
        "assert 'http.client' not in sys.modules, 'http.client loaded'"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
