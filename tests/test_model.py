import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import pdws
from pdws import WatermarkParams, keygen, watermark
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
}


class _StubHandler(BaseHTTPRequestHandler):
    """Serves multi-character candidates; /bad-* routes exercise failures."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if self.path == "/bad-status":
            self.send_error(500)
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
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield "http://127.0.0.1:%d" % server.server_port
    server.shutdown()


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

    def test_sample_deterministic(self):
        dist = TokenDistribution(("a", "b", "c"), (0.2, 0.3, 0.5))
        first = [sample_token(dist, SamplerState(5).fork(i)) for i in range(20)]
        second = [sample_token(dist, SamplerState(5).fork(i)) for i in range(20)]
        assert first == second

    def test_sample_frequencies(self):
        dist = TokenDistribution(("a", "b"), (0.25, 0.75))
        rng = SamplerState(6)
        counts = Counter(sample_token(dist, rng) for _ in range(8000))
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
            ModelHandle(kind="remote")
        with pytest.raises(ParameterError):
            ModelHandle(kind="scripted-mock", script=(("maybe", "x"),))

    def test_json_roundtrip(self):
        model = ModelHandle(
            kind="scripted-mock", script=(("forced", "ab"), ("free", 4)), script_cycle=True
        )
        assert ModelHandle.from_json_dict(model.to_json_dict()) == model
        with pytest.raises(ParameterError):
            ModelHandle.from_json_dict({"kind": "uniform-mock", "temperature": 1.0})
        with pytest.raises(ParameterError):
            ModelHandle.from_json_dict({})


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
        model = ModelHandle(kind="remote", endpoint=stub_server + "/bad-status")
        with pytest.raises(ProtocolError):
            next_distribution(model, "p", "")

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
        with pytest.raises(ProtocolError):
            next_distribution(model, "p", "")

    def test_unreachable_is_transport_error(self):
        model = ModelHandle(
            kind="remote", endpoint="http://127.0.0.1:9", timeout_ms=200, retries=1
        )
        with pytest.raises(TransportError):
            next_distribution(model, "p", "")


def test_import_pdws_does_not_load_requests():
    # Only the remote adapter speaks HTTP; detection and the mocks never pay
    # for importing the client.
    src = os.path.dirname(os.path.dirname(pdws.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, pdws; assert 'requests' not in sys.modules, 'requests loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
