import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from pdws import Layout, ModelHandle, OracleSuite, WatermarkParams, keygen


@pytest.fixture(scope="session")
def suite():
    return OracleSuite(b"t-sign", b"t-mask", b"t-bit")


@pytest.fixture(scope="session")
def model64():
    return ModelHandle(kind="uniform-mock")


@pytest.fixture(scope="session")
def schnorr_keys():
    return keygen(b"test-schnorr-fixture")


@pytest.fixture(scope="session")
def ed_keys():
    return keygen(b"test-ed-fixture", scheme_id="ed25519")


@pytest.fixture(scope="session")
def params328():
    # default layout, attempt cap raised so embed failures are negligible
    return WatermarkParams(a_max=64)


@pytest.fixture(scope="session")
def params_beta1():
    return WatermarkParams(beta=1, a_max=64, n=5776)


@pytest.fixture(scope="session")
def params_gamma0():
    return WatermarkParams(gamma_max=0, lambda_c=328, a_max=64, n=2640)


@st.composite
def layouts(draw, lambda_sig=None, betas=(1, 2, 4, 8), max_ell=64):
    """Valid Layouts: no code (lambda_c == lambda_sig) or RS with 2-16 parity bytes.

    A given lambda_sig must be a multiple of every beta in betas.
    """
    beta = draw(st.sampled_from(betas))
    if lambda_sig is None:
        lambda_sig = beta * draw(st.integers(1, 80))
    parity = 2 * draw(st.integers(0, 8))
    lambda_c = 8 * ((lambda_sig + 7) // 8 + parity) if parity else lambda_sig
    return Layout(draw(st.integers(1, max_ell)), beta, lambda_sig, lambda_c)


def make_blocked_script(params, forced_blocks, char="Q"):
    """Script one gadget cycle: listed blocks fully forced, rest free.

    Block 0 is the message block; signature blocks are 1..n_blocks.
    """
    segments = []
    for j in range(1 + params.n_blocks):
        if j in forced_blocks:
            segments.append(("forced", char * params.ell))
        else:
            segments.append(("free", params.ell))
    return ModelHandle(
        kind="scripted-mock",
        script=tuple(segments),
        script_cycle=True,
    )


class _MultiCharHandler(BaseHTTPRequestHandler):
    """Remote-model stub serving eight equiprobable tokens of 1-3 characters."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        # vary candidates with context length so sampling has entropy
        ctx = body.get("context", "")
        base = ["ab", "c", "de", "fgh", "i", "jk", "lm", "nop"]
        shift = len(ctx) % len(base)
        tokens = base[shift:] + base[:shift]
        payload = {
            "candidates": [
                {"token": t, "logprob": math.log(1.0 / len(tokens))} for t in tokens
            ]
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="session")
def multichar_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MultiCharHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield "http://127.0.0.1:%d" % server.server_port
    server.shutdown()
    server.server_close()
