"""Loopback model endpoint for the embed-remote workload.

Speaks the remote handle's wire format: POST {prompt, context, top_k} in,
{"candidates": [{"token", "logprob"}, ...]} out. Tokens are one to three
characters long and the candidate order rotates with the context length,
so blocks see multi-character tokens and carried surplus. The server runs
on a thread of the benchmark process and handles one connection at a
time. It counts its own requests, request bytes, non-2xx replies and busy
time, so that time the client spends waiting can be told apart from
server work.

Every SAMPLE_EVERY-th request, while the client waits for the reply, the
stub also times the reference task (reference.py), so that a watermark()
call lasting seconds can be scaled by the machine speed during it. This
adds about 5% to the wall time of embed-remote and is not counted as busy.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from time import perf_counter

from reference import reference_seconds

TOKENS = ("an", "d", "the", "re", " is", "no", " mo", "del")
SAMPLE_EVERY = 16


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        start = perf_counter()
        stub = self.server.stub
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            body = json.loads(raw)
            k = max(1, min(int(body.get("top_k", len(TOKENS))), len(TOKENS)))
            shift = len(body.get("context", "")) % len(TOKENS)
        except (ValueError, TypeError, AttributeError):
            status, payload = 400, b"{}"
        else:
            pool = (TOKENS[shift:] + TOKENS[:shift])[:k]
            status = 200
            payload = json.dumps(
                {"candidates": [{"token": t, "logprob": math.log(1 / k)} for t in pool]}
            ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        # Account before the reply leaves, so a client that reads the
        # counters after its call returns always sees this request.
        with stub.lock:
            stub.requests += 1
            stub.bytes_received += len(raw)
            stub.non_2xx += not 200 <= status < 300
            stub.busy_s += perf_counter() - start
            sample = stub.requests % SAMPLE_EVERY == 0
        if sample:
            stub.speed_samples.append(reference_seconds())
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_):
        pass


class StubServer:
    """Single-connection HTTP model stub on 127.0.0.1, served from a thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.bytes_received = 0
        self.non_2xx = 0
        self.busy_s = 0.0
        self.speed_samples: list[float] = []  # reference task seconds
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        return "http://127.0.0.1:%d" % self._server.server_port

    def snapshot(self) -> tuple[int, int, int, float]:
        with self.lock:
            return self.requests, self.bytes_received, self.non_2xx, self.busy_s

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()
