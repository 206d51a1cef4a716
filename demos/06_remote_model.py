#!/usr/bin/env python3
"""Drive the embedder through the HTTP model adapter.

A stub endpoint stands in for a real inference server. It speaks the wire
format the remote handle expects: POST {prompt, context, top_k} in,
{"candidates": [{"token", "logprob"}, ...]} out. Tokens here are one to
three characters long, so this also exercises the block-alignment logic
that commits token surplus into the next block.
"""

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from pdws import ModelHandle, OracleSuite, WatermarkParams, detect, keygen, watermark

TOKENS = ["an", "d", "the", "re", " is", "no", " mo", "del"]


class Stub(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        k = min(body.get("top_k", len(TOKENS)), len(TOKENS))
        shift = len(body.get("context", "")) % len(TOKENS)
        pool = (TOKENS[shift:] + TOKENS[:shift])[:k]
        payload = json.dumps(
            {"candidates": [{"token": t, "logprob": math.log(1 / len(pool))} for t in pool]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
threading.Thread(target=server.serve_forever, daemon=True).start()
endpoint = "http://127.0.0.1:%d" % server.server_port
print("stub endpoint:", endpoint)

keys = keygen(b"demo-remote")
suite = OracleSuite(b"demo-sign", b"demo-mask", b"demo-bit")
# a short layout keeps the HTTP round trips tolerable: 8-char blocks, 4-bit
# chunks, 90 signature blocks, one 728-char gadget. beta=4 needs a 1-in-16
# hash match per attempt, so give each block a deep attempt cap. A block's
# attempts all start from the same text, and the embedder asks the stub
# once per distinct context in a block: about 2,500 requests here for the
# 5,450 tokens the attempts draw.
params = WatermarkParams(
    ell=8, beta=4, gamma_max=2, a_max=256, n=728,
    lambda_sig=328, lambda_c=360, alpha=8,
)
model = ModelHandle(kind="remote", endpoint=endpoint, top_k=8)

text, tr = watermark(params, keys, model, "prompt", seed=3, suite=suite)
print("generated %d chars via HTTP, e.g. %r" % (len(text), text[:40]))
print("planted errors:", tr.gamma_used)

result = detect(keys, params, text, suite=suite, known_offset=0)
print("detected:", result.detected)
server.shutdown()
