#!/usr/bin/env python3
"""pdws benchmark: four closed-loop workloads, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pdws is imported from its src/ directory
and nowhere else, so the command fails (exit 2, no result) without it.

Workloads (one client each; see workloads.py):
  embed-mock    watermark() on the uniform mock over the four bundled
                profiles, plus a scripted low-entropy compact-328 gadget.
                Loads model sampling, rng forks, the embedder, crypto.sign
                and ecc.encode; bit_value is a small share; no scan, no HTTP.
  embed-remote  watermark() through ModelHandle(kind="remote") against the
                loopback stub (stub.py), ell=8, beta=2. Loads the HTTP
                adapter and multi-character token carry; rng and hashing
                are a small share.
  scan-clean    full-scan detect() over unmarked text (compact-328,
                ed25519-544, wide-32), a quarter of it multi-byte. Loads the
                h_bit chain and ecc.decode at every offset; verify runs only
                where a decode succeeds; model and rng idle.
  scan-marked   detect_all() over padding around a plain gadget, a tiled
                pair and a low-entropy gadget (compact-328, gamma0-328).
                Loads the hit path, error correction and the skip rule;
                with gamma0-328 crypto.verify runs at every offset.

With --trace 0 the last line of stdout is a JSON result with the end-to-end
metrics, measured with tracing off for --seconds of closed-loop rounds:
  setup_s             import pdws, then the median of three set-ups (keygen,
                      stub start, embedding the scan-marked gadgets), in
                      wall seconds.
  scaled_call_s.p50   median time of one public call (one watermark() gadget
                      or one detect/detect_all document), averaged over the
                      workload's call types so that the mix cannot shift it.
  scaled_chars_per_s  characters watermarked or scanned per second of call
                      time.
Both scaled metrics divide out the machine's speed: each call's wall time
is multiplied by REFERENCE_S over the time of a fixed reference task run
beside it (reference.py). On a shared 2-vCPU Xeon virtual machine, wall
times drifted by up to 1.8x within a minute while the scaled ones stayed
within a few percent.

The lines above the result give the per-workload figures in wall time, by
name and unit: embed_chars_per_s, embed_gadget_s.p50/.p90,
model_requests_per_gadget (counted at the stub), scan_offsets_per_s,
detect_doc_s.p50/.p90, embed_failed_frac and detect_wrong_frac, with their
sample counts, and the SHA-256 digest of round 0's outputs. A p90 is
printed only when at least ten samples lie above it. Embed failures and
wrong verdicts are also the result's "failed" count.

With --trace 1 the same rounds run a fixed number of times, first untraced
and then with every layer function wrapped (tracer.py); the result holds
the per-layer metrics, whose counts repeat exactly for a seed and --seconds.
Spans go to perfbench/out/.

pdws.bench.run_bench is not reused and is left as it is: it detects only at
a known offset 0, so it never measures the offset scan that is the
verifier's cost, and it infers characters sampled as attempts * ell instead
of counting them, which undercounts multi-character tokens.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def import_pdws() -> float:
    """Import pdws from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import pdws

    took = perf_counter() - start
    if not Path(pdws.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("pdws resolved to %s, outside this checkout" % pdws.__file__)
    return took


def percentiles(values) -> dict:
    """p50 always; p90 only when at least ten samples lie above it."""
    out = {"p50": statistics.median(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


def report(name: str, value, unit: str, note: str = "") -> None:
    print("%-28s %14.6g %-10s %s" % (name, value, unit, note))


def end_to_end(workload, inputs, seconds: float, setup_s: float):
    from reference import REFERENCE_S
    from workloads import Recorder, run_pass

    rec = Recorder()
    stub_before = inputs.stub.snapshot() if inputs.stub else None
    run_pass(workload, inputs, rec, seconds=seconds)
    calls = [t for times in rec.calls.values() for t in times]
    call_seconds = sum(calls)
    n = len(calls)

    if workload.kind == "embed":
        report("embed_chars_per_s", rec.chars / call_seconds, "chars/s", "n=%d gadgets" % n)
        for q, v in percentiles(calls).items():
            report("embed_gadget_s." + q, v, "s", "n=%d" % n)
        if inputs.stub:
            requests = inputs.stub.snapshot()[0] - stub_before[0]
            report("model_requests_per_gadget", requests / max(1, n), "req/gadget",
                   "%d requests" % requests)
        report("embed_failed_frac", rec.embed_failed / rec.attempted, "frac",
               "%d/%d" % (rec.embed_failed, rec.attempted))
    else:
        report("scan_offsets_per_s", rec.offsets / call_seconds, "offsets/s",
               "n=%d offsets" % rec.offsets)
        for q, v in percentiles(calls).items():
            report("detect_doc_s." + q, v, "s", "n=%d" % n)
    report("detect_wrong_frac", len(rec.wrong) / max(1, rec.checked), "frac",
           "%d/%d" % (len(rec.wrong), rec.checked))

    report("reference_task_s.p50", statistics.median(rec.refs), "s",
           "scaled times assume %g s" % REFERENCE_S)

    scaled = sum(sum(t) for t in rec.scaled.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "scaled_call_s.p50": (
            statistics.fmean(statistics.median(t) for t in rec.scaled.values()), "s"
        ),
        "scaled_chars_per_s": (rec.chars / scaled, "chars/s"),
    }
    return rec, metrics


def traced(workload, inputs, seconds: float, name: str, seed: int):
    import pdws
    from tracer import Tracer, layer_bindings
    from workloads import Recorder, run_pass

    rounds = max(1, round(seconds / (3 * workload.nominal_round_s)))
    base = Recorder()
    untraced_s = run_pass(workload, inputs, base, rounds=rounds)
    stub_before = inputs.stub.snapshot() if inputs.stub else (0, 0, 0, 0.0)
    rec, tracer = Recorder(), Tracer()
    with tracer.installed(layer_bindings(pdws)):
        traced_s = run_pass(workload, inputs, rec, rounds=rounds)
    stub_after = inputs.stub.snapshot() if inputs.stub else (0, 0, 0, 0.0)
    tracer.write_spans(HERE / "out" / ("spans-%s-seed%d.jsonl" % (name, seed)))
    for missing in tracer.missing:
        print("not traced (no such binding): %s" % missing)
    rec.wrong += ["untraced " + line for line in base.wrong]
    if base.digest.digest() != rec.digest.digest():
        rec.wrong.append("traced outputs differ from untraced outputs")
    print("rounds %d, untraced %.3f s, traced %.3f s" % (rounds, untraced_s, traced_s))
    requests, bytes_sent, non_2xx, busy_s = (a - b for a, b in zip(stub_after, stub_before))
    return rec, layer_metrics(tracer, rec, requests, bytes_sent, non_2xx, busy_s,
                              traced_s / untraced_s - 1)


def layer_metrics(tracer, rec, requests, bytes_sent, non_2xx, busy_s, overhead) -> dict:
    calls, counts, self_time = tracer.calls, tracer.counts, tracer.self_time
    gadgets = rec.attempted - rec.embed_failed if rec.model_chars else 0
    blocks, attempts = counts["embedder.blocks"], counts["embedder.attempts"]
    planted = counts["embedder.planted"]
    return {
        "model.sample_min_chars.calls": (calls["model.sample_min_chars"], "count"),
        "model.sample_min_chars.chars": (counts["model.sample_min_chars.chars"], "count"),
        "model.sample_min_chars.self_s": (self_time("model.sample_min_chars"), "s"),
        "model.next_distribution.calls": (calls["model.next_distribution"], "count"),
        "model.next_distribution.self_s": (self_time("model.next_distribution"), "s"),
        "model.remote.requests": (requests, "count"),
        "model.remote.requests_per_gadget": (requests / gadgets if gadgets else 0, "req/gadget"),
        "model.remote.bytes_sent": (bytes_sent, "B"),
        "model.remote.non_2xx": (non_2xx, "count"),
        "model.remote.server_busy_s": (busy_s, "s"),
        "rng.fork.calls": (calls["rng.fork"], "count"),
        "rng.philox_init.calls": (calls["rng.philox_init"], "count"),
        "rng.random.calls": (calls["rng.random"], "count"),
        "rng.self_s": (self_time("rng"), "s"),
        "crypto.bit_value.calls": (calls["crypto.bit_value"], "count"),
        "crypto.bit_value.bytes": (counts["crypto.bit_value.bytes"], "B"),
        "crypto.bit_value.self_s": (self_time("crypto.bit_value"), "s"),
        "crypto.h_mask.calls": (calls["crypto.h_mask"], "count"),
        "crypto.h_sign.calls": (calls["crypto.h_sign"], "count"),
        "crypto.sign.calls": (calls["crypto.sign"], "count"),
        "crypto.sign.self_s": (self_time("crypto.sign"), "s"),
        "crypto.verify.calls": (calls["crypto.verify"], "count"),
        "crypto.verify.ok": (counts["crypto.verify.ok"], "count"),
        "crypto.verify.self_s": (self_time("crypto.verify"), "s"),
        "ecc.encode.calls": (calls["ecc.encode"], "count"),
        "ecc.encode.self_s": (self_time("ecc.encode"), "s"),
        "ecc.decode.calls": (calls["ecc.decode"], "count"),
        "ecc.decode.failed": (counts["ecc.decode.failed"], "count"),
        "ecc.decode.self_s": (self_time("ecc.decode"), "s"),
        "ecc.symbol_distance.calls": (calls["ecc.symbol_distance"], "count"),
        "embedder.blocks": (blocks, "count"),
        "embedder.attempts": (attempts, "count"),
        "embedder.planted": (planted, "count"),
        "embedder.self_s": (self_time("embedder"), "s"),
        "embedder.match_ratio": ((blocks - planted) / attempts if attempts else 0, "ratio"),
        "embedder.chars_vs_model": (
            counts["model.sample_min_chars.chars"] / rec.model_chars if rec.model_chars else 0,
            "ratio",
        ),
        "detector.offsets": (rec.offsets, "count"),
        "detector.hits": (rec.hits, "count"),
        "detector.self_s": (self_time("detector"), "s"),
        "detector.verify_per_offset": (
            calls["crypto.verify"] / rec.offsets if rec.offsets else 0, "ratio"
        ),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # The stub is on 127.0.0.1: keep any proxy settings of the caller out of
    # the way, and keep requests from reading a .netrc outside the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = str(HERE / "out" / "no-netrc")
    try:
        import_s = import_pdws()
    except ImportError as exc:
        print("perfbench: cannot import pdws from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]()

    setup_times = []
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            inputs.close()
    setup_s = import_s + statistics.median(setup_times)
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    report("setup_s", setup_s, "s",
           "import %.4f s + median of %d set-ups" % (import_s, SETUP_REPEATS))
    try:
        if args.trace:
            rec, metrics = traced(workload, inputs, args.seconds, args.workload, args.seed)
        else:
            rec, metrics = end_to_end(workload, inputs, args.seconds, setup_s)
    finally:
        inputs.close()

    print("digest sha256:%s" % rec.digest.hexdigest())
    for line in rec.wrong:
        print("WRONG %s" % line)
    result = {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.embed_failed + len(rec.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
