"""Checks of the benchmark's own code: tracer counts against ground truth.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pdws  # noqa: E402
import pytest  # noqa: E402
import requests  # noqa: E402

import run  # noqa: E402
from stub import StubServer  # noqa: E402
from tracer import Tracer, layer_bindings  # noqa: E402
from workloads import WORKLOADS, Recorder, low_entropy_model, make_inputs, run_pass  # noqa: E402


def traced_round(name, seed, extra=()):
    workload = WORKLOADS[name]()
    inputs = workload.setup(seed)
    rec, tracer = Recorder(), Tracer()
    try:
        with tracer.installed(layer_bindings(pdws) + list(extra)):
            run_pass(workload, inputs, rec, rounds=1)
    finally:
        inputs.close()
    assert not rec.wrong
    return rec, tracer


def test_embedder_counts_match_transcripts():
    inputs = make_inputs(7, ("compact-328",))
    params, keys = inputs.params["compact-328"], inputs.key_for("compact-328")
    models = (pdws.ModelHandle(kind="uniform-mock"), low_entropy_model(params.ell))
    def embed_all():
        return [pdws.watermark(params, keys, m, "p", seed=i, suite=inputs.suite)
                for i, m in enumerate(models)]

    untraced = embed_all()
    tracer = Tracer()
    with tracer.installed(layer_bindings(pdws)):
        traced = embed_all()
    assert [t for t, _ in traced] == [t for t, _ in untraced]

    transcripts = [tr for _, tr in traced]
    # One gadget per call; blocks[0] is its natively sampled message block.
    sig_blocks = [b for tr in transcripts for b in tr.blocks[1:]]
    assert tracer.counts["embedder.blocks"] == len(sig_blocks)
    assert tracer.counts["embedder.attempts"] == sum(b.attempts for b in sig_blocks)
    assert tracer.counts["embedder.planted"] == sum(tr.gamma_used for tr in transcripts) > 0
    # Single-character mock tokens: every attempt and message block draws ell chars.
    all_attempts = sum(b.attempts for tr in transcripts for b in tr.blocks)
    assert tracer.counts["model.sample_min_chars.chars"] == params.ell * all_attempts
    assert tracer.calls["crypto.sign"] == 2
    assert not tracer.missing


@pytest.mark.parametrize("name, hits", [("scan-clean", 0), ("scan-marked", 7)])
def test_detector_offsets_match_offsets_tried(name, hits):
    try_offset = (pdws.detector, "_try_offset", "test.try_offset", False, None)
    rec, tracer = traced_round(name, 3, [try_offset])
    assert rec.offsets == tracer.calls["test.try_offset"] == tracer.calls["ecc.decode"]
    assert rec.hits == tracer.counts["crypto.verify.ok"] == hits
    if name == "scan-clean":
        assert rec.offsets == sum(WORKLOADS[name].OFFSETS.values())


@pytest.mark.parametrize("name", ["embed-mock", "scan-marked"])
def test_exact_counts_repeat_for_a_seed(name):
    def counts():
        rec, tracer = traced_round(name, 5)
        metrics = run.layer_metrics(tracer, rec, 0, 0, 0, 0.0, 0.0)
        exact = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
        return exact, rec.digest.hexdigest()

    first = counts()
    assert first[0]["crypto.verify.calls"] > 0
    assert counts() == first


def test_stub_counts_requests_bytes_and_errors():
    stub = StubServer()
    try:
        model = pdws.ModelHandle(kind="remote", endpoint=stub.endpoint, top_k=4)
        dists = [pdws.next_distribution(model, "p", "ab" * i) for i in range(3)]
        bad = requests.post(stub.endpoint, data=b"not json", timeout=5)
        served, received, non_2xx, busy_s = stub.snapshot()
    finally:
        stub.close()
    assert [len(d.tokens) for d in dists] == [4, 4, 4]
    assert bad.status_code == 400
    assert (served, non_2xx) == (4, 1) and busy_s > 0
    bodies = [json.dumps({"prompt": "p", "context": "ab" * i, "top_k": 4}) for i in range(3)]
    assert received == sum(len(b.encode()) for b in bodies) + len(b"not json")


def test_metric_names_and_units_match_benchmark_json(capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["scan-clean"]()
    inputs = workload.setup(1)
    _, e2e = run.end_to_end(workload, inputs, 0.01, 0.5)
    per_layer = run.layer_metrics(Tracer(), Recorder(), 0, 0, 0, 0.0, 0.0)
    for section, metrics in (("end_to_end", e2e), ("per_layer", per_layer)):
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            k: unit for k, (_, unit) in metrics.items()
        }
    assert all(v > 0 for v, _ in e2e.values())
    assert "detect_doc_s.p50" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=ignore)
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "embed-mock",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
