"""The four benchmark workloads: inputs from the seed, one round, checks.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned, because callers of watermark() and detect()
wait for each result. A round is one call of each of the workload's call
types; round r draws its inputs from (seed, r) alone, so the work of a run
is fixed by the seed and the number of rounds it completes.

Every output is checked with the public half of the key only: an embedded
text must be found at exactly its expected offsets, with as many corrected
symbols as the embedder planted errors, and a clean document must come back
not detected.
"""

from __future__ import annotations

import hashlib
import random
import string
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import pdws

from reference import REFERENCE_S, reference_seconds
from stub import StubServer

PROFILES = ("compact-328", "ed25519-544", "wide-32", "gamma0-328")
SCHEME_OF = {"ed25519-544": "ed25519"}  # the other profiles sign with schnorr-p1024
ASCII = string.ascii_letters + string.digits + " ."
# 2-, 3- and 4-byte UTF-8 characters, so bytes hashed per character vary.
MULTIBYTE = "äöüßéèçñøåæœαβγδλπσω中文字符检测水印签名😀🔏📜✅"

# Two fully forced blocks per low-entropy gadget. They sit in different
# code symbols (four 2-bit chunks per byte), so each planted block costs
# exactly one corrected symbol.
FORCED_BLOCKS = (20, 120)


def derive(seed: int, *labels) -> int:
    tag = "|".join(str(x) for x in ("perfbench", seed) + labels)
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big")


def load_profile(name: str):
    text = (resources.files("pdws") / "profiles" / (name + ".json")).read_text()
    return pdws.WatermarkParams.from_json(text)


def load_prompts() -> list[str]:
    text = (resources.files("pdws") / "profiles" / "prompts.txt").read_text()
    return [line for line in text.splitlines() if line.strip()]


def expected_model_chars(params) -> int:
    """Characters the paper's cost model predicts for one gadget.

    2^beta * (lambda_c / beta) * ell for the signature blocks, plus the
    natively sampled message block.
    """
    return 2 ** params.beta * (params.lambda_c // params.beta) * params.ell + params.ell


def low_entropy_model(ell: int):
    script, pos = [], 0
    for block in FORCED_BLOCKS:
        script += [("free", block * ell - pos), ("forced", "x" * ell)]
        pos = (block + 1) * ell
    return pdws.ModelHandle(kind="scripted-mock", script=tuple(script))


def clean_text(rnd: random.Random, length: int) -> str:
    """Unmarked text: runs of 192 ASCII characters, then 64 multi-byte ones."""
    return "".join(
        rnd.choice(MULTIBYTE if i % 256 >= 192 else ASCII) for i in range(length)
    )


def replay_offsets(doc_len: int, gadget_len: int, ell: int, hits) -> int:
    """Offsets detect_all tries: one by one, resuming at hit + gadget_len - ell."""
    tried, offset = 0, 0
    for hit in sorted(hits):
        tried += hit - offset + 1
        offset = hit + gadget_len - ell
    return tried + max(0, doc_len - gadget_len - offset + 1)


class Recorder:
    """Call timings, correctness tallies and output digest of one pass."""

    def __init__(self):
        self.calls = defaultdict(list)  # call type -> wall seconds per call
        self.scaled = defaultdict(list)  # call type -> scaled seconds per call
        self.chars = 0  # characters watermarked or scanned
        self.attempted = 0  # gadgets embedded or documents scanned
        self.embed_failed = 0
        self.checked = 0  # outputs detected and compared
        self.wrong: list[str] = []
        self.offsets = 0  # scan offsets tried, from document length or replay
        self.hits = 0
        self.model_chars = 0  # cost-model characters of the gadgets embedded
        self.digest = hashlib.sha256()
        self.digesting = False
        self._ref = None
        self.refs: list[float] = []  # mean reference task seconds, one per call

    def timed(self, kind: str, call, samples=None):
        """Time call() and scale it by the reference task's speed.

        The reference runs just before and after the call; `samples` is a
        list to which others append reference times while the call runs.
        """
        if self._ref is None:
            self._ref = reference_seconds()
        mark = len(samples) if samples is not None else 0
        start = perf_counter()
        out = call()
        took = perf_counter() - start
        refs = [self._ref, reference_seconds()] + (samples[mark:] if samples is not None else [])
        self._ref = refs[1]
        self.refs.append(statistics.fmean(refs))
        scaled = took * REFERENCE_S / self.refs[-1]
        self.calls[kind].append(took)
        self.scaled[kind].append(scaled)
        return out

    def output(self, chars: int, *parts: str) -> None:
        self.chars += chars
        if self.digesting:
            for part in parts:
                self.digest.update(part.encode("utf-8", "surrogatepass") + b"\0")

    def check(self, kind: str, hits, expected, offsets: int) -> None:
        """Compare (offset, corrected) pairs; None in expected skips a count."""
        self.checked += 1
        self.offsets += offsets
        self.hits += len(hits)
        got = [(h.offset, h.corrected_errors) for h in hits]
        ok = len(got) == len(expected) and all(
            g[0] == e[0] and e[1] in (None, g[1]) for g, e in zip(got, expected)
        )
        if not ok:
            self.wrong.append("%s: expected %s, got %s" % (kind, expected, got))
        if self.digesting:
            self.digest.update(repr(got).encode())


def run_pass(workload, inputs, rec: Recorder, *, rounds=None, seconds=None) -> float:
    """Run rounds 0, 1, ... until `rounds` are done or `seconds` have passed.

    At least one round runs; round 0 feeds the output digest.
    """
    start = perf_counter()
    r = 0
    while True:
        rec.digesting = r == 0
        workload.round(inputs, r, rec)
        r += 1
        if (r >= rounds) if rounds is not None else (perf_counter() - start >= seconds):
            return perf_counter() - start


@dataclass
class Inputs:
    seed: int
    suite: object
    keys: dict  # scheme id -> KeyMaterial
    prompts: list
    params: dict = field(default_factory=dict)  # call type -> WatermarkParams
    pieces: dict = field(default_factory=dict)  # scan-marked: profile -> gadget texts
    model: object = None
    stub: StubServer | None = None

    def key_for(self, profile: str):
        return self.keys[SCHEME_OF.get(profile, "schnorr-p1024")]

    def prompt(self, r: int) -> str:
        return self.prompts[r % len(self.prompts)]

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def make_inputs(seed: int, profiles) -> Inputs:
    salts = [derive(seed, "salt", role).to_bytes(8, "big") for role in ("sign", "mask", "bit")]
    return Inputs(
        seed=seed,
        suite=pdws.OracleSuite(*salts),
        keys={
            scheme: pdws.keygen(b"perfbench-%d" % seed, scheme_id=scheme)
            for scheme in ("schnorr-p1024", "ed25519")
        },
        prompts=load_prompts(),
        params={p: load_profile(p) for p in profiles},
    )


def embed_checked(rec: Recorder, inputs: Inputs, kind: str, params, keys, model, seed: int) -> None:
    """Time one watermark() call, then detect its output with the public key."""
    rec.attempted += 1
    try:
        text, transcript = rec.timed(
            kind,
            lambda: pdws.watermark(
                params, keys, model, inputs.prompt(seed), seed=seed, suite=inputs.suite
            ),
            inputs.stub.speed_samples if inputs.stub else None,
        )
    except pdws.EmbedFailure:
        rec.embed_failed += 1
        return
    # Every layout here has n equal to one gadget, found at offset 0.
    rec.model_chars += expected_model_chars(params)
    rec.output(len(text), text)
    hits = pdws.detect_all(keys.public_only(), params, text, suite=inputs.suite)
    tried = replay_offsets(len(text), params.gadget_chars, params.ell, [h.offset for h in hits])
    rec.check(kind, hits, [(0, transcript.gamma_used)], tried)


class EmbedMock:
    """watermark() on the uniform mock over every bundled profile.

    One compact-328 gadget per round runs on a scripted mock with two
    forced blocks, so the planted-error path and the decoder's correction
    run on every round.
    """

    name = "embed-mock"
    kind = "embed"
    nominal_round_s = 0.35

    def setup(self, seed: int) -> Inputs:
        inputs = make_inputs(seed, PROFILES)
        inputs.model = pdws.ModelHandle(kind="uniform-mock")
        return inputs

    def round(self, inputs: Inputs, r: int, rec: Recorder) -> None:
        for profile in PROFILES:
            embed_checked(
                rec, inputs, profile, inputs.params[profile], inputs.key_for(profile),
                inputs.model, derive(inputs.seed, profile, r),
            )
        params = inputs.params["compact-328"]
        embed_checked(
            rec, inputs, "compact-328/low-entropy", params, inputs.key_for("compact-328"),
            low_entropy_model(params.ell), derive(inputs.seed, "low-entropy", r),
        )

class EmbedRemote:
    """watermark() through the HTTP adapter against the loopback stub."""

    name = "embed-remote"
    kind = "embed"
    nominal_round_s = 4.5

    def setup(self, seed: int) -> Inputs:
        inputs = make_inputs(seed, ())
        # beta=2 keeps one gadget near 2.5k requests; the demo's beta=4
        # layout needs 16 candidates per chunk instead of 4.
        inputs.params["remote"] = pdws.WatermarkParams(
            ell=8, beta=2, gamma_max=2, a_max=64, n=8 * (1 + 360 // 2),
            lambda_sig=328, lambda_c=360,
        )
        inputs.stub = StubServer()
        inputs.model = pdws.ModelHandle(kind="remote", endpoint=inputs.stub.endpoint, top_k=8)
        return inputs

    def round(self, inputs: Inputs, r: int, rec: Recorder) -> None:
        embed_checked(
            rec, inputs, "remote", inputs.params["remote"], inputs.keys["schnorr-p1024"],
            inputs.model, derive(inputs.seed, "remote", r),
        )


class ScanClean:
    """Full-scan detect() over unmarked documents of fixed length."""

    name = "scan-clean"
    kind = "scan"
    nominal_round_s = 0.55
    # Offsets per document; the document is gadget_chars + offsets - 1 long.
    OFFSETS = {"compact-328": 150, "ed25519-544": 100, "wide-32": 120}

    def setup(self, seed: int) -> Inputs:
        inputs = make_inputs(seed, tuple(self.OFFSETS))
        inputs.keys = {k: v.public_only() for k, v in inputs.keys.items()}
        return inputs

    def round(self, inputs: Inputs, r: int, rec: Recorder) -> None:
        for profile, n_offsets in self.OFFSETS.items():
            params = inputs.params[profile]
            rnd = random.Random(derive(inputs.seed, "clean", profile, r))
            doc = clean_text(rnd, params.gadget_chars + n_offsets - 1)
            rec.attempted += 1
            result = rec.timed(
                profile,
                lambda: pdws.detect(inputs.key_for(profile), params, doc, suite=inputs.suite),
            )
            hits = [result] if result.detected else []
            tried = result.offset + 1 if result.detected else n_offsets
            rec.output(len(doc), doc)
            rec.check(profile, hits, [], tried)

class ScanMarked:
    """detect_all() over unmarked padding around known gadgets.

    Each document holds a plain gadget, a tile_compress pair and, where the
    profile has an error budget, a low-entropy gadget with planted errors.
    The gadgets are embedded once in set-up; every round wraps them in
    fresh padding, so no two scanned documents are equal.
    """

    name = "scan-marked"
    kind = "scan"
    nominal_round_s = 0.6
    MARKED = ("compact-328", "gamma0-328")
    PAD = 64

    def setup(self, seed: int) -> Inputs:
        inputs = make_inputs(seed, self.MARKED)
        uniform = pdws.ModelHandle(kind="uniform-mock")
        for profile in self.MARKED:
            params, keys = inputs.params[profile], inputs.key_for(profile)
            prompt = inputs.prompt(0)
            plain, tr = pdws.watermark(
                params, keys, uniform, prompt, seed=derive(seed, "plain", profile),
                suite=inputs.suite,
            )
            pieces = [(plain, [(0, tr.gamma_used)])]
            tile = pdws.tile_compress(
                params, keys, uniform, prompt, 2, seed=derive(seed, "tile", profile),
                suite=inputs.suite,
            )
            pieces.append((tile, [(0, None), (params.gadget_chars - params.ell, None)]))
            if params.gamma_max:
                low, tr = pdws.watermark(
                    params, keys, low_entropy_model(params.ell), prompt,
                    seed=derive(seed, "low-entropy", profile), suite=inputs.suite,
                )
                pieces.append((low, [(0, tr.gamma_used)]))
            inputs.pieces[profile] = pieces
        inputs.keys = {k: v.public_only() for k, v in inputs.keys.items()}
        return inputs

    def round(self, inputs: Inputs, r: int, rec: Recorder) -> None:
        for profile in self.MARKED:
            params = inputs.params[profile]
            rnd = random.Random(derive(inputs.seed, "pad", profile, r))
            doc, expected = clean_text(rnd, self.PAD), []
            for text, gadgets in inputs.pieces[profile]:
                expected += [(len(doc) + offset, corrected) for offset, corrected in gadgets]
                doc += text + clean_text(rnd, self.PAD)
            rec.attempted += 1
            hits = rec.timed(
                profile,
                lambda: pdws.detect_all(inputs.key_for(profile), params, doc, suite=inputs.suite),
            )
            rec.output(len(doc), doc)
            offsets = [h.offset for h in hits]
            tried = replay_offsets(len(doc), params.gadget_chars, params.ell, offsets)
            rec.check(profile, hits, expected, tried)


WORKLOADS = {w.name: w for w in (EmbedMock, EmbedRemote, ScanClean, ScanMarked)}
