"""Command line front end: keygen, watermark, detect, bench.

Key material travels in two JSON envelopes. The secret envelope holds the
signing key plus the full embedding parameters. The public envelope holds
only what detection needs: scheme id, verification key, the Layout (ell,
beta, lambda_sig, lambda_c) and the hash salts, plus the code profile the
layout implies, which is checked on load. Secrets and embedding knobs
never enter the public file.

Exit codes:
    0  success / signature detected
    1  no signature detected
    2  bad input, bad parameters, unreadable or unwritable files
    3  embedding failed (planted-error budget exhausted)
    4  model endpoint unreachable or malformed reply

The PDWS_MODEL_ENDPOINT environment variable points remote model handles
at a generation endpoint, overriding whatever the model config file says.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import crypto, ecc
from .bench import run_bench
from .core import FORMAT_VERSION, Layout, ParameterError, WatermarkParams
from .crypto import KeyMaterial, KeyMaterialError, OracleSuite
from .detector import detect
from .embedder import EmbedFailure, watermark
from .model import ModelHandle, ProtocolError, TransportError

SECRET_KIND = "pdws-secret-key"
PUBLIC_KIND = "pdws-public-key"

_ENDPOINT_ENV = "PDWS_MODEL_ENDPOINT"


# ---------------------------------------------------------------------------
# Bundled parameter profiles
# ---------------------------------------------------------------------------


def list_profiles() -> tuple[str, ...]:
    """Names of parameter profiles shipped with the package."""
    root = resources.files("pdws") / "profiles"
    names = [
        p.name[: -len(".json")]
        for p in root.iterdir()
        if p.name.endswith(".json")
    ]
    return tuple(sorted(names))


def load_profile(name_or_path: str) -> WatermarkParams:
    """Load parameters from a file path or a bundled profile name."""
    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return WatermarkParams.from_json_dict(json.load(fh))
    candidate = resources.files("pdws") / "profiles" / (name_or_path + ".json")
    if candidate.is_file():
        return WatermarkParams.from_json_dict(json.loads(candidate.read_text("utf-8")))
    raise ParameterError(
        "no such params file or profile %r (bundled: %s)"
        % (name_or_path, ", ".join(list_profiles()))
    )


# ---------------------------------------------------------------------------
# Key envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PublicEnvelope:
    """Everything a verifier needs, nothing more."""

    keys: KeyMaterial
    layout: Layout
    suite: OracleSuite

    def to_json_dict(self) -> dict:
        d = self.keys.to_json_dict(include_secret=False)
        d["format_version"] = FORMAT_VERSION
        d["kind"] = PUBLIC_KIND
        # The ecc block is redundant with the layout; it is written for
        # readers and checked on load.
        d["params"] = dict(
            dataclasses.asdict(self.layout),
            ecc=ecc.EccProfile.for_layout(self.layout).to_json_dict(),
            salts=self.suite.to_json_dict(),
        )
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PublicEnvelope":
        if d.get("kind") != PUBLIC_KIND:
            raise ParameterError("not a public key envelope")
        if "secret_key" in d:
            raise ParameterError("public envelope contains secret material")
        keys = KeyMaterial.from_json_dict(d)
        try:
            p = d["params"]
            layout = Layout(**{f.name: int(p[f.name]) for f in dataclasses.fields(Layout)})
            ecc.EccProfile.for_layout(layout).check_stated(p["ecc"])
            suite = OracleSuite.from_json_dict(p["salts"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError("malformed public envelope: %s" % exc) from exc
        crypto.check_signature_bits(keys.scheme_id, layout.lambda_sig)
        return cls(keys, layout, suite)


def _secret_envelope_dict(
    keys: KeyMaterial, params: WatermarkParams, suite: OracleSuite
) -> dict:
    d = keys.to_json_dict(include_secret=True)
    if "secret_key" not in d:
        raise KeyMaterialError("keygen produced no signing key")
    d["format_version"] = FORMAT_VERSION
    d["kind"] = SECRET_KIND
    d["params"] = params.to_json_dict()
    d["salts"] = suite.to_json_dict()
    return d


def _read_secret_envelope(path: str) -> tuple[KeyMaterial, WatermarkParams, OracleSuite]:
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if d.get("kind") != SECRET_KIND:
        raise ParameterError("%s is not a secret key envelope" % path)
    keys = KeyMaterial.from_json_dict(d)
    if not keys.has_secret:
        raise KeyMaterialError("secret envelope lacks a signing key")
    params = WatermarkParams.from_json_dict(d["params"])
    suite = OracleSuite.from_json_dict(d.get("salts", {}))
    return keys, params, suite


def _dump_json(d: dict, path: Optional[str]) -> None:
    text = json.dumps(d, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Model handles
# ---------------------------------------------------------------------------


def _load_model(args) -> ModelHandle:
    spec = getattr(args, "model", None)
    endpoint_env = os.environ.get(_ENDPOINT_ENV)
    if spec is None or spec == "uniform-mock":
        if endpoint_env and spec is None:
            handle = ModelHandle(kind="remote", endpoint=endpoint_env)
        else:
            handle = ModelHandle(kind="uniform-mock")
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            handle = ModelHandle.from_json_dict(json.load(fh))
        if endpoint_env and handle.kind == "remote":
            handle = dataclasses.replace(handle, endpoint=endpoint_env)
    if getattr(args, "top_k", None) is not None:
        handle = dataclasses.replace(handle, top_k=args.top_k)
    if getattr(args, "timeout_ms", None) is not None:
        handle = dataclasses.replace(handle, timeout_ms=args.timeout_ms)
    return handle


def _read_prompt(args) -> str:
    if getattr(args, "prompt_file", None):
        with open(args.prompt_file, "r", encoding="utf-8") as fh:
            return fh.read()
    return getattr(args, "prompt", "") or ""


def _read_input_text(path: str) -> str:
    """Read raw text, or pull the text field from a watermark output file."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError:
        return raw
    if isinstance(doc, dict) and isinstance(doc.get("text"), str):
        return doc["text"]
    return raw


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    if args.params:
        params = load_profile(args.params)
    elif args.scheme == "ed25519":
        params = load_profile("ed25519-544")
    else:
        params = load_profile("compact-328")

    crypto.check_signature_bits(args.scheme, params.lambda_sig)

    seed_bytes = None
    if args.seed is not None:
        seed_bytes = args.seed.to_bytes(8, "big")
    keys = crypto.keygen(seed_bytes, scheme_id=args.scheme)

    if args.salt_seed:
        base = bytes.fromhex(args.salt_seed)
        suite = OracleSuite(
            sign_salt=hashlib.sha256(base + b"|sign").digest()[:16],
            mask_salt=hashlib.sha256(base + b"|mask").digest()[:16],
            bit_salt=hashlib.sha256(base + b"|bit").digest()[:16],
        )
    else:
        suite = OracleSuite()

    _dump_json(_secret_envelope_dict(keys, params, suite), args.secret_out)
    public = PublicEnvelope(keys.public_only(), params.layout, suite)
    _dump_json(public.to_json_dict(), args.public_out)
    return 0


def cmd_watermark(args) -> int:
    keys, params, suite = _read_secret_envelope(args.key)
    if args.params:
        params = load_profile(args.params)
    if args.n is not None:
        params = dataclasses.replace(params, n=args.n)
    model = _load_model(args)
    prompt = _read_prompt(args)
    seed = args.seed if args.seed is not None else model.seed

    try:
        text, transcript = watermark(
            params, keys, model, prompt, seed=seed, suite=suite
        )
    except EmbedFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3

    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "text": text,
            "transcript": transcript.to_json_dict(),
        },
        args.out,
    )
    return 0


def cmd_detect(args) -> int:
    with open(args.public, "r", encoding="utf-8") as fh:
        envelope = PublicEnvelope.from_json_dict(json.load(fh))
    text = _read_input_text(args.input)
    gadget_chars = envelope.layout.gadget_chars
    if args.known_offset is not None and not 0 <= args.known_offset <= len(text) - gadget_chars:
        raise ParameterError(
            "--known-offset %d: no %d-char gadget fits there in a %d-char text"
            % (args.known_offset, gadget_chars, len(text))
        )
    result = detect(
        envelope.keys,
        envelope.layout,
        text,
        suite=envelope.suite,
        known_offset=args.known_offset,
    )
    sys.stdout.write(result.to_json())
    return 0 if result.detected else 1


def cmd_bench(args) -> int:
    keys, params, suite = _read_secret_envelope(args.key)
    if args.params:
        params = load_profile(args.params)
    model = _load_model(args)
    if args.prompts:
        with open(args.prompts, "r", encoding="utf-8") as fh:
            prompts = [line.strip() for line in fh if line.strip()]
    else:
        bundled = resources.files("pdws") / "profiles" / "prompts.txt"
        prompts = [line for line in bundled.read_text("utf-8").splitlines() if line]

    report = run_bench(
        params,
        keys,
        model,
        prompts,
        repeats=args.repeats,
        seed=args.seed or 0,
        suite=suite,
    )
    _dump_json(report.to_json_dict(), args.out)
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write(report.rows_csv())
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_model_flags(sub) -> None:
    sub.add_argument("--model", help="model config JSON, or 'uniform-mock'")
    sub.add_argument("--top-k", type=int, default=None, help="remote top-k override")
    sub.add_argument(
        "--timeout-ms", type=int, default=None, help="remote request timeout override"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdws",
        description="Embed and detect publicly verifiable text watermarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    kg = subs.add_parser("keygen", help="write secret and public key envelopes")
    kg.add_argument("secret_out", help="path for the secret envelope")
    kg.add_argument("public_out", help="path for the public envelope")
    kg.add_argument(
        "--scheme", default=crypto.DEFAULT_SCHEME, choices=crypto.available_schemes()
    )
    kg.add_argument("--seed", type=int, default=None, help="deterministic keygen seed")
    kg.add_argument("--params", help="profile name or params JSON path")
    kg.add_argument("--salt-seed", help="hex seed for deriving hash salts")
    kg.set_defaults(func=cmd_keygen)

    wm = subs.add_parser("watermark", help="generate watermarked text")
    wm.add_argument("--key", required=True, help="secret envelope from keygen")
    wm.add_argument("--prompt", help="prompt text")
    wm.add_argument("--prompt-file", help="read the prompt from a file")
    wm.add_argument("--n", type=int, default=None, help="output length in characters")
    wm.add_argument("--seed", type=int, default=None, help="sampling seed")
    wm.add_argument("--params", help="override embedded params (profile or path)")
    wm.add_argument("--out", help="output JSON path (default stdout)")
    _add_model_flags(wm)
    wm.set_defaults(func=cmd_watermark)

    dt = subs.add_parser("detect", help="scan text for a signature")
    dt.add_argument("--public", required=True, help="public envelope from keygen")
    dt.add_argument("input", help="text file, watermark output JSON, or '-'")
    group = dt.add_mutually_exclusive_group()
    group.add_argument(
        "--scan", action="store_true", help="try every offset (the default)"
    )
    group.add_argument(
        "--known-offset",
        type=int,
        default=None,
        help="probe a single known gadget offset",
    )
    dt.set_defaults(func=cmd_detect)

    bn = subs.add_parser("bench", help="time embedding and detection")
    bn.add_argument("--key", required=True, help="secret envelope from keygen")
    bn.add_argument("--params", help="override embedded params (profile or path)")
    bn.add_argument("--prompts", help="file with one prompt per line")
    bn.add_argument("--repeats", type=int, default=3)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", help="report JSON path (default stdout)")
    bn.add_argument("--plot-data", help="write per-run CSV rows here")
    _add_model_flags(bn)
    bn.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TransportError, ProtocolError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ParameterError, KeyMaterialError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
