"""Command line front end: keygen, watermark, detect, bench.

Key material travels in two JSON envelopes. The secret envelope holds the
signing key plus the full embedding parameters. The public envelope holds
only what detection needs: scheme id, verification key, the Layout (ell,
beta, lambda_sig, lambda_c) and the hash salts, plus the layout's
ecc_block(), which must match it exactly, ints as ints, on load. Secrets
and embedding knobs never enter the public file. watermark and bench embed
with the secret envelope's parameters, and only watermark --n overrides
one of them; --params is a keygen flag, and a profile whose code cannot
carry its gamma_max is refused there. Model settings come only from the
--model file. Every JSON document is read with exact keys
(core.json_fields): an unknown or missing key is bad input, and salts need
all three roles. Every file is read as UTF-8 by _read_text and every JSON
text parsed by core.parse_json, and the error of either names the file. A
detect input that is not a watermark output is scanned as raw text. Only
the detect input may be '-' (stdin); any other input named '-' is read
as a file of that name.

Exit codes, all decided in main, which maps each failure to one of them:
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
from pathlib import Path
from typing import Optional

from . import crypto
from .core import FORMAT_VERSION, EmbedFailure, Layout, ParameterError, ProtocolError
from .core import TransportError, WatermarkParams, _require_hex, json_fields, parse_json
from .crypto import KeyMaterial, KeyMaterialError, OracleSuite
from .detector import detect

SECRET_KIND = "pdws-secret-key"
PUBLIC_KIND = "pdws-public-key"
_PUBLIC_KEYS = ["kind", "scheme_id", "public_key", "params"]
_SECRET_KEYS = _PUBLIC_KEYS + ["secret_key", "salts"]
# keygen's profile without --params: the smallest that holds the scheme's signature.
_DEFAULT_PROFILE = {"schnorr-p1024": "compact-328", "ed25519": "ed25519-544"}

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


def _read_text(path) -> str:
    """The text of a file path or a bundled resource, read as UTF-8."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeError as exc:
        raise ParameterError("%s is not UTF-8 text: %s" % (path, exc)) from None


def _read_json(path: str):
    return parse_json(_read_text(path), path)


def load_profile(name_or_path: str) -> WatermarkParams:
    """Load parameters from a file path or, failing that, a bundled profile name."""
    bundled = resources.files("pdws") / "profiles" / (name_or_path + ".json")
    for source in (Path(name_or_path), bundled):
        if source.is_file():
            return WatermarkParams.from_json(_read_text(source))
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
        d = self.keys.public_only().to_json_dict()
        d["format_version"] = FORMAT_VERSION
        d["kind"] = PUBLIC_KIND
        # The ecc block is redundant with the layout; it is written for
        # readers and checked on load.
        d["params"] = dict(
            dataclasses.asdict(self.layout),
            ecc=self.layout.ecc_block(),
            salts=self.suite.to_json_dict(),
        )
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PublicEnvelope":
        json_fields(d, _PUBLIC_KEYS, ["format_version"], "public envelope")
        if d["kind"] != PUBLIC_KIND:
            raise ParameterError("not a public key envelope")
        keys = KeyMaterial.from_json_dict(d)
        names = [f.name for f in dataclasses.fields(Layout)]
        p = json_fields(d["params"], names + ["ecc", "salts"], [], "public params")
        layout = Layout(**{name: p[name] for name in names})
        layout.check_ecc_block(p["ecc"])
        crypto.check_signature_bits(keys.scheme_id, layout.lambda_sig)
        return cls(keys, layout, OracleSuite.from_json_dict(p["salts"]))


def _secret_envelope_dict(
    keys: KeyMaterial, params: WatermarkParams, suite: OracleSuite
) -> dict:
    d = keys.to_json_dict()
    d["format_version"] = FORMAT_VERSION
    d["kind"] = SECRET_KIND
    d["params"] = params.to_json_dict()
    d["salts"] = suite.to_json_dict()
    return d


def _read_secret_envelope(path: str) -> tuple[KeyMaterial, WatermarkParams, OracleSuite]:
    d = json_fields(_read_json(path), _SECRET_KEYS, ["format_version"], "secret envelope")
    if d["kind"] != SECRET_KIND:
        raise ParameterError("%s is not a secret key envelope" % path)
    keys = KeyMaterial.from_json_dict(d)
    if keys.signing_key is None:
        raise KeyMaterialError("secret envelope lacks a signing key")
    params = WatermarkParams.from_json_dict(d["params"])
    suite = OracleSuite.from_json_dict(d["salts"])
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


def _load_model(args):
    spec = args.model
    endpoint_env = os.environ.get(_ENDPOINT_ENV)
    doc = None if spec in (None, "uniform-mock") else _read_json(spec)
    from .model import ModelHandle  # after the file reads, so a bad one never loads numpy

    if spec == "uniform-mock" or spec is None and not endpoint_env:
        return ModelHandle(kind="uniform-mock")
    if spec is None:
        return ModelHandle(kind="remote", endpoint=endpoint_env)
    handle = ModelHandle.from_json_dict(doc)
    if endpoint_env and handle.kind == "remote":
        handle = dataclasses.replace(handle, endpoint=endpoint_env)
    return handle


def _read_input_text(path: str) -> str:
    """Raw text or a watermark output's text field; the one input that may be '-' (stdin)."""
    if path != "-":
        raw = _read_text(path)
    else:
        try:
            raw = sys.stdin.read()
            raw.encode("utf-8")  # stdin may decode bytes that are not UTF-8 to lone surrogates
        except UnicodeError as exc:
            raise ParameterError("- is not UTF-8 text: %s" % exc) from None
    try:
        doc = parse_json(raw, path)
    except ParameterError:
        return raw
    if isinstance(doc, dict) and isinstance(doc.get("text"), str):
        return doc["text"]
    return raw


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_keygen(args) -> int:
    params = load_profile(args.params or _DEFAULT_PROFILE[args.scheme])
    crypto.check_signature_bits(args.scheme, params.lambda_sig)

    seed_bytes = None
    if args.seed is not None:
        if not 0 <= args.seed < 1 << 64:
            raise ParameterError("keygen --seed must be in [0, 2^64)")
        seed_bytes = args.seed.to_bytes(8, "big")
    keys = crypto.keygen(seed_bytes, scheme_id=args.scheme)

    suite = OracleSuite()
    if args.salt_seed is not None:
        base = _require_hex("--salt-seed", args.salt_seed or None)  # '' would mean unsalted
        suite = OracleSuite(**{
            role + "_salt": hashlib.sha256(base + b"|" + role.encode()).digest()[:16]
            for role in ("sign", "mask", "bit")
        })

    _dump_json(_secret_envelope_dict(keys, params, suite), args.secret_out)
    public = PublicEnvelope(keys.public_only(), params.layout, suite)
    _dump_json(public.to_json_dict(), args.public_out)
    return 0


def cmd_watermark(args) -> int:
    keys, params, suite = _read_secret_envelope(args.key)
    if args.n is not None:
        params = dataclasses.replace(params, n=args.n)
    model = _load_model(args)
    prompt = _read_text(args.prompt_file) if args.prompt_file else args.prompt or ""
    from .embedder import watermark  # numpy loads here, once the inputs have read

    text, transcript = watermark(params, keys, model, prompt, seed=args.seed, suite=suite)
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
    envelope = PublicEnvelope.from_json_dict(_read_json(args.public))
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
    _dump_json(result.to_json_dict(), None)
    return 0 if result.detected else 1


def cmd_bench(args) -> int:
    from .bench import run_bench

    keys, params, suite = _read_secret_envelope(args.key)
    model = _load_model(args)
    bundled = resources.files("pdws") / "profiles" / "prompts.txt"
    lines = _read_text(args.prompts or bundled).split("\n")
    prompts = [line.strip() for line in lines if line.strip()]

    report = run_bench(
        params, keys, model, prompts, repeats=args.repeats, seed=args.seed, suite=suite
    )
    _dump_json(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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
    prompt = wm.add_mutually_exclusive_group()
    prompt.add_argument("--prompt", help="prompt text")
    prompt.add_argument("--prompt-file", help="read the prompt from a file")
    wm.add_argument("--n", type=int, default=None, help="output length in characters")
    wm.add_argument("--seed", type=int, default=0, help="sampling seed")
    wm.add_argument("--out", help="output JSON path (default stdout)")
    wm.add_argument("--model", help="model config JSON, or 'uniform-mock'")
    wm.set_defaults(func=cmd_watermark)

    dt = subs.add_parser("detect", help="scan text for a signature")
    dt.add_argument("--public", required=True, help="public envelope from keygen")
    dt.add_argument("input", help="text file, watermark output JSON, or '-'")
    dt.add_argument(
        "--known-offset",
        type=int,
        default=None,
        help="probe a single known gadget offset instead of scanning every offset",
    )
    dt.set_defaults(func=cmd_detect)

    bn = subs.add_parser("bench", help="time embedding and detection")
    bn.add_argument("--key", required=True, help="secret envelope from keygen")
    bn.add_argument("--prompts", help="file with one prompt per line")
    bn.add_argument("--repeats", type=int, default=3)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", help="report JSON path, rows included (default stdout)")
    bn.add_argument("--model", help="model config JSON, or 'uniform-mock'")
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
    except EmbedFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
