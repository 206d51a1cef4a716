"""Publicly detectable watermarks for sampled text.

Embeds an unforgeable signature into generated text by rejection sampling
over fixed-width character blocks, with a small error-correcting budget
for blocks that refuse to cooperate. Anyone holding the public key and
the layout parameters can scan a string and verify the claim; nobody can
forge a positive without the signing key.
"""

from .bench import BenchReport, BenchRun, expected_chars, run_bench
from .core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    Layout,
    ParameterError,
    WatermarkParams,
    chunk,
)
from .crypto import (
    DEFAULT_SCHEME,
    KeyMaterial,
    KeyMaterialError,
    OracleSuite,
    available_schemes,
    get_scheme,
    h_bit,
    h_mask,
    h_sign,
    keygen,
    sign,
    verify,
)
from .detector import DetectionResult, detect, detect_all
from .ecc import EccProfile, decode, encode, symbol_distance
from .embedder import (
    EmbedFailure,
    generate_message_signature_pair,
    reject_sample_tokens,
    tile_compress,
    watermark,
)
from .model import (
    DEFAULT_ALPHABET,
    ModelHandle,
    ProtocolError,
    TokenDistribution,
    TransportError,
    gen_model,
    next_distribution,
    sample_min_chars,
    sample_token,
)
from .rng import SamplerState

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRun",
    "BitString",
    "BlockRecord",
    "DEFAULT_ALPHABET",
    "DEFAULT_SCHEME",
    "DetectionResult",
    "EccProfile",
    "EmbedFailure",
    "EmbedTranscript",
    "KeyMaterial",
    "KeyMaterialError",
    "Layout",
    "ModelHandle",
    "OracleSuite",
    "ParameterError",
    "ProtocolError",
    "SamplerState",
    "TokenDistribution",
    "TransportError",
    "WatermarkParams",
    "available_schemes",
    "chunk",
    "decode",
    "detect",
    "detect_all",
    "encode",
    "expected_chars",
    "gen_model",
    "generate_message_signature_pair",
    "get_scheme",
    "h_bit",
    "h_mask",
    "h_sign",
    "keygen",
    "next_distribution",
    "reject_sample_tokens",
    "run_bench",
    "sample_min_chars",
    "sample_token",
    "sign",
    "symbol_distance",
    "tile_compress",
    "verify",
    "watermark",
]
