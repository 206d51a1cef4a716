"""Publicly detectable watermarks for sampled text.

Embeds an unforgeable signature into generated text by rejection sampling
over fixed-width character blocks, with a small error-correcting budget
for blocks that refuse to cooperate. Anyone holding the public key and
the layout parameters can scan a string and verify the claim; nobody can
forge a positive without the signing key.

The top level holds the protocol, the types it takes and returns, and the
errors the command line maps to exit codes. The error-correcting code is
read off the Layout (parity_symbols, ecc_block). Internals (the byte code,
sampling, h_bit, raw sign/verify, the bench) stay in their submodules.
"""

from .core import (
    BitString,
    BlockRecord,
    EmbedTranscript,
    Layout,
    ParameterError,
    WatermarkParams,
)
from .crypto import KeyMaterial, KeyMaterialError, OracleSuite, keygen
from .detector import DetectionResult, detect, detect_all
from .embedder import EmbedFailure, tile_compress, watermark
from .model import (
    ModelHandle,
    ProtocolError,
    TokenDistribution,
    TransportError,
    next_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "BlockRecord",
    "DetectionResult",
    "EmbedFailure",
    "EmbedTranscript",
    "KeyMaterial",
    "KeyMaterialError",
    "Layout",
    "ModelHandle",
    "OracleSuite",
    "ParameterError",
    "ProtocolError",
    "TokenDistribution",
    "TransportError",
    "WatermarkParams",
    "detect",
    "detect_all",
    "keygen",
    "next_distribution",
    "tile_compress",
    "watermark",
]
