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
``import pdws`` loads only what keygen and detection need: the sampling
names, and the embedder, model and rng modules, import on first access.
"""

from importlib import import_module

from .core import (
    BitString,
    BlockRecord,
    EmbedFailure,
    EmbedTranscript,
    Layout,
    ParameterError,
    ProtocolError,
    TransportError,
    WatermarkParams,
)
from .crypto import KeyMaterial, KeyMaterialError, OracleSuite, keygen
from .detector import DetectionResult, detect, detect_all

_SAMPLING = dict(  # each name imported on first access, and the submodule it is in
    watermark="embedder", tile_compress="embedder", ModelHandle="model",
    TokenDistribution="model", next_distribution="model", embedder="embedder",
    model="model", rng="rng")


def __getattr__(name):
    if name not in _SAMPLING:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = import_module("." + _SAMPLING[name], __name__)  # binds pdws.<submodule> too
    if name != _SAMPLING[name]:
        globals()[name] = getattr(module, name)
    return globals()[name]


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
