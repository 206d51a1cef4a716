"""Detection: recompute the chunk chain at each offset and verify.

Detection needs only the public key, the hash salts and a Layout (ell,
beta, lambda_sig, lambda_c); the error-correcting code is the layout's
own, and no embedding knob (gamma_max, a_max, n) is read. Every Layout
that constructs has a code, so detect and detect_all never raise on one.
At a candidate offset the first ell chars are read as the message block
and each following block's chained hash h_bit(m || x || c_prev) is
recomputed; the concatenated values are unmasked with h_mask(msg),
decoded by the error-correcting code, and the recovered signature is
checked against h_sign(msg). Any planted block contributes a wrong
chunk, which the code corrects up to its capacity t; the embedder's
budget gamma_max never exceeds t. The chain is a crypto.BitChain, the
same one the embedder sampled against.

A forged text would need a valid signature on its own message block, so
false positives reduce to signature forgery (or a hash collision on the
decode side, bounded by the code's minimum distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import crypto, ecc
from .core import FORMAT_VERSION, BitString, Layout
from .crypto import KeyMaterial, OracleSuite


@dataclass(frozen=True)
class DetectionResult:
    """Verdict for one text (or one gadget within it)."""

    detected: bool
    offset: Optional[int] = None
    corrected_errors: int = 0
    recovered_sig: Optional[BitString] = None
    message_block: Optional[str] = None

    def to_json_dict(self) -> dict:
        sig = None
        if self.recovered_sig is not None:
            sig = {
                "hex": self.recovered_sig.to_bytes().hex(),
                "bits": self.recovered_sig.length,
            }
        return {
            "format_version": FORMAT_VERSION,
            "detected": self.detected,
            "offset": self.offset,
            "corrected_errors": self.corrected_errors,
            "recovered_sig": sig,
            "message_block": self.message_block,
        }


_NOT_DETECTED = DetectionResult(detected=False)


def _try_offset(
    text: str,
    offset: int,
    layout: Layout,
    keys: KeyMaterial,
    suite: OracleSuite,
) -> Optional[DetectionResult]:
    """Attempt full recovery of a gadget starting at a character offset."""
    ell = layout.ell
    msg_window = text[offset : offset + ell]
    try:
        msg_bytes = msg_window.encode("utf-8")
        blocks = [
            text[offset + j * ell : offset + (j + 1) * ell].encode("utf-8")
            for j in range(1, layout.n_blocks + 1)
        ]
    except UnicodeEncodeError:
        # A lone surrogate: the embedder never emits one, so no gadget here.
        return None
    chain = crypto.BitChain(suite.bit_oracle(), layout.beta)
    for window_bytes in blocks:
        chain.push(window_bytes)
    codeword = suite.h_mask(msg_bytes, layout.lambda_c) ^ BitString(chain.value, chain.length)
    sigma = ecc.decode(codeword, layout)
    if sigma is None:
        return None
    if not crypto.verify(keys, suite.h_sign(msg_bytes), sigma):
        return None
    corrected = ecc.symbol_distance(codeword, ecc.encode(sigma, layout))
    return DetectionResult(
        detected=True,
        offset=offset,
        corrected_errors=corrected,
        recovered_sig=sigma,
        message_block=msg_window,
    )


def _scan(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    suite: OracleSuite,
) -> Iterator[DetectionResult]:
    """Yield every gadget found, in offset order.

    After a hit the scan resumes at offset + gadget_chars - ell so a
    following gadget whose message block is the previous gadget's final
    window is still seen; non-overlapping gadgets are a fortiori covered.
    """
    gadget_len = layout.gadget_chars
    offset = 0
    while offset <= len(text) - gadget_len:
        result = _try_offset(text, offset, layout, keys, suite)
        if result is not None:
            yield result
            offset += gadget_len - layout.ell
        else:
            offset += 1


def detect(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    *,
    suite: OracleSuite = OracleSuite(),
    known_offset: Optional[int] = None,
) -> DetectionResult:
    """Scan every offset (or probe just one) for an embedded signature.

    layout may be a full WatermarkParams; only its Layout fields are read.
    With known_offset the scan collapses to a single recovery attempt.
    Otherwise offsets 0..len(text)-gadget_chars are tried in order and the
    lowest verifying one wins. Total: bad input means not detected.
    """
    if known_offset is None:
        return next(_scan(keys, layout, text, suite), _NOT_DETECTED)
    if not 0 <= known_offset <= len(text) - layout.gadget_chars:
        return _NOT_DETECTED
    result = _try_offset(text, known_offset, layout, keys, suite)
    return _NOT_DETECTED if result is None else result


def detect_all(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    *,
    suite: OracleSuite = OracleSuite(),
) -> list[DetectionResult]:
    """Find every gadget, including tiled ones that share a message block."""
    return list(_scan(keys, layout, text, suite))
