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

An offset's blocks are the UTF-8 bytes of every ell-th ell-char window
from it, and its chain absorbs all of its signature blocks in one call.
A scan encodes each window at most once, when the first offset that
reads it is tried, so a scan that stops at offset k has encoded only the
windows of offsets 0..k; a known_offset probe is the same scan limited
to one offset. A window holding a lone surrogate does not encode, and no
offset that reads it can hold a gadget, since the embedder never emits
one.

A forged text would need a valid signature on its own message block, so
false positives reduce to signature forgery (or a hash collision on the
decode side, bounded by the code's minimum distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import crypto, ecc
from .core import FORMAT_VERSION, BitString, Layout, _require_int
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


def _windows(text: str, ell: int, starts: range) -> list[Optional[bytes]]:
    """UTF-8 bytes of the ell-char window at each start, None for one that cannot encode."""
    windows = []
    for i in starts:
        try:
            windows.append(text[i : i + ell].encode("utf-8"))
        except UnicodeEncodeError:
            # A lone surrogate: the embedder never emits one, so no gadget here.
            windows.append(None)
    return windows


def _try_offset(
    blocks: list[Optional[bytes]],
    offset: int,
    layout: Layout,
    keys: KeyMaterial,
    suite: OracleSuite,
) -> Optional[DetectionResult]:
    """Attempt full recovery of the gadget whose 1 + n_blocks windows start at offset."""
    if not all(blocks):  # a window that would not encode is None; none is empty
        return None
    msg_bytes = blocks[0]
    chain = crypto.BitChain(suite.bit_oracle(), layout.beta)
    chunks = BitString.from_bytes(chain.absorb(blocks[1:]), layout.lambda_c)
    codeword = suite.h_mask(msg_bytes, layout.lambda_c) ^ chunks
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
        message_block=msg_bytes.decode("utf-8"),
    )


def _scan(
    keys: KeyMaterial, layout: Layout, text: str, suite: OracleSuite, offsets: range
) -> Iterator[DetectionResult]:
    """Yield every gadget at offsets.start..offsets.stop-1, in offset order.

    Offsets ell apart read the same windows but one, so the windows are
    kept in one column per residue offset % ell. At each offset its column
    drops, in place, the windows before the offset and encodes only those
    past its end: a scan encodes each window once, only when an offset
    reads it, and holds one gadget's worth of windows per column. After a
    hit the scan resumes at offset + gadget_chars - ell so a following
    gadget whose message block is the previous gadget's final window is
    still seen; non-overlapping gadgets are a fortiori covered.
    """
    ell, gadget_len = layout.ell, layout.gadget_chars
    first, stop = offsets.start, min(offsets.stop, len(text) - gadget_len + 1)
    # Column (offset - first) % ell: [last offset tried there, its windows].
    # ell is outside input, so there are no more columns than offsets; an
    # untried column is empty, so what it drops does not matter.
    columns = [[first, []] for _ in range(min(ell, stop - first))]
    offset = first
    while offset < stop:
        column = columns[(offset - first) % ell]
        windows = column[1]
        del windows[: (offset - column[0]) // ell]
        column[0] = offset
        windows += _windows(text, ell, range(offset + ell * len(windows), offset + gadget_len, ell))
        result = _try_offset(windows, offset, layout, keys, suite)
        if result is not None:
            yield result
            offset += gadget_len - ell
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
    With known_offset the scan is limited to that one offset and encodes
    only its gadget's windows; a known_offset that is not an int (a bool,
    float or string) raises ParameterError, and one where no gadget fits
    means not detected. Otherwise offsets 0..len(text)-gadget_chars are
    tried in order and the lowest verifying one wins. Total: bad text
    means not detected.
    """
    offsets = range(len(text))
    if known_offset is not None:
        _require_int("known_offset", known_offset)
        offsets = range(max(known_offset, 0), known_offset + 1)  # empty when negative
    return next(_scan(keys, layout, text, suite, offsets), _NOT_DETECTED)


def detect_all(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    *,
    suite: OracleSuite = OracleSuite(),
) -> list[DetectionResult]:
    """Find every gadget, including tiled ones that share a message block."""
    return list(_scan(keys, layout, text, suite, range(len(text))))
