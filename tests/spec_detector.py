"""A reference detector, written from the protocol's definitions.

It shares with pdws only primitives that are pinned on their own: the
oracles (h_bit, h_mask, h_sign), the error-correcting code and verify. At
each offset every signature block's value is a one-shot
h_bit(m || x || c_prev) over the whole input, m being the signature blocks
before x. So none of the faster machinery pdws scans with (its running
hash chain, window columns or forked child) is trusted here.
"""

from pdws import crypto, ecc
from pdws.core import BitString
from pdws.detector import DetectionResult


def gadget_at(keys, layout, text, offset, suite):
    """The DetectionResult of a gadget verifying at offset, or None."""
    ell, beta, n_blocks = layout.ell, layout.beta, layout.n_blocks
    if not 0 <= offset <= len(text) - layout.gadget_chars:
        return None
    try:
        msg, *blocks = (text[offset + i * ell : offset + (i + 1) * ell].encode("utf-8")
                        for i in range(1 + n_blocks))
    except UnicodeEncodeError:
        return None
    kept, c_prev = b"", 0
    for j, x in enumerate(blocks):
        pad = -j * beta % 8  # c_prev packed MSB-first, zero-padded to a byte
        packed = (c_prev << pad).to_bytes((j * beta + pad) // 8, "big")
        c_prev = c_prev << beta | crypto.h_bit(kept + x + packed, beta, suite.bit_salt).value
        kept += x
    codeword = suite.h_mask(msg, layout.lambda_c) ^ BitString(c_prev, layout.lambda_c)
    sigma = ecc.decode(codeword, layout)
    if sigma is None or not crypto.verify(keys, suite.h_sign(msg), sigma):
        return None
    corrected = ecc.symbol_distance(codeword, ecc.encode(sigma, layout))
    return DetectionResult(True, offset, corrected, sigma, msg.decode("utf-8"))


def detect_all(keys, layout, text, suite):
    """Every gadget in offset order; after a hit the scan resumes at its last block."""
    hits, offset = [], 0
    while offset <= len(text) - layout.gadget_chars:
        hit = gadget_at(keys, layout, text, offset, suite)
        hits += [hit] if hit else []
        offset += layout.gadget_chars - layout.ell if hit else 1
    return hits
