#!/usr/bin/env python3
"""Generate a signed text with the secret key, detect it with the public key."""

from pdws import (
    ModelHandle,
    OracleSuite,
    WatermarkParams,
    detect,
    keygen,
    watermark,
)

# a keypair and the three hash salts shared between embedder and detector
keys = keygen(b"demo-roundtrip")
suite = OracleSuite(b"demo-sign", b"demo-mask", b"demo-bit")

# default layout: 16-char blocks, 2-bit chunks, one 2896-char gadget
params = WatermarkParams(a_max=64)
model = ModelHandle(kind="uniform-mock")

text, transcript = watermark(params, keys, model, "a prompt", seed=42, suite=suite)
print("generated %d chars, first 64: %r" % (len(text), text[:64]))
print(
    "blocks: %d, planted errors: %d of budget %d"
    % (len(transcript.blocks), transcript.gamma_used, params.gamma_max)
)

# detection never touches the signing key or the embed knobs: the verifier
# holds the public key, the salts and the gadget layout
layout = params.layout
print("verifier layout:", layout)
result = detect(keys.public_only(), layout, text, suite=suite)
print("detected: %s at offset %s" % (result.detected, result.offset))
print("corrected symbol errors: %d" % result.corrected_errors)
print("recovered signature bits: %d" % result.recovered_sig.length)
print("message block: %r" % result.message_block)

# a fresh key cannot claim the text
impostor = keygen(b"someone-else")
print("impostor detects:", detect(impostor, layout, text, suite=suite).detected)
