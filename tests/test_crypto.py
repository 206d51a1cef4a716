import random

import pytest

from pdws.core import BitString
from pdws.crypto import (
    DEFAULT_SCHEME,
    KeyMaterial,
    KeyMaterialError,
    OracleSuite,
    SchnorrP1024,
    available_schemes,
    get_scheme,
    h_bit,
    keygen,
    sign,
    verify,
)

SUITE = OracleSuite()


class TestOracles:
    # frozen against accidental changes to the domain-separation frame
    def test_h_sign_pinned_vectors(self):
        assert (
            SUITE.h_sign(b"").to_bytes().hex()
            == "5d295db37d4c62d00bbe1a54c80fb1a0cf78a4620a09ad1eec56c8d6d700a916"
        )
        assert (
            OracleSuite(sign_salt=b"\x01\x02").h_sign(b"abc").to_bytes().hex()
            == "51870eb933f1684a5e1c316f61052bb13726ca2976d73f1edb5dc3266266f793"
        )

    def test_h_mask_pinned_vector_and_exact_length(self):
        assert SUITE.h_mask(b"abc", 12) == BitString(0b000000111011, 12)
        assert SUITE.h_mask(b"abc", 360).length == 360
        assert SUITE.h_mask(b"abc", 7).length == 7

    def test_domain_separation(self):
        data = b"same input"
        outs = {
            SUITE.h_sign(data).to_bytes(),
            SUITE.h_mask(data, 256).to_bytes(),
            h_bit(data, 8).to_bytes() + b"rest-differs",
        }
        assert len(outs) == 3
        assert SUITE.h_sign(data) != OracleSuite(sign_salt=b"salt").h_sign(data)

    def test_salt_changes_every_oracle(self):
        data = b"x"
        assert SUITE.h_mask(data, 64) != OracleSuite(mask_salt=b"s").h_mask(data, 64)
        vals = [h_bit(bytes([v]), 8) for v in range(32)]
        salted = [h_bit(bytes([v]), 8, b"s") for v in range(32)]
        assert vals != salted

    def test_h_bit_range(self):
        for beta in (1, 2, 4, 8):
            for v in range(16):
                out = h_bit(bytes([v]), beta)
                assert out.length == beta
        with pytest.raises(Exception):
            h_bit(b"x", 3)

    @pytest.mark.parametrize(
        "a, b, tail",
        [
            (b"", b"", b""),
            (b"", b"block", b""),
            (b"prefix", b"", b"\x80"),
            (b"m_acc", b"window", b"\xc0\x01"),
            ("äß中".encode(), "文😀".encode(), "✅".encode()),
        ],
    )
    def test_running_state_matches_whole_input(self, a, b, tail):
        oracle = OracleSuite(bit_salt=b"salt").bit_oracle()
        state = oracle.running(a)
        state.update(b)
        for beta in (1, 2, 4, 8):
            whole = oracle.bit_value(a + b + tail, beta)
            assert oracle.bit_value(tail, beta, state) == whole
            # the state is copied, not consumed
            assert oracle.bit_value(tail, beta, state) == whole
            assert h_bit(a + b + tail, beta, b"salt").value == whole

    def test_h_bit_balance(self):
        ones = sum(h_bit(b"%d" % i, 1).value for i in range(2000))
        assert abs(ones / 2000 - 0.5) < 0.05

    def test_suite_json_roundtrip(self):
        s = OracleSuite(b"a", b"bb", b"ccc")
        again = OracleSuite.from_json_dict(s.to_json_dict())
        assert again == s
        assert OracleSuite.from_json_dict({}) == OracleSuite()


@pytest.mark.parametrize("scheme_id", ["schnorr-p1024", "ed25519"])
class TestSchemes:
    def test_roundtrip_and_length(self, scheme_id):
        keys = keygen(b"seed-a", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"hello world")
        sig = sign(keys, digest)
        assert sig.length == get_scheme(scheme_id).sig_bits
        assert verify(keys, digest, sig)

    def test_deterministic_keygen_and_sign(self, scheme_id):
        k1 = keygen(b"seed-b", scheme_id=scheme_id)
        k2 = keygen(b"seed-b", scheme_id=scheme_id)
        assert k1 == k2
        digest = SUITE.h_sign(b"msg")
        assert sign(k1, digest) == sign(k2, digest)
        assert keygen(b"seed-c", scheme_id=scheme_id) != k1

    def test_wrong_message_rejected(self, scheme_id):
        keys = keygen(b"seed-d", scheme_id=scheme_id)
        sig = sign(keys, SUITE.h_sign(b"genuine"))
        assert not verify(keys, SUITE.h_sign(b"altered"), sig)

    def test_wrong_key_rejected(self, scheme_id):
        keys = keygen(b"seed-e", scheme_id=scheme_id)
        other = keygen(b"seed-f", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        assert not verify(other, digest, sign(keys, digest))

    def test_bit_flips_rejected(self, scheme_id):
        keys = keygen(b"seed-g", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        sig = sign(keys, digest)
        for i in (0, 1, sig.length // 2, sig.length - 1):
            flipped = BitString(sig.value ^ (1 << (sig.length - 1 - i)), sig.length)
            assert not verify(keys, digest, flipped)

    def test_random_signatures_rejected(self, scheme_id):
        keys = keygen(b"seed-h", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        bits = get_scheme(scheme_id).sig_bits
        rng = random.Random(17)
        for _ in range(1000):
            cand = BitString.from_bytes(rng.randbytes((bits + 7) // 8), bits)
            assert not verify(keys, digest, cand)

    def test_verify_total_on_malformed_input(self, scheme_id):
        keys = keygen(b"seed-i", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        assert not verify(keys, digest, BitString(0, 8))
        assert not verify(keys, digest, BitString.empty())

    def test_public_only_can_verify_but_not_sign(self, scheme_id):
        keys = keygen(b"seed-j", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        sig = sign(keys, digest)
        pub = keys.public_only()
        assert not pub.has_secret
        assert verify(pub, digest, sig)
        with pytest.raises(KeyMaterialError):
            sign(pub, digest)

    def test_key_material_json(self, scheme_id):
        keys = keygen(b"seed-k", scheme_id=scheme_id)
        full = KeyMaterial.from_json_dict(keys.to_json_dict(include_secret=True))
        assert full == keys
        pub = KeyMaterial.from_json_dict(keys.to_json_dict(include_secret=False))
        assert pub == keys.public_only()
        assert "secret_key" not in keys.to_json_dict(include_secret=False)


_P = SchnorrP1024.P


@pytest.mark.parametrize(
    "scheme_id, public_key",
    [
        ("schnorr-p1024", keygen(b"short").verify_key[:10]),
        ("schnorr-p1024", (1).to_bytes(128, "big")),
        ("schnorr-p1024", _P.to_bytes(128, "big")),
        # order 2, so outside the order-q subgroup though 1 < y < P
        ("schnorr-p1024", (_P - 1).to_bytes(128, "big")),
        ("ed25519", bytes(31)),
        ("rsa", bytes(128)),
    ],
)
def test_key_envelope_rejects_keys_its_scheme_cannot_hold(scheme_id, public_key):
    with pytest.raises(KeyMaterialError):
        KeyMaterial.from_json_dict({"scheme_id": scheme_id, "public_key": public_key.hex()})


def test_registry():
    assert DEFAULT_SCHEME == "schnorr-p1024"
    assert set(available_schemes()) == {"schnorr-p1024", "ed25519"}
    with pytest.raises(KeyMaterialError):
        get_scheme("rsa")


def test_schnorr_is_328_bits_ed25519_512():
    assert get_scheme("schnorr-p1024").sig_bits == 328
    assert get_scheme("ed25519").sig_bits == 512


def test_fresh_keygen_without_seed():
    a = keygen()
    b = keygen()
    assert a.has_secret and b.has_secret
    assert a != b
