import random

import pytest

from pdws.core import BitString, ParameterError
from pdws.crypto import (
    DEFAULT_SCHEME,
    BitChain,
    KeyMaterial,
    KeyMaterialError,
    OracleSuite,
    SchnorrP1024,
    _SCHEMES,
    _full_table,
    _table,
    _table_pow,
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

    @pytest.mark.parametrize("beta", [2.0, True, "2"])
    def test_h_bit_refuses_a_beta_that_is_not_an_int(self, beta):
        with pytest.raises(ParameterError):
            h_bit(b"x", beta)

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
            whole = oracle.bit_value(a + b + tail, beta, oracle.running())
            assert oracle.bit_value(tail, beta, state) == whole
            # the state is copied, not consumed
            assert oracle.bit_value(tail, beta, state) == whole
            assert h_bit(a + b + tail, beta, b"salt").value == whole

    @pytest.mark.parametrize("beta", [1, 2, 4, 8])
    def test_bit_chain_matches_one_shot_h_bit(self, beta):
        # Ten windows take c_prev past one byte even at beta 1.
        windows = [b"", b"block", "äß中".encode(), "文😀".encode(), b"", b"x" * 40]
        windows += [b"%d" % i for i in range(4)]
        chain = BitChain(OracleSuite(bit_salt=b"salt").bit_oracle(), beta)
        mixed = BitChain(OracleSuite(bit_salt=b"salt").bit_oracle(), beta)  # pushes every other
        m, c_prev, c_bits = b"", 0, 0  # c_prev: the chunk values so far, an int of c_bits bits
        for n, window in enumerate(windows):
            c_bytes = BitString(c_prev, c_bits).to_bytes()
            value = h_bit(m + window + c_bytes, beta, b"salt")
            other = "✅".encode() + window
            assert chain.peek(other) == h_bit(m + other + c_bytes, beta, b"salt").value
            assert chain.peek(window) == value.value
            # peeking left the chain as it was
            assert chain.absorb(()) == c_bytes
            m, c_prev, c_bits = m + window, c_prev << beta | value.value, c_bits + beta
            assert chain.absorb([window]) == BitString(c_prev, c_bits).to_bytes()
            if n % 2:
                mixed.absorb([window])
            else:
                mixed.push(window, mixed.peek(window))
            assert mixed.absorb(()) == chain.absorb(())
            assert mixed.peek(other) == chain.peek(other)
        # One call over every window, or two calls split inside a c_prev byte.
        for split in (0, 3, len(windows)):
            chain = BitChain(OracleSuite(bit_salt=b"salt").bit_oracle(), beta)
            chain.absorb(windows[:split])
            assert chain.absorb(iter(windows[split:])) == BitString(c_prev, c_bits).to_bytes()

    def test_absorb_returns_a_snapshot(self):
        chain = BitChain(OracleSuite().bit_oracle(), 2)
        first = chain.absorb([b"a", b"b"])
        assert type(first) is bytes
        kept = bytes(first)
        chain.peek(b"c")
        chain.absorb([b"c", b"d", b"e"])
        assert first == kept

    def test_h_bit_balance(self):
        ones = sum(h_bit(b"%d" % i, 1).value for i in range(2000))
        assert abs(ones / 2000 - 0.5) < 0.05

    def test_suite_json_roundtrip(self):
        s = OracleSuite(b"a", b"bb", b"ccc")
        again = OracleSuite.from_json_dict(s.to_json_dict())
        assert again == s
        # every role is required, an empty salt too, and no other key is read
        assert OracleSuite.from_json_dict({"sign": "", "mask": "", "bit": ""}) == OracleSuite()
        wrong_keys = ({}, {"sign": "", "mask": ""}, {"sgn": "", "mask": "", "bit": ""},
                      dict(s.to_json_dict(), extra="00"))
        for bad in (["00", "00", "00"], {"sign": 5, "mask": "", "bit": ""}, *wrong_keys):
            with pytest.raises(ParameterError):
                OracleSuite.from_json_dict(bad)


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
        assert not verify(keys, digest, BitString(0, 0))

    def test_a_fault_in_the_scheme_raises(self, scheme_id, monkeypatch):
        # A bug in a scheme's verify must not read as "no signature here".
        keys = keygen(b"seed-n", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        sig = sign(keys, digest)

        class Faulty:
            sig_bits = get_scheme(scheme_id).sig_bits

            def verify(self, verify_key, digest, sig):
                raise TypeError("a fault in the scheme")

        monkeypatch.setitem(_SCHEMES, scheme_id, Faulty())
        with pytest.raises(TypeError, match="a fault in the scheme"):
            verify(keys, digest, sig)

    def test_public_only_can_verify_but_not_sign(self, scheme_id):
        keys = keygen(b"seed-j", scheme_id=scheme_id)
        digest = SUITE.h_sign(b"msg")
        sig = sign(keys, digest)
        pub = keys.public_only()
        assert pub.signing_key is None
        assert verify(pub, digest, sig)
        with pytest.raises(KeyMaterialError):
            sign(pub, digest)

    def test_mismatched_pair_cannot_be_built(self, scheme_id):
        # Signing one digest under two public keys with one nonce would
        # reveal a Schnorr secret key, so a mixed pair must never exist.
        a, b = keygen(b"seed-l", scheme_id=scheme_id), keygen(b"seed-m", scheme_id=scheme_id)
        with pytest.raises(KeyMaterialError):
            sign(KeyMaterial(scheme_id, b.verify_key, a.signing_key), SUITE.h_sign(b"msg"))
        with pytest.raises(KeyMaterialError):
            KeyMaterial.from_json_dict(dict(a.to_json_dict(), public_key=b.verify_key.hex()))

    def test_key_material_json(self, scheme_id):
        keys = keygen(b"seed-k", scheme_id=scheme_id)
        full = KeyMaterial.from_json_dict(keys.to_json_dict())
        assert full == keys
        pub = KeyMaterial.from_json_dict(keys.public_only().to_json_dict())
        assert pub == keys.public_only()
        assert "secret_key" not in keys.public_only().to_json_dict()


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
        # (y^2 - 1) / (d y^2 + 1) is not a square mod p for y = 2
        ("ed25519", (2).to_bytes(32, "little")),
        # y = p is a non-canonical encoding of y = 0
        ("ed25519", (2**255 - 19).to_bytes(32, "little")),
        ("rsa", bytes(128)),
    ],
)
def test_key_envelope_rejects_keys_its_scheme_cannot_hold(scheme_id, public_key):
    with pytest.raises(KeyMaterialError):
        KeyMaterial.from_json_dict({"scheme_id": scheme_id, "public_key": public_key.hex()})
    # Built directly, without an envelope, the key is refused all the same.
    with pytest.raises(KeyMaterialError):
        KeyMaterial(scheme_id, public_key)


@pytest.mark.parametrize("base", ["g", "y"])
def test_table_pow_matches_pow(base):
    P, Q = SchnorrP1024.P, SchnorrP1024.Q
    if base == "g":
        value = SchnorrP1024.G
    else:
        pub = KeyMaterial.from_json_dict(keygen(b"table").public_only().to_json_dict())
        value = int.from_bytes(pub.verify_key, "big")
    table = _table(value)
    rng = random.Random(5)
    exponents = [0, 1, Q - 1, 2**164 - 1] + [rng.getrandbits(164) for _ in range(50)]
    for x in exponents:
        assert _table_pow(table, x, P) == pow(value, x, P)


def test_verify_tables_follow_the_key():
    a, b = keygen(b"key-a"), keygen(b"key-b")
    digest = SUITE.h_sign(b"msg")
    sig_a, sig_b = sign(a, digest), sign(b, digest)
    for keys, own, other in ((a, sig_a, sig_b), (b, sig_b, sig_a), (a, sig_a, sig_b)):
        pub = keys.public_only()
        assert verify(pub, digest, own)
        assert not verify(pub, digest, other)


@pytest.mark.parametrize("base", ["g", "y"])
def test_lazy_table_fills_and_keeps_what_pow_gives(base):
    P, Q = SchnorrP1024.P, SchnorrP1024.Q
    value = SchnorrP1024.G if base == "g" else int.from_bytes(keygen(b"lazy").verify_key, "big")
    _table.cache_clear()
    table = _table(value)
    rows = len(table)
    rng = random.Random(11)
    exponents = [0, 1, Q - 1, 2 ** (8 * rows) - 1] + [rng.getrandbits(164) for _ in range(50)]
    for _ in range(2):  # the first pass fills entries, the second reads the kept ones
        for x in exponents:
            assert _table_pow(table, x, P) == pow(value, x, P)
    assert _table(value) is table


def test_verify_under_a_fresh_key_matches_pow():
    P, Q, G = SchnorrP1024.P, SchnorrP1024.Q, SchnorrP1024.G
    secret, other = keygen(b"fresh-verify"), keygen(b"other")
    keys = secret.public_only()
    y = int.from_bytes(keys.verify_key, "big")

    def by_pow(digest, sig):
        e, s = divmod(sig.value, 1 << 164)
        r_point = pow(G, s, P) * pow(y, Q - e % Q, P) % P
        return s < Q and SchnorrP1024()._challenge(r_point, keys.verify_key, digest) == e

    for signer, verdict in ((secret, True), (other, False)):
        digests = [SUITE.h_sign(b"m%d" % use) for use in range(1, 51)]
        sigs = [sign(signer, digest) for digest in digests]
        _table.cache_clear()  # the 1st verify finds g's table and y's both new
        for digest, sig in zip(digests, sigs):  # the key's 1st, 2nd ... 50th verify
            assert verify(keys, digest, sig) is by_pow(digest.to_bytes(), sig) is verdict


def test_one_sign_fills_g_table():
    # Exactly the entries a nonce below Q (164 bits) can index, and the
    # powers of two every table starts with: the top row only below 16.
    for cached in (_full_table, _table):
        cached.cache_clear()
    assert 0 in _table(SchnorrP1024.G)[0]
    sign(keygen(b"fill"), SUITE.h_sign(b"msg"))
    powers = {1 << bit for bit in range(8)}
    for i, row in enumerate(_table(SchnorrP1024.G)):
        readable = {digit for digit in range(256) if digit << (8 * i) < 2**164}
        assert {digit for digit in range(256) if row[digit]} == readable | powers


def test_g_table_outlives_eight_newer_keys():
    _table.cache_clear()
    digest = SUITE.h_sign(b"msg")
    for i in range(9):
        secret = keygen(b"fresh-%d" % i)
        sig = sign(secret, digest)
        for _ in range(2):
            assert verify(secret.public_only(), digest, sig)
    misses = _table.cache_info().misses
    _table(SchnorrP1024.G)
    assert _table.cache_info().misses == misses


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
    assert a.signing_key is not None and b.signing_key is not None
    assert a != b
