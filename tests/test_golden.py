"""Golden digests: embedding and detection outputs pinned byte for byte.

Every case runs the public pipeline on fixed keys, salts, seeds and models
and compares a SHA-256 of the exact output (text, plus the transcript JSON
where there is one, or the key envelopes keygen writes) with a value
recorded before the code that produces it was restructured. A change that keeps the protocol's outputs passes these
unchanged; any change to a sampled character, a planted block, a transcript
field or a detection offset fails here first.
"""

import hashlib
import json

import pytest

from pdws.cli import load_profile, main
from pdws.core import Layout, WatermarkParams
from pdws.detector import detect, detect_all
from pdws.embedder import tile_compress, watermark
from pdws.model import ModelHandle

from conftest import make_blocked_script

PROMPT = "golden"

# Small remote layout: 4-char blocks so 1-3-char tokens often straddle a
# block boundary, and n runs 9 characters past the gadget so the plain tail
# is generated (and its last token truncated) too.
REMOTE_PARAMS = WatermarkParams(ell=4, a_max=64, n=4 * 181 + 9)

# 2-, 3- and 4-byte UTF-8 characters, so block windows and the hashed
# prefix never fall on a one-byte-per-character boundary.
MULTIBYTE_ALPHABET = "äöüßéèçñøåæœαβγδλπσω中文字符检测水印签名😀🔏📜✅"


def _digest(text, transcript=None):
    h = hashlib.sha256(text.encode("utf-8"))
    if transcript is not None:
        doc = json.dumps(transcript.to_json_dict(), indent=2, sort_keys=True) + "\n"
        h.update(doc.encode("utf-8"))
    return h.hexdigest()


PROFILE_DIGESTS = {
    "compact-328": "3de73834226531e78a44eb122960b06ab4de79faa2c1e2cb21ac5d66e0cda53c",
    "ed25519-544": "9d20ae5900d62281dadbb3d1cd79dcd61567a381e86ce0c77d4226483e83f883",
    "wide-32": "e09965873f57e3bf0fe09b2ef4e9d08002afd740a605b636190023004f4759a8",
    "gamma0-328": "420b2a46aca8d063f637a76a9282353cdc54563f3f7fb7d94cbea2ec56e6c9e3",
}


@pytest.mark.parametrize("profile", sorted(PROFILE_DIGESTS))
def test_watermark_per_profile(profile, schnorr_keys, ed_keys, model64, suite):
    params = load_profile(profile)
    keys = ed_keys if profile.startswith("ed25519") else schnorr_keys
    text, tr = watermark(params, keys, model64, PROMPT, seed=21, suite=suite)
    assert _digest(text, tr) == PROFILE_DIGESTS[profile]


def test_low_entropy_gadget_plants_two(schnorr_keys, suite):
    params = load_profile("compact-328")
    model = make_blocked_script(params, {1, 2})
    text, tr = watermark(params, schnorr_keys, model, PROMPT, seed=0, suite=suite)
    assert tr.gamma_used == 2
    assert _digest(text, tr) == "ca004ece843f79e7fdfa9d84b72cb23804b4484e107d37cfeddeaf75a7cefba3"


def test_tile_compress_three_pairs(schnorr_keys, model64, suite):
    params = load_profile("compact-328")
    text = tile_compress(params, schnorr_keys, model64, PROMPT, k_pairs=3, seed=22, suite=suite)
    assert len(text) == 3 * params.gadget_chars - 2 * params.ell
    assert _digest(text) == "1b00f29245f74222b32382f7d333c9af88ac15ee5d0f029947f61cc6551c3f51"


def test_remote_multichar_watermark(schnorr_keys, suite, multichar_endpoint):
    model = ModelHandle(kind="remote", endpoint=multichar_endpoint)
    text, tr = watermark(REMOTE_PARAMS, schnorr_keys, model, PROMPT, seed=23, suite=suite)
    assert len(text) == REMOTE_PARAMS.n
    assert _digest(text, tr) == "f832f149f1b40c20d22d7fa2e7b3616de9020ba7b839cb92f9360404f000f3c4"


def test_remote_multichar_tile_compress(schnorr_keys, suite, multichar_endpoint):
    model = ModelHandle(kind="remote", endpoint=multichar_endpoint)
    text = tile_compress(REMOTE_PARAMS, schnorr_keys, model, PROMPT, k_pairs=2, seed=24, suite=suite)
    assert _digest(text) == "4d4db230e2fe049f8ea26727fada30d3cd1b2881dbed9c02ec09e41d675dad1e"


@pytest.fixture(scope="module")
def padded_tiled_document(schnorr_keys, suite):
    # Forced blocks make the tiled gadgets plant errors, so the hits carry
    # nonzero corrected_errors as well as offsets.
    params = load_profile("compact-328")
    model = make_blocked_script(params, {1, 2})
    tile = tile_compress(params, schnorr_keys, model, PROMPT, k_pairs=3, seed=3, suite=suite)
    return params, "x" * 7 + tile + "y" * 11


def test_detection_on_padded_tiled_document(padded_tiled_document, schnorr_keys, suite):
    params, doc = padded_tiled_document
    public = schnorr_keys.public_only()

    hits = detect_all(public, params, doc, suite=suite)
    assert [(h.offset, h.corrected_errors) for h in hits] == [(7, 1), (2887, 0), (5767, 1)]
    assert detect(public, params, doc, suite=suite) == hits[0]
    probed = [detect(public, params, doc, suite=suite, known_offset=h.offset) for h in hits]
    assert probed == hits


def test_detection_from_layout_alone(padded_tiled_document, schnorr_keys, suite):
    # A verifier holds no embed knobs: the bare Layout gives the same hits.
    params, doc = padded_tiled_document
    public = schnorr_keys.public_only()
    layout = Layout(ell=16, beta=2, lambda_sig=328, lambda_c=360)
    hits = detect_all(public, layout, doc, suite=suite)
    assert len(hits) == 3 and hits == detect_all(public, params, doc, suite=suite)
    assert detect(public, layout, doc, suite=suite) == hits[0]


def test_multibyte_gadget_detected_after_surrogate(schnorr_keys, suite):
    params = load_profile("compact-328")
    model = ModelHandle(kind="uniform-mock", alphabet=MULTIBYTE_ALPHABET)
    text, tr = watermark(params, schnorr_keys, model, PROMPT, seed=25, suite=suite)
    assert len(text.encode("utf-8")) > 2 * len(text)
    assert _digest(text, tr) == "37c8cde532d80aa72256d6907d94e221371fe2283636e4657885244c0e6efeab"
    doc = "ñ€😀" * 5 + "\ud800" + text + "中ü🔏" * 4
    hits = detect_all(schnorr_keys.public_only(), params, doc, suite=suite)
    assert [(h.offset, h.corrected_errors) for h in hits] == [(16, 0)]


# (profile, salt seed) -> SHA-256 of the secret and public envelope bytes
# that `pdws keygen --seed 9` writes; the public one carries the ecc block.
KEYGEN_DIGESTS = {
    ("compact-328", "aabb"): (
        "61b130c0eef05712c580096eaf8520e7f7b5557875dfbcd6788d5156f3ca9a98",
        "f1752c2d9da69bc6d3ad45fa9d200fdffc1648fbe553da9741abbb36c28ab7e5",
    ),
    ("ed25519-544", "aabb"): (
        "1a3c7eb68483c7aac6a48a668dc3307f982714d5143b7df598b78ed593818f8d",
        "357da11f98add5d3fb42ff360b23ab151e9bda86db73dfc391c117b700ed63c8",
    ),
    ("gamma0-328", "aabb"): (
        "d85d6d6bf177260ed76051ee498a0d6cf6a36c36b1a5c49e7c33a003186325e9",
        "310acb909609bb7a31174ea58e3e600a73ad4f56eb1e11faa2dafb4c7e47c52d",
    ),
    ("wide-32", "aabb"): (
        "731f997e73947a40a16db214012dc00e9ec46d4d890b26bf4312b0897dd90e5d",
        "26b768ce0adf933ab5793926b9f716796ad1261cfedab91beac082b5991b8720",
    ),
    ("wide-32", None): (
        "8ae81f46e2bbd0fd403657061cafec3696b8e22fbd796c011209fca943cc3459",
        "a30bb5f1d7e8f1dc6053791ccf51edc93940fbca12262cac9001481392d559fd",
    ),
}


@pytest.mark.parametrize("profile, salt_seed", sorted(KEYGEN_DIGESTS, key=str))
def test_keygen_envelopes(tmp_path, profile, salt_seed):
    sk, pk = tmp_path / "sk.json", tmp_path / "pk.json"
    argv = ["keygen", str(sk), str(pk), "--seed", "9", "--params", profile]
    if profile.startswith("ed25519"):
        argv += ["--scheme", "ed25519"]
    if salt_seed is not None:
        argv += ["--salt-seed", salt_seed]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (sk, pk))
    assert digests == KEYGEN_DIGESTS[profile, salt_seed]
