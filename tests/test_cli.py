import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from pdws.cli import PublicEnvelope, list_profiles, load_profile, main
from pdws.core import Layout, ParameterError

PROFILE_SCHEMES = [
    ("compact-328", "schnorr-p1024"),
    ("gamma0-328", "schnorr-p1024"),
    ("wide-32", "schnorr-p1024"),
    ("ed25519-544", "ed25519"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def keypair(tmp_path, capsys):
    sk = tmp_path / "sk.json"
    pk = tmp_path / "pk.json"
    code, _, err = run(
        capsys, "keygen", str(sk), str(pk), "--seed", "1", "--salt-seed", "00ff"
    )
    assert code == 0, err
    return sk, pk


class TestProfiles:
    def test_bundled_names(self):
        assert set(list_profiles()) == {
            "compact-328",
            "gamma0-328",
            "ed25519-544",
            "wide-32",
        }

    def test_load_by_name_and_path(self, tmp_path):
        params = load_profile("compact-328")
        p = tmp_path / "params.json"
        p.write_text(json.dumps(params.to_json_dict()))
        assert load_profile(str(p)) == params

    def test_unknown_profile_lists_options(self):
        with pytest.raises(ParameterError, match="compact-328"):
            load_profile("no-such-profile")


class TestKeygen:
    def test_deterministic_with_seed(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            sk = tmp_path / ("sk-%s.json" % tag)
            pk = tmp_path / ("pk-%s.json" % tag)
            code, _, _ = run(
                capsys, "keygen", str(sk), str(pk), "--seed", "9",
                "--salt-seed", "aabb",
            )
            assert code == 0
            paths.append((sk, pk))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_public_file_holds_no_secrets(self, keypair):
        sk, pk = keypair
        secret_doc = json.loads(sk.read_text())
        public_raw = pk.read_text()
        public_doc = json.loads(public_raw)
        assert public_doc["kind"] == "pdws-public-key"
        assert secret_doc["kind"] == "pdws-secret-key"
        assert "secret_key" not in public_raw
        assert secret_doc["secret_key"] not in public_raw

    def test_scheme_profile_mismatch(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "keygen", str(tmp_path / "s.json"), str(tmp_path / "p.json"),
            "--scheme", "ed25519", "--params", "compact-328",
        )
        assert code == 2
        assert "lambda_sig" in err


class TestRoundtrip:
    @pytest.mark.parametrize("profile,scheme", PROFILE_SCHEMES)
    def test_keygen_watermark_detect(self, tmp_path, capsys, profile, scheme):
        sk = tmp_path / "sk.json"
        pk = tmp_path / "pk.json"
        out = tmp_path / "wm.json"
        code, _, err = run(
            capsys, "keygen", str(sk), str(pk), "--seed", "2",
            "--scheme", scheme, "--params", profile,
        )
        assert code == 0, err
        code, _, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "3",
            "--prompt", "hello", "--out", str(out),
        )
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["transcript"]["gamma_used"] <= load_profile(profile).gamma_max

        code, stdout, _ = run(capsys, "detect", "--public", str(pk), str(out))
        assert code == 0
        verdict = json.loads(stdout)
        assert verdict["detected"] is True and verdict["offset"] == 0

    def test_detection_needs_only_the_public_file(self, tmp_path, capsys, keypair):
        sk, pk = keypair
        out = tmp_path / "wm.json"
        code, _, _ = run(
            capsys, "watermark", "--key", str(sk), "--seed", "4", "--out", str(out)
        )
        assert code == 0
        sk.unlink()
        code, stdout, _ = run(capsys, "detect", "--public", str(pk), str(out))
        assert code == 0 and json.loads(stdout)["detected"] is True

    def test_watermark_to_stdout(self, capsys, keypair):
        sk, _ = keypair
        code, stdout, _ = run(capsys, "watermark", "--key", str(sk), "--seed", "5")
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["text"]) == load_profile("compact-328").n
        assert doc["transcript"]["seed"] == 5


class TestDetectPaths:
    def test_scan_finds_prefixed_gadget(self, tmp_path, capsys, keypair):
        sk, pk = keypair
        out = tmp_path / "wm.json"
        run(capsys, "watermark", "--key", str(sk), "--seed", "6", "--out", str(out))
        text = json.loads(out.read_text())["text"]
        shifted = tmp_path / "shifted.txt"
        shifted.write_text("x" * 20 + text)

        code, stdout, _ = run(
            capsys, "detect", "--public", str(pk), str(shifted), "--scan"
        )
        assert code == 0 and json.loads(stdout)["offset"] == 20

        code, stdout, _ = run(
            capsys, "detect", "--public", str(pk), str(shifted),
            "--known-offset", "3",
        )
        assert code == 1 and json.loads(stdout)["detected"] is False

    def test_stdin_input(self, tmp_path, capsys, keypair, monkeypatch):
        sk, pk = keypair
        code, stdout, _ = run(capsys, "watermark", "--key", str(sk), "--seed", "7")
        text = json.loads(stdout)["text"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, stdout, _ = run(capsys, "detect", "--public", str(pk), "-")
        assert code == 0 and json.loads(stdout)["detected"] is True

    def test_junk_text_exits_one(self, tmp_path, capsys, keypair):
        _, pk = keypair
        junk = tmp_path / "junk.txt"
        junk.write_text("nothing embedded here. " * 200)
        code, stdout, _ = run(capsys, "detect", "--public", str(pk), str(junk))
        assert code == 1 and json.loads(stdout)["detected"] is False

    def test_empty_text_exits_one(self, tmp_path, capsys, keypair):
        _, pk = keypair
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, _ = run(capsys, "detect", "--public", str(pk), str(empty))
        assert code == 1


class TestErrorPaths:
    def test_missing_file_exits_two(self, tmp_path, capsys, keypair):
        _, pk = keypair
        code, _, err = run(
            capsys, "detect", "--public", str(pk), str(tmp_path / "absent.txt")
        )
        assert code == 2 and "error" in err

    def test_wrong_envelope_kinds(self, tmp_path, capsys, keypair):
        sk, pk = keypair
        # secret envelope where the public one belongs, and vice versa
        some = tmp_path / "text.txt"
        some.write_text("irrelevant")
        code, _, err = run(capsys, "detect", "--public", str(sk), str(some))
        assert code == 2 and "public" in err
        code, _, err = run(capsys, "watermark", "--key", str(pk), "--seed", "1")
        assert code == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "detect", "--public", str(bad), str(bad))
        assert code == 2

    def test_embed_failure_exits_three(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        gadget = load_profile("compact-328").gadget_chars
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "scripted-mock",
                    "script": [["forced", "Z" * gadget]],
                    "script_cycle": True,
                }
            )
        )
        code, _, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1",
            "--model", str(cfg),
        )
        assert code == 3 and "budget exhausted" in err

    def test_dead_endpoint_exits_four(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {"kind": "remote", "endpoint": "http://127.0.0.1:9", "retries": 0}
            )
        )
        code, _, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1",
            "--model", str(cfg),
        )
        assert code == 4 and "error" in err

    def test_non_json_endpoint_exits_four(self, tmp_path, capsys, keypair):
        sk, _ = keypair

        class Hello(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self.send_response(200)
                self.send_header("Content-Length", "5")
                self.end_headers()
                self.wfile.write(b"hello")

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Hello)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            cfg = tmp_path / "model.json"
            endpoint = "http://127.0.0.1:%d" % server.server_port
            cfg.write_text(json.dumps({"kind": "remote", "endpoint": endpoint}))
            code, _, err = run(
                capsys, "watermark", "--key", str(sk), "--seed", "1",
                "--model", str(cfg),
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 4 and "not JSON" in err

    def test_endpoint_env_override(self, capsys, keypair, monkeypatch):
        sk, _ = keypair
        monkeypatch.setenv("PDWS_MODEL_ENDPOINT", "http://127.0.0.1:9")
        # no --model: the env variable routes generation to the (dead) remote
        code, _, _ = run(capsys, "watermark", "--key", str(sk), "--seed", "1")
        assert code == 4
        # an explicit mock wins over the env variable
        code, _, _ = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1",
            "--model", "uniform-mock",
        )
        assert code == 0


class TestShortOutput:
    def test_below_gadget_emits_plain_text(self, capsys, keypair):
        sk, _ = keypair
        code, stdout, _ = run(
            capsys, "watermark", "--key", str(sk), "--seed", "8", "--n", "50"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["text"]) == 50
        assert doc["transcript"]["blocks"] == []


class TestBenchCommand:
    def test_report_and_plot_data(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        report = tmp_path / "report.json"
        rows = tmp_path / "rows.csv"
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("alpha\nbeta\n")
        code, _, err = run(
            capsys, "bench", "--key", str(sk), "--prompts", str(prompts),
            "--repeats", "1", "--out", str(report), "--plot-data", str(rows),
        )
        assert code == 0, err
        doc = json.loads(report.read_text())
        assert doc["runs"] == 2 and doc["failures"] == 0
        lines = rows.read_text().strip().splitlines()
        assert lines[0].startswith("prompt_index,") and len(lines) == 3

    def test_bundled_prompts_used_by_default(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bench", "--key", str(sk), "--repeats", "1", "--out", str(report)
        )
        assert code == 0
        assert json.loads(report.read_text())["runs"] >= 4


class TestPublicEnvelope:
    def test_roundtrip(self, keypair):
        _, pk = keypair
        doc = json.loads(pk.read_text())
        env = PublicEnvelope.from_json_dict(doc)
        assert env.to_json_dict() == doc

    def test_rejects_smuggled_secret(self, keypair):
        _, pk = keypair
        doc = json.loads(pk.read_text())
        doc["secret_key"] = "00" * 16
        with pytest.raises(ParameterError):
            PublicEnvelope.from_json_dict(doc)

    def test_detection_params_reconstruction(self, keypair):
        _, pk = keypair
        env = PublicEnvelope.from_json_dict(json.loads(pk.read_text()))
        assert env.layout == load_profile("compact-328").layout
        assert env.keys.signing_key is None

    def test_rejects_ecc_block_that_disagrees_with_layout(self, tmp_path, capsys, keypair):
        # compact-328's 360-bit codeword carries 4 parity symbols (t=2); an
        # envelope claiming t=1 must not be detected with the derived code.
        _, pk = keypair
        doc = json.loads(pk.read_text())
        doc["params"]["ecc"].update(parity_symbols=2, t_correctable=1)
        with pytest.raises(ParameterError):
            PublicEnvelope.from_json_dict(doc)
        bad = tmp_path / "bad-pk.json"
        bad.write_text(json.dumps(doc))
        text = tmp_path / "text.txt"
        text.write_text("irrelevant")
        code, _, err = run(capsys, "detect", "--public", str(bad), str(text))
        assert code == 2 and "ecc" in err


def _unknown_scheme(doc):
    doc["scheme_id"] = "schnorr-p2048"


def _short_key(doc):
    doc["public_key"] = doc["public_key"][:20]  # 10 bytes


def _other_signature_length(doc):
    # A valid layout whose gadget fits the text, for 320-bit signatures.
    env = PublicEnvelope.from_json_dict(doc)
    layout = Layout(ell=16, beta=2, lambda_sig=320, lambda_c=352)
    doc.update(PublicEnvelope(env.keys, layout, env.suite).to_json_dict())


class TestUnverifiableInputExitsTwo:
    """Input that can never verify is bad input (2), not "not detected" (1)."""

    @pytest.fixture()
    def marked(self, tmp_path, capsys, keypair):
        sk, pk = keypair
        out = tmp_path / "wm.json"
        code, _, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "8", "--out", str(out)
        )
        assert code == 0, err
        code, _, _ = run(capsys, "detect", "--public", str(pk), str(out))
        assert code == 0
        return pk, out

    @pytest.mark.parametrize(
        "breakage", [_unknown_scheme, _short_key, _other_signature_length]
    )
    def test_public_envelope(self, tmp_path, capsys, marked, breakage):
        pk, out = marked
        doc = json.loads(pk.read_text())
        breakage(doc)
        bad = tmp_path / "bad-pk.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "detect", "--public", str(bad), str(out))
        assert code == 2 and stdout == "" and "error" in err

    @pytest.mark.parametrize("offset", ["-5", "1"])
    def test_known_offset_where_no_gadget_fits(self, capsys, marked, offset):
        pk, out = marked
        code, stdout, err = run(
            capsys, "detect", "--public", str(pk), str(out), "--known-offset", offset
        )
        assert code == 2 and stdout == "" and "--known-offset" in err
        code, _, _ = run(capsys, "detect", "--public", str(pk), str(out), "--known-offset", "0")
        assert code == 0
