import ast
import contextlib
import copy
import inspect
import io
import json
import textwrap
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from pdws import cli
from pdws.cli import PublicEnvelope, list_profiles, load_profile, main
from pdws.core import Layout, ParameterError
from pdws.crypto import KeyMaterialError, OracleSuite, available_schemes, get_scheme, keygen
from pdws.embedder import EmbedFailure
from pdws.model import ProtocolError, TransportError

from conftest import layouts

PROFILE_SCHEMES = [
    ("compact-328", "schnorr-p1024"),
    ("gamma0-328", "schnorr-p1024"),
    ("wide-32", "schnorr-p1024"),
    ("ed25519-544", "ed25519"),
]

# A remote model offering a token that holds a lone surrogate.
SURROGATE_REPLY = b'{"candidates": [{"token": "a\\ud800", "logprob": 0.0}]}'


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


class TestPromptFlags:
    PROMPT = "first line\nsecond line\n"

    def test_prompt_file_gives_the_text_prompt_gives(self, tmp_path, capsys, keypair):
        path = tmp_path / "prompt.txt"
        path.write_text(self.PROMPT, encoding="utf-8")
        texts = []
        with _reply_server(AB_REPLY) as (endpoint, bodies):
            cfg = _remote_model_file(tmp_path, endpoint)
            for flag, value in (("--prompt", self.PROMPT), ("--prompt-file", str(path))):
                code, stdout, err = run(
                    capsys, "watermark", "--key", str(keypair[0]), "--n", "4",
                    "--model", str(cfg), flag, value,
                )
                assert code == 0, err
                texts.append(json.loads(stdout)["text"])
        assert texts[0] == texts[1] == "abab"
        assert [body["prompt"] for body in bodies] == [self.PROMPT] * 4

    def test_prompt_and_prompt_file_together_exit_two(self, tmp_path, capsys, keypair):
        path = tmp_path / "prompt.txt"
        path.write_text("from the file")
        with pytest.raises(SystemExit) as exc:
            main([
                "watermark", "--key", str(keypair[0]), "--n", "4",
                "--prompt", "inline", "--prompt-file", str(path),
            ])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestDetectPaths:
    def test_scan_finds_prefixed_gadget(self, tmp_path, capsys, keypair):
        sk, pk = keypair
        out = tmp_path / "wm.json"
        run(capsys, "watermark", "--key", str(sk), "--seed", "6", "--out", str(out))
        text = json.loads(out.read_text())["text"]
        shifted = tmp_path / "shifted.txt"
        shifted.write_text("x" * 20 + text)

        code, stdout, _ = run(capsys, "detect", "--public", str(pk), str(shifted))
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

    def test_deeply_nested_input_is_scanned_as_text(self, tmp_path, capsys, keypair):
        # json.loads raises RecursionError, not ValueError, on this input.
        _, pk = keypair
        deep = tmp_path / "deep.txt"
        deep.write_text("[" * 1500)
        code, stdout, err = run(capsys, "detect", "--public", str(pk), str(deep))
        assert code == 1 and json.loads(stdout)["detected"] is False and err == ""

    @pytest.mark.parametrize("doc", ["9" * 5000, "[" + "9" * 5000 + "]"], ids=["int", "array"])
    def test_integer_past_the_digit_limit_is_scanned_as_text(self, tmp_path, capsys, keypair, doc):
        # json.loads raises a plain ValueError, not JSONDecodeError, on this input.
        _, pk = keypair
        digits = tmp_path / "digits.txt"
        digits.write_text(doc)
        code, stdout, err = run(capsys, "detect", "--public", str(pk), str(digits))
        assert code == 1 and json.loads(stdout)["detected"] is False and err == ""

    @pytest.mark.parametrize(
        "wrap",
        [lambda t: [1, 2, t], lambda t: {"text": 5, "note": t}, lambda t: {"note": t}, str],
        ids=["array", "int-text", "no-text", "string"],
    )
    def test_json_without_a_string_text_is_scanned_as_text(self, tmp_path, capsys, keypair, wrap):
        # Only an object whose "text" is a string is read as a watermark
        # output; any other JSON is scanned as it stands, so the gadget is
        # found at its offset in the raw document.
        sk, pk = keypair
        _, stdout, _ = run(capsys, "watermark", "--key", str(sk), "--seed", "9")
        text = json.loads(stdout)["text"]
        raw = json.dumps(wrap(text))
        assert text in raw  # the mock's alphabet needs no JSON escapes
        path = tmp_path / "doc.json"
        path.write_text(raw)
        code, stdout, err = run(capsys, "detect", "--public", str(pk), str(path))
        assert code == 0 and json.loads(stdout)["offset"] == raw.index(text) and err == ""

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

    @pytest.mark.parametrize("command", ["watermark", "detect"])
    def test_json_error_names_its_file(self, tmp_path, capsys, keypair, command):
        sk, _ = keypair
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": }')
        argv = {
            "watermark": ["watermark", "--key", str(sk), "--model", str(bad)],
            "detect": ["detect", "--public", str(bad), str(sk)],
        }[command]
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and "bad.json" in err

    @pytest.mark.parametrize("seed", ["zz", "abc", ""])
    def test_salt_seed_that_is_not_hex_is_named(self, tmp_path, capsys, seed):
        # '' would derive no salts; it is refused like any other non-hex seed.
        sk, pk = tmp_path / "sk.json", tmp_path / "pk.json"
        code, stdout, err = run(capsys, "keygen", str(sk), str(pk), "--salt-seed", seed)
        assert (code, stdout) == (2, "") and "--salt-seed" in err
        assert not sk.exists() and not pk.exists()

    @pytest.mark.parametrize("flag", ["--public", "--key"])
    @pytest.mark.parametrize("role, value", [("sign", "zz"), ("mask", "abc"), ("bit", 5)])
    def test_salt_that_is_not_hex_is_named(self, tmp_path, capsys, keypair, flag, role, value):
        sk, pk = (json.loads(path.read_text()) for path in keypair)
        salts = (pk["params"] if flag == "--public" else sk)["salts"]
        salts[role] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(pk if flag == "--public" else sk))
        text = tmp_path / "text.txt"
        text.write_text("irrelevant")
        argv = {"--public": ["detect", "--public", str(bad), str(text)],
                "--key": ["watermark", "--key", str(bad), "--n", "20"]}[flag]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and "salts.%s " % role in err

    @pytest.mark.parametrize(
        "role",
        ["public", "input", "stdin", "stdin-escaped", "key", "model", "params", "prompt-file",
         "prompts"],
    )
    def test_utf8_error_names_its_file(self, tmp_path, capsys, keypair, monkeypatch, role):
        # A file that is not UTF-8 is named in the error, whichever file it is.
        # Python's UTF-8 mode reads stdin with surrogateescape, which turns
        # such bytes into lone surrogates instead of raising (stdin-escaped).
        sk, pk = keypair
        bad = tmp_path / "not-utf8"
        bad.write_bytes(b"\xff\xfe{}")
        text = tmp_path / "text.txt"
        text.write_text("plain text")
        argv = {
            "public": ["detect", "--public", str(bad), str(text)],
            "input": ["detect", "--public", str(pk), str(bad)],
            "stdin": ["detect", "--public", str(pk), "-"],
            "stdin-escaped": ["detect", "--public", str(pk), "-"],
            "key": ["watermark", "--key", str(bad)],
            "model": ["watermark", "--key", str(sk), "--model", str(bad)],
            "params": ["keygen", str(tmp_path / "s.json"), str(tmp_path / "p.json"),
                       "--params", str(bad)],
            "prompt-file": ["watermark", "--key", str(sk), "--prompt-file", str(bad)],
            "prompts": ["bench", "--key", str(sk), "--prompts", str(bad), "--repeats", "1"],
        }[role]
        errors = "surrogateescape" if role == "stdin-escaped" else "strict"
        stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, stdout, err = run(capsys, *argv)
        named = "-" if role.startswith("stdin") else str(bad)
        assert code == 2 and stdout == ""
        assert err.startswith("error: %s is not UTF-8 text: " % named), err

    @pytest.mark.parametrize(
        "role", ["public", "key-watermark", "key-bench", "model", "prompts", "prompt-file"]
    )
    def test_only_the_detect_input_reads_stdin(self, tmp_path, capsys, keypair, monkeypatch,
                                                role):
        # A valid document on stdin is not read: '-' names a file, and there is none.
        sk, pk = keypair
        text = tmp_path / "text.txt"
        text.write_text("irrelevant")
        stdin, argv = {
            "public": (pk.read_text(), ["detect", "--public", "-", str(text)]),
            "key-watermark": (sk.read_text(), ["watermark", "--key", "-", "--n", "20"]),
            "key-bench": (sk.read_text(), ["bench", "--key", "-", "--repeats", "1"]),
            "model": ('{"kind": "uniform-mock"}',
                      ["watermark", "--key", str(sk), "--model", "-", "--n", "20"]),
            "prompts": ("a prompt\n", ["bench", "--key", str(sk), "--prompts", "-"]),
            "prompt-file": ("a prompt",
                            ["watermark", "--key", str(sk), "--prompt-file", "-", "--n", "20"]),
        }[role]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "") and "'-'" in err, err

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
        code, err = _watermark_against_reply(tmp_path, capsys, keypair[0], b"hello")
        assert code == 4 and "not JSON" in err

    @pytest.mark.parametrize(
        "reply",
        [b'{"candidates": [{"token": 5, "logprob": 0.0}]}', b"[" * 1500, SURROGATE_REPLY],
        ids=["int-token", "deep-nesting", "lone-surrogate-token"],
    )
    def test_malformed_reply_exits_four(self, tmp_path, capsys, keypair, reply):
        code, err = _watermark_against_reply(tmp_path, capsys, keypair[0], reply)
        assert code == 4 and err.startswith("error: ")

    def test_lone_surrogate_token_below_one_gadget_exits_four(self, tmp_path, capsys, keypair):
        # Plain generation writes the model's text out unhashed; it must be UTF-8 too.
        with _reply_server(SURROGATE_REPLY) as (endpoint, _):
            cfg = _remote_model_file(tmp_path, endpoint)
            code, stdout, err = run(
                capsys, "watermark", "--key", str(keypair[0]), "--n", "4", "--model", str(cfg)
            )
        assert code == 4 and stdout == "" and "UTF-8" in err

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "scripted-mock", "script": [["free", -5], ["forced", "xx"]]},
            {"kind": "scripted-mock", "script": [["forced", "a\ud800"]]},
            {"kind": "uniform-mock", "alphabet": "ab\udc00"},
        ],
        ids=["negative-free-count", "lone-surrogate-forced-text", "lone-surrogate-alphabet"],
    )
    def test_unusable_mock_model_file_exits_two(self, tmp_path, capsys, keypair, config):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        code, stdout, err = run(
            capsys, "watermark", "--key", str(keypair[0]), "--model", str(cfg)
        )
        assert code == 2 and stdout == "" and err.startswith("error: ")

    def test_deeply_nested_model_file_exits_two(self, tmp_path, capsys, keypair):
        cfg = tmp_path / "model.json"
        cfg.write_text("[" * 1500)
        code, stdout, err = run(
            capsys, "watermark", "--key", str(keypair[0]), "--model", str(cfg)
        )
        assert code == 2 and stdout == "" and "nests too deeply" in err

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

    def test_endpoint_env_replaces_a_remote_files_endpoint(
        self, tmp_path, capsys, keypair, monkeypatch
    ):
        # The file names a dead endpoint; only the variable's endpoint answers.
        cfg = _remote_model_file(tmp_path, "http://127.0.0.1:9", retries=0)
        with _reply_server(AB_REPLY) as (endpoint, bodies):
            monkeypatch.setenv("PDWS_MODEL_ENDPOINT", endpoint)
            code, stdout, err = run(
                capsys, "watermark", "--key", str(keypair[0]), "--n", "4", "--model", str(cfg)
            )
        assert code == 0, err
        assert json.loads(stdout)["text"] == "abab" and len(bodies) == 2

    def test_malformed_endpoint_env_exits_two(self, capsys, keypair, monkeypatch):
        sk, _ = keypair
        monkeypatch.setenv("PDWS_MODEL_ENDPOINT", "localhost:8000")
        code, stdout, err = run(capsys, "watermark", "--key", str(sk), "--seed", "1")
        assert code == 2 and stdout == "" and "endpoint" in err


# A remote model that always offers the one token "ab".
AB_REPLY = b'{"candidates": [{"token": "ab", "logprob": 0.0}]}'


@contextlib.contextmanager
def _reply_server(reply):
    """A loopback endpoint answering every POST with reply; yields (url, request bodies)."""
    bodies = []

    class Reply(BaseHTTPRequestHandler):
        def do_POST(self):
            bodies.append(json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0)))))
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Reply)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield "http://127.0.0.1:%d" % server.server_port, bodies
    finally:
        server.shutdown()
        server.server_close()


def _remote_model_file(tmp_path, endpoint, **fields):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(dict(kind="remote", endpoint=endpoint, **fields)))
    return cfg


def _watermark_against_reply(tmp_path, capsys, sk, reply):
    """Exit code and stderr of watermark against an endpoint that answers reply."""
    with _reply_server(reply) as (endpoint, _):
        cfg = _remote_model_file(tmp_path, endpoint)
        code, _, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1", "--model", str(cfg)
        )
    return code, err


def _public_params(**fields):
    return lambda sk, pk: dict(pk, params=dict(pk["params"], **fields))


def _secret_params(**fields):
    return lambda sk, pk: dict(sk, params=dict(sk["params"], **fields))


def _salts(salts, **changes):
    """salts with each role named in changes renamed to its value, or dropped for None."""
    return {changes.get(role, role): hexes for role, hexes in salts.items()
            if changes.get(role, role) is not None}


class TestMalformedDocumentsExitTwo:
    """A JSON document, or its salts, that is not an object is bad input, and
    so is a key or an integer field of another JSON type, and an object with
    a key outside its fields or without one of them."""

    @pytest.mark.parametrize(
        "flag, document",
        [
            ("--model", lambda sk, pk: ["kind"]),
            ("--key", lambda sk, pk: ["kind"]),
            ("--public", lambda sk, pk: ["kind"]),
            ("--key", lambda sk, pk: dict(sk, salts=[])),
            ("--public", _public_params(salts=[])),
            ("--key", lambda sk, pk: dict(sk, salts={"sign": 5})),
            ("--key", lambda sk, pk: {k: v for k, v in sk.items() if k != "salts"}),
            ("--public", _public_params(ell=16.7)),
            ("--public", _public_params(beta=True)),
            ("--key", _secret_params(beta=2.0)),
            ("--key", _secret_params(ell=16.0)),
            ("--key", _secret_params(n=100.5)),
            ("--key", _secret_params(a_max=True)),
            ("--key", lambda sk, pk: dict(sk, secret_key=5)),
            ("--key", lambda sk, pk: dict(sk, salts=_salts(sk["salts"], sign="sgn"))),
            ("--public", lambda sk, pk: _public_params(
                salts=_salts(pk["params"]["salts"], sign="sgn"))(sk, pk)),
            ("--public", lambda sk, pk: _public_params(
                salts=_salts(pk["params"]["salts"], mask=None))(sk, pk)),
            ("--public", _public_params(gamma_max=2)),
            ("--public", _public_params(secret_key="00" * 21)),
            ("--model", lambda sk, pk: {"kind": "remote", "endpoint": "http://127.0.0.1:9",
                                        "retries": 1.5}),
            ("--model", lambda sk, pk: {"kind": "scripted-mock", "script": [["forced", 5]]}),
            ("--model", lambda sk, pk: {"kind": "uniform-mock", "seed": "x"}),
            # a uniform mock never reads a script; it would sample uniformly
            ("--model", lambda sk, pk: {"kind": "uniform-mock", "script": [["forced", "QQQQ"]]}),
            # Scalars equal to what keygen writes under ==, but not ints.
            ("--public", lambda sk, pk: dict(pk, format_version=True, params=dict(
                pk["params"], ecc=dict(pk["params"]["ecc"], t_correctable=2.0)))),
            ("--key", lambda sk, pk: dict(sk, format_version=1.0)),
            ("--params", lambda sk, pk: dict(sk["params"], alpha=float("nan"))),
            # compact-328 corrects t=2 symbols, so a budget of 3 has no code.
            ("--params", lambda sk, pk: dict(sk["params"], gamma_max=3)),
        ],
        ids=["model-list", "key-list", "public-list", "secret-salts-list",
             "public-salts-list", "secret-salt-not-a-string", "secret-without-salts",
             "public-ell-float", "public-beta-bool", "secret-beta-float",
             "secret-ell-float", "secret-n-float", "secret-a_max-bool",
             "secret-key-not-a-string", "secret-salt-misspelled", "public-salt-misspelled",
             "public-salt-missing", "public-params-extra-field",
             "public-params-smuggled-secret", "model-retries-float",
             "model-script-forced-int", "model-seed", "model-unread-script", "public-version-bool-ecc-float",
             "secret-version-float", "params-alpha-nan", "params-gamma-beyond-code"],
    )
    def test_exits_two(self, tmp_path, capsys, keypair, flag, document):
        sk, pk = keypair
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document(json.loads(sk.read_text()), json.loads(pk.read_text()))))
        text = tmp_path / "text.txt"
        text.write_text("irrelevant")
        argv = {
            "--model": ["watermark", "--key", str(sk), "--n", "20", "--model", str(bad)],
            "--key": ["watermark", "--key", str(bad), "--n", "20"],
            "--public": ["detect", "--public", str(bad), str(text)],
            "--params": ["keygen", str(tmp_path / "s.json"), str(tmp_path / "p.json"),
                         "--params", str(bad)],
        }[flag]
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and err.startswith("error: ")


class TestSecretEnvelopeKeyPair:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_secret_key_of_another_pair_exits_two(self, tmp_path, capsys, scheme):
        # Embedding with it would exit 0, and its own public envelope would
        # never detect the text.
        docs = []
        for seed in ("1", "2"):
            sk, pk = tmp_path / ("s%s.json" % seed), tmp_path / ("p%s.json" % seed)
            code, _, err = run(
                capsys, "keygen", str(sk), str(pk), "--seed", seed, "--scheme", scheme
            )
            assert code == 0, err
            docs.append(json.loads(sk.read_text()))
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(dict(docs[0], secret_key=docs[1]["secret_key"])))
        code, stdout, err = run(capsys, "watermark", "--key", str(mixed), "--n", "20")
        assert code == 2 and stdout == "" and "secret_key" in err


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
    def test_report_has_one_row_per_run(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        report = tmp_path / "report.json"
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("alpha\nbeta\n")
        code, _, err = run(
            capsys, "bench", "--key", str(sk), "--prompts", str(prompts),
            "--repeats", "2", "--out", str(report),
        )
        assert code == 0, err
        doc = json.loads(report.read_text())
        assert doc["runs"] == 4 and doc["failures"] == 0
        assert [(row["prompt_index"], row["repeat"]) for row in doc["rows"]] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_plot_data_is_gone(self, tmp_path, capsys, keypair):
        # the rows are in the report; there is no second per-run format
        sk, _ = keypair
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--key", str(sk), "--plot-data", str(tmp_path / "rows.csv")])
        assert exc.value.code == 2
        assert "--plot-data" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_bundled_prompts_used_by_default(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bench", "--key", str(sk), "--repeats", "1", "--out", str(report)
        )
        assert code == 0
        assert json.loads(report.read_text())["runs"] >= 4


ENVELOPE_KEYS = [
    keygen(b"envelope-%d" % i, scheme_id=scheme).public_only()
    for scheme in available_schemes()
    for i in range(2)
]


class TestPublicEnvelope:
    def test_roundtrip(self, keypair):
        _, pk = keypair
        doc = json.loads(pk.read_text())
        env = PublicEnvelope.from_json_dict(doc)
        assert env.to_json_dict() == doc

    @given(
        keys=st.sampled_from(ENVELOPE_KEYS),
        data=st.data(),
        salts=st.lists(st.binary(max_size=8), min_size=3, max_size=3),
    )
    def test_json_roundtrip_property(self, keys, data, salts):
        layout = data.draw(layouts(lambda_sig=get_scheme(keys.scheme_id).sig_bits))
        env = PublicEnvelope(keys, layout, OracleSuite(*salts))
        again = PublicEnvelope.from_json_dict(json.loads(json.dumps(env.to_json_dict())))
        assert (again.keys, again.layout, again.suite) == (env.keys, env.layout, env.suite)

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


def _oversize_codeword(doc):
    # 41 data and 216 parity symbols: 257, two more than a byte code holds.
    # The ecc block is written by hand, as no code can be derived for it.
    doc["params"].update(ell=1, beta=8, lambda_sig=328, lambda_c=2056, ecc={
        "data_symbols": 41, "parity_symbols": 216, "symbol_bits": 8,
        "t_correctable": 108, "data_bits": 328,
    })


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
        "breakage", [_unknown_scheme, _short_key, _other_signature_length, _oversize_codeword]
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


class TestOutOfRangeIntegersExitTwo:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_keygen_seed_outside_64_bits(self, tmp_path, capsys, seed):
        code, stdout, err = run(
            capsys, "keygen", str(tmp_path / "s.json"), str(tmp_path / "p.json"),
            "--seed", seed,
        )
        assert code == 2 and stdout == "" and "--seed" in err

    def test_keygen_largest_seed(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "keygen", str(tmp_path / "s.json"), str(tmp_path / "p.json"),
            "--seed", str(2**64 - 1),
        )
        assert code == 0, err

    def test_watermark_seed_beyond_256_bits(self, capsys, keypair):
        sk, _ = keypair
        code, stdout, err = run(
            capsys, "watermark", "--key", str(sk), "--n", "20", "--seed", str(2**256)
        )
        assert code == 2 and stdout == "" and "seed" in err

    def test_zero_timeout(self, tmp_path, capsys, keypair):
        sk, _ = keypair
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps({"kind": "remote", "endpoint": "http://127.0.0.1:9", "timeout_ms": 0})
        )
        code, stdout, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1", "--model", str(model)
        )
        assert code == 2 and stdout == "" and "timeout_ms" in err

    def test_timeout_a_socket_cannot_hold(self, tmp_path, capsys, keypair):
        # 10^11 s is past threading.TIMEOUT_MAX, where a socket's settimeout overflows.
        sk, _ = keypair
        model = _remote_model_file(tmp_path, "http://127.0.0.1:9", timeout_ms=10**14)
        code, stdout, err = run(
            capsys, "watermark", "--key", str(sk), "--seed", "1", "--model", str(model)
        )
        assert code == 2 and stdout == "" and "timeout_ms" in err


# Exceptions main catches, with the exit code the cli docstring documents
# for each: 4 for the model endpoint, 3 for a spent planted-error budget and
# 2 for every other bad input.
CAUGHT = [
    (TransportError("x"), 4),
    (ProtocolError("x"), 4),
    (ParameterError("x"), 2),
    (KeyMaterialError("x"), 2),
    (OSError("x"), 2),
    (json.JSONDecodeError("x", "{", 1), 2),
    (KeyError("x"), 2),
    (ValueError("x"), 2),
    (EmbedFailure(0, 1), 3),
]


class TestExitCodes:
    def test_table_lists_every_class_main_catches(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(main)))
        caught = set()
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler):
                names = getattr(handler.type, "elts", [handler.type])
                caught |= {eval(ast.unparse(name), vars(cli)) for name in names}
        rows = {type(exc) for exc, _ in CAUGHT}
        assert caught <= rows
        assert all(issubclass(row, tuple(caught)) for row in rows)

    @pytest.mark.parametrize("exc, code", CAUGHT, ids=[type(e).__name__ for e, _ in CAUGHT])
    def test_caught_class_maps_to_documented_code(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_keygen", fail)
        got, stdout, err = run(capsys, "keygen", "s.json", "p.json")
        assert got == code and stdout == "" and err.startswith("error: ")

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """A key pair and a text whose gadget at 0 leaves 8 more offsets to probe."""
        d = tmp_path_factory.mktemp("exit-codes")
        sk, pk, marked = d / "sk.json", d / "pk.json", d / "marked.txt"
        assert main(["keygen", str(sk), str(pk), "--seed", "1"]) == 0
        wm = d / "wm.json"
        assert main(["watermark", "--key", str(sk), "--seed", "8", "--out", str(wm)]) == 0
        marked.write_text(json.loads(wm.read_text())["text"] + "x" * 8)
        return d, sk, pk, marked

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["keygen", "watermark", "detect"]), value=st.integers())
    def test_integer_flags_exit_with_a_documented_code(self, files, command, value):
        d, sk, pk, marked = files
        argv = {
            "keygen": ["keygen", str(d / "s.json"), str(d / "p.json"), "--seed"],
            "watermark": ["watermark", "--key", str(sk), "--n", "20", "--out",
                          str(d / "w.json"), "--seed"],
            "detect": ["detect", "--public", str(pk), str(marked), "--known-offset"],
        }[command]
        code = main(argv + [str(value)])
        assert code in (0, 1, 2, 3, 4)
        assert code != 1 or command == "detect"


def _slots(doc):
    """(object, key) for every value in a JSON object, nested objects' values too."""
    for key, value in doc.items():
        yield doc, key
        if isinstance(value, dict):
            yield from _slots(value)


JSON_LEAVES = st.one_of(st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
JSON_STRUCTURES = st.one_of(
    st.none(),
    st.lists(JSON_LEAVES, max_size=2),
    st.dictionaries(st.text(max_size=4), JSON_LEAVES, max_size=2),
)


class TestEnvelopeMutations:
    """Keygen's envelopes load as written or are refused.

    The secret envelope is read by watermark --n 20, the public one by
    detect on a text it marks. A deleted key (format_version aside), an
    unknown key at any level, or a value replaced by null, a list or an
    object is bad input. A leaf replaced by another scalar may still load,
    so it may give any code its command documents, but never an exception.
    """

    @pytest.fixture(scope="class")
    def commands(self, tmp_path_factory):
        """Per envelope flag: keygen's document, the codes its command documents,
        and a function that runs that command on a changed document."""
        d = tmp_path_factory.mktemp("envelope-mutations")
        sk, pk, wm, doc = d / "sk.json", d / "pk.json", d / "wm.json", d / "doc.json"
        assert main(["keygen", str(sk), str(pk), "--seed", "1", "--salt-seed", "00ff"]) == 0
        assert main(["watermark", "--key", str(sk), "--seed", "8", "--out", str(wm)]) == 0
        argv = {
            "--key": ["watermark", "--key", str(doc), "--n", "20", "--out", str(d / "w.json")],
            "--public": ["detect", "--public", str(doc), str(wm)],
        }

        def run_on(flag, changed):
            doc.write_text(json.dumps(changed))
            return main(argv[flag])

        return {
            "--key": (json.loads(sk.read_text()), (0, 2, 3)),
            "--public": (json.loads(pk.read_text()), (0, 1, 2)),
        }, run_on

    @settings(max_examples=300, deadline=None)
    @given(flag=st.sampled_from(["--key", "--public"]), data=st.data())
    def test_structural_change_exits_two(self, commands, flag, data):
        envelopes, run_on = commands
        doc = copy.deepcopy(envelopes[flag][0])
        slots = list(_slots(doc))
        change = data.draw(st.sampled_from(["delete", "add", "replace"]))
        if change == "delete":
            obj, key = data.draw(st.sampled_from([s for s in slots if s[1] != "format_version"]))
            del obj[key]
        elif change == "add":
            objects = [doc] + [obj[key] for obj, key in slots if isinstance(obj[key], dict)]
            obj = data.draw(st.sampled_from(objects))
            obj[data.draw(st.text(max_size=8).filter(lambda k: k not in obj))] = data.draw(
                JSON_LEAVES
            )
        else:
            obj, key = data.draw(st.sampled_from(slots))
            obj[key] = data.draw(JSON_STRUCTURES)
        assert run_on(flag, doc) == 2

    @settings(max_examples=300, deadline=None)
    @given(flag=st.sampled_from(["--key", "--public"]), data=st.data())
    def test_scalar_leaf_gives_a_documented_code(self, commands, flag, data):
        envelopes, run_on = commands
        doc = copy.deepcopy(envelopes[flag][0])
        leaves = [(obj, key) for obj, key in _slots(doc) if not isinstance(obj[key], dict)]
        obj, key = data.draw(st.sampled_from(leaves))
        obj[key] = data.draw(JSON_LEAVES)
        assert run_on(flag, doc) in envelopes[flag][1]
