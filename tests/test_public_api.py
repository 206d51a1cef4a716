"""The top-level surface: the names pdws exports, and that its users import only those."""

import argparse
import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pdws
from pdws.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BitString", "BlockRecord", "DetectionResult", "EmbedFailure", "EmbedTranscript",
    "KeyMaterial", "KeyMaterialError", "Layout", "ModelHandle", "OracleSuite",
    "ParameterError", "ProtocolError", "TokenDistribution", "TransportError",
    "WatermarkParams", "detect", "detect_all", "keygen", "next_distribution",
    "tile_compress", "watermark",
]


def test_all_is_pinned():
    assert sorted(pdws.__all__) == sorted(PUBLIC)
    assert all(hasattr(pdws, name) for name in pdws.__all__)


def test_protocol_processes_load_neither_cryptography_nor_the_bench(tmp_path):
    # Schnorr keygen, embedding and detection, and pdws detect, need neither
    # cryptography nor pdws.bench and its platform import. numpy, which the
    # sampling half loads, imports platform itself, so that check comes first.
    # Keygen and detection load no sampling module either: the embedder, the
    # model and the rng import on first access to a sampling name. A pdws
    # watermark that cannot read its key or its model file stops before them.
    (tmp_path / "plain.txt").write_text("unmarked text " * 250, encoding="utf-8")
    (tmp_path / "model.json").write_text("{not json", encoding="utf-8")
    code = """if True:
        import sys, pdws, pdws.cli
        sampling = {"pdws.embedder", "pdws.model", "pdws.rng", "numpy"}
        unwanted = {"cryptography", "pdws.bench", "platform"} | sampling
        assert pdws.cli.main(["keygen", "secret.json", "public.json", "--seed", "1"]) == 0
        assert pdws.cli.main(["detect", "--public", "public.json", "plain.txt"]) == 1
        assert pdws.cli.main(["watermark", "--key", "no-such-key.json"]) == 2
        for model in ("model.json", "no-such-model.json"):
            assert pdws.cli.main(["watermark", "--key", "secret.json", "--model", model]) == 2
        assert not unwanted & set(sys.modules), unwanted & set(sys.modules)
        loaded = {m for m in sys.modules if m.startswith("pdws")}
        assert not hasattr(pdws, "no_such_name")
        assert {m for m in sys.modules if m.startswith("pdws")} == loaded
        params, keys = pdws.WatermarkParams(a_max=64), pdws.keygen(b"k")
        model = pdws.ModelHandle(kind="uniform-mock")
        text, _ = pdws.watermark(params, keys, model, "p", seed=1)
        assert pdws.detect(keys.public_only(), params.layout, "xx" + text).offset == 2
        assert sampling <= set(sys.modules), sampling - set(sys.modules)
        assert pdws.EmbedFailure is pdws.embedder.EmbedFailure
        assert pdws.TransportError is pdws.model.TransportError
        assert pdws.ProtocolError is pdws.model.ProtocolError
        unwanted -= {"platform"} | sampling
        assert not unwanted & set(sys.modules), unwanted & set(sys.modules)
        pdws.keygen(b"k", scheme_id="ed25519")
        assert "cryptography" in sys.modules
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True)


def _top_level_imports(source):
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "pdws"
        for alias in node.names
    ]


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Library quick start", 1)[1]
    yield "README.md", re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)


def test_demos_and_readme_import_only_public_names():
    seen = {}
    for name, source in _sources():
        seen[name] = _top_level_imports(source)
        assert set(seen[name]) <= set(pdws.__all__), name
    assert all(seen.values()), seen


# Each subcommand's options. watermark and bench embed with the secret
# envelope's parameters; --params picks them once, at keygen. Model settings
# come only from the --model file.
CLI_OPTIONS = {
    "keygen": ["--params", "--salt-seed", "--scheme", "--seed"],
    "watermark": ["--key", "--model", "--n", "--out", "--prompt", "--prompt-file", "--seed"],
    "detect": ["--known-offset", "--public"],
    "bench": ["--key", "--model", "--out", "--prompts", "--repeats", "--seed"],
}


def test_cli_options_are_pinned():
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    seen = {
        name: sorted(
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, sub in subcommands.choices.items()
    }
    assert seen == CLI_OPTIONS


PARSERS = ("from_json", "from_json_dict")


def _parser_calls(path):
    """(class, parser) defined in path, and (callee, caller) for each parser call.

    A callee is keyed by the name it is called through (`cls` resolves to the
    enclosing class); a caller is the (class, function) the call sits in.
    """
    defined, calls = set(), set()

    def visit(node, cls=None, func=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            func = node.name
            if cls and func in PARSERS and any(
                getattr(d, "id", None) == "classmethod" for d in node.decorator_list
            ):
                defined.add((cls, func))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PARSERS
        ):
            receiver = node.func.value
            name = getattr(receiver, "attr", None) or getattr(receiver, "id", None)
            calls.add(((cls if name == "cls" else name, node.func.attr), (cls, func)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, func)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return defined, calls


def test_every_json_parser_has_a_caller_outside_tests():
    defined, calls = set(), set()
    for path in [*(ROOT / "src" / "pdws").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        d, c = _parser_calls(path)
        defined |= d
        calls |= c
    # A parser counts as used when code other than an unused parser calls it.
    used = set()
    while True:
        more = {
            callee for callee, (cls, func) in calls
            if func not in PARSERS or (cls, func) in used
        } & defined
        if more <= used:
            break
        used |= more
    assert sorted(defined - used) == []


def _json_parse_sites(path):
    """(module, enclosing function) of each json.load or json.loads in path."""
    sites = []

    def visit(node, func=None):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            sites.append((path.stem, "from json import"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("load", "loads")
            and getattr(node.value, "id", None) == "json"
        ):
            sites.append((path.stem, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return sites


def test_json_is_parsed_only_in_core_parse_json():
    # One rule decides what is JSON: every other reader calls core.parse_json.
    sites = [
        site
        for path in sorted((ROOT / "src" / "pdws").glob("*.py"))
        for site in _json_parse_sites(path)
    ]
    assert sites == [("core", "parse_json")]


# Defined in src/pdws and read by no code outside its own body: the former
# code profile's names, which acceptance 05 and 06 call and nothing else may.
TEST_ONLY_NAMES = {"EccProfile", "for_params"}


def _names_read(tree):
    """How often each name or attribute is read in tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def test_every_definition_is_read_outside_tests():
    package = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "pdws").glob("*.py"))]
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others += [ast.parse(source) for _, source in _sources()]
    reads = sum(map(_names_read, package + others), Counter())
    unread = {
        node.name
        for tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _names_read(node)[node.name]
    }
    assert unread == TEST_ONLY_NAMES


def test_only_ecc_defines_the_former_code_profile():
    # The Layout owns its code; EccProfile survives only as the for_params
    # name that the acceptance tests call, and no module uses it.
    named = {
        path.name: path.read_text(encoding="utf-8").count("EccProfile")
        for path in (ROOT / "src" / "pdws").glob("*.py")
    }
    assert {name: n for name, n in named.items() if n} == {"ecc.py": 1}
    assert "\nclass EccProfile:" in (ROOT / "src" / "pdws" / "ecc.py").read_text(encoding="utf-8")
