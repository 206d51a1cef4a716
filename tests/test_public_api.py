"""The top-level surface: the names pdws exports, and that its users import only those."""

import ast
import re
from pathlib import Path

import pdws

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BenchReport", "BitString", "BlockRecord", "DetectionResult", "EmbedFailure",
    "EmbedTranscript", "KeyMaterial", "KeyMaterialError", "Layout", "ModelHandle",
    "OracleSuite", "ParameterError", "ProtocolError", "TokenDistribution",
    "TransportError", "WatermarkParams", "detect", "detect_all", "expected_chars",
    "h_bit", "keygen", "next_distribution", "run_bench", "tile_compress", "watermark",
]


def test_all_is_pinned():
    assert sorted(pdws.__all__) == sorted(PUBLIC)
    assert all(hasattr(pdws, name) for name in pdws.__all__)


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
