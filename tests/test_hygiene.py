"""Repository hygiene: every module-level function and class in the package
is used somewhere, so dead helpers cannot accumulate unnoticed."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emsum"
SEARCHED = ("src", "tests", "demos")


def _top_level_names(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]


def test_every_top_level_definition_is_named_elsewhere():
    texts = [
        path.read_text(encoding="utf-8")
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*"))
        if path.suffix in (".py", ".sh") and "__pycache__" not in path.parts
    ]
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name in _top_level_names(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            definition = re.compile(
                rf"^(?:async\s+def|def|class)\s+{re.escape(name)}\b",
                re.MULTILINE,
            )
            uses = sum(
                len(word.findall(t)) - len(definition.findall(t))
                for t in texts
            )
            if uses == 0:
                unused.append(f"{module.name}:{name}")
    assert unused == [], f"defined but never named elsewhere: {unused}"
