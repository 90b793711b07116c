"""Every import in a haarlab module is used by that module.

No linter ships with the toolchain, so this is the unused-import check.
`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "haarlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST):
    # a quoted annotation such as -> "StepFunction" names a type too
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield from _names(ast.parse(node.value, mode="eval"))


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield from _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield from _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            yield from _annotation_names(node.annotation)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set(_names(tree))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n" \
        "def f(x: 'Path') -> 'dumps':\n    return system.argv\n"
    assert unused_imports(source) == ["os (line 1)", "loads (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
