"""Every name a source or test file imports is used in that file.

An AST scan: a name bound by `import` or `from ... import` must be read
somewhere in the same file, or be listed in its `__all__`.  Package
`__init__.py` files re-export what they import and are skipped, and so are
`from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "hipm").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict:
    """{bound name: line} for every import in the file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Names read anywhere, in quoted annotations, and in `__all__`."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_scanner_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport numpy as np\nfrom typing import List, Dict\n"
                   "__all__ = ['Dict']\n\ndef f(x: 'List[int]'):\n    return np.zeros(1)\n")
    assert unused_imports(src) == [(1, "os")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []
