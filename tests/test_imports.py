"""No module of the package or of its tests imports a name that it never
reads. No linter is part of the toolchain, so this scan is the check."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and no expression reads.
    `import a.b` binds a; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_scan_finds_unread_names():
    src = ("from __future__ import annotations\nimport math\n"
           "import os.path\nfrom a import b, c as d\nx: d = b(os)\n")
    assert unread_imports(src) == [(2, "math")]


def test_no_unread_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert files
    found = {str(f.relative_to(ROOT)): u for f in files
             if (u := unread_imports(f.read_text()))}
    assert found == {}
