"""Every imported name is used: an ``ast`` scan of the package (except
``__init__.py``, whose imports are the public re-exports), the tests and the
demos."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "tehier").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name (dotted for a plain ``import a.b``) -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {dotted(n) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if not any(u == name or u.startswith(name + ".") for u in used if u)
    ]


def test_the_scan_covers_every_part():
    parts = {p.parent.name for p in MODULES}
    assert parts == {"tehier", "tests", "demos"}


def test_the_scan_finds_an_unused_name():
    source = "import os\nimport tehier.synth\nfrom typing import IO, Iterable\nx: IO = os.sep\n"
    assert unused_imports(source) == ["line 2: tehier.synth", "line 3: Iterable"]
    assert unused_imports("import tehier.synth\ntehier.synth.generate\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
