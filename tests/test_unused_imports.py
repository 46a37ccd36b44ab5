"""Every imported name is used: an ``ast`` scan of the package (except
``__init__.py``, whose imports are the public re-exports), the tests and the
demos. And every private module-level name of the package (``_name``) is
loaded by some module of the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "tehier").glob("*.py"))
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` definitions (dunders excluded) -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names if name[:1] == "_" and name[:2] != "__")
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private module-level name of ``sources``
    (module name -> source) that no module loads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in loaded
    ]


def test_the_private_name_scan_finds_a_dead_name():
    svm = "def _platt_sigmoid(z):\n    return z\n_LIMIT = 4\n\ndef column(i):\n    return i\n"
    classifiers = "from . import svm\nsvm._LIMIT\n"
    assert dead_private_names({"svm": svm, "classifiers": classifiers}) == ["svm:1: _platt_sigmoid"]
    assert dead_private_names({"svm": svm + "_platt_sigmoid(_LIMIT)\n"}) == []


def test_every_private_name_of_the_package_is_loaded():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert sum(len(private_definitions(ast.parse(s))) for s in sources.values()) > 50
    assert dead_private_names(sources) == []
