"""Every name a module of the package, a test or a demo imports is used in
that file or listed in its ``__all__``, read from the source with ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plansched"
# a package module is named from the package, a test or a demo from the root
FILES = {path.relative_to(PACKAGE).as_posix(): path for path in sorted(PACKAGE.rglob("*.py"))}
for folder in ("tests", "demos"):
    FILES.update({path.relative_to(ROOT).as_posix(): path for path in sorted((ROOT / folder).glob("*.py"))})


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", FILES.values(), ids=FILES.keys())
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from .model import Schedule, UnknownTask\nimport json, os.path\n__all__ = ['os']\nSchedule()\n")
    assert _unused_imports(tree) == ["UnknownTask", "json"]
