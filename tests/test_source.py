"""Source checks that need no linter: every name a radkit module imports is read."""

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).parent.parent / "src" / "radkit"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in order.

    Exempt are ``from __future__`` names, names in the module's ``__all__`` and
    names imported by a statement that holds ``# noqa: F401``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in statement:
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            read.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_stray_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 (re-exported for a tracer)\n"
        "from .x import a, b, c\n"
        "__all__ = ['b']\n"
        "c = os.sep\n"
    )
    assert unused_imports(source) == ["a", "c"]
