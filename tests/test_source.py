"""Source checks that need no linter: every name a radkit module imports is read, a
name imported only for the bench tracer (``# noqa: F401``) is one the tracer wraps, and
README's file-format table names the format versions the code writes."""

import ast
from pathlib import Path

import pytest

from radkit.corpus import INDEX_FORMAT_VERSION
from radkit.reranker import MODEL_FORMAT_VERSION

README = Path(__file__).parent.parent / "README.md"
SRC_DIR = Path(__file__).parent.parent / "src" / "radkit"
SPANS_FILE = Path(__file__).parent.parent / "perfbench" / "spans.py"


def imported_names(source: str, noqa: bool) -> list[str]:
    """The names ``source`` imports, but for ``from __future__``, in order: those of the
    statements that hold ``# noqa: F401`` if ``noqa``, else those of the others."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        and ("# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno])) == noqa
        for alias in node.names
    ]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted.

    Exempt are ``from __future__`` names, names in the module's ``__all__`` and
    names imported by a statement that holds ``# noqa: F401``.
    """
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            read.update(ast.literal_eval(node.value))
    return sorted(name for name in imported_names(source, noqa=False) if name not in read)


def traced_attributes(source: str) -> set[tuple[str, str]]:
    """The (module, attribute) keys of the ``SPANS`` and ``COUNTS`` tables in ``source``."""
    keys = set()
    for node in ast.parse(source).body:
        name = getattr(node, "targets", [None])[0]
        if isinstance(node, ast.Assign) and getattr(name, "id", None) in ("SPANS", "COUNTS"):
            keys.update(ast.literal_eval(node.value))
    return keys


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda path: path.name)
def test_every_noqa_import_is_traced(path):
    """A re-import kept only for the tracer goes when its tracer entry does."""
    traced = traced_attributes(SPANS_FILE.read_text(encoding="utf-8"))
    names = imported_names(path.read_text(encoding="utf-8"), noqa=True)
    assert [name for name in names if (path.stem, name) not in traced] == []


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
    assert imported_names(source, noqa=True) == ["sys"]


def test_traced_attributes_are_both_tables_keys():
    spans = (
        "SPANS = {('cli', 'load_index'): 'x'}\n"
        "OTHER = {('a', 'b'): 'y'}\n"
        "COUNTS = {('m', 'f'): 'z'}\n"
    )
    assert traced_attributes(spans) == {("cli", "load_index"), ("m", "f")}


@pytest.mark.parametrize(
    "row, version",
    [("index", INDEX_FORMAT_VERSION), ("model checkpoint", MODEL_FORMAT_VERSION)],
)
def test_readme_names_the_format_version(row, version):
    """A format change that leaves README's file-format table behind fails here."""
    lines = README.read_text(encoding="utf-8").splitlines()
    [line] = [line for line in lines if line.startswith(f"| {row} |")]
    assert line.startswith(f"| {row} | format {version}: "), line[:60]
