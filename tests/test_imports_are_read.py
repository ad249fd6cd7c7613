"""Every name a test or tool module imports is read somewhere in it.

The repository runs no linter, so an import left behind by an edit would
stay unnoticed; this check walks each module's syntax tree instead.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "tests").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


def unread_imports(source):
    """(line, name) of each name an import binds that no expression
    reads; `import a.b` binds `a`, and `from __future__` binds nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "print(os.sep, turn)\n")
    assert unread_imports(source) == [(3, "np"), (4, "pi")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
