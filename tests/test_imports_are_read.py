"""Every name a module of the package, the tests, the tools or the
benchmark imports is read somewhere in it.

The repository runs no linter, so an import left behind by an edit would
stay unnoticed; this check walks each module's syntax tree instead. The
package's `__init__.py` is skipped: its imports are the export list that
`__all__` reads from `globals()`. So is an import statement whose first
line carries `# noqa: F401`, a name kept only for another module to find.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "spoonarm").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "tools").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])
MODULES.remove(ROOT / "src" / "spoonarm" / "__init__.py")


def unread_imports(source):
    """(line, name) of each name an import binds that no expression
    reads; `import a.b` binds `a`, and `from __future__` and an import
    whose first line carries `# noqa: F401` bind nothing."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "from math import (e,  # noqa: F401\n"
              "                  inf)\n"
              "from math import nan  # noqa: E402\n"
              "print(os.sep, turn)\n")
    assert unread_imports(source) == [(3, "np"), (4, "pi"), (7, "nan")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
