"""No module under `src/knwznw` imports a name it never uses.

Each file is parsed with `ast`.  A name bound by an import counts as used
when the module reads it anywhere (as a name, or as the base of an
attribute), or lists it in `__all__`; `from __future__` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "knwznw"
FILES = sorted(SRC.rglob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # name -> line of the import that binds it
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=[str(f.relative_to(SRC))
                                             for f in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os.path\nimport sys\n"
                   "from math import gcd, lcm\nfrom json import dumps\n"
                   "__all__ = ['dumps']\nprint(sys.argv, gcd(4, 6))\n")
    assert unused_imports(src) == [(2, "os"), (4, "lcm")]
