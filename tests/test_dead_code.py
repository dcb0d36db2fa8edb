"""Every top-level private function or class under `src/knwznw` is used,
and every private attribute it stores is read.

Each file is parsed with `ast`.  A top-level `def` or `class` whose name
starts with one underscore (`_name`, not `__name__`) counts as used when
some file under `src/knwznw` reads the name (as a name, as an attribute
or in a `from ... import`) outside the definition's own body, so a
recursive call alone does not keep it.  A private attribute stored on
`self` or `cls` (`self._x = ...`, `cls._x += ...`) counts as read when
some file loads an attribute of that name, on any object.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "knwznw"


def _references(node):
    """Counter of the names node reads anywhere inside it."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unused_private_definitions(root):
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(root.rglob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and total[node.name] == _references(node)[node.name]):
                unused.append("%s:%d %s" % (path.relative_to(root),
                                            node.lineno, node.name))
    return unused


def write_only_private_attributes(root):
    stored, loaded = {}, set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif (isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                stored.setdefault(node.attr, "%s:%d %s" % (
                    path.relative_to(root), node.lineno, node.attr))
    return sorted(where for attr, where in stored.items()
                  if attr not in loaded)


def test_every_private_definition_is_used():
    assert unused_private_definitions(SRC) == []


def test_an_unused_private_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n\n"
        "def _called():\n    return 1\n\n\n"
        "class _Imported:\n    pass\n\n\n"
        "def public():\n    return _called()\n")
    (tmp_path / "b.py").write_text("from a import _Imported\n")
    assert unused_private_definitions(tmp_path) == ["a.py:1 _dead"]


def test_every_stored_private_attribute_is_read():
    assert write_only_private_attributes(SRC) == []


def test_a_write_only_private_attribute_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        self._plans = {}\n"
        "        self._count = 0\n"
        "        self.__private = 1\n\n"
        "    def bump(self):\n"
        "        self._count += 1\n")
    (tmp_path / "b.py").write_text(
        "def read(a):\n    return a._memo.get(1)\n")
    assert write_only_private_attributes(tmp_path) == [
        "a.py:4 _plans", "a.py:5 _count"]
