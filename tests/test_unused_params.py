"""Every parameter of a function under `src/knwznw` is read in its body.

Each file is parsed with `ast`.  A parameter of a `def` or a `lambda`
(positional, keyword-only, `*args` or `**kwargs`) counts as read when
its name is loaded somewhere in the function's body, nested functions
and default values of nested functions included.  The receiver of a
method (`self`, `cls`) is fixed by the call protocol and not checked.
`ALLOWED` names the parameters kept unread on purpose, each with its
reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "knwznw"

ALLOWED = {
    ("kz.py", "kz_matrices"): (
        {"depth"}, "the benchmark (perfbench/workloads.py) passes depth "
        "by position; every image is exact, so no depth is read"),
}


def _parameters(node):
    a = node.args
    params = a.posonlyargs + a.args + a.kwonlyargs
    params += [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in params]


def _loaded(node):
    """The names read anywhere in node's body (its own defaults are read
    by the enclosing scope, not by the body)."""
    body = node.body if isinstance(node.body, list) else [node.body]
    return {sub.id for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _methods(tree):
    """The functions defined directly in a class body, except static
    methods: their first parameter is the receiver."""
    return {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in f.decorator_list)}


def unused_parameters(root):
    unused = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(), str(path))
        methods = _methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            allowed = ALLOWED.get((rel, name), (set(), ""))[0]
            read = _loaded(node) | allowed
            params = _parameters(node)[id(node) in methods:]
            unused += [(rel, node.lineno, name, param)
                       for param in params if param not in read]
    return ["%s:%d %s(%s)" % u for u in sorted(unused)]


def test_every_parameter_is_read():
    assert unused_parameters(SRC) == []


def test_an_unread_parameter_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(alg, mods, *, key=None, **kw):\n"
        "    def inner(x, y=mods):\n"
        "        return x\n"
        "    return inner(key, **kw)\n\n\n"
        "g = lambda u, v: u\n\n\n"
        "class C:\n"
        "    def method(self, a):\n"
        "        return 0\n\n"
        "    @staticmethod\n"
        "    def static(b):\n"
        "        return 0\n")
    assert unused_parameters(tmp_path) == [
        "a.py:1 f(alg)", "a.py:2 inner(y)", "a.py:7 <lambda>(v)",
        "a.py:11 method(a)", "a.py:15 static(b)"]
