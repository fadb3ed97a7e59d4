"""Source checks that need only the standard library's ast."""

import ast
from pathlib import Path

import conesolve

SOURCES = sorted(Path(conesolve.__file__).parent.glob("*.py"))


def unread_parameters(tree):
    """(line, function, parameter) for each parameter of a function or
    lambda in tree whose body never reads it.  Names starting with _ are
    unread on purpose, and so may be a method's self, which the call
    protocol fixes."""
    methods = {id(item) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for item in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        params = params[id(node) in methods:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if not p.arg.startswith("_") and p.arg not in read:
                yield node.lineno, name, p.arg


def test_the_check_finds_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c):\n    return a\n"
                     "g = lambda x, y: y\n"
                     "class C:\n    def m(self, z):\n        return 1\n")
    assert sorted(unread_parameters(tree)) == [
        (1, "f", "b"), (3, "<lambda>", "x"), (5, "m", "z")]


def test_every_parameter_in_the_package_is_read():
    unread = [f"{path.name}:{line} {func}({param})" for path in SOURCES
              for line, func, param in unread_parameters(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert SOURCES
    assert unread == []
