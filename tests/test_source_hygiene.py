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


def warnings_imports(tree):
    """Line of each import of the standard library's warnings module in
    tree.  The package reports through `warning:` lines and exit codes,
    which a library warning would bypass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "warnings" for name in names):
            yield node.lineno


def test_the_check_finds_a_warnings_import():
    tree = ast.parse("import os, warnings\nfrom warnings import warn\n"
                     "import warnings as w\nfrom . import warnings\n"
                     "from os import path\nimport numpy.warnings\n"
                     "def f():\n    import warnings\n")
    assert list(sorted(warnings_imports(tree))) == [1, 2, 3, 8]


def test_no_module_in_the_package_imports_warnings():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in warnings_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert SOURCES
    assert found == []
