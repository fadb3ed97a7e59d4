"""Source checks that need only the standard library's ast."""

import ast
from pathlib import Path

import conesolve

SOURCES = sorted(Path(conesolve.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def scoped_nodes(tree):
    """(node, where) for every node below tree, where naming the classes
    and functions that enclose it by their dotted path ("" at module
    level).  A function's decorators and defaults count as its own."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            yield child, where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(
                    child, f"{where}.{child.name}" if where else child.name)
            else:
                yield from visit(child, where)

    return visit(tree, "")


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


def coo_builds(tree):
    """Line of each COO matrix that tree builds with scipy: a name
    coo_matrix or coo_array, imported or called, and a sparse constructor
    given (data, (rows, columns)).  Converting COO to CSR sums duplicate
    entries in the order std::sort leaves them, which is unspecified for a
    row of more than 16 entries; the package sums each entry in the order
    of its terms."""
    builders = {"coo_matrix", "coo_array"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Call) and node.args:
            arg = node.args[0]
            if (isinstance(arg, ast.Tuple) and len(arg.elts) == 2
                    and isinstance(arg.elts[1], ast.Tuple)):
                yield node.lineno
            continue
        else:
            continue
        if names & builders:
            yield node.lineno


def test_the_check_finds_a_coo_matrix():
    tree = ast.parse("import scipy.sparse as sp\n"
                     "a = sp.coo_matrix((v, (r, c)))\n"
                     "from scipy.sparse import coo_array as C\n"
                     "b = sp.csr_matrix((v, (r, c)), shape=(2, 2))\n"
                     "d = sp.csr_matrix((v, j, p))\n"
                     "e = x.tocoo()\n")
    assert sorted(set(coo_builds(tree))) == [2, 3, 4]


def test_no_module_in_the_package_builds_a_coo_matrix():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in coo_builds(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert SOURCES
    assert found == []


def csr_builds(tree):
    """(line, enclosing function) of each place tree builds a CSR matrix:
    a call of csr_matrix, csr_array or tocsr, by name or attribute, and
    an import of csr_matrix or csr_array.  The enclosing function is
    named by its dotted path through classes and functions ("" at module
    level)."""
    builders = {"csr_matrix", "csr_array", "tocsr"}
    for node, where in scoped_nodes(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if getattr(fn, "id", getattr(fn, "attr", None)) in builders:
                yield node.lineno, where
        elif isinstance(node, ast.ImportFrom):
            if {alias.name for alias in node.names} & builders:
                yield node.lineno, where


def test_the_check_finds_a_csr_build():
    tree = ast.parse("import scipy.sparse as sp\n"
                     "from scipy.sparse import csr_array as C\n"
                     "class A:\n"
                     "    def m(self):\n"
                     "        return sp.csr_matrix((v, j, p))\n"
                     "def f(x):\n"
                     "    def g():\n"
                     "        return x.tocsr()\n"
                     "    return g, csr_matrix(x), x.tocsc()\n")
    assert sorted(csr_builds(tree)) == [(2, ""), (5, "A.m"), (8, "f.g"),
                                       (9, "f")]


def test_the_package_builds_a_csr_matrix_only_from_the_slot_table():
    """Every CSR matrix the package holds is A's, built on first read of
    DiscreteOperator.matrix from the slot table."""
    found = [(path.name, where) for path in SOURCES
             for _, where in csr_builds(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert found == [("operator.py", "DiscreteOperator.matrix")]


def prints(tree, may_print=lambda name: False):
    """Line of each use of the name print in tree, outside the top-level
    functions whose name may_print accepts."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and may_print(node.name)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "print":
                yield sub.lineno


def test_the_check_finds_a_print():
    tree = ast.parse("print(1)\n"
                     "def cmd_a():\n    print(2)\n"
                     "def f():\n    def cmd_b():\n        print(3)\n"
                     "class C:\n    def main(self):\n        print(4)\n"
                     "def main():\n    g = print\n"
                     "h = lambda: map(print, [])\n")
    assert list(prints(tree)) == [1, 3, 6, 9, 11, 12]
    assert list(prints(tree, lambda name: name == "main"
                       or name.startswith("cmd_"))) == [1, 6, 9, 12]


def test_only_the_commands_print():
    """Stages return results and never print: stdout is written in one
    place, cli's main and cmd_* functions, from the results' to_text()."""
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in prints(
                 ast.parse(path.read_text(encoding="utf-8")),
                 lambda name, cli=path.name == "cli.py":
                 cli and (name == "main" or name.startswith("cmd_")))]
    assert SOURCES
    assert found == []


def readers(tree, name):
    """The functions in tree that read `name`, as a name or an attribute,
    by dotted path ("" for a read at module level)."""
    return {where for node, where in scoped_nodes(tree)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and name in (getattr(node, "id", None),
                         getattr(node, "attr", None))}


def test_the_check_finds_each_reader():
    tree = ast.parse("S = 1\nT = S\n"
                     "def f(x=S):\n    return x\n"
                     "class C:\n    def m(self):\n        return mod.S\n"
                     "def g():\n    def h():\n        return S\n"
                     "    S = 2\n"
                     "from mod import S\n")
    assert readers(tree, "S") == {"", "f", "C.m", "g.h"}


def test_each_slack_is_read_by_one_function():
    """The box rule and the nodewise order rule each live in one function,
    so rescaling or replacing a slack changes one function."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    found = {slack: sorted((name, where) for name, tree in trees.items()
                           for where in readers(tree, slack))
             for slack in ("BOX_SLACK", "ORDER_SLACK")}
    assert found == {"BOX_SLACK": [("nonlinearity.py", "box_violation")],
                     "ORDER_SLACK": [("fixedpoint.py", "_below")]}


DOMAIN_TYPES = {"Rectangle", "UnitDisk", "DomainSpec"}


def domain_type_checks(tree):
    """Line of each place tree branches on a domain's type: an isinstance
    call whose class argument names Rectangle, UnitDisk or DomainSpec, and
    a match class pattern of one of them.  Building a domain is no such
    branch."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and len(node.args) == 2
                and getattr(node.func, "id", None) == "isinstance"):
            classes = node.args[1]
        elif isinstance(node, ast.MatchClass):
            classes = node.cls
        else:
            continue
        if {getattr(n, "id", getattr(n, "attr", None))
                for n in ast.walk(classes)} & DOMAIN_TYPES:
            yield node.lineno


def test_the_check_finds_a_domain_type_check():
    tree = ast.parse("isinstance(s, Rectangle)\n"
                     "isinstance(s, (int, geometry.UnitDisk))\n"
                     "isinstance(s, DomainSpec)\n"
                     "isinstance(s, Grid)\n"
                     "spec = UnitDisk() if k else Rectangle(0, 1, 0, 1)\n"
                     "match s:\n"
                     "    case Rectangle(x_min=0):\n        pass\n"
                     "    case Grid():\n        pass\n")
    assert sorted(domain_type_checks(tree)) == [1, 2, 3, 7]


def test_only_geometry_branches_on_a_domain_type():
    """Each domain class owns what depends on its shape, so a new domain
    touches geometry.py alone."""
    found = [f"{path.name}:{line}" for path in SOURCES
             if path.name != "geometry.py"
             for line in domain_type_checks(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert SOURCES
    assert found == []


def syntax_errors(paths, version=(3, 10)):
    """(path, line, message) for each file in paths that the grammar of
    Python `version` does not parse."""
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=version)
        except SyntaxError as err:
            yield path, err.lineno, err.msg


def test_the_check_finds_newer_syntax(tmp_path):
    path = tmp_path / "groups.py"
    path.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert [line for _, line, _ in syntax_errors([path])] == [4]
    assert list(syntax_errors([path], (3, 11))) == []


def test_every_python_file_parses_as_python_3_10():
    """CI also runs Python 3.10, the oldest that pyproject accepts; the
    3.10 grammar keeps newer syntax out on a newer interpreter."""
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > len(SOURCES)
    assert list(syntax_errors(paths)) == []
