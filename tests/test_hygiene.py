"""Source hygiene, read from the syntax trees with the standard library
only: no `assert` statement in the library, where `python -O` would strip
the check, no import that its file never uses, no private module-level
function or class that the library never uses, no public one that no
library, test or bench file names, no private name that one library
module imports from another, and no test or source name in the README's
table of proof premises that the tests or the library do not define.
`import qschur.cli` loads only the layers that every task needs."""

import ast
import functools
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qschur")
TESTS = os.path.join(ROOT, "tests")
BENCH = os.path.join(ROOT, "bench")
README = os.path.join(ROOT, "README.md")


@functools.cache
def _trees(folder):
    """The syntax tree of every Python file of the folder, by path."""
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as fh:
                out[os.path.relpath(path, ROOT)] = ast.parse(fh.read(), path)
    return out


def _scan(folder):
    """Per Python file of the folder: the lines of its `assert` statements
    and its unused imports."""
    return {path: _findings(tree) for path, tree in _trees(folder).items()}


def _findings(tree):
    """The lines of the `assert` statements, and the (line, name) of every
    name an import binds and nothing reads."""
    asserts, imported, used = [], {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            asserts.append(node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    return asserts, unused


def test_no_assert_statement_in_the_library():
    found = [f"{path}:{line}" for path, (asserts, _) in _scan(SRC).items()
             for line in asserts]
    assert found == []


def test_every_import_is_used():
    found = [f"{path}:{line} {name}"
             for folder in (SRC, TESTS)
             for path, (_, unused) in _scan(folder).items()
             for line, name in unused]
    assert found == []


def _unused(trees, public=False, readers=()):
    """The (file, name) of every private (or, with `public`, public)
    module-level function or class of the syntax trees {file: tree} that
    no other top-level statement of them, nor any statement of the trees
    in `readers`, reads, by name or as an attribute."""
    defined, used = [], set()
    for path, tree in trees.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") != public \
                    and not stmt.name.startswith("__"):
                own = stmt.name
                defined.append((path, own))
            used |= _read_names(stmt) - {own}
    for tree in readers:
        used |= _read_names(tree)
    return [(path, name) for path, name in defined if name not in used]


def _read_names(node):
    """Every name that the syntax tree reads, plainly or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_function_and_class_is_used():
    assert _unused(_trees(SRC)) == []


def test_every_public_function_and_class_is_named():
    readers = [tree for folder in (TESTS, BENCH)
               for tree in _trees(folder).values()]
    assert _unused(_trees(SRC), public=True, readers=readers) == []


def test_the_scan_sees_an_unused_private_function():
    trees = {"a.py": ast.parse("def _f(): return _f()\n"
                               "class _C: pass\ndef _g(): pass\n"),
             "b.py": ast.parse("import a\nx = a._g\ny = [_C]\n")}
    assert _unused(trees) == [("a.py", "_f")]


def test_the_scan_sees_an_unnamed_public_function():
    trees = {"a.py": ast.parse("def f(): return f()\nclass C: pass\n"
                               "def g(): pass\ndef _h(): pass\n")}
    readers = [ast.parse("import a\nx = a.g\n")]
    assert _unused(trees, public=True, readers=readers) == [("a.py", "f"),
                                                            ("a.py", "C")]


def test_the_scan_sees_an_unused_import_and_an_assert():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "from a import b as c, d\nassert d\n")
    assert _findings(tree) == ([4], [(2, "os"), (3, "c")])


def _private_imports(trees):
    """The (file, line, name) of every private name that an import of the
    syntax trees takes from a module of the package: a relative import, or
    one from `qschur`."""
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "qschur"):
                found += [(path, node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports(_trees(SRC)) == []


def test_the_scan_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from .a import _f, g\nfrom . import _b\n"
                     "from qschur.c import _h\nfrom os import _exit\n"
                     "from .d import __all__\n")
    assert _private_imports({"x.py": tree}) == [
        ("x.py", 2, "_f"), ("x.py", 3, "_b"), ("x.py", 4, "_h")]


def _premise_table():
    """The README's "Proof premises" section."""
    with open(README, encoding="utf-8") as fh:
        table = fh.read().split("### Proof premises", 1)[1]
    return table.split("\n#", 1)[0]


def _premise_tests():
    """The (file, (class, function) or (function,)) of every test that the
    README's "Proof premises" table names, without its parameter id."""
    return [(path, tuple(names.split("::"))) for path, names
            in re.findall(r"`(tests/\w+\.py)::(\w+(?:::\w+)?)",
                          _premise_table())]


def _premise_sources(table):
    """The last dotted component of every backticked name, with or without
    a call's `()`, in the first two columns of the rows of `table`: the
    library functions, methods and classes that its proofs rest on."""
    names = []
    for line in table.splitlines():
        cells = re.split(r"(?<!\\)\|", line)     # a cell may hold \|
        for cell in cells[1:3] if len(cells) > 3 else ():
            names += [name.split(".")[-1] for name in
                      re.findall(r"`([A-Za-z_][\w.]*)(?:\(\))?`", cell)]
    return names


def _library_defines():
    """The name of every function, method and class of the library."""
    return {node.name for tree in _trees(SRC).values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _defines(tree, names):
    """Whether the syntax tree defines the nested classes and function
    `names` at its top level."""
    body = tree.body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.ClassDef,
                                                   ast.FunctionDef))
                 and n.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_every_test_of_the_premise_table_exists():
    named = _premise_tests()
    trees = _trees(TESTS)
    assert len(named) >= 15
    assert [(path, names) for path, names in named
            if path not in trees or not _defines(trees[path], names)] == []


def test_every_source_name_of_the_premise_table_is_defined():
    named = _premise_sources(_premise_table())
    assert len(named) >= 15
    assert sorted(set(named) - _library_defines()) == []


def test_the_scan_sees_a_deleted_source_name():
    table = ("| proof | premise | test that catches its removal |\n"
             "|---|---|---|\n"
             "| by spin (`schur._spin_at`) | `graded()` holds, \\|W\\| "
             "times, `not loop` | `tests/test_a.py::test_b` (`_c`) |\n")
    assert _premise_sources(table) == ["_spin_at", "graded"]
    assert set(_premise_sources(table)) - _library_defines() \
        == {"_spin_at"}


def test_the_scan_sees_a_missing_test():
    tree = ast.parse("class A:\n    def f(self): pass\ndef g(): pass\n")
    assert _defines(tree, ("A", "f")) and _defines(tree, ("g",))
    assert not _defines(tree, ("A", "g")) and not _defines(tree, ("f",))


# every `qsl` job imports the CLI first, and each task imports the layers it
# runs, so the CLI itself must load no others
CLI_MODULES = ["qschur", "qschur.cli", "qschur.jobspec", "qschur.laurent",
               "qschur.linalg", "qschur.rings", "qschur.rootdata"]


def test_the_package_imports_no_submodule():
    tree = _trees(SRC)[os.path.join("src", "qschur", "__init__.py")]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_the_cli_loads_exactly_the_layers_every_task_needs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    code = ("import sys, qschur.cli; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'qschur'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == CLI_MODULES
