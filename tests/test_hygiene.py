"""Source hygiene: every module of the package uses each name it imports,
imports no private name of another package module, reads every private
helper it defines, every name the benchmark's tracer rebinds still
exists, and every exported name, every public method of an exported
class and every public module-level function has a caller outside the
tests."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import delpezzo5

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo5"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other code in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom re import sub, match\nmatch('a', 'b')\n") \
        == ["os", "sub"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from a module of the package,
    by a relative import or by the package's absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == PACKAGE.name):
            found += [a.name for a in node.names if a.name.startswith("_")]
    return sorted(found)


def test_detector_flags_a_private_import():
    source = ("from .groebner import _s_pair, normal_form\n"
              "from delpezzo5.ideals import _meet\n"
              "from os import _exit\n")
    assert private_imports(source) == ["_meet", "_s_pair"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private module-level function and
    ``module:Class.name`` of each private method that no code in any of
    the modules reads, as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{qualified}" for module, qualified, name in defined
                  if is_private(name) and name not in read)


def test_detector_flags_an_unreferenced_private_helper():
    sources = {
        "a": ("def _used():\n    pass\n"
              "def _orphan():\n    pass\n"
              "class C:\n"
              "    def __init__(self):\n        self._called()\n"
              "    def _called(self):\n        pass\n"
              "    def _dead(self):\n        pass\n"),
        "b": "from .a import _used\n_used()\n",
    }
    assert unreferenced_private(sources) == ["a:C._dead", "a:_orphan"]


def test_no_unreferenced_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def load_spans():
    """perfbench/spans.py as a module, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # `perfbench/run.py --trace 1` rebinds these by name; deleting one
    # breaks the traced benchmark, so removing it starts with a benchmark change
    spans = load_spans()

    def module(name):
        return importlib.import_module(f"{spans.PACKAGE}.{name}")

    for mod, attr, _ in spans.FUNCTIONS + spans.BINDINGS:
        assert callable(getattr(module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, attr, _ in spans.METHODS:
        assert attr in vars(getattr(module(mod), cls)), f"{mod}.{cls}.{attr}"
    verify = module("verify")
    for attr, _ in spans.suite_builders(verify):
        assert callable(getattr(verify, attr, None)), f"verify.{attr}"


def read_names(tree):
    """(name, line) of each name the tree reads, as a name, an attribute
    or a string (the benchmark's tracer binds names by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def exports_without_caller(exports, sources: dict[str, str]) -> list[str]:
    """Exported names that no source reads.  A read inside the top-level
    definition of the same name, like a class's ``isinstance(other,
    Cls)``, does not count."""
    read = set()
    for source in sources.values():
        tree = ast.parse(source)
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own[node.name] = (node.lineno, node.end_lineno)
        for name, line in read_names(tree):
            first, last = own.get(name, (0, -1))
            if not first <= line <= last:
                read.add(name)
    return sorted(set(exports) - read)


def methods_without_caller(classes, sources: dict[str, str]) -> list[str]:
    """``Class.method`` for each public method of the named classes,
    defined at the top level of a source, whose name no source reads
    outside the method's own body.  Only the name is matched, so a dead
    method whose name other code reads goes unflagged: a method named
    like a live function or a live method of another class, as
    ``Ideal.normal_form`` was beside ``groebner.normal_form``, passes."""
    defined, reads = [], {}
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                defined += [(path, node.name, item) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")]
        for name, line in read_names(tree):
            reads.setdefault(name, []).append((path, line))
    return sorted(f"{cls}.{item.name}" for path, cls, item in defined
                  if all(p == path and item.lineno <= line <= item.end_lineno
                         for p, line in reads.get(item.name, ())))


def test_detector_flags_an_export_without_a_caller():
    sources = {
        "lib.py": ("class Used:\n    pass\n"
                   "class Lonely:\n"
                   "    def __eq__(self, other):\n        return isinstance(other, Lonely)\n"
                   "def traced():\n    pass\n"
                   "def unread():\n    pass\n"),
        "demo.py": ("from lib import Used, unread\nimport lib\n"
                    "Used()\nlib.Used\nBOUND = [('lib', 'traced')]\n"),
    }
    assert exports_without_caller(["Lonely", "Used", "traced", "unread"], sources) \
        == ["Lonely", "unread"]


def test_detector_flags_a_method_without_a_caller():
    sources = {
        "lib.py": ("class Node:\n"
                   "    def walk(self):\n        return self.walk()\n"
                   "    def size(self):\n        return 1\n"
                   "    def depth(self):\n        return self.size()\n"
                   "    def _hidden(self):\n        pass\n"
                   "class Other:\n"
                   "    def lonely(self):\n        pass\n"
                   "def lookup(node):\n    return node.depth()\n"),
        "demo.py": "import lib\nNAMES = ['lookup']\n",
    }
    # walk reads itself only; Other is not among the classes checked
    assert methods_without_caller(["Node"], sources) == ["Node.walk"]


def functions_without_caller(modules: dict[str, str], sources: dict[str, str]) -> list[str]:
    """``module:name`` of each public module-level function of the
    ``modules`` whose name no source reads outside the function's own
    definition, as `exports_without_caller` counts reads.  Only the name
    is matched, as in `methods_without_caller`."""
    defined = [(module, node.name) for module, source in modules.items()
               for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    unread = set(exports_without_caller([name for _, name in defined], sources))
    return sorted(f"{module}:{name}" for module, name in defined if name in unread)


def test_detector_flags_a_function_without_a_caller():
    lib = ("def helper():\n    return 1\n"
           "def entry():\n    return helper()\n"
           "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
           "def traced():\n    pass\n"
           "def _private():\n    pass\n"
           "class Box:\n    def method(self):\n        pass\n")
    sources = {"lib.py": lib,
               "demo.py": "import lib\nlib.entry()\nBOUND = [('lib', 'traced')]\n"}
    # recursive reads itself only; a private function and a method are
    # not module-level public functions
    assert functions_without_caller({"lib.py": lib}, sources) == ["lib.py:recursive"]


def caller_sources() -> dict[str, str]:
    """Callers: the package's modules apart from __init__, the demos, the
    scripts and the benchmark; tests do not count."""
    paths = MODULES + [p for folder in ("demos", "scripts", "perfbench")
                       for p in sorted((ROOT / folder).glob("*.py"))]
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_every_function_has_a_caller():
    sources = caller_sources()
    modules = {path: source for path, source in sources.items() if path.startswith("src/")}
    assert functions_without_caller(modules, sources) == []


def test_every_export_has_a_caller():
    sources = caller_sources()
    assert exports_without_caller(delpezzo5.__all__, sources) == []
    classes = [name for name in delpezzo5.__all__ if isinstance(getattr(delpezzo5, name), type)]
    assert methods_without_caller(classes, sources) == []


def integer_terms_readers(sources: dict[str, str]) -> list[str]:
    """The sources that import or read ``integer_terms``, as a name or as
    an attribute."""
    readers = []
    for path, source in sources.items():
        tree = ast.parse(source)
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for a in node.names}
        if "integer_terms" in imported | {name for name, _ in read_names(tree)}:
            readers.append(path)
    return sorted(readers)


def test_detector_flags_an_integer_terms_reader():
    sources = {"a.py": "from .linalg import integer_terms\n",
               "b.py": "from . import linalg\nrows = linalg.integer_terms({})\n",
               "c.py": '"""Cleared by `integer_terms`."""\nfrom .linalg import primitive\n'}
    assert integer_terms_readers(sources) == ["a.py", "b.py"]


def test_rationals_become_ints_only_where_the_kernel_starts():
    # a polynomial's Fractions become ints where it enters the division
    # kernel (groebner), the Hilbert-function oracle (hilbert) or the
    # echelon (linalg); every other module hands over Polynomials or ints
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert set(integer_terms_readers(sources)) <= {"groebner.py", "hilbert.py", "linalg.py"}
