"""Source hygiene: every module of the package uses each name it imports,
and every name the benchmark's tracer rebinds still exists."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
