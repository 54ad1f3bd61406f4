"""layout: the package imports at module level only.

A function-level import hides a module dependency from the reader and from
import-time measurement.  There is one exception: the package's
``__getattr__`` imports the module of an export on first use, so that a
command loads numpy only when it computes with it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochworld"
#: (file, function, imported module) allowed inside a function body
ALLOWED = {
    ("__init__.py", "__getattr__", "f'{__name__}.{_EXPORTS[name]}'"),
}
#: call names that import a module by another name than an import statement
IMPORTING_CALLS = {"import_module", "importlib.import_module", "__import__"}


def imports_in_functions(source: str) -> set:
    """(function, module) for every import statement and every
    ``importlib.import_module``/``__import__`` call inside a function body;
    relative modules keep their leading dots, and a module computed at run
    time is reported as the source of its expression."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found |= {(fn.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found.add((fn.name, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in IMPORTING_CALLS and node.args:
                module = node.args[0]
                found.add((fn.name, module.value if isinstance(module, ast.Constant) else ast.unparse(module)))
    return found


def test_no_function_level_imports():
    found = {
        (path.name, fn, module)
        for path in sorted(SRC.glob("*.py"))
        for fn, module in imports_in_functions(path.read_text())
    }
    assert found - ALLOWED == set()


def test_finder_sees_nested_and_relative_imports():
    source = "import os\n\ndef f():\n    def g():\n        from .core import Model\n    import json\n"
    assert imports_in_functions(source) == {("f", ".core"), ("g", ".core"), ("f", "json")}
    source = (
        "import importlib\n\ndef h(name):\n    importlib.import_module('numpy')\n"
        "    import_module('.simulate', 'stochworld')\n    return __import__(name)\n"
    )
    assert imports_in_functions(source) == {("h", "numpy"), ("h", ".simulate"), ("h", "name")}
