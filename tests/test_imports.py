"""layout: the package imports at module level only.

A function-level import hides a module dependency from the reader and from
import-time measurement.  The one exception is scipy in ``check_markov``:
importing it takes most of a second, and only that command needs it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochworld"
#: (file, function, imported module) allowed inside a function body
ALLOWED = {("simulate.py", "check_markov", "scipy")}


def imports_in_functions(source: str) -> set:
    """(function, module) for every import statement inside a function body;
    relative modules keep their leading dots."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                found |= {(fn.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                found.add((fn.name, "." * node.level + (node.module or "")))
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
