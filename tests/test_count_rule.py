"""layout: one place words the count rule.

Every count, cap, window, budget and seed of the library goes through
``core.checked_int(value, what, least)``, which refuses a non-integer with
``<what> must be an integer, got <v>`` and a smaller integer with
``<what> must be <least> or more, got <n>``.  A hand-written range check
after it would word the same rule a second time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochworld"
#: the texts of the rule, as the constant parts of an f-string
RULE_TEXTS = ("or more, got", "must be an integer, got")


def rule_fstrings(source: str) -> list:
    """The enclosing function (None at module level) of every f-string whose
    constant parts contain a text of the rule, once per f-string."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.JoinedStr):
                text = "".join(v.value for v in child.values if isinstance(v, ast.Constant))
                if any(rule in text for rule in RULE_TEXTS):
                    found.append(fn)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_checked_int_words_the_rule():
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py")) for fn in rule_fstrings(path.read_text())]
    assert found == [("core.py", "checked_int"), ("core.py", "checked_int")]


def test_finder_sees_nested_functions_and_module_level():
    source = (
        'X = f"{n} must be 1 or more, got {n}"\n\n'
        "def f(n):\n"
        "    def g():\n"
        '        raise ValueError(f"count must be an integer, got {n!r}")\n'
        '    return f"window {n} is short", "or more, got"\n'
    )
    assert rule_fstrings(source) == [None, "g"]
