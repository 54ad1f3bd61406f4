"""layout: one place holds the sum rule.

Every probability group, belief, policy, journey check and interval
resolution of the library is held to one rule, ``core.sum_fault``: the
``math.fsum`` of its lower bounds at most ``1 + SUM_TOL`` and of its upper
bounds at least ``1 - SUM_TOL``.  A bound written anywhere else, or the
slack written as its own ``1e-6``, would state the rule a second time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochworld"


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def _is_slack(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "SUM_TOL"


def rule_sites(source: str) -> list:
    """(what, where) for every ``1 - SUM_TOL`` or ``1 + SUM_TOL`` (what
    "bound") and every float constant 1e-6 (what "1e-6"); where is the
    enclosing function, or at module level the name a statement assigns
    (None outside an assignment)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, (ast.Add, ast.Sub)):
                left, right = child.left, child.right
                swapped = isinstance(child.op, ast.Add) and _is_slack(left) and _is_one(right)
                if swapped or (_is_one(left) and _is_slack(right)):
                    found.append(("bound", where))
            elif isinstance(child, ast.Constant) and type(child.value) is float and child.value == 1e-6:
                found.append(("1e-6", where))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(node, ast.Module) and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                inner = ",".join(t.id for t in targets if isinstance(t, ast.Name))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_sum_fault_holds_the_rule():
    found = [(path.name, *site) for path in sorted(SRC.glob("*.py")) for site in rule_sites(path.read_text())]
    assert sorted(found) == [
        ("core.py", "1e-6", "SUM_TOL"), ("core.py", "bound", "sum_fault"), ("core.py", "bound", "sum_fault"),
    ]


def test_finder_sees_both_bounds_and_every_slack():
    source = (
        "SUM_TOL = 1e-6\n"
        "EPS: float = 0.000001\n"
        "print(1e-6)\n\n"
        "class C:\n"
        "    def check(self, total):\n"
        "        def inner():\n"
        "            return SUM_TOL + 1.0, 2.0 - SUM_TOL\n"
        "        return total < 1 - SUM_TOL or abs(total - 1.0) > 1e-6\n"
    )
    assert rule_sites(source) == [
        ("1e-6", "SUM_TOL"), ("1e-6", "EPS"), ("1e-6", None), ("bound", "inner"), ("bound", "check"), ("1e-6", "check"),
    ]
