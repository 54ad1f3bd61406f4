"""layout: one place holds the sum rule, and one function adds.

Every probability group, belief, policy, journey check and interval
resolution of the library is held to one rule, ``core.sum_fault``: the
``math.fsum`` of its lower bounds at most ``1 + SUM_TOL`` and of its upper
bounds at least ``1 - SUM_TOL``.  A bound written anywhere else, or the
slack written as its own ``1e-6``, would state the rule a second time.

Every other sum of the library is ``core.ordered_sum``, a left fold from 0.
The built-in ``sum`` compensates float rounding since Python 3.12, so one
call of it gives other bits on 3.12 and 3.13 than on 3.10 and 3.11.
"""

import ast
from pathlib import Path

import pytest

from stochworld import (
    Belief, EventSet, ModelError, Partition, enumerate_future, minimize_forward, parse_model, quotient, step_belief,
)
from stochworld.cli import main

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


def sum_names(source: str) -> list:
    """The line of every read of the name ``sum``: a call of the built-in,
    or the built-in passed on.  An attribute such as numpy's ``.sum`` is not
    the name."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name) and n.id == "sum"]


def test_no_builtin_sum_in_src():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) for line in sum_names(path.read_text())]
    assert found == []


def test_finder_sees_every_sum_and_no_attribute():
    source = (
        "def f(rows, a):\n"
        "    total = sum(r[0] for r in rows)\n"
        "    return list(map(sum, rows)), a.sum(axis=1), np.sum(a), ordered_sum(rows), total\n"
    )
    assert sum_names(source) == [2, 3]


# one hmm: s goes to t1, t2, t3 (all observing y) and u with 0.1, 0.2, 0.3, 0.4
_HMM = (
    "model hmm\nobs x y\nstate s initial trace x=1\nstate t1 trace y=1\nstate t2 trace y=1\n"
    "state t3 trace y=1\nstate u trace x=1\narrow s true t1 ap=0.1\narrow s true t2 ap=0.2\n"
    "arrow s true t3 ap=0.3\narrow s true u ap=0.4\narrow t1 true s ap=1\narrow t2 true s ap=1\n"
    "arrow t3 true s ap=1\narrow u true s ap=1\n"
)


def _future_lower_bound() -> float:
    model = parse_model(
        "model mdp-plus\nobs x\nact a\nstate s initial trace x=1\n"
        "state t1 trace x=1\nstate t2 trace x=1\nstate t3 trace x=1\n"
        "arrow s a t1 lp=1 ap=[0.1,0.2]\narrow s a t2 lp=1 ap=[0.2,0.3]\narrow s a t3 lp=1 ap=[0.3,0.5]\n"
        "arrow t1 a s lp=1 ap=1\narrow t2 a s lp=1 ap=1\narrow t3 a s lp=1 ap=1\n"
    )
    return enumerate_future(model, 1).entries[(("a", "x"),)].lo


def _quotient_arrow_prob() -> float:
    model = parse_model(_HMM)
    classes = Partition(({"s"}, {"t1", "t2", "t3"}, {"u"}))
    q = quotient(model, classes, [EventSet("e", frozenset(model.arrows))])
    (ap,) = [a.arrow_prob for a in q.arrows if a.key == ("s", "e", "t1+t2+t3")]
    assert ap.lo == ap.hi
    return ap.lo


def _belief_mass() -> float:
    return step_belief(parse_model(_HMM), Belief.point("s"), "true", "y").probs["t3"]


@pytest.mark.parametrize(
    "compute, want",
    [
        (_future_lower_bound, "0x1.3333333333334p-1"),  # 3.12's sum gave 0x1.3333333333333p-1
        (_quotient_arrow_prob, "0x1.3333333333334p-1"),  # 3.12's sum gave 0x1.3333333333333p-1
        (_belief_mass, "0x1.ffffffffffffep-2"),  # 3.12's sum gave 0x1.0000000000000p-1
    ],
    ids=["interval future", "quotient", "belief"],
)
def test_bits_are_those_of_python_3_11(compute, want):
    """Answers the compensated ``sum`` of Python 3.12 and 3.13 moved by an
    ulp: ``ordered_sum`` gives the 3.10 and 3.11 bits on every version."""
    assert compute().hex() == want


# s reaches t and u, both observing y, with 0.5000005 and 0.5: a sum within the rule's slack above 1
_NEAR_ONE = (
    "model hmm\nobs x y\nstate s initial trace x=1\nstate t trace y=1\nstate u trace y=1\n"
    "arrow s true t ap={}\narrow s true u ap=0.5\narrow t true s ap=1\narrow u true s ap=1\n"
)
_ONE_ACTION = "model mdp-fixed\nobs x\nact a\nstate s initial trace x=1\narrow s a s lp=1 ap=1\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (("future", "{m}", "--depth", "2"), "y,x 1\n"),
        (
            ("minimize", "{m}"),
            "model hmm\nobs x y\nstate s initial trace x=1\nstate t+u trace y=1\n"
            "arrow s true t+u lp=1 ap=1\narrow t+u true s lp=1 ap=1\n",
        ),
        (
            ("minimize", "{m}", "--determinize", "2"),
            "model hmm\nobs x y\nstate q0 initial trace x=1\nstate q1 trace y=1\n"
            "arrow q0 true q1 lp=1 ap=1\narrow q1 true q0 lp=1 ap=1\n",
        ),
        (
            ("minimal", "{m}", "--depth", "2"),
            "model hmm\nobs x y\nstate fut:q0 trace x=1\nstate fut:q1 trace y=1\nstate now initial trace x=1\n"
            "state past:q0 trace x=1\nstate past:q1 trace y=1\narrow fut:q0 true fut:q1 lp=1 ap=1\n"
            "arrow fut:q1 true fut:q0 lp=1 ap=1\narrow now true fut:q1 lp=1 ap=1\n"
            "arrow past:q0 true past:q1 lp=1 ap=1\narrow past:q1 true now lp=1 ap=1\n",
        ),
        (("future", "{f}", "--depth", "1", "--policy", "{p}"), "a:x 1\n"),
    ],
    ids=["exact future", "minimize", "determinize", "minimal", "policy"],
)
def test_sums_within_the_slack_are_admitted(capsys, tmp_path, argv, want):
    """A sum of admitted probabilities that exceeds 1 within ``SUM_TOL`` is
    1, as ``validate`` and ``Policy.check`` admit it: merged arrows,
    determinized arrows, exact future words and policy values."""
    paths = {"m": tmp_path / "near.model", "f": tmp_path / "one.model", "p": tmp_path / "policy"}
    paths["m"].write_text(_NEAR_ONE.format("0.5000005"))
    paths["f"].write_text(_ONE_ACTION)
    paths["p"].write_text("s a 1.0000005\n")
    assert main(["validate", str(paths["m"])]) == 0 and capsys.readouterr().out == "ok\n"
    code = main([arg.format(**paths) for arg in argv])
    assert (code, *capsys.readouterr()) == (0, want, "")


def test_a_sum_beyond_the_slack_is_still_refused():
    """Merging t and u sums their arrows to 1.0000015, beyond ``SUM_TOL``."""
    model = parse_model(_NEAR_ONE.format("0.5000015"))
    with pytest.raises(ModelError, match=r"invalid probability interval \[1\.0000015, 1\.0000015\]"):
        minimize_forward(model)
