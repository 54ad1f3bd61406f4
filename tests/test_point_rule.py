"""layout and behaviour: one meaning of a point.

A ``ProbInterval`` is a point exactly when ``lo == hi``: ``is_point``,
``CompiledModel.point``, ``TraceSpec.deterministic_obs`` and ``validate``
read no slack of their own, and ``validate`` matches the values a kind fixes
(an smdp interval, an mdp agent's [0,1], a single-label kind's event "true",
a label's probability shared by its arrows) with ``==``.  ``TOL``, 1e-9, is
read by ``ProbInterval``'s clamp of float drift onto [0, 1] and by four
checks on computed sums and policies (``Belief``, ``Policy.check``,
``preference_to_policy`` and the label-mass note of ``belief_determinize``);
every other near-equality is the sum rule's (``tests/test_sum_rule.py``).

So an interval narrower than 1e-9 is an interval everywhere: the future
prints its bounds, a kind that needs a point refuses it, and so does every
computation that needs points.  The text writes a pair of bounds as one
number exactly when both print the same 12 digits.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from stochworld import (
    Arrow,
    JourneyError,
    Model,
    ModelError,
    ProbInterval,
    SimulationConfig,
    State,
    ToolkitError,
    TraceSpec,
    belief_determinize,
    canonical,
    exact_future,
    invert_mdp_plus,
    journey_statistics,
    parse_model,
    serialize_model,
    simulate,
    validate,
)
from stochworld.cli import main
from stochworld.core import KINDS, SINGLE_LABEL_KINDS, TRUE_LABEL
from stochworld.format import fmt_num

from test_inversion import _random_plus_model

SRC = Path(__file__).resolve().parent.parent / "src" / "stochworld"


def tol_readers(source: str) -> list:
    """The enclosing ``Class.function`` (or function, or None at module
    level) of every read of the name ``TOL``, in source order, a default
    counting as its function's; an assignment to it and an import of it are
    not reads."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "TOL" and isinstance(child.ctx, ast.Load):
                found.append(where)
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if where is None else f"{where}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_tol_is_read_only_by_the_clamp_and_the_sums_of_doubles():
    found = {(path.name, where) for path in sorted(SRC.glob("*.py")) for where in tol_readers(path.read_text())}
    assert sorted(found) == [
        ("constructions.py", "belief_determinize"),
        ("core.py", "Belief.__init__"),
        ("core.py", "Policy.check"),
        ("core.py", "ProbInterval.__init__"),
        ("future.py", "preference_to_policy"),
    ]


def test_finder_sees_every_read_and_no_store():
    source = (
        "from .core import TOL\n"
        "TOL = 1e-9\n"
        "print(TOL)\n\n"
        "class C:\n"
        "    def check(self, p):\n"
        "        def inner():\n"
        "            return p > 1 - TOL\n"
        "        return abs(p - 1) <= TOL, C.TOL\n\n"
        "def f(tol=TOL):\n"
        "    return tol\n"
    )
    assert tol_readers(source) == [None, "C.check.inner", "C.check", "f"]


def test_is_point_is_lo_equal_to_hi():
    (cls,) = [n for n in ast.parse((SRC / "core.py").read_text()).body if getattr(n, "name", "") == "ProbInterval"]
    (is_point,) = [n for n in cls.body if getattr(n, "name", "") == "is_point"]
    assert [ast.dump(n) for n in is_point.body] == [ast.dump(ast.parse("return self.lo == self.hi").body[0])]


def test_narrow_agent_interval_gives_an_interval_future(capsys, tmp_path):
    """An mdp-plus agent 5e-10 wide is an interval: the exact path, which read
    its lower bound, dropped the upper bound of both words."""
    doc = tmp_path / "narrow.model"
    doc.write_text(
        "model mdp-plus\nobs x y\nact a b\nstate s initial trace x=1\nstate t trace y=1\nstate u trace x=1\n"
        "arrow s a t lp=[0.4,0.4000000005] ap=1\narrow s b u lp=[0.5999999995,0.6] ap=1\n"
        "arrow t a s lp=1 ap=1\narrow u a s lp=1 ap=1\n"
    )
    assert main(["validate", str(doc)]) == 0
    capsys.readouterr()
    assert main(["future", str(doc), "--depth", "1"]) == 0
    assert capsys.readouterr().out == "a:y [0.4,0.4000000005]\nb:x [0.5999999995,0.6]\n"


_HMM = "model hmm\nobs x y\nstate s initial trace x=1\nstate t trace y=1\narrow t true s\n"
_FIXED = "model mdp-fixed\nobs x\nact a b\nstate s initial trace x=1\nstate t trace x=1\narrow t a s lp=1 ap=1\n"

#: name -> (a document the kind refuses only for a value within 1e-9 of what it fixes, its one violation)
NEAR_VALUES = {
    "same-label lp": (
        _FIXED + "arrow s a t lp=0.3 ap=0.5\narrow s a s lp=0.3000000001 ap=0.5\narrow s b s lp=0.7 ap=1\n",
        "inconsistent label probability for 'a' out of s",
    ),
    "hmm true": (_HMM + "arrow s true t lp=0.9999999995\n", 'arrow s true t: the event "true" has probability 1'),
    "smdp interval": (
        "model smdp\nobs x\nact a\nstate s initial trace x=1\narrow s a s lp=[0,0.9999999995] ap=1\n",
        "smdp arrow s a s: intervals must be [0,0], [0,1] or [1,1]",
    ),
    "mdp agent": (
        "model mdp\nobs x\nact a\nstate s initial trace x=1\narrow s a s lp=[1e-10,1] ap=1\n",
        "mdp agent interval out of s must be [0,1]",
    ),
    "mdp-fixed point lp": (
        _FIXED + "arrow s a t lp=[0.3,0.3000000005] ap=1\narrow s b s lp=0.7 ap=1\n",
        "arrow s a t: label probability must be a point",
    ),
    "hmm trace": (
        "model hmm\nobs x\nstate s initial trace x=0.9999999995\narrow s true s\n",
        "hmm state s needs one deterministic observation",
    ),
}


@pytest.mark.parametrize("doc, violation", list(NEAR_VALUES.values()), ids=list(NEAR_VALUES))
def test_validate_matches_fixed_values_exactly(doc, violation):
    report = validate(parse_model(doc))
    assert (report.structural, report.violations, report.warnings) == ([], [violation], [])


def _narrow_hmm() -> Model:
    """An hmm whose arrows out of s are points but for one 5e-10 wide."""
    trace = {"s": TraceSpec({"x": ProbInterval(1, 1)}), "t": TraceSpec({"y": ProbInterval(1, 1)})}
    states = (State("s", True, trace["s"]), State("t", False, trace["t"]))
    arrows = (
        Arrow("s", TRUE_LABEL, "s", arrow_prob=ProbInterval(0.5, 0.5)),
        Arrow("s", TRUE_LABEL, "t", arrow_prob=ProbInterval(0.4999999995, 0.5)),
        Arrow("t", TRUE_LABEL, "s"),
    )
    return Model("hmm", ("x", "y"), (TRUE_LABEL,), states, arrows)


@pytest.mark.parametrize(
    "call, error, detail",
    [
        (journey_statistics, JourneyError, "journey statistics need point probabilities (arrow s true t is an interval)"),
        (
            lambda m: simulate(m, SimulationConfig(4, 1)),
            ModelError,
            "unresolved interval for arrow; supply a policy or resolution",
        ),
        (lambda m: belief_determinize(m, 2), ModelError, "belief determinization needs point probabilities"),
        (lambda m: exact_future(m, 2), ModelError, "exact enumeration needs point probabilities"),
    ],
    ids=["journeys", "walk", "determinization", "exact future"],
)
def test_computations_on_points_refuse_a_narrow_interval(call, error, detail):
    with pytest.raises(error) as exc:
        call(_narrow_hmm())
    assert str(exc.value) == detail


@st.composite
def narrow_intervals(draw):
    """[lo, hi] of 12 significant digits each, 0 < hi - lo <= 1e-9: lo is
    m * 10**e with m of 12 digits and hi is (m + k) * 10**e."""
    e = draw(st.integers(-22, -12))
    m = draw(st.integers(10**11, 10**12 - 2))
    k = draw(st.integers(1, min(10**12 - 1 - m, 10 ** (-9 - e))))
    return ProbInterval(float(f"{m}e{e}"), float(f"{m + k}e{e}"))


@given(st.sampled_from(KINDS), narrow_intervals(), narrow_intervals(), narrow_intervals())
def test_narrow_intervals_survive_the_text(kind, trace, lp, ap):
    """Serialize then parse returns every interval 1e-9 wide or narrower whose
    bounds have 12 significant digits; ``parse_model`` checks structure only,
    so every kind holds them.  Bounds closer than 12 digits can tell apart
    wait for the exact text round trip (ROADMAP item 5)."""
    label = TRUE_LABEL if kind in SINGLE_LABEL_KINDS else "a"
    model = Model(kind, ("x",), (label,), (State("s", True, TraceSpec({"x": trace})),), (Arrow("s", label, "s", lp, ap),))
    again = parse_model(serialize_model(model))
    assert again == canonical(model)
    (arrow,) = again.arrows
    assert (again.states[0].trace.probs["x"], arrow.label_prob, arrow.arrow_prob) == (trace, lp, ap)


def test_interval_inverses_print_stably():
    """An interval inverse's bounds may differ below 12 digits; the text
    writes such a pair as the one number it reads back as, so serialize .
    parse . serialize is byte-identical."""
    rng = random.Random(2)
    close = 0  # bound pairs that differ but print the same 12 digits
    for _ in range(100):
        try:
            inverse = invert_mdp_plus(_random_plus_model(rng), "vertex", 200)
        except ToolkitError:
            continue
        text = serialize_model(inverse)
        assert serialize_model(parse_model(text)) == text
        bounds = [iv for a in inverse.arrows for iv in (a.label_prob, a.arrow_prob)]
        close += sum(iv.lo != iv.hi and fmt_num(iv.lo) == fmt_num(iv.hi) for iv in bounds)
    assert close >= 20
