"""Refusal texts: one table per parser, one for ``validate``, one for the
journey flow, one for a policy's check and one for the library's other
argument checks, each case pinned to its exact detail text (``line N: ...``
where the line is known)."""

import pytest

from stochworld import (
    Arrow,
    Belief,
    EventSet,
    FormatError,
    JourneyError,
    Model,
    ModelError,
    Partition,
    Policy,
    PolicyError,
    Preference,
    ProbInterval,
    SimulationConfig,
    State,
    TraceSpec,
    WhitePeakError,
    invert_mdp_fixed,
    invert_mdp_plus,
    journey_statistics,
    minimize_forward,
    monte_carlo_invert,
    parse_charfns,
    parse_event_stream,
    parse_model,
    parse_policy,
    parse_preference,
    quotient,
    simulate,
    step_belief,
    validate,
)
from stochworld.core import compose_policy
from stochworld.format import parse_event_arrows

_ED = "model ed\nobs x\nevent go\nstate s initial trace x=1\n"
_MDP = "model mdp-fixed\nobs x\nact go\n"
_RESERVED = "is reserved: a trajectory line would not read it back"

MODEL_REFUSALS = {
    # parse_model
    "second model line": ("model fomm\nobs a\nmodel hmm\n", "line 3: duplicate model line"),
    "model line arity": ("model\n", "line 1: expected: model <kind> [<name>]"),
    "model line too long": ("model fomm a b\n", "line 1: expected: model <kind> [<name>]"),
    "unknown kind": ("# a comment\nmodel banana\n", "line 2: unknown kind 'banana'"),
    "model line not first": ("obs a\nmodel fomm\n", "line 1: the model line must come first"),
    "no model line": ("# nothing\n\n", "missing model line"),
    "label alphabet of a single-label kind": ("model hmm\nobs a\nact go\n", "line 3: hmm models have no act alphabet"),
    "event alphabet of an mdp": ("model mdp\nobs a\nevent go\n", "line 3: mdp models declare labels with 'act'"),
    "act alphabet of an ed": ("model ed\nobs a\nact go\n", "line 3: ed models declare labels with 'event'"),
    "no label alphabet": ("model mdp\nobs x\nstate s initial trace x=1\n", "missing act/event alphabet"),
    "priority arity": (_ED + "priority go\n", "line 5: expected: priority <event> <rank>"),
    "priority rank": (_ED + "priority go high\n", "line 5: bad priority rank 'high'"),
    "unknown directive": ("model fomm\nobs a\nstates a\n", "line 3: unknown directive 'states'"),
    "reserved observation": ("model fomm\nobs a t0\n", f"line 2: observation 't0' {_RESERVED}"),
    "comment-like observation": ("model fomm\nobs #a\n", f"line 2: observation '#a' {_RESERVED}"),
    "reserved label": ("model mdp\nobs a\nact go -\n", f"line 3: label '-' {_RESERVED}"),
    "structural problem": (
        "model fomm\nobs a\nstate a trace a=1\narrow a true a\n",
        "expected exactly one initial state, found 0",
    ),
    # _parse_state
    "state line arity": ("model fomm\nobs a\nstate\n", "line 3: expected: state <id> ..."),
    "duplicate trace entry": (
        _MDP + "state s initial trace x=0.5 x=0.5\n",
        "line 4: duplicate trace entry for 'x'",
    ),
    "unexpected state token": (_MDP + "state s initial hidden\n", "line 4: unexpected token 'hidden' in state line"),
    "bad trace probability": (
        _MDP + "state s initial trace x=oops\n",
        "line 4: bad probability 'oops' (not a number)",
    ),
    # _parse_arrow
    "arrow line arity": (_MDP + "state s initial trace x=1\narrow s go\n", "line 5: expected: arrow <from> <label> <to> ..."),
    "unexpected arrow token": (
        _MDP + "state s initial trace x=1\narrow s go s lp=1 p=1\n",
        "line 5: unexpected token 'p=1' in arrow line",
    ),
    "missing lp": (_MDP + "state s initial trace x=1\narrow s go s ap=1\n", "line 5: mdp-fixed arrows must declare lp=<interval>"),
    "inverted interval": (
        _MDP + "state s initial trace x=1\narrow s go s lp=1 ap=[0.8,0.2]\n",
        "line 5: bad probability '[0.8,0.2]' (invalid probability interval [0.8, 0.2])",
    ),
}


@pytest.mark.parametrize("doc, detail", list(MODEL_REFUSALS.values()), ids=list(MODEL_REFUSALS))
def test_parse_model_refusals(doc, detail):
    with pytest.raises(FormatError) as err:
        parse_model(doc)
    assert str(err.value) == detail


POLICY_REFUSALS = {
    "arity": ("s go 0.5\ns stay\n", "line 2: expected: <state> <action> <probability>"),
    "probability": ("# policy\ns go half\n", "line 2: bad probability 'half'"),
}


@pytest.mark.parametrize("doc, detail", list(POLICY_REFUSALS.values()), ids=list(POLICY_REFUSALS))
def test_parse_policy_refusals(doc, detail):
    with pytest.raises(FormatError) as err:
        parse_policy(doc)
    assert str(err.value) == detail


PREFERENCE_REFUSALS = {
    "no colon": ("state s go > stay\n", "line 1: expected: state <id>: a1 > a2 > ..."),
    "no state word": ("s: go > stay\n", "line 1: expected: state <id>: a1 > a2 > ..."),
    "two ids": ("state s t: go\n", "line 1: expected: state <id>: a1 > a2 > ..."),
    "nothing ranked": ("state s: go\nstate t: >\n", "line 2: no actions ranked for state t"),
}


@pytest.mark.parametrize("doc, detail", list(PREFERENCE_REFUSALS.values()), ids=list(PREFERENCE_REFUSALS))
def test_parse_preference_refusals(doc, detail):
    with pytest.raises(FormatError) as err:
        parse_preference(doc)
    assert str(err.value) == detail


EVENT_ARROW_REFUSALS = {
    "arity": ("s go s\ns go\n", "line 2: expected: <from> <label> <to>"),
    "no such arrow": ("s go t\n", "line 1: no arrow s go t in the model"),
}


@pytest.mark.parametrize("doc, detail", list(EVENT_ARROW_REFUSALS.values()), ids=list(EVENT_ARROW_REFUSALS))
def test_parse_event_arrows_refusals(doc, detail):
    model = parse_model(_ED + "arrow s go s lp=1 ap=1\n")
    with pytest.raises(FormatError) as err:
        parse_event_arrows(doc, model)
    assert str(err.value) == detail


CHARFN_REFUSALS = {
    "row before a table": ("row - x 1\n", "line 1: row outside a table charfn"),
    "row after a pattern": ("charfn e pattern future=x\nrow - x 1\n", "line 2: row outside a table charfn"),
    "charfn arity": ("charfn e\n", "line 1: expected: charfn <name> <spec>"),
    "not a charfn line": ("event e obs=x\n", "line 1: expected: charfn <name> <spec>"),
    "row arity": ("charfn e table\nrow - 1\n", "line 2: expected: <past-csv|-> <future-csv|-> <interval>"),
    "row probability": ("charfn e table\nrow - x 2\n", "line 2: bad probability '2' (invalid probability interval [2.0, 2.0])"),
    "pattern window length": (
        "charfn e pattern future=x flen=two\n",
        "line 1: window length must be an integer of 0 or more: 'flen=two'",
    ),
    "negative window length": (
        "charfn e pattern past=x plen=-1\n",
        "line 1: window length must be an integer of 0 or more: 'plen=-1'",
    ),
    "bad regex": ("charfn e pattern past=(x\n", "line 1: bad regex 'past=(x': does not compile"),
    "unexpected pattern token": ("charfn e pattern future=x window=2\n", "line 1: unexpected token 'window=2'"),
    "pattern without regex": ("charfn e pattern plen=1 flen=1\n", "line 1: pattern needs past= or future="),
    "table window length": ("charfn e table plen=x\n", "line 1: window length must be an integer of 0 or more: 'plen=x'"),
    "unexpected table token": ("charfn e table rows=f\n", "line 1: unexpected token 'rows=f'"),
    "unknown spec": ("charfn e obs=x\ncharfn f regex\n", "line 2: unknown charfn spec 'regex'"),
}


@pytest.mark.parametrize("doc, detail", list(CHARFN_REFUSALS.values()), ids=list(CHARFN_REFUSALS))
def test_parse_charfns_refusals(doc, detail):
    with pytest.raises(FormatError) as err:
        parse_charfns(doc)
    assert str(err.value) == detail


EVENT_STREAM_REFUSALS = {
    "too few fields": ("0 go 1\n1 go\n", "line 2: expected: <time> <label> <interval> [<provenance>]"),
    "too many fields": ("0 go 1 direct extra\n", "line 1: expected: <time> <label> <interval> [<provenance>]"),
    "time": ("# stream\nsoon go 1\n", "line 2: bad time 'soon'"),
    # the time is refused before the interval, also on a line whose rest was read before
    "time before confidence": ("soon go [0.5]\n", "line 1: bad time 'soon'"),
    "time of a repeated rest": ("0 go 1\nsoon go 1\n", "line 2: bad time 'soon'"),
    "confidence": ("0 go [0.5]\n", "line 1: bad probability '[0.5]' (expected [lo,hi])"),
    "confidence bound": ("0 go [0.5,half]\n", "line 1: bad probability '[0.5,half]' (not a number)"),
    "open bracket": ("0 go [0.5\n", "line 1: bad probability '[0.5' (not a number)"),
    "no bounds": ("0 go []\n", "line 1: bad probability '[]' (expected [lo,hi])"),
    "three bounds": ("0 go [0,0.5,1]\n", "line 1: bad probability '[0,0.5,1]' (expected [lo,hi])"),
}


@pytest.mark.parametrize("doc, detail", list(EVENT_STREAM_REFUSALS.values()), ids=list(EVENT_STREAM_REFUSALS))
def test_parse_event_stream_refusals(doc, detail):
    with pytest.raises(FormatError) as err:
        parse_event_stream(doc)
    assert str(err.value) == detail


def _p(lo, hi=None):
    return ProbInterval(lo, lo if hi is None else hi)


def _state(sid, initial=False, **trace):
    return State(sid, initial, TraceSpec(trace))


_S = _state("s", True, x=_p(1))
_LOOP = Arrow("s", "true", "s")

#: name -> (model, structural problems, kind violations); no case warns
VALIDATE_TEXTS = {
    "unknown kind": (Model("banana", ("x",), ("true",), (_S,), (_LOOP,)), ["unknown kind 'banana'"], []),
    "empty alphabets": (
        Model("mdp", (), (), (State("s", True),), ()),
        ["empty observation alphabet", "empty label alphabet"],
        [],
    ),
    "no states": (
        Model("hmm", ("x",), ("true",), (), ()),
        ["model has no states", "expected exactly one initial state, found 0"],
        [],
    ),
    "two initial states": (
        Model("hmm", ("x",), ("true",), (_S, _state("t", True, x=_p(1))), (_LOOP, Arrow("t", "true", "t"))),
        ["expected exactly one initial state, found 2"],
        [],
    ),
    "arrow from an undeclared state": (
        Model("hmm", ("x",), ("true",), (_S,), (_LOOP, Arrow("ghost", "true", "s"))),
        ["arrow from undeclared state 'ghost'"],
        [],
    ),
    "duplicate arrow": (
        Model("hmm", ("x",), ("true",), (_S,), (_LOOP, _LOOP)),
        ["duplicate arrow s true s"],
        [],
    ),
    "priorities outside ed": (
        Model("hmm", ("x",), ("true",), (_S,), (_LOOP,), priorities={"true": 1}),
        [],
        ["event priorities are only meaningful for ed models"],
    ),
    "labels of a single-label kind": (
        Model("hmm", ("x",), ("go",), (_S,), (Arrow("s", "go", "s"),)),
        [],
        ['hmm models have the single label "true"'],
    ),
    "fomm alphabet": (
        Model("fomm", ("s", "y"), ("true",), (_state("s", True, s=_p(1)),), (_LOOP,)),
        [],
        ["fomm states must coincide with the observation alphabet"],
    ),
    "hmm trace": (
        Model("hmm", ("x", "y"), ("true",), (_state("s", True, x=_p(0.5), y=_p(0.5)),), (_LOOP,)),
        [],
        ["hmm state s needs one deterministic observation"],
    ),
    "mdp untraced state": (
        Model("mdp", ("x",), ("go",), (State("s", True),), (Arrow("s", "go", "s", _p(0, 1)),)),
        [],
        ["state s needs a trace with point probabilities summing to 1"],
    ),
    "mdp interval trace": (
        Model("mdp", ("x",), ("go",), (_state("s", True, x=_p(0.5, 1)),), (Arrow("s", "go", "s", _p(0, 1)),)),
        [],
        ["state s: trace probability for 'x' must be a point"],
    ),
    "mdp-fixed trace sum": (
        Model("mdp-fixed", ("x", "y"), ("go",), (_state("s", True, x=_p(0.25), y=_p(0.25)),), (Arrow("s", "go", "s"),)),
        [],
        ["state s: trace probabilities sum to 0.5, expected 1"],
    ),
    "inconsistent label probability": (
        Model(
            "mdp-plus",
            ("x",),
            ("go",),
            (_S, _state("t", x=_p(1))),
            (Arrow("s", "go", "s", _p(1), _p(0.5)), Arrow("s", "go", "t", _p(0.5, 1), _p(0.5)), Arrow("t", "go", "s")),
        ),
        [],
        ["inconsistent label probability for 'go' out of s"],
    ),
    "smdp intervals": (
        Model("smdp", ("x",), ("go",), (_S,), (Arrow("s", "go", "s", _p(0.5), _p(0, 1)),)),
        [],
        ["smdp arrow s go s: intervals must be [0,0], [0,1] or [1,1]"],
    ),
    "mdp agent interval": (
        Model("mdp", ("x",), ("go",), (_S,), (Arrow("s", "go", "s", _p(0.5, 1)),)),
        [],
        ["mdp agent interval out of s must be [0,1]"],
    ),
    "point probabilities": (
        Model("mdp-fixed", ("x",), ("go",), (_S,), (Arrow("s", "go", "s", _p(0.5, 1), _p(0.5, 1)),)),
        [],
        [
            "arrow s go s: label probability must be a point",
            "arrow s go s: arrow probability must be a point",
        ],
    ),
    "true below 1": (
        Model("hmm", ("x",), ("true",), (_S,), (Arrow("s", "true", "s", _p(0.5)),)),
        [],
        ['arrow s true s: the event "true" has probability 1'],
    ),
    "trace intervals": (
        Model("ed", ("x", "y"), ("go",), (_state("s", True, x=_p(0, 0.25), y=_p(0, 0.5)),), (Arrow("s", "go", "s", _p(0, 1)),)),
        [],
        ["state s: trace intervals exclude any observation distribution"],
    ),
}


@pytest.mark.parametrize("model, structural, violations", list(VALIDATE_TEXTS.values()), ids=list(VALIDATE_TEXTS))
def test_validate_texts(model, structural, violations):
    report = validate(model)
    assert (report.structural, report.violations, report.warnings) == (structural, violations, [])


def _ladder(n: int) -> str:
    """An hmm s -> b0 -> ... -> b(n-1) -> s where each b steps on or back to
    b0 with 0.5 each: a journey visits b0 about 2**n times."""
    lines = ["model hmm", "obs x y", "state s initial trace x=1", "arrow s true b0 ap=1"]
    for i in range(n):
        on = f"b{i + 1}" if i < n - 1 else "s"
        lines += [f"state b{i} trace y=1", f"arrow b{i} true {on} ap=0.5", f"arrow b{i} true b0 ap=0.5"]
    return "\n".join(lines) + "\n"


#: models that ``validate`` accepts but whose journey flow has no answer
JOURNEY_REFUSALS = {
    # a -> s is lost to rounding against a -> a: I - Q is singular
    "singular flow": (
        "model hmm\nobs x y\nstate s initial trace x=1\nstate a trace y=1\n"
        "arrow s true a ap=1\narrow a true a ap=1\narrow a true s ap=1e-20\n",
        "singular flow system: the visit counts are unbounded",
    ),
    # 2**1030 visits overflow a double
    "non-finite visit counts": (_ladder(1030), "flow system produced non-finite visit counts"),
}


@pytest.mark.parametrize("doc, detail", list(JOURNEY_REFUSALS.values()), ids=list(JOURNEY_REFUSALS))
def test_journey_flow_refusals(doc, detail):
    model = parse_model(doc)
    assert validate(model).ok
    with pytest.raises(JourneyError) as err:
        journey_statistics(model)
    assert str(err.value) == detail


#: an agent of intervals [0.2, 0.6] for a and [0.4, 0.8] for b
_AGENT = "model mdp-plus\nobs x\nact a b\nstate s initial trace x=1\narrow s a s lp=[0.2,0.6] ap=1\narrow s b s lp=[0.4,0.8] ap=1\n"

#: policies that ``compose_policy`` refuses for that agent
POLICY_CHECK_REFUSALS = {
    "sum": ({("s", "a"): 0.5, ("s", "b"): 0.6}, "policy for state s sums to 1.1"),
    "missing action": ({("s", "a"): 0.5, ("s", "c"): 0.5}, "policy gives mass to missing action c in s"),
    "outside interval": ({("s", "a"): 0.9, ("s", "b"): 0.1}, "policy(s, a) = 0.9 outside agent interval [0.2, 0.6]"),
}


@pytest.mark.parametrize("probs, detail", list(POLICY_CHECK_REFUSALS.values()), ids=list(POLICY_CHECK_REFUSALS))
def test_policy_check_refusals(probs, detail):
    model = parse_model(_AGENT)
    assert validate(model).ok
    assert compose_policy(model, Policy({("s", "a"): 0.4, ("s", "b"): 0.6})).kind == "mdp-fixed"
    with pytest.raises(PolicyError) as err:
        compose_policy(model, Policy(probs))
    assert str(err.value) == detail


#: a two-state chain, a white peak w beside a looping initial state, and
#: states a, b without an initial one or with an arrow to an undeclared z
_CHAIN = "model fomm\nobs x y\nstate a initial trace x=1\nstate b trace y=1\narrow a true b ap=1\narrow b true a ap=1\n"
_PEAK = "model hmm\nobs x y\nstate s initial trace x=1\nstate w trace y=1\narrow s true s ap=1\narrow w true s ap=1\n"
_NO_INITIAL = Model("fomm", ("x",), ("true",), (State("a"), State("b")), ())
_DANGLING = Model("fomm", ("x",), ("true",), (State("a", True),), (Arrow("a", "true", "z"),))
_BOTH = SimulationConfig(1, 0, policy=Policy({("s", "a"): 0.4, ("s", "b"): 0.6}), preference=Preference({"s": ("a", "b")}))

#: argument checks of the library, as (call, error type, exact text)
LIBRARY_REFUSALS = {
    # core
    "hull of nothing": (lambda: ProbInterval.hull([]), ModelError, "hull of no intervals"),
    "no initial state": (lambda: _NO_INITIAL.initial_state, ModelError, "model must have exactly one initial state, found 0"),
    "undeclared arrow end": (lambda: _DANGLING.compiled, ModelError, "arrow a true z joins an undeclared state"),
    "empty class": (lambda: Partition([["a", "b"], []]).check(parse_model(_CHAIN)), ModelError, "empty partition class"),
    "overlapping classes": (lambda: Partition([["a", "b"], ["b"]]).check(parse_model(_CHAIN)), ModelError, "partition classes overlap"),
    "partition cover": (
        lambda: Partition([["a"], ["z"]]).check(parse_model(_CHAIN)),
        ModelError,
        "partition does not cover the states (missing ['b'], unknown ['z'])",
    ),
    "preference for an unknown state": (
        lambda: Preference({"z": ("a",)}).check(parse_model(_AGENT)), ModelError, "preference for unknown state 'z'"
    ),
    "preference ranking": (
        lambda: Preference({"s": ("a",)}).check(parse_model(_AGENT)),
        ModelError,
        "preference for s must rank exactly the available actions ['a', 'b']",
    ),
    "filter label": (
        lambda: step_belief(parse_model(_CHAIN), Belief.point("a"), "go", "x"), ModelError, "label 'go' not in the model's alphabet"
    ),
    "filter belief": (
        lambda: step_belief(parse_model(_CHAIN), Belief.point("z"), "true", "x"), ModelError, "belief over unknown state 'z'"
    ),
    # constructions
    "event arrow": (
        lambda: EventSet("e", frozenset({Arrow("a", "true", "a")})).check(parse_model(_CHAIN)),
        ModelError,
        "event 'e': arrow ('a', 'true', 'a') not in the model",
    ),
    "event names": (
        lambda: quotient(parse_model(_CHAIN), Partition([["a", "b"]]), [EventSet("e", frozenset())] * 2),
        ModelError,
        "monitored events must have distinct names",
    ),
    "minimized intervals": (lambda: minimize_forward(parse_model(_AGENT)), ModelError, "minimization needs point probabilities"),
    # inversion
    "monte-carlo inversion of an agent": (
        lambda: monte_carlo_invert(parse_model(_AGENT), 10, 1), ModelError, "monte_carlo_invert needs a single-label model"
    ),
    "monte-carlo inversion of a white peak": (lambda: monte_carlo_invert(parse_model(_PEAK), 10, 1), WhitePeakError, "w"),
    "fixed inversion of an interval agent": (
        lambda: invert_mdp_fixed(parse_model(_AGENT)),
        ModelError,
        "model carries interval agent probabilities; supply an explicit policy",
    ),
    "fixed inversion of a chain": (
        lambda: invert_mdp_fixed(parse_model(_CHAIN)), ModelError, "invert_mdp_fixed does not apply to fomm models"
    ),
    "interval inversion of a chain": (
        lambda: invert_mdp_plus(parse_model(_CHAIN)), ModelError, "invert_mdp_plus does not apply to fomm models"
    ),
    "interval inversion without a seed": (
        lambda: invert_mdp_plus(parse_model(_AGENT), "monte-carlo"), ModelError, "monte-carlo interval inversion needs a seed"
    ),
    "interval inversion mode": (
        lambda: invert_mdp_plus(parse_model(_AGENT), "vertex-enumeration"),
        ModelError,
        "unknown inversion mode 'vertex-enumeration'",
    ),
    # walk
    "policy and preference": (lambda: simulate(parse_model(_AGENT), _BOTH), ModelError, "give either a policy or a preference, not both"),
    "collision rule": (
        lambda: simulate(parse_model(_CHAIN), SimulationConfig(1, 0, collision="random")), ModelError, "unknown collision rule 'random'"
    ),
}


@pytest.mark.parametrize("call, error, detail", list(LIBRARY_REFUSALS.values()), ids=list(LIBRARY_REFUSALS))
def test_library_refusals(call, error, detail):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == detail
