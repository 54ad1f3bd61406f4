"""value types: every immutable type of the library is a ``core.Value``,
with field-wise equality, hashing and repr, refused assignment, pickling
and ``core.replace``, except ``Development``, which is its word tuple: it
has no fields, and its steps are what it compares, hashes and prints; the
two mutable results are plain classes."""

import copy
import pickle
import re

import pytest

from stochworld import (
    Arrow,
    Belief,
    CharFn,
    Development,
    EventOccurrence,
    EventSet,
    EventStream,
    FactSet,
    FutureSet,
    JourneyStatistics,
    MarkovReport,
    MinimalModelResult,
    Model,
    ModelError,
    Partition,
    Policy,
    Preference,
    ProbInterval,
    SimulationConfig,
    State,
    StructureReport,
    TraceSpec,
    TrackResult,
    Trajectory,
    ValidationReport,
    ValiditySpan,
)
from stochworld.core import Value, replace
from stochworld.markov import SymbolTest


def iv(lo, hi=None):
    return ProbInterval(lo, lo if hi is None else hi)


ARROW = Arrow("s", "a", "t", iv(0.5, 1), iv(0.25))
TRACE = TraceSpec({"x": iv(1)}, True, ("p",))
MODEL = Model("fomm", ["x"], ["true"], [State("x", True)], [Arrow("x", "true", "x")], name="m", meta=("note",))
DEV = Development([("true", "x")])
TEST = SymbolTest("x", 0.5, False, 2, 1)

ONE = "ProbInterval(lo=1.0, hi=1.0)"
ARROW_TEXT = (
    "Arrow(source='s', label='a', target='t', label_prob=ProbInterval(lo=0.5, hi=1.0), "
    "arrow_prob=ProbInterval(lo=0.25, hi=0.25))"
)
TRACE_TEXT = f"TraceSpec(probs={{'x': {ONE}}}, memory=True, phenomena=('p',))"
MODEL_TEXT = (
    "Model(kind='fomm', obs=('x',), labels=('true',), states=(State(id='x', initial=True, "
    "trace=TraceSpec(probs={}, memory=False, phenomena=())),), arrows=(Arrow(source='x', label='true', "
    f"target='x', label_prob={ONE}, arrow_prob={ONE}),), priorities={{}}, name='m', meta=('note',))"
)
DEV_TEXT = "(('true', 'x'),)"
TEST_TEXT = "SymbolTest(symbol='x', p_value=0.5, flagged=False, contexts_tested=2, contexts_skipped=1)"

#: a sample of each value type, its repr as the frozen dataclasses of earlier
#: versions gave it, and a change to one of its fields
SAMPLES = [
    (iv(0.25, 0.5), "ProbInterval(lo=0.25, hi=0.5)", {"hi": 0.75}),
    (ARROW, ARROW_TEXT, {"target": "u"}),
    (TRACE, TRACE_TEXT, {"memory": False}),
    (State("s", True, TRACE), f"State(id='s', initial=True, trace={TRACE_TEXT})", {"initial": False}),
    (MODEL, MODEL_TEXT, {"name": "n"}),
    (Belief({"s": 0.25, "t": 0.75}, True), "Belief(probs={'s': 0.25, 't': 0.75}, approximate=True)", {"approximate": False}),
    (
        FutureSet(1, "future", {DEV: iv(0.5)}),
        f"FutureSet(depth=1, direction='future', entries={{{DEV_TEXT}: ProbInterval(lo=0.5, hi=0.5)}})",
        {"depth": 2},
    ),
    (Partition([["a"], ["b"]]), "Partition(classes=(frozenset({'a'}), frozenset({'b'})))", {"classes": [["a", "b"]]}),
    (Policy({("s", "a"): 1.0}, frozenset({"s"})), "Policy(probs={('s', 'a'): 1.0}, adjusted=frozenset({'s'}))", {"adjusted": frozenset()}),
    (Preference({"s": ["a", "b"]}), "Preference(order={'s': ('a', 'b')})", {"order": {"s": ["b", "a"]}}),
    (Trajectory(("x",), (None,), 0), "Trajectory(obs=('x',), acts=(None,), t0=0)", {"t0": 1}),
    (
        EventStream([EventOccurrence(1, "e", iv(1))]),
        f"EventStream(occurrences=(EventOccurrence(time=1, label='e', confidence={ONE}, provenance='direct'),))",
        {"occurrences": []},
    ),
    (
        StructureReport(frozenset({"w"}), frozenset()),
        "StructureReport(white_peak=frozenset({'w'}), black_hole=frozenset())",
        {"black_hole": frozenset({"w"})},
    ),
    (
        SimulationConfig(10, 1),
        "SimulationConfig(steps=10, seed=1, policy=None, preference=None, collision='priority')",
        {"seed": 2},
    ),
    (TEST, TEST_TEXT, {"flagged": True}),
    (
        MarkovReport(1, 0.05, (TEST,)),
        f"MarkovReport(order=1, significance=0.05, tests=({TEST_TEXT},), inconclusive=False)",
        {"inconclusive": True},
    ),
    (
        CharFn("e", "action-match", action="go"),
        "CharFn(name='e', kind='action-match', past_len=0, future_len=1, action='go', obs=None, "
        "past_pattern=None, future_pattern=None, table={})",
        {"action": "stop"},
    ),
    (ValiditySpan(0, 5, True), "ValiditySpan(start=0, end=5, permanent_so_far=True)", {"end": 6}),
    (EventSet("e", frozenset({ARROW})), f"EventSet(name='e', arrows=frozenset({{{ARROW_TEXT}}}))", {"name": "f"}),
    (FactSet("f", frozenset({"s"})), "FactSet(name='f', states=frozenset({'s'}))", {"states": frozenset()}),
    (
        JourneyStatistics({"s": 1.0}, {("s", "a", "t"): 1.0}, 1.0, {}),
        "JourneyStatistics(visit_counts={'s': 1.0}, arrow_counts={('s', 'a', 't'): 1.0}, return_count=1.0, "
        "absorption_counts={})",
        {"return_count": 2.0},
    ),
    (
        MinimalModelResult(MODEL, MODEL, MODEL),
        f"MinimalModelResult(joined={MODEL_TEXT}, forward_part={MODEL_TEXT}, backward_part={MODEL_TEXT})",
        {"joined": replace(MODEL, name="n")},
    ),
]

each_sample = pytest.mark.parametrize(
    "obj, text, change", SAMPLES, ids=[type(obj).__name__ for obj, _, _ in SAMPLES]
)

#: the samples and a development, whose change is another word
WORDS_TOO = [*SAMPLES, (DEV, DEV_TEXT, Development([("true", "y")]))]
each_value = pytest.mark.parametrize(
    "obj, text, change", WORDS_TOO, ids=[type(obj).__name__ for obj, _, _ in WORDS_TOO]
)


def compared(obj) -> tuple:
    """The fields ``==`` and ``hash`` read: all but a model's ``meta``, or
    a development's steps."""
    if isinstance(obj, Development):
        return tuple(obj)
    return tuple(getattr(obj, f) for f in obj._fields if f != "meta")


def test_every_value_type_has_a_sample():
    assert {type(obj) for obj, _, _ in SAMPLES} == set(Value.__subclasses__())
    assert len(SAMPLES) == 22


@each_value
def test_repr_is_the_dataclass_text(obj, text, change):
    assert repr(obj) == text


@each_value
def test_hash_is_the_hash_of_the_compared_fields(obj, text, change):
    try:
        expected = hash(compared(obj))
    except TypeError:  # a field is a dict
        with pytest.raises(TypeError, match="unhashable type"):
            hash(obj)
    else:
        assert hash(obj) == expected


@each_value
def test_equality_is_field_wise(obj, text, change):
    if isinstance(obj, Development):  # no fields: it is equal to its word
        same, other = Development(obj), change
        assert obj == compared(obj)
    else:
        same, other = replace(obj), replace(obj, **change)
        assert obj != compared(obj)
    assert same is not obj and same == obj and not same != obj
    assert other != obj and not other == obj


def test_model_meta_is_not_compared():
    plain = replace(MODEL, meta=())
    assert plain == MODEL and repr(plain) != repr(MODEL)
    assert replace(MODEL, name="n", meta=MODEL.meta) != MODEL


@each_value
def test_fields_cannot_be_assigned_or_deleted(obj, text, change):
    for name in getattr(obj, "_fields", ()):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.other = None
    assert repr(obj) == text


@each_sample
def test_pickle_and_copies_keep_the_type(obj, text, change):
    for copied in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(copied) is type(obj) and copied == obj and repr(copied) == text


@pytest.mark.parametrize(
    "obj, change, error",
    [
        (iv(0.25, 0.5), {"lo": 0.75}, "invalid probability interval [0.75, 0.5]"),
        (Belief({"s": 1.0}), {"probs": {"s": 0.5}}, "belief must sum to 1, got 0.5"),
        (Trajectory(("x",), (None,), 0), {"t0": 2}, "t0 = 2 outside [0, 1]"),
        (Trajectory(("x",), (None,), 0), {"acts": ()}, "a trajectory needs one action per observation, got 0 for 1"),
        (CharFn("e", "obs-match", obs="x"), {"kind": "guess"}, "charfn e: unknown kind 'guess'"),
        (CharFn("e", "obs-match", obs="x"), {"past_len": -1}, "charfn e: past_len must be 0 or more, got -1"),
        (EventStream([]), {"occurrences": [(1, "e", iv(1), "direct")]}, "event stream holds (1, 'e', "),
    ],
    ids=["interval", "belief", "trajectory", "trajectory-words", "charfn-kind", "charfn-length", "stream"],
)
def test_replace_checks_again(obj, change, error):
    with pytest.raises(ModelError, match="^" + re.escape(error)):
        replace(obj, **change)


def test_development_is_its_word():
    """A development is a tuple of its steps, with no fields: it equals,
    hashes, sorts and prints as the plain word, and looks up its entry."""
    word = (("true", "x"), ("go", "y"))
    dev = Development(word)
    assert isinstance(dev, tuple) and not isinstance(dev, Value)
    assert dev == word and hash(dev) == hash(word) and repr(dev) == repr(word)
    assert {word: 1}[dev] == 1 and {dev: 1}[word] == 1
    assert sorted([dev, Development(word[:1]), Development(())]) == [(), word[:1], word]
    for name in ("direction", "word", "__dict__"):
        assert not hasattr(dev, name)
    with pytest.raises(AttributeError):
        dev.direction = "past"
    assert (dev.render(), dev.render(False)) == ("true:x,go:y", "true:x,go:y")
    assert (DEV.render(), DEV.render(False), Development(()).render()) == ("x", "true:x", "-")


def test_development_pickles_and_copies_as_itself():
    dev = Development([("true", "x"), ("true", "y")])
    copies = [pickle.loads(pickle.dumps(dev, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(dev), copy.deepcopy(dev)):
        assert type(copied) is Development and copied == dev and copied.render() == "x,y"


def test_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError, match="unexpected keyword argument 'mid'"):
        replace(iv(0.25, 0.5), mid=0.375)


def test_results_are_plain_mutable_classes():
    report = ValidationReport()
    assert (report.structural, report.violations, report.warnings, report.ok) == ([], [], [], True)
    report.violations.append("state s: bad")
    assert not report.ok
    result = TrackResult([], Belief.point("s"), {}, [])
    result.warnings = ["step 0: kept"]
    assert not isinstance(report, Value) and not isinstance(result, Value)
    assert (result.beliefs, result.final_belief, result.memory, result.warnings) == ([], Belief.point("s"), {}, ["step 0: kept"])
