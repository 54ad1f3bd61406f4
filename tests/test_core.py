"""model-core: intervals, beliefs, memory size, validation."""

import copy
import inspect
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stochworld import (
    Arrow,
    Belief,
    EventOccurrence,
    InconsistentObservationError,
    Model,
    ModelError,
    ProbInterval,
    State,
    TraceSpec,
    memory_bits,
    step_belief,
    validate,
)
from stochworld.core import POINT_ONE, dyadic, replace

from helpers import chain_model


def iv(lo, hi=None):
    return ProbInterval(lo, lo if hi is None else hi)


class TestProbInterval:
    def test_point_identity(self):
        assert iv(1).times(iv(0.5)) == iv(0.5)

    def test_bound_arithmetic(self):
        assert iv(0, 1).times(iv(0.3, 0.7)) == iv(0.0, 0.7)

    def test_endpoint_multiplication(self):
        got = iv(0.1, 0.8).times(iv(0.5))
        assert got.lo == pytest.approx(0.05)
        assert got.hi == pytest.approx(0.4)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ModelError):
            ProbInterval(0.7, 0.3)
        with pytest.raises(ModelError):
            ProbInterval(-0.5, 0.5)

    @given(
        st.tuples(*(st.floats(0, 1) for _ in range(4))).map(sorted),
        st.tuples(*(st.floats(0, 1) for _ in range(4))).map(sorted),
    )
    def test_product_monotone_under_widening(self, a, b):
        a_lo, a_in_lo, a_in_hi, a_hi = a
        b_lo, b_in_lo, b_in_hi, b_hi = b
        narrow = iv(a_in_lo, a_in_hi).times(iv(b_in_lo, b_in_hi))
        wide = iv(a_lo, a_hi).times(iv(b_lo, b_hi))
        assert wide.lo <= narrow.lo + 1e-12
        assert wide.hi >= narrow.hi - 1e-12

    # the value-type protocol of ``core.Value``, over slots

    def test_fields_and_signature(self):
        assert ProbInterval._fields == ProbInterval.__slots__ == ("lo", "hi")
        params = inspect.signature(ProbInterval).parameters.values()
        assert [(p.name, p.default) for p in params] == [(f, inspect.Parameter.empty) for f in ProbInterval._fields]
        # bounds are stored as floats, whatever number type they came as
        got = ProbInterval(Fraction(1, 4), 1)
        assert (got.lo, got.hi) == (0.25, 1.0)
        assert type(got.lo) is float and type(got.hi) is float
        assert not hasattr(got, "__dict__")

    def test_assignment_refused(self):
        got = iv(0.25, 0.5)
        for name in ("lo", "hi"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(got, name, 0.3)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(got, name)
        with pytest.raises(AttributeError):
            got.other = None
        assert got == iv(0.25, 0.5)

    def test_equality_hash_repr_field_wise(self):
        intervals = [iv(0.25, 0.5), iv(0.25), iv(0.0, 0.5), iv(-0.0, 0.5), iv(0.25, 0.5), iv(1)]
        as_tuple = [(i.lo, i.hi) for i in intervals]
        for i, t in zip(intervals, as_tuple):
            assert hash(i) == hash(t)
            assert repr(i) == f"ProbInterval(lo={t[0]!r}, hi={t[1]!r})"
            for j, u in zip(intervals, as_tuple):
                assert (i == j) == (t == u)
                assert (i != j) == (t != u)
        assert intervals[0] is not intervals[4] and len(set(intervals)) == 4
        assert intervals[0] != as_tuple[0]

    def test_replace_pickle_and_deepcopy(self):
        got = iv(0.25, 0.5)
        assert replace(got, hi=0.75) == iv(0.25, 0.75)
        assert replace(got) == got and got.hi == 0.5
        with pytest.raises(ModelError, match=re.escape("invalid probability interval [0.75, 0.5]")):
            replace(got, lo=0.75)  # replace checks the bounds again
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
            assert type(copied) is ProbInterval
            assert copied == got and (copied.lo.hex(), copied.hi.hex()) == (got.lo.hex(), got.hi.hex())

    def test_sub_tolerance_drift_clamped(self):
        got = ProbInterval(-5e-10, 1 + 5e-10)
        assert (got.lo, got.hi) == (0.0, 1.0)
        assert ProbInterval(1 + 5e-10, 1 + 5e-10) == iv(1)
        assert ProbInterval(-5e-10, -5e-10) == iv(0)

    @pytest.mark.parametrize(
        "lo, hi, text",
        [
            (0.7, 0.3, "[0.7, 0.3]"),
            (math.nan, 0.5, "[nan, 0.5]"),
            (0.25, math.nan, "[0.25, nan]"),
            (-0.1, 0.5, "[-0.1, 0.5]"),
            (0.5, math.inf, "[0.5, inf]"),
            (-2e-9, 0.5, "[-2e-09, 0.5]"),
            (0, 2, "[0, 2]"),
        ],
    )
    def test_refusal_text(self, lo, hi, text):
        with pytest.raises(ModelError) as err:
            ProbInterval(lo, hi)
        assert str(err.value) == f"invalid probability interval {text}"


class TestDyadic:
    @pytest.mark.parametrize(
        "values",
        [[0.0], [1.0], [0.1], [5e-324], [0.5, 0.1, 0.0, 1.0, 0.375, 1e-300, 5e-324], []],
        ids=["zero", "one", "tenth", "subnormal", "mixed", "empty"],
    )
    def test_each_double_is_its_int_over_the_unit(self, values):
        unit, ints = dyadic(values)
        assert unit & (unit - 1) == 0  # a power of two
        assert unit == max((Fraction(v).denominator for v in values), default=1)
        assert len(ints) == len(values)
        for v, n in zip(values, ints):
            assert type(n) is int and Fraction(n, unit) == Fraction(v)

    def test_empty(self):
        assert dyadic([]) == (1, [])


class TestArrow:
    """The hand-written ``__init__`` and the value-type protocol of ``core.Value``, over slots."""

    FIELDS = ("source", "label", "target", "label_prob", "arrow_prob")

    def arrows(self):
        yield Arrow("s", "a", "t", iv(0.5, 1), iv(0.25))
        yield Arrow("s", "a", "t")
        yield Arrow(source="s", label="a", target="t", label_prob=iv(0.5, 1), arrow_prob=iv(0.25))
        yield Arrow("s", "a", "u", iv(0.5, 1), iv(0.25))
        yield Arrow("s", "a", "t", arrow_prob=iv(0.25))

    def test_fields_and_defaults(self):
        assert Arrow._fields == Arrow.__slots__ == self.FIELDS
        # the hand-written __init__ takes the fields in order, with their defaults
        params = inspect.signature(Arrow).parameters.values()
        empty = inspect.Parameter.empty
        assert [(p.name, p.default) for p in params] == list(
            zip(self.FIELDS, (empty, empty, empty, POINT_ONE, POINT_ONE))
        )
        a = Arrow("s", "a", "t")
        assert a.label_prob is POINT_ONE and a.arrow_prob is POINT_ONE
        assert a.key == ("s", "a", "t")
        assert tuple(getattr(a, f) for f in self.FIELDS) == ("s", "a", "t", iv(1), iv(1))
        assert not hasattr(a, "__dict__")

    def test_assignment_refused(self):
        a = Arrow("s", "a", "t")
        for name in self.FIELDS:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(a, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.other = None
        assert a == Arrow("s", "a", "t", POINT_ONE, POINT_ONE)

    def test_equality_hash_repr_field_wise(self):
        arrows = list(self.arrows())
        as_tuple = [tuple(getattr(a, f) for f in self.FIELDS) for a in arrows]
        for a, t in zip(arrows, as_tuple):
            assert hash(a) == hash(t)
            fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.FIELDS, t))
            assert repr(a) == f"Arrow({fields})"
            for b, u in zip(arrows, as_tuple):
                assert (a == b) == (t == u)
                assert (a != b) == (t != u)
        assert arrows[0] is not arrows[2] and len(set(arrows)) == 4
        assert arrows[0] != as_tuple[0]

    def test_replace_pickle_and_deepcopy(self):
        a = Arrow("s", "a", "t", iv(0.5, 1), iv(0.25))
        moved = replace(a, source="now")
        assert moved == Arrow("now", "a", "t", iv(0.5, 1), iv(0.25)) and a.source == "s"
        assert moved.label_prob is a.label_prob
        assert replace(a) == a
        for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(copied) is Arrow and copied == a


class TestEventOccurrence:
    """An occurrence is a ``NamedTuple`` record: a tuple with named fields."""

    FIELDS = ("time", "label", "confidence", "provenance")

    def occurrences(self):
        yield EventOccurrence(3, "ring", iv(0.5, 1), "indirect")
        yield EventOccurrence(3, "ring", iv(0.5, 1))
        yield EventOccurrence(time=0, label="m.s", confidence=iv(0.75), provenance="derived")
        yield EventOccurrence(3, "ring", iv(0.5, 1), "indirect")

    def test_fields_and_default(self):
        assert EventOccurrence._fields == self.FIELDS
        assert EventOccurrence._field_defaults == {"provenance": "direct"}
        # the constructor takes the fields in order, with their defaults
        params = inspect.signature(EventOccurrence).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (name, EventOccurrence._field_defaults.get(name, inspect.Parameter.empty)) for name in self.FIELDS
        ]
        occ = EventOccurrence(1, "a", iv(1))
        assert occ.provenance == "direct"
        assert tuple(occ) == (1, "a", iv(1), "direct") and occ._asdict()["confidence"] == iv(1)

    def test_assignment_refused(self):
        occ = EventOccurrence(1, "a", iv(1))
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(occ, name, None)
            with pytest.raises(AttributeError):
                delattr(occ, name)
        with pytest.raises(AttributeError):  # no __dict__
            occ.other = None
        assert occ == EventOccurrence(1, "a", iv(1), "direct")

    def test_equality_hash_repr_field_wise(self):
        occs = list(self.occurrences())
        as_tuple = [tuple(getattr(o, f) for f in self.FIELDS) for o in occs]
        for o, t in zip(occs, as_tuple):
            assert hash(o) == hash(t)
            fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.FIELDS, t))
            assert repr(o) == f"EventOccurrence({fields})"
            for p, u in zip(occs, as_tuple):
                assert (o == p) == (t == u)
                assert (o != p) == (t != u)
        assert occs[0] is not occs[3] and len(set(occs)) == 3
        # a record equals the plain tuple of its fields
        assert occs[0] == as_tuple[0] and occs[0] != as_tuple[1]

    def test_replace_and_pickle(self):
        occ = EventOccurrence(3, "ring", iv(0.5, 1), "indirect")
        moved = occ._replace(time=4)
        assert moved == EventOccurrence(4, "ring", iv(0.5, 1), "indirect") and type(moved) is EventOccurrence
        assert occ.time == 3
        assert occ._replace() == occ
        with pytest.raises(ValueError):
            occ._replace(when=4)
        for copied in (pickle.loads(pickle.dumps(occ)), copy.deepcopy(occ)):
            assert copied == occ and type(copied) is EventOccurrence


class TestBelief:
    def test_normalizes_small_drift(self):
        b = Belief({"x": 0.5, "y": 0.5 + 1e-8})
        assert sum(b.probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            Belief({"x": 1.0, "y": 0.0})

    def test_rejects_bad_total(self):
        with pytest.raises(ModelError):
            Belief({"x": 0.4})


class TestMemoryBits:
    def test_fomm_is_zero(self, m1, fig3, cycle3):
        for model in (m1, fig3, cycle3):
            assert memory_bits(model) == 0

    def test_three_red_one_blue(self):
        model = chain_model(
            {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"d": 1.0}, "d": {"a": 1.0}},
            initial="a",
            obs_of={"a": "red", "b": "red", "c": "red", "d": "blue"},
        )
        assert memory_bits(model) == 2

    def test_unique_colours(self, m2):
        assert memory_bits(m2) == 1  # two blacks, two whites
        distinct = chain_model(
            {"a": {"b": 1.0}, "b": {"a": 1.0}},
            initial="a",
            obs_of={"a": "x", "b": "y"},
        )
        assert memory_bits(distinct) == 0

    def test_invariant_under_renaming(self, m2):
        renamed = chain_model(
            {"k1": {"k2": 1.0}, "k2": {"k3": 1.0}, "k3": {"k4": 1.0}, "k4": {"k1": 1.0}},
            initial="k1",
            obs_of={"k1": "B", "k2": "B", "k3": "W", "k4": "W"},
        )
        assert memory_bits(renamed) == memory_bits(m2)


class TestStepBelief:
    def test_coin_identifies_state(self, m1):
        b = step_belief(m1, Belief({"B": 1.0}), "true", "W")
        assert b.probs == {"W": 1.0}

    def test_bbww_two_thread_elimination(self, m2):
        b = Belief({"B1": 0.5, "B2": 0.5})
        b = step_belief(m2, b, "true", "B")
        b = step_belief(m2, b, "true", "W")
        assert b.probs == {"W1": 1.0}
        assert not b.approximate

    def test_unknown_observation(self, m1):
        with pytest.raises(ModelError):
            step_belief(m1, Belief({"B": 1.0}), "true", "purple")

    def test_impossible_observation(self, m2):
        with pytest.raises(InconsistentObservationError):
            step_belief(m2, Belief({"B1": 1.0}), "true", "W")

    def test_interval_models_flag_approximate(self, house):
        b = step_belief(house, Belief({"r1": 1.0}), "move", "on")
        assert b.approximate
        assert b.probs == {"r2": 1.0}

    @given(st.integers(0, 2**32 - 1))
    def test_preserves_simplex(self, seed):
        import random

        rng = random.Random(seed)
        from helpers import random_connected_chain

        model = random_connected_chain(rng, rng.randint(2, 5))
        ids = [s.id for s in model.states]
        picks = rng.sample(ids, rng.randint(1, len(ids)))
        weights = [rng.random() + 0.05 for _ in picks]
        total = sum(weights)
        belief = Belief({s: w / total for s, w in zip(picks, weights)})
        obs = rng.choice([s for s in ids])
        try:
            out = step_belief(model, belief, "true", obs)
        except InconsistentObservationError:
            return
        assert sum(out.probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in out.probs.values())


_TWO_ACTS = "obs x\nact u v\nstate i initial trace x=1\nstate w trace x=1\n"

#: every probability group must admit a distribution: per text, a document
#: whose state i is reached and whose state w sits in a white peak, with its
#: violations and warnings; a shortfall in w is a warning, an excess is not
FEASIBILITY = {
    "point arrows short": (
        "model hmm\nobs x\nstate i initial trace x=1\nstate w trace x=1\n"
        "arrow i true i ap=0.5\narrow w true i ap=0.25\n",
        ["state i: outgoing probabilities sum to 0.5"],
        ["state w: outgoing probabilities sum to 0.25 (inside a white peak)"],
    ),
    "point arrows over": (
        "model mdp\nobs x\nact u v\nstate i initial trace x=1\nstate j trace x=1\nstate w trace x=1\n"
        "arrow i u i ap=0.75\narrow i u j ap=0.5\narrow j v i ap=1\narrow w v w ap=0.5\narrow w v i ap=0.75\n",
        [
            "state i, 'u': outgoing probabilities sum to 1.25, above 1",
            "state w, 'v': outgoing probabilities sum to 1.25, above 1",
        ],
        [],
    ),
    "interval arrows short": (
        "model ed\nobs x\nevent a b\nstate i initial trace x=1\nstate w trace x=1\n"
        "arrow i a i ap=[0.2,0.4]\narrow i b i ap=1\narrow w a i ap=[0,0.5]\n",
        ["state i, 'a': interval sums exclude any world policy (sum of upper bounds 0.4 below 1)"],
        [
            "state w, 'a': interval sums exclude any world policy (sum of upper bounds 0.5 below 1)"
            " (inside a white peak)"
        ],
    ),
    "interval arrows over": (
        "model mdp-plus\nobs x\nact u\nstate i initial trace x=1\nstate j trace x=1\nstate w trace x=1\n"
        "arrow i u i lp=1 ap=[0.75,1]\narrow i u j lp=1 ap=[0.5,1]\narrow j u i lp=1 ap=1\n"
        "arrow w u w lp=1 ap=[0.5,1]\narrow w u i lp=1 ap=[0.75,1]\n",
        [
            "state i: interval sums exclude any world policy (sum of lower bounds 1.25 above 1)",
            "state w: interval sums exclude any world policy (sum of lower bounds 1.25 above 1)",
        ],
        [],
    ),
    "mdp-fixed actions short": (
        "model mdp-fixed\n" + _TWO_ACTS + "arrow i u i lp=0.25 ap=1\narrow i v i lp=0.5 ap=1\narrow w u i lp=0.5 ap=1\n",
        ["state i: action probabilities sum to 0.75"],
        ["state w: action probabilities sum to 0.5 (inside a white peak)"],
    ),
    "mdp-fixed actions over": (
        "model mdp-fixed\n" + _TWO_ACTS + "arrow i u i lp=0.75 ap=1\narrow i v i lp=0.5 ap=1\n"
        "arrow w u w lp=0.75 ap=1\narrow w v i lp=0.5 ap=1\n",
        ["state i: action probabilities sum to 1.25, above 1", "state w: action probabilities sum to 1.25, above 1"],
        [],
    ),
    "mdp-plus agent short": (
        "model mdp-plus\n" + _TWO_ACTS + "arrow i u i lp=[0.2,0.3] ap=1\narrow i v i lp=[0.1,0.4] ap=1\n"
        "arrow w u i lp=[0,0.5] ap=1\n",
        ["state i: interval sums exclude any policy (upper bounds sum to 0.7)"],
        ["state w: interval sums exclude any policy (upper bounds sum to 0.5) (inside a white peak)"],
    ),
    "mdp-plus agent over": (
        "model mdp-plus\n" + _TWO_ACTS + "arrow i u i lp=[0.75,1] ap=1\narrow i v i lp=[0.5,1] ap=1\n"
        "arrow w u w lp=[0.75,1] ap=1\narrow w v i lp=[0.5,1] ap=1\n",
        [
            "state i: interval sums exclude any policy (lower bounds sum to 1.25)",
            "state w: interval sums exclude any policy (lower bounds sum to 1.25)",
        ],
        [],
    ),
    "traces": (  # over in i, short in w: a trace is never downgraded
        "model smdp\nobs x y\nact a\nstate i initial trace x=[0.75,1] y=[0.5,1]\n"
        "state w trace x=[0,0.2] y=[0,0.2]\narrow i a i\narrow w a i\n",
        [
            "state i: trace intervals exclude any observation distribution",
            "state w: trace intervals exclude any observation distribution",
        ],
        [],
    ),
    "label groups before agents": (
        "model mdp-fixed\n" + _TWO_ACTS + "arrow i u i lp=0.25 ap=1\narrow i v i lp=0.5 ap=1\n"
        "arrow w u w lp=1 ap=0.75\narrow w u i lp=1 ap=0.5\n",
        ["state w, 'u': outgoing probabilities sum to 1.25, above 1", "state i: action probabilities sum to 0.75"],
        [],
    ),
}


class TestValidate:
    @pytest.mark.parametrize("doc, violations, warnings", list(FEASIBILITY.values()), ids=list(FEASIBILITY))
    def test_feasibility_texts(self, doc, violations, warnings):
        from stochworld import parse_model

        report = validate(parse_model(doc))
        assert (report.structural, report.violations, report.warnings) == ([], violations, warnings)

    def test_coin_clean(self, m1):
        report = validate(m1)
        assert report.ok and not report.warnings

    def test_white_peak_deficit_is_warning(self, fig3):
        report = validate(fig3)
        assert report.ok
        assert any("white peak" in w for w in report.warnings)

    def test_deficit_outside_peak_is_violation(self):
        bad = chain_model({"a": {"b": 0.8}, "b": {"a": 1.0}}, initial="a")
        report = validate(bad)
        assert not report.ok

    def test_mdp_plus_interval_sums(self, rain):
        assert validate(rain).ok
        squeezed = Model(
            "mdp-plus",
            ("wet",),
            ("rain", "dry"),
            (State("w", True, TraceSpec({"wet": ProbInterval(0, 1)})),),
            (
                Arrow("w", "rain", "w", ProbInterval(0.3, 0.4), ProbInterval.point(1)),
                Arrow("w", "dry", "w", ProbInterval(0.3, 0.4), ProbInterval.point(1)),
            ),
        )
        report = validate(squeezed)
        assert any("exclude any policy" in v for v in report.violations)

    def test_messages_follow_state_order(self):
        """Per (state, label) messages come by state, then by the label's
        first arrow, whatever order the arrows are listed in."""
        from stochworld import parse_model

        model = parse_model(
            "model mdp-fixed\nobs x\nact u v\n"
            "state a initial trace x=1\nstate b trace x=1\n"
            "arrow b u a lp=1 ap=0.5\narrow a v b lp=0.5 ap=0.25\narrow a u b lp=0.5 ap=0.5\n"
        )
        assert validate(model).violations == [
            "state a, 'v': outgoing probabilities sum to 0.25",
            "state a, 'u': outgoing probabilities sum to 0.5",
            "state b, 'u': outgoing probabilities sum to 0.5",
        ]

    def test_untraced_fomm_state_is_a_violation(self):
        model = Model("fomm", ("a",), ("true",), (State("a", True),), (Arrow("a", "true", "a"),))
        assert validate(model).violations == ["fomm state a must observe exactly itself"]

    def test_structural_dangling_state(self):
        broken = Model(
            "fomm",
            ("a",),
            ("true",),
            (State("a", True, TraceSpec({"a": ProbInterval.point(1)})),),
            (Arrow("a", "true", "ghost"),),
        )
        report = validate(broken)
        assert any("undeclared" in s for s in report.structural)

    def test_two_initials_structural(self):
        broken = Model(
            "fomm",
            ("a", "b"),
            ("true",),
            (
                State("a", True, TraceSpec({"a": ProbInterval.point(1)})),
                State("b", True, TraceSpec({"b": ProbInterval.point(1)})),
            ),
            (),
        )
        assert validate(broken).structural

    def test_duplicate_ids_reported_once_in_sorted_order(self):
        trace = TraceSpec({"a": ProbInterval.point(1)})
        ids = ("z", "b", "z", "a", "b", "z", "c")
        states = tuple(State(sid, sid == "c", trace) for sid in ids)
        report = validate(Model("hmm", ("a",), ("true",), states, ()))
        assert report.structural == ["duplicate state ids: ['b', 'z']"]

    def test_smdp_interval_rule(self):
        model = Model(
            "smdp",
            ("x",),
            ("a",),
            (State("s", True, TraceSpec({"x": ProbInterval.point(1)})),),
            (Arrow("s", "a", "s", ProbInterval(0, 1), ProbInterval(0.25, 0.5)),),
        )
        report = validate(model)
        assert any("[0,0], [0,1] or [1,1]" in v for v in report.violations)

    @pytest.mark.parametrize("kind", ["smdp", "mdp-plus"])
    def test_trace_intervals_must_admit_a_distribution(self, kind):
        from stochworld import parse_model

        model = parse_model(
            f"model {kind}\nobs a b\nact x\nstate s initial trace a=[0,0.2] b=[0,0.2]\n"
            "arrow s x s lp=[0,1] ap=[0,1]\n"
        )
        report = validate(model)
        assert report.violations == ["state s: trace intervals exclude any observation distribution"]

    def test_idempotent_and_pure(self, fig3):
        first = validate(fig3)
        second = validate(fig3)
        assert first.structural == second.structural
        assert first.violations == second.violations
        assert first.warnings == second.warnings

    def test_mdp_agent_must_be_free(self):
        from stochworld import parse_model

        model = parse_model(
            "model mdp\nobs x\nact a\nstate s initial trace x=1\n"
            "arrow s a s lp=0.5 ap=1\n"
        )
        report = validate(model)
        assert any("[0,1]" in v for v in report.violations)

    def test_mdp_world_must_be_points(self):
        from stochworld import parse_model

        model = parse_model(
            "model mdp\nobs x\nact a\nstate s initial trace x=1\n"
            "arrow s a s ap=[0.4,0.6]\n"
        )
        report = validate(model)
        assert any("must be a point" in v for v in report.violations)

    def test_hmm_needs_deterministic_trace(self):
        model = Model(
            "hmm",
            ("x", "y"),
            ("true",),
            (
                State(
                    "s",
                    True,
                    TraceSpec({"x": ProbInterval.point(0.5), "y": ProbInterval.point(0.5)}),
                ),
            ),
            (Arrow("s", "true", "s"),),
        )
        report = validate(model)
        assert any("deterministic observation" in v for v in report.violations)
