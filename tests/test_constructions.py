"""constructions: fact/event doubling, parity, quotient, determinize, minimize,
and the minimal-model pipeline."""

import inspect
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from stochworld import (
    Belief,
    CapExceededError,
    CoverageError,
    EventSet,
    FactSet,
    ModelError,
    Partition,
    belief_determinize,
    event_to_fact,
    exact_future,
    fact_to_event,
    invert_chain,
    minimal_model,
    minimal_model_parts,
    minimize_forward,
    parity_model,
    parse_model,
    quotient,
    serialize_model,
    step_belief,
    validate,
)
from stochworld.analysis import find_black_hole, find_white_peak
from stochworld.core import replace

from helpers import (
    MODELS_DIR,
    ArrowIndex,
    chain_model,
    cycle_model,
    determinize_by_fractions,
    joined_by_assembly,
    load_model,
    random_connected_chain,
    random_filter_model,
    random_point_model,
    refine_by_rounds,
    walk,
)


def base_id(doubled_id: str) -> str:
    return doubled_id.rstrip("'")


def arrows_by_key(model):
    return {a.key: a for a in model.arrows}


def follow_doubled(doubled, start, original_arrows):
    """Walk the doubled model along an original arrow sequence; the matching
    doubled arrow from each copy is unique by construction."""
    index = ArrowIndex(doubled)
    state = start
    path = [state]
    for a in original_arrows:
        matches = [
            d
            for d in index.out[state]
            if d.label == a.label and base_id(d.target) == a.target
        ]
        assert len(matches) == 1, (state, a.key, matches)
        assert matches[0].arrow_prob == a.arrow_prob  # probabilities copied
        state = matches[0].target
        path.append(state)
    return path


def all_paths(model, length):
    """Every positive-probability arrow sequence of the given length."""
    index = ArrowIndex(model)
    paths = [([], model.initial_state.id)]
    for _ in range(length):
        paths = [
            (taken + [a], a.target)
            for taken, state in paths
            for a in index.out[state]
            if a.effective().hi > 0.0
        ]
    return [taken for taken, _ in paths]


SMALL_MODELS = ["m1_coin", "m2_bbww", "cycle3"]


class TestFactToEvent:
    def test_full_fact(self, m1):
        event = fact_to_event(m1, FactSet("all", frozenset({"B", "W"})))
        assert event.arrows == frozenset(m1.arrows)

    def test_empty_fact(self, m1):
        assert fact_to_event(m1, FactSet("none", frozenset())).arrows == frozenset()

    def test_fig3_black_hole_fact(self, fig3):
        event = fact_to_event(fig3, FactSet("bh", frozenset({"3", "4"})))
        assert {a.key for a in event.arrows} == {("3", "true", "4"), ("4", "true", "3")}

    def test_unknown_state(self, m1):
        with pytest.raises(ModelError):
            fact_to_event(m1, FactSet("x", frozenset({"nope"})))


class TestEventToFact:
    def test_empty_event_never_true(self, m1):
        doubled, fact = event_to_fact(m1, EventSet("never", frozenset()))
        for taken in all_paths(m1, 4):
            path = follow_doubled(doubled, doubled.initial_state.id, taken)
            assert all(state not in fact.states for state in path)

    def test_all_arrows_event_sticks(self, m1):
        doubled, fact = event_to_fact(m1, EventSet("always", frozenset(m1.arrows)))
        for taken in all_paths(m1, 3):
            path = follow_doubled(doubled, doubled.initial_state.id, taken)
            assert all(state in fact.states for state in path[1:])

    def test_fact_true_one_step_after_event(self):
        model = chain_model({"p": {"q": 1.0}, "q": {"p": 1.0}}, initial="p")
        event_arrow = [a for a in model.arrows if a.key == ("p", "true", "q")]
        doubled, fact = event_to_fact(model, EventSet("hop", frozenset(event_arrow)))
        assert len(doubled.states) == 4
        _, taken = walk(model, 1000, seed=60)
        path = follow_doubled(doubled, doubled.initial_state.id, taken)
        for t, arrow in enumerate(taken):
            held = path[t + 1] in fact.states
            assert held == (arrow.key == ("p", "true", "q"))

    def test_initial_choice_recorded(self, m1):
        doubled, _ = event_to_fact(m1, EventSet("e", frozenset(list(m1.arrows)[:1])))
        assert doubled.initial_state.id == "B'"
        assert any("initial" in note for note in doubled.meta)


class TestParityModel:
    def test_empty_event_stays_even(self, m1):
        doubled = parity_model(m1, EventSet("never", frozenset()))
        for taken in all_paths(m1, 4):
            path = follow_doubled(doubled, doubled.initial_state.id, taken)
            assert all(not state.endswith("''") for state in path)

    def test_single_traversal_is_odd(self, cycle3):
        event = EventSet("e", frozenset(a for a in cycle3.arrows if a.source == "a"))
        doubled = parity_model(cycle3, event)
        taken = all_paths(cycle3, 1)[0]
        path = follow_doubled(doubled, doubled.initial_state.id, taken)
        assert path[-1].endswith("''")

    @pytest.mark.parametrize("name", SMALL_MODELS)
    def test_membership_equals_parity_exhaustively(self, name):
        model = load_model(name)
        for event_arrow in model.arrows:
            event = EventSet("e", frozenset([event_arrow]))
            doubled = parity_model(model, event)
            for taken in all_paths(model, 8):
                path = follow_doubled(doubled, doubled.initial_state.id, taken)
                count = 0
                for t, arrow in enumerate(taken):
                    count += arrow.key == event_arrow.key
                    assert path[t + 1].endswith("''") == (count % 2 == 1)

    def test_random_model_simulation_oracle(self):
        rng = random.Random(404)
        from helpers import random_connected_chain

        model = random_connected_chain(rng, 4)
        event = EventSet("e", frozenset(rng.sample(list(model.arrows), 2)))
        doubled = parity_model(model, event)
        _, taken = walk(model, 1000, seed=11)
        path = follow_doubled(doubled, doubled.initial_state.id, taken)
        keys = event.keys()
        count = 0
        for t, arrow in enumerate(taken):
            count += arrow.key in keys
            assert path[t + 1].endswith("''") == (count % 2 == 1)


class TestDoublingPreservesBehaviour:
    @pytest.mark.parametrize("name", SMALL_MODELS)
    def test_depth6_futures_exact(self, name):
        model = load_model(name)
        reference = exact_future(model, 6)
        for event_arrow in model.arrows:
            event = EventSet("e", frozenset([event_arrow]))
            for construction in (parity_model, lambda m, e: event_to_fact(m, e)[0]):
                doubled = construction(model, event)
                assert exact_future(doubled, 6) == reference


class TestQuotient:
    def test_identity_partition_isomorphic(self, m1):
        partition = Partition((frozenset({"B"}), frozenset({"W"})))
        step = EventSet("true", frozenset(m1.arrows))
        reduced = quotient(m1, partition, [step])
        assert reduced.kind == "ed"
        assert {s.id for s in reduced.states} == {"B", "W"}
        for a in m1.arrows:
            twin = [
                b for b in reduced.arrows if (b.source, b.target) == (a.source, a.target)
            ]
            assert len(twin) == 1
            assert twin[0].effective().mid == pytest.approx(a.effective().mid)

    def test_bbww_daynight(self, m2):
        partition = Partition((frozenset({"B1", "B2"}), frozenset({"W1", "W2"})))
        crossing = frozenset(
            a for a in m2.arrows if a.key in {("B2", "true", "W1"), ("W2", "true", "B1")}
        )
        reduced = quotient(m2, partition, [EventSet("flip", crossing)])
        assert validate(reduced).ok
        assert {s.id for s in reduced.states} == {"B1+B2", "W1+W2"}
        keys = {a.key for a in reduced.arrows}
        assert keys == {("B1+B2", "flip", "W1+W2"), ("W1+W2", "flip", "B1+B2")}
        by_id = {s.id: s for s in reduced.states}
        assert by_id["B1+B2"].trace.probs["B"].lo == 1.0
        assert reduced.initial_state.id == "B1+B2"

    def test_coverage_error_lists_arrows(self, m2):
        partition = Partition((frozenset({"B1", "B2"}), frozenset({"W1", "W2"})))
        with pytest.raises(CoverageError) as err:
            quotient(m2, partition, [])
        assert {a.key for a in err.value.uncovered} == {
            ("B2", "true", "W1"),
            ("W2", "true", "B1"),
        }

    def test_trace_hull_of_disagreeing_members(self, m2):
        partition = Partition((frozenset({"B1", "W1"}), frozenset({"B2", "W2"})))
        everything = EventSet("step", frozenset(m2.arrows))
        reduced = quotient(m2, partition, [everything])
        trace = {s.id: s.trace for s in reduced.states}["B1+W1"]
        assert trace.probs["B"].lo == 0.0 and trace.probs["B"].hi == 1.0

    def test_interval_conditionals(self):
        """Per member that fires with an interval probability, the chance of
        landing in a class is 0 with no own arrow there, 1 when every arrow
        that can fire (upper bound above 0) leads there, else [0, 1]; a class
        where the event cannot fire (e, whose one E arrow has probability 0)
        gets no arrow."""
        model = parse_model(
            "model ed\nobs x y\nevent u v\n"
            "state a initial trace x=1\nstate b trace x=1\nstate c trace y=1\n"
            "state d trace y=1\nstate e trace y=1\n"
            "arrow a u d lp=[0.6,0.8] ap=1\narrow a v d lp=[0.5,0.7] ap=1\n"
            "arrow b u d lp=0.25 ap=1\narrow b v e lp=0.25 ap=1\narrow c u e lp=[0.2,0.4] ap=1\n"
            "arrow d u b lp=1 ap=0.5\narrow d u c lp=1 ap=0.5\narrow e u a lp=0.5 ap=1\n"
            "arrow e v d lp=0 ap=1\n"
        )
        assert validate(model).ok
        second = frozenset(a for a in model.arrows if a.source in "de" and a.label == "u")
        partition = Partition(({"a"}, {"b", "c"}, {"d"}, {"e"}))
        reduced = quotient(model, partition, [EventSet("E", frozenset(model.arrows) - second), EventSet("F", second)])
        got = {a.key: (a.label_prob.lo, a.label_prob.hi, a.arrow_prob.lo, a.arrow_prob.hi) for a in reduced.arrows}
        assert got == {
            # a's two arrows fire with probability [1.1, 1.5], capped to 1,
            # and both lead to d
            ("a", "E", "d"): (1, 1, 1, 1),
            # b fires with 0.5, half of it into d; c fires with [0.2, 0.4]
            # and has no arrow into d
            ("b+c", "E", "d"): (0.2, 0.5, 0, 0.5),
            # b gives 0.25 / 0.5; c fires with [0.2, 0.4] and its one arrow
            # leads to e, so c lands there whenever it fires
            ("b+c", "E", "e"): (0.2, 0.5, 0.5, 1),
            ("d", "F", "b+c"): (1, 1, 1, 1),
            ("e", "F", "a"): (0.5, 0.5, 1, 1),
        }
        assert validate(reduced).ok

    def test_interval_conditional_ignores_arrows_that_cannot_fire(self):
        """A member's E arrow of probability 0 into another class does not
        keep its interval-firing arrows from giving 1."""
        model = parse_model(
            "model ed\nobs x y\nevent u v\n"
            "state a initial trace x=1\nstate b trace x=1\nstate c trace y=1\nstate e trace y=1\n"
            "arrow a u b lp=1 ap=1\narrow b u e lp=0.5 ap=1\n"
            "arrow c u e lp=[0.2,0.4] ap=1\narrow c v a lp=0 ap=1\narrow e u a lp=1 ap=1\n"
        )
        assert validate(model).ok
        flows = frozenset(a for a in model.arrows if a.source in "bc")
        partition = Partition(({"a"}, {"b", "c"}, {"e"}))
        monitored = [EventSet("E", flows), EventSet("F", frozenset(model.arrows) - flows)]
        got = {a.key: (a.arrow_prob.lo, a.arrow_prob.hi) for a in quotient(model, partition, monitored).arrows}
        # b fires with 0.5, all of it into e; c fires with [0.2, 0.4], and its
        # arrow into a has probability 0, so what fires leads to e
        assert got[("b+c", "E", "e")] == (1, 1)
        # b has no arrow into a; c's arrow there cannot fire, but its firing
        # chance is an interval, so the share stays open
        assert got[("b+c", "E", "a")] == (0, 1)


class TestBeliefDeterminize:
    def test_deterministic_model_isomorphic(self, m2):
        det = belief_determinize(m2, 10)
        assert len(det.states) == 4
        assert validate(det).ok
        assert exact_future(det, 6) == exact_future(m2, 6)

    def test_depth_zero_single_state(self, m1):
        det = belief_determinize(m1, 0)
        assert len(det.states) == 1

    def test_negative_depth_refused(self, m1):
        with pytest.raises(ModelError, match="^belief determinization depth must be 0 or more, got -1$"):
            belief_determinize(m1, -1)

    @pytest.mark.parametrize("depth", [0, 1])
    def test_negative_cap_refused(self, m1, depth):
        with pytest.raises(ModelError, match="^belief determinization cap must be 0 or more, got -3$"):
            belief_determinize(m1, depth, cap=-3)

    def test_equals_the_fraction_oracle(self):
        """Beliefs as ints of gcd 1 give the model and the meta of beliefs as
        normalized Fractions, to the byte, where the traces allow it."""
        models = [load_model(p.stem) for p in sorted(MODELS_DIR.glob("*.model"))]
        rng = random.Random(16)
        models += [random_point_model(rng) for _ in range(150)] + [random_filter_model(rng) for _ in range(150)]
        compared = 0
        for model in models:
            try:
                want = determinize_by_fractions(model, 8)
            except ModelError as refused:
                with pytest.raises(ModelError, match=re.escape(str(refused))):
                    belief_determinize(model, 8)
                continue
            got = belief_determinize(model, 8)
            assert serialize_model(got) == serialize_model(want)
            assert got.meta == want.meta
            compared += 1
        assert compared >= 200

    def test_nondeterministic_expansion_preserves_futures(self):
        model = parse_model(
            "model hmm\nobs r g\n"
            "state s0 initial trace r=1\nstate a trace g=1\nstate b trace g=1\n"
            "arrow s0 true a ap=0.5\narrow s0 true b ap=0.5\n"
            "arrow a true s0 ap=1\n"
            "arrow b true b ap=0.5\narrow b true s0 ap=0.5\n"
        )
        det = belief_determinize(model, 16)
        assert validate(det).ok
        assert exact_future(det, 6) == exact_future(model, 6)
        # belief states are genuinely merged, not one per path
        assert len(det.states) < 2**6

    def test_cap_exceeded(self):
        model = parse_model(
            "model hmm\nobs r g\n"
            "state s0 initial trace r=1\nstate a trace g=1\nstate b trace g=1\n"
            "arrow s0 true a ap=0.5\narrow s0 true b ap=0.5\n"
            "arrow a true s0 ap=0.25\narrow a true a ap=0.75\n"
            "arrow b true b ap=0.5\narrow b true s0 ap=0.5\n"
        )
        with pytest.raises(CapExceededError):
            belief_determinize(model, 64, cap=5)

    def test_interval_model_rejected(self, rain):
        with pytest.raises(ModelError):
            belief_determinize(rain, 3)

    def test_mdp_fixed_with_mixed_agent_rows(self):
        model = parse_model(
            "model mdp-fixed\nobs g r\nact go stay\n"
            "state a initial trace g=1\nstate b trace g=1\nstate c trace r=1\n"
            "arrow a go b lp=0.5 ap=0.5\narrow a go c lp=0.5 ap=0.5\n"
            "arrow a stay a lp=0.5 ap=1\n"
            "arrow b go a lp=0.25 ap=1\narrow b stay b lp=0.75 ap=1\n"
            "arrow c go a lp=1 ap=1\n"
        )
        det = belief_determinize(model, 12)
        assert validate(det).ok
        assert exact_future(det, 5) == exact_future(model, 5)

    def test_action_probability_weights_the_successor(self):
        # a and b look alike but choose their actions with opposite odds, so
        # taking "stay" from {a: 1/2, b: 1/2} leaves about {a: 0.1, b: 0.9}
        model = parse_model(
            "model mdp-fixed\nobs x y\nact go stay\n"
            "state s initial trace x=1\nstate a trace x=1\nstate b trace x=1\nstate c trace y=1\n"
            "arrow s go a lp=1 ap=0.5\narrow s go b lp=1 ap=0.5\n"
            "arrow a go c lp=0.9 ap=1\narrow a stay a lp=0.1 ap=1\n"
            "arrow b go c lp=0.1 ap=1\narrow b stay b lp=0.9 ap=1\n"
            "arrow c go c lp=1 ap=1\n"
        )
        word = (("go", "x"), ("stay", "x"), ("go", "y"))
        assert float(exact_future(model, 3)[word]) == pytest.approx(0.09, abs=1e-12)
        det = belief_determinize(model, 3)
        assert validate(det).ok
        assert float(exact_future(det, 3)[word]) == pytest.approx(0.09, abs=1e-12)  # was 0.25

    def test_member_without_the_label_contributes_nothing(self):
        # b is a dead end: from {a: 1/2, b: 1/2} the step happens with
        # probability 1/2, where the whole label used to be dropped
        model = parse_model(
            "model hmm\nobs x y\n"
            "state s initial trace x=1\nstate a trace y=1\nstate b trace y=1\n"
            "arrow s true a ap=0.5\narrow s true b ap=0.5\narrow a true s ap=1\n"
        )
        assert validate(model).ok
        det = belief_determinize(model, 2)
        assert exact_future(det, 2) == exact_future(model, 2) == {(("true", "y"), ("true", "x")): Fraction(1, 2)}

    def test_sub_stochastic_belief_is_named(self):
        # {a: 1/2, b: 1/2} steps with probability 1/2: validate rejects the
        # determinized hmm, and its meta says which belief falls short
        model = parse_model(
            "model hmm\nobs x y\n"
            "state s initial trace x=1\nstate a trace y=1\nstate b trace y=1\n"
            "arrow s true a ap=0.5\narrow s true b ap=0.5\narrow a true s ap=1\n"
        )
        det = belief_determinize(model, 2)
        assert not validate(det).ok
        assert "q1 = a:1/2 b:1/2" in det.meta
        assert [note for note in det.meta if "below 1" in note] == ["label mass below 1: q1:1/2"]
        assert not any("truncated" in note for note in det.meta)

    def test_dead_end_stochastic_and_event_beliefs_are_not_named(self, m2):
        # a belief on a dead end alone steps with probability 0, as the state
        # does; an ed event may fire with any probability
        dead_end = parse_model(
            "model hmm\nobs x y\nstate s initial trace x=1\nstate b trace y=1\narrow s true b ap=1\n"
        )
        events = parse_model(
            "model ed\nobs x y\nevent e\nstate s initial trace x=1\nstate t trace y=1\n"
            "arrow s e t lp=0.5 ap=1\narrow t e s lp=0.25 ap=1\n"
        )
        for det in (belief_determinize(dead_end, 3), belief_determinize(m2, 10), belief_determinize(events, 3)):
            assert validate(det).ok
            assert not any("below 1" in note for note in det.meta)

    def test_is_the_exact_twin_of_step_belief(self):
        """The determinized model has the model's future at every depth it
        expands, and each successor belief is step_belief's."""
        rng = random.Random(8)
        seen: Counter = Counter()
        for _ in range(1000):
            model = random_filter_model(rng)
            assert validate(model).ok
            depth = rng.randint(1, 4)
            det = belief_determinize(model, depth)
            for d in range(1, depth + 1):
                want, got = exact_future(model, d), exact_future(det, d)
                assert set(got) <= set(want)
                for word, p in want.items():
                    assert abs(float(got.get(word, 0)) - float(p)) <= 1e-9, (word, d)
            beliefs = {}
            for note in det.meta:
                name, sep, members = note.partition(" = ")
                if sep:
                    beliefs[name] = {sid: Fraction(m) for sid, m in (pair.split(":") for pair in members.split())}
            trace_of = {s.id: s.trace.deterministic_obs for s in det.states}
            for a in det.arrows:
                before = Belief({s: float(m) for s, m in beliefs[a.source].items()})
                stepped, after = step_belief(model, before, a.label, trace_of[a.target]), beliefs[a.target]
                assert stepped.probs.keys() == after.keys()
                assert all(abs(stepped.probs[s] - float(m)) <= 1e-12 for s, m in after.items())
            index = ArrowIndex(model)
            offers = {  # state -> (label, label probability) it offers
                s.id: {(l, index.by_label[(s.id, l)][0].label_prob.lo) for l in index.labels_from(s.id)}
                for s in model.states
            }
            seen[model.kind] += 1
            seen["mixed belief"] += any(len(b) > 1 for b in beliefs.values())
            seen["members differ in labels"] += any(
                len({frozenset(l for l, _ in offers[s]) for s in b}) > 1 for b in beliefs.values()
            )
            seen["members differ in label probability"] += any(
                len({lp for s in b for k, lp in offers[s] if k == l}) > 1
                for b in beliefs.values()
                for l in model.labels
            )
        assert min(seen.values()) >= 100, seen


class TestMinimizeForward:
    def test_duplicated_state_merges_to_coin(self, m1):
        model = chain_model(
            {
                "B": {"B": 0.25, "Bd": 0.25, "W": 0.5},
                "Bd": {"B": 0.25, "Bd": 0.25, "W": 0.5},
                "W": {"B": 0.25, "Bd": 0.25, "W": 0.5},
            },
            initial="B",
            obs_of={"B": "B", "Bd": "B", "W": "W"},
        )
        reduced, partition = minimize_forward(model)
        assert {frozenset(c) for c in partition.classes} == {
            frozenset({"B", "Bd"}),
            frozenset({"W"}),
        }
        assert len(reduced.states) == 2
        assert exact_future(reduced, 6) == exact_future(m1, 6)

    def test_bbww_no_merges(self, m2):
        reduced, partition = minimize_forward(m2)
        assert len(reduced.states) == 4
        # oracle: depth-2 future sets of the four states are pairwise distinct
        futures = [
            tuple(sorted(exact_future(_reinitialized(m2, sid), 2).items()))
            for sid in ("B1", "B2", "W1", "W2")
        ]
        assert len(set(futures)) == 4

    def test_fixpoint_no_equivalent_pair_left(self):
        rng = random.Random(91)
        from helpers import random_connected_chain

        model = random_connected_chain(rng, 6)
        reduced, _ = minimize_forward(model)
        index = ArrowIndex(reduced)
        sigs = set()
        for s in reduced.states:
            row = tuple(
                sorted(
                    (a.target, Fraction(a.arrow_prob.lo))
                    for a in index.out[s.id]
                )
            )
            sig = (tuple(sorted(s.trace.probs)), row)
            assert sig not in sigs
            sigs.add(sig)

    def test_equals_round_based_oracle(self):
        rng = random.Random(20261018)
        seen: Counter = Counter()
        for _ in range(1200):
            model = random_point_model(rng)
            _, partition = minimize_forward(model)
            assert partition == refine_by_rounds(model), model
            traces = {frozenset(s.trace.probs.items()) for s in model.states}
            seen[model.kind] += 1
            seen["merged"] += len(partition.classes) < len(model.states)
            seen["split a trace class"] += len(partition.classes) > len(traces)
            seen["zero-weight arrow"] += any(a.arrow_prob.lo == 0.0 for a in model.arrows)
            seen["self-loop"] += any(a.source == a.target for a in model.arrows)
            seen["interval trace"] += any(
                not p.is_point for s in model.states for p in s.trace.probs.values()
            )
            seen["label probabilities differ"] += len({a.label_prob for a in model.arrows}) > 1
            seen[len(model.states)] += 1
        features = ["fomm", "hmm", "mdp-fixed", "merged", "split a trace class", "zero-weight arrow",
                    "self-loop", "interval trace", "label probabilities differ", *range(1, 9)]
        assert all(seen[f] >= 100 for f in features), seen

    def test_zero_weight_arrows_keep_presence_apart(self):
        # s and s2 differ only in s's zero-weight arrow into {b1, b1b}, a class
        # that splits off {b2} after the whole block was a splitter
        model = parse_model(
            "model hmm\nobs u v x y\n"
            "state z trace u=1\nstate w trace v=1\n"
            "state s initial trace y=1\nstate s2 trace y=1\n"
            "state b1 trace x=1\nstate b1b trace x=1\nstate b2 trace x=1\n"
            "arrow z true z\narrow w true w\n"
            "arrow s true b1 ap=0\narrow s true b2 ap=0\narrow s true z ap=1\n"
            "arrow s2 true b2 ap=0\narrow s2 true z ap=1\n"
            "arrow b1 true z\narrow b1b true z\narrow b2 true w\n"
        )
        _, partition = minimize_forward(model)
        assert partition == refine_by_rounds(model)
        assert partition.class_of("s") == {"s"}

    def test_cycle_keeps_every_state(self):
        model = cycle_model(30)
        reduced, partition = minimize_forward(model)
        assert len(reduced.states) == 30 and len(partition.classes) == 30
        assert exact_future(reduced, 40) == exact_future(model, 40)

    def test_long_cycle_keeps_every_state(self):
        reduced, _ = minimize_forward(cycle_model(1000))
        assert len(reduced.states) == 1000

    def test_always_runs_to_the_fixpoint(self):
        assert list(inspect.signature(minimize_forward).parameters) == ["model"]


class TestPartition:
    def test_class_of(self):
        partition = Partition((frozenset({"a", "b"}), frozenset({"c"})))
        assert partition.class_of("b") == {"a", "b"}
        assert partition.class_of("c") == {"c"}
        with pytest.raises(ModelError):
            partition.class_of("d")


def _reinitialized(model, sid):
    return replace(
        model,
        states=tuple(replace(s, initial=(s.id == sid)) for s in model.states),
    )


class TestMinimalModel:
    @pytest.mark.parametrize("name", ["m1_coin", "cycle3", "m2_bbww"])
    def test_parts_reproduce_future_and_past(self, name):
        model = load_model(name)
        parts = minimal_model_parts(model, 12)
        assert exact_future(parts.forward_part, 6) == exact_future(model, 6)
        assert exact_future(parts.backward_part, 6) == exact_future(invert_chain(model), 6)

    @pytest.mark.parametrize("name", ["m1_coin", "cycle3"])
    def test_joined_structure(self, name):
        model = load_model(name)
        joined = minimal_model(model, 12)
        assert validate(joined).ok
        now = joined.initial_state.id
        inbound = {a.source for a in joined.arrows if a.target == now}
        assert all(src.startswith("past:") for src in inbound)
        black = find_black_hole(joined)
        white = find_white_peak(joined)
        assert {s.id for s in joined.states if s.id.startswith("fut:")} <= black
        assert white <= {s.id for s in joined.states if s.id.startswith("past:")}

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_joined_equals_the_assembled_oracle(self, depth):
        rng = random.Random(depth)
        models = [load_model(n) for n in ("m1_coin", "m2_bbww", "cycle3")]
        models += [random_connected_chain(rng, rng.randint(2, 6)) for _ in range(12)]
        for model in models:
            joined = minimal_model_parts(model, depth).joined
            expected = joined_by_assembly(model, depth)
            assert joined == expected  # states and arrows in order
            assert joined.meta == expected.meta

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_refused(self, m1, depth):
        with pytest.raises(ModelError, match=f"^minimal model depth must be 1 or more, got {depth}$"):
            minimal_model_parts(m1, depth)

    def test_coin_forward_part_is_coin_like(self, m1):
        parts = minimal_model_parts(m1, 12)
        fwd = parts.forward_part
        probs = sorted(round(a.arrow_prob.mid, 9) for a in fwd.arrows)
        assert all(p == 0.5 for p in probs)
