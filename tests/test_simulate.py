"""oracle-sim: simulation, enumeration, estimation, preference, Markov check."""

import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stochworld import (
    CapExceededError,
    CharFn,
    Development,
    EventOccurrence,
    EventStream,
    ModelError,
    Policy,
    PolicyError,
    Preference,
    ProbInterval,
    SimulationConfig,
    ToolkitError,
    Trajectory,
    WhitePeakError,
    belief_determinize,
    check_markov,
    detect_indirect,
    enumerate_future,
    enumerate_past,
    estimate_fomm,
    exact_future,
    invert_chain,
    invert_mdp_plus,
    minimal_model_parts,
    monte_carlo_invert,
    parse_model,
    preference_to_policy,
    simulate,
    simulate_events,
    simulate_journeys,
    track,
    validate,
)

from stochworld.core import ACTION_KINDS, KINDS, POINT_ONE, compose_policy, replace
from stochworld.markov import _chi2_p_value, _chi2_tail

from helpers import (
    chain_model,
    check_markov_by_contingency,
    contingency_p_value,
    exact_future_by_layers,
    future_by_layers,
    load_model,
    random_connected_chain,
    random_agent,
    random_future_model,
    random_scaled_model,
    random_walk_model,
    simulate_by_steps,
)


class TestSimulate:
    def test_reproducible(self, m1):
        config = SimulationConfig(steps=50, seed=99)
        assert simulate(m1, config) == simulate(m1, config)

    def test_seed_changes_outcome(self, m1):
        a = simulate(m1, SimulationConfig(steps=50, seed=1))
        b = simulate(m1, SimulationConfig(steps=50, seed=2))
        assert a != b

    @pytest.mark.parametrize("walk", [simulate, simulate_events])
    def test_negative_seed_refused(self, m1, walk):
        with pytest.raises(ModelError, match="^the walk seed must be 0 or more, got -1$"):
            walk(m1, SimulationConfig(steps=3, seed=-1))
        walk(m1, SimulationConfig(steps=3, seed=None))  # fresh entropy, as before

    @pytest.mark.parametrize("walk", [simulate, simulate_events])
    def test_negative_steps_refused(self, m1, walk):
        with pytest.raises(ModelError, match="^walk step count must be 0 or more, got -1$"):
            walk(m1, SimulationConfig(steps=-1, seed=1))
        walk(m1, SimulationConfig(steps=0, seed=1))

    def test_bbww_repeats(self, m2):
        for seed in (1, 7, 42):
            traj = simulate(m2, SimulationConfig(steps=12, seed=seed))
            assert "".join(traj.observations()) == "BBWWBBWWBBWW"

    def test_ed_daynight_alternates(self, daynight):
        traj, stream = simulate_events(daynight, SimulationConfig(steps=10, seed=3))
        assert traj.observations() == ("sun", "dark") * 5
        assert tuple(o.label for o in stream.occurrences) == ("sunset", "sunrise") * 5

    def test_interval_without_policy_rejected(self, rain):
        with pytest.raises(ModelError):
            simulate(rain, SimulationConfig(steps=5, seed=0))

    def test_ed_collision_modes(self):
        text = (
            "model ed\nobs x\nevent e1 e2\n"
            "state s initial trace x=1\nstate t1 trace x=1\nstate t2 trace x=1\n"
            "arrow s e1 t1 lp=1 ap=1\narrow s e2 t2 lp=1 ap=1\n"
            "arrow t1 e2 t2 lp=1 ap=1\narrow t2 e1 t1 lp=1 ap=1\n"
            "priority e1 1\npriority e2 2\n"
        )
        model = parse_model(text)
        _, prio = simulate_events(model, SimulationConfig(steps=1, seed=0, collision="priority"))
        assert tuple(o.label for o in prio.occurrences) == ("e1",)  # e2 also fired but is outranked
        _, both = simulate_events(
            model, SimulationConfig(steps=1, seed=0, collision="both-arrows")
        )
        assert tuple(o.label for o in both.occurrences) == ("e1", "e2")  # both arrows walked, in rank order

    def test_one_collision_order(self):
        """Equal ranks fall back to the label and unranked events come last,
        in the walk and in the tracker alike."""
        model = parse_model(
            "model ed\nobs x a b c\nevent a b c\nstate s initial trace x=1\n"
            "state ta trace a=1\nstate tb trace b=1\nstate tc trace c=1\n"
            "arrow s a ta lp=1 ap=1\narrow s b tb lp=1 ap=1\narrow s c tc lp=1 ap=1\n"
            "priority c 1\npriority b 1\n"
        )
        trajectory, fired = simulate_events(model, SimulationConfig(steps=2, seed=0, collision="priority"))
        assert tuple(o.label for o in fired.occurrences) == ("b",)
        everything = EventStream(tuple(EventOccurrence(0, e, POINT_ONE) for e in ("a", "c", "b")))
        result = track(model, trajectory, everything, collision="priority")
        assert result.final_belief.probs == {"tb": 1.0}

    def test_walk_equals_step_oracle(self):
        """The table walk gives the reference walk's trajectory, events and
        refusals (class and text): under policies and preferences, both
        collision rules, int and numpy integer seeds, and with intervals the
        walk reaches or never does."""
        rng = random.Random(20261018)
        seen: Counter = Counter()
        for i in range(1400):
            kind = KINDS[i % len(KINDS)]
            model = random_walk_model(rng, kind)
            agent = random_agent(rng, model) if kind in ACTION_KINDS else None
            if kind not in ACTION_KINDS and rng.random() < 0.02:
                agent = Policy({})  # refused: this kind takes no policy
            config = SimulationConfig(
                rng.randint(0, 30),
                (np.int64 if i % 3 == 0 else int)(rng.randrange(2**31)),
                policy=agent if isinstance(agent, Policy) else None,
                preference=agent if isinstance(agent, Preference) else None,
                collision=rng.choice(("priority", "both-arrows")),
            )
            want = _walk_outcome(simulate_by_steps, model, config)
            assert _walk_outcome(simulate_events, model, config) == want, i
            walked = not isinstance(want[0], type)
            seen[kind] += 1
            seen["walked"] += walked
            seen["reached an interval"] += not walked and want[1].startswith("unresolved interval")
            own = [p for s in model.states if s.id != "w" for p in s.trace.probs.values()]
            own += [p for a in model.arrows if a.source != "w" for p in (a.label_prob, a.arrow_prob)]
            seen["passed an interval by"] += walked and config.steps > 0 and not all(p.is_point for p in own)
            seen[type(agent).__name__] += walked and agent is not None
            seen["numpy seed"] += walked and isinstance(config.seed, np.integer)
            seen[config.collision] += walked and kind == "ed" and len(want[1]) > 0
        assert sum(seen[k] for k in KINDS) >= 1000
        assert all(seen[k] >= 100 for k in KINDS), seen
        for feature in ("walked", "reached an interval", "passed an interval by", "Policy", "Preference", "numpy seed"):
            assert seen[feature] >= 50, seen
        assert seen["priority"] >= 25 and seen["both-arrows"] >= 25, seen

    def test_numpy_integer_seeds_walk_as_int(self, m1):
        """A numpy integer seed walks as the int of the same value; None walks
        on fresh entropy.  Seed 1 pins the coin's walk: ``random.Random``
        with an int seed draws the same uniforms on every Python version."""
        for s in (0, 1, 41, 255):
            want = simulate(m1, SimulationConfig(steps=200, seed=s))
            for seed in (np.int64(s), np.uint8(s)):
                assert simulate(m1, SimulationConfig(steps=200, seed=seed)) == want, (s, seed)
        assert "".join(simulate(m1, SimulationConfig(steps=24, seed=1)).observations()) == PINNED_COIN_WALK
        fresh = [simulate(m1, SimulationConfig(steps=200, seed=None)) for _ in range(2)]
        assert [len(t.observations()) for t in fresh] == [200, 200] and fresh[0] != fresh[1]

    @pytest.mark.parametrize("seed", [3, 41])
    def test_transition_frequencies_fit_the_chain(self, m1, cycle3, seed):
        """Long walks of fomm chains, whose states emit distinct symbols: the
        moves out of each state fit its arrow probabilities by a chi-squared
        test (scipy as the oracle) at a fixed significance."""
        rng = random.Random(seed)
        chains = [m1, cycle3] + [random_connected_chain(rng, rng.randint(3, 6)) for _ in range(10)]
        tested = 0
        for model in chains:
            assert model.kind == "fomm"
            obs = simulate(model, SimulationConfig(steps=20_000, seed=seed)).observations()
            moves = Counter(zip(obs, obs[1:]))
            for s in model.states:
                arrows = [a for a in model.arrows if a.source == s.id]
                counts = [moves[s.id, a.target] for a in arrows]
                assert sum(counts) == sum(n for (src, _), n in moves.items() if src == s.id)
                tested += _fits(counts, [a.arrow_prob.mid for a in arrows], (model.name, s.id))
        assert tested >= 20

    @pytest.mark.parametrize("seed", [3, 41])
    def test_emission_frequencies_fit_the_hmm(self, seed):
        """An hmm that cycles through its states, so that a step's state is
        its index modulo 3: each state's observations fit its trace."""
        model = parse_model(
            "model hmm\nobs x y z\n"
            "state a initial trace x=0.5 y=0.25 z=0.25\nstate b trace x=0.125 y=0.875\nstate c trace x=0.3 y=0.3 z=0.4\n"
            "arrow a true b ap=1\narrow b true c ap=1\narrow c true a ap=1\n"
        )
        obs = simulate(model, SimulationConfig(steps=30_000, seed=seed)).observations()
        for i, s in enumerate(model.states):
            seen = Counter(obs[i::3])
            symbols = sorted(s.trace.probs)
            assert set(seen) <= set(symbols)
            assert _fits([seen[o] for o in symbols], [s.trace.probs[o].mid for o in symbols], s.id)

    def test_preference_resolves_intervals(self):
        model = parse_model(
            "model mdp-plus\nobs wet\nact rain dry\n"
            "state w initial trace wet=1\n"
            "arrow w rain w lp=[0.1,0.8] ap=1\narrow w dry w lp=[0.2,0.9] ap=1\n"
        )
        pref = Preference({"w": ("rain", "dry")})
        traj = simulate(model, SimulationConfig(steps=200, seed=8, preference=pref))
        acts = list(traj.acts)
        assert set(acts) <= {"rain", "dry"}
        assert acts.count("rain") > acts.count("dry")  # 80% rain under Royal rain


#: the first 24 observations of the coin's walk at seed 1
PINNED_COIN_WALK = "BWBBWBBBWWBWBBBBBBBWBWBW"


def _fits(counts, probs, where) -> bool:
    """Asserts that ``counts`` fit ``probs`` by a chi-squared test at
    p > 1e-4; False when there is only one outcome to test."""
    assert math.isclose(sum(probs), 1.0), where
    if len(counts) < 2:
        return False
    n = sum(counts)
    p = stats.chisquare(counts, [n * q for q in probs]).pvalue
    assert p > 1e-4, (where, counts, probs, p)
    return True


def _walk_outcome(walk, model, config):
    try:
        return walk(model, config)
    except ToolkitError as exc:
        return type(exc), str(exc)


def _outcome(call):
    """The call's result, or the type and text of the toolkit error it raised."""
    try:
        return call()
    except (CapExceededError, ModelError) as exc:
        return type(exc), str(exc)


class TestEnumerateFuture:
    def test_coin_depth_two(self, m1):
        fs = enumerate_future(m1, 2)
        words = {tuple(o for _, o in dev): p for dev, p in fs.entries.items()}
        assert set(words) == {("B", "B"), ("B", "W"), ("W", "B"), ("W", "W")}
        assert all(p.is_point and p.mid == pytest.approx(0.25) for p in words.values())

    def test_depth_zero(self, m1):
        fs = enumerate_future(m1, 0)
        assert len(fs.entries) == 1
        (dev, p), = fs.entries.items()
        assert dev == () and p.mid == 1.0

    @pytest.mark.parametrize("develop", [enumerate_future, exact_future, enumerate_past])
    def test_negative_depth_refused(self, m1, develop):
        with pytest.raises(ModelError, match="^future enumeration depth must be 0 or more, got -2$"):
            develop(m1, -2)

    @pytest.mark.parametrize("develop", [enumerate_future, exact_future, enumerate_past])
    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("cap", [-1, -5])
    def test_negative_cap_refused(self, m1, develop, depth, cap):
        # at depth 0 a negative cap was never compared; at depth 1 it read
        # "exceeds -1 developments"
        with pytest.raises(ModelError, match=f"^future enumeration cap must be 0 or more, got {cap}$"):
            develop(m1, depth, cap=cap)

    @pytest.mark.parametrize("interval", [False, True])
    def test_cap_refused_before_the_layer_is_built(self, interval):
        # one state showing 128 symbols: 128 words at depth 1, 16384 at
        # depth 2; at cap 128 the refusal at depth 2 stops at word 129 of
        # that layer, so it allocates less than twice what depth 1 does
        ap = "[0.5,1]" if interval else "1"
        model = parse_model(
            "model hmm\nobs " + " ".join(f"o{i}" for i in range(128))
            + "\nstate s initial trace " + " ".join(f"o{i}=0.0078125" for i in range(128))
            + f"\narrow s true s ap={ap}\n"
        )

        def peak(call):
            tracemalloc.start()
            try:
                _outcome(call)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(enumerate_future(model, 1, cap=128).entries) == 128
        whole_depth_one = peak(lambda: enumerate_future(model, 1, cap=128))
        with pytest.raises(CapExceededError, match="exceeds 128 developments"):
            enumerate_future(model, 2, cap=128)
        assert peak(lambda: enumerate_future(model, 2, cap=128)) < 2 * whole_depth_one

    def test_per_depth_sum_exactly_one(self, m2, cycle3):
        for model in (m2, cycle3):
            for depth in (1, 3, 5):
                dist = exact_future(model, depth)
                assert sum(dist.values()) == Fraction(1)

    def test_smdp_unprobabilized_arrows(self):
        model = parse_model(
            "model smdp\nobs red blue\nact a\n"
            "state s1 initial trace red=1\nstate s2 trace blue=1\n"
            "arrow s1 a s1\narrow s1 a s2\narrow s2 a s1\narrow s2 a s2\n"
        )
        fs = enumerate_future(model, 2)
        words = {tuple(o for _, o in dev): p for dev, p in fs.entries.items()}
        assert len(words) == 4  # nothing structurally impossible at depth 2
        for p in words.values():
            assert (p.lo, p.hi) == (0.0, 1.0)

    def test_structurally_impossible_absent(self):
        model = parse_model(
            "model smdp\nobs red blue\nact a\n"
            "state s1 initial trace red=1\nstate s2 trace blue=1\n"
            "arrow s1 a s2\narrow s2 a s1\n"
        )
        fs = enumerate_future(model, 2)
        words = {tuple(o for _, o in dev) for dev in fs.entries}
        assert words == {("blue", "red")}

    def test_interval_bounds_on_rain_world(self, rain):
        fs = enumerate_future(rain, 1)
        bounds = {dev[0][0]: (p.lo, p.hi) for dev, p in fs.entries.items()}
        # agent interval times the [0,1] trace: upper bounds survive, lower collapse
        assert bounds["rain"] == (0.0, pytest.approx(0.8))
        assert bounds["dry"] == (0.0, pytest.approx(0.9))

    def test_policy_resolves_mdp_to_points(self):
        from stochworld import Policy

        model = parse_model(
            "model mdp\nobs x y\nact go stay\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx go sy ap=1\narrow sx stay sx ap=1\n"
            "arrow sy go sx ap=1\narrow sy stay sy ap=1\n"
        )
        policy = Policy(
            {("sx", "go"): 0.25, ("sx", "stay"): 0.75, ("sy", "go"): 1.0, ("sy", "stay"): 0.0}
        )
        fs = enumerate_future(model, 2, policy)
        probs = fs.entries
        key = (("go", "y"), ("go", "x"))
        assert probs[key].is_point
        assert probs[key].mid == pytest.approx(0.25)
        assert sum(p.mid for p in probs.values()) == pytest.approx(1.0, abs=1e-9)


    def test_exact_words_index_the_entries(self):
        """A key of ``entries`` is its word: on point models ``exact_future``'s
        plain tuples are the same set, and each looks its entry up."""
        rng = random.Random(28)
        words = 0
        for i in range(150):
            model = random_scaled_model(rng, ("fomm", "hmm", "mdp-fixed")[i % 3], rng.random)
            exact = exact_future(model, i % 5)
            entries = enumerate_future(model, i % 5).entries
            assert set(exact) == set(entries) and all(type(dev) is Development for dev in entries), i
            for word, p in exact.items():
                assert type(word) is tuple and entries[word] == ProbInterval.point(float(p)), (i, word)
            words += len(exact)
        assert words >= 500

    def test_exact_future_refuses_untraced_state(self):
        model = parse_model(
            "model ed\nobs x y\nevent go\nstate a initial trace x=1\nstate b\n"
            "arrow a go b lp=1 ap=1\narrow b go a lp=1 ap=1\n"
        )
        with pytest.raises(ModelError):
            exact_future(model, 2)

    def test_equals_two_expansion_oracle(self):
        """One expansion, two backends: bit-for-bit the entries, order and
        cap refusals of the former exact and interval expansions, except on
        point models with an untraced state, where the former exact path
        dropped every word through that state."""
        rng = random.Random(20261018)
        seen: Counter = Counter()
        for i in range(1400):
            kind = KINDS[i % len(KINDS)]
            model = random_future_model(rng, kind)
            depth = rng.randint(0, 6)
            cap = rng.choice((1, 4, 16, 64, 256))
            untraced = any(not s.trace.probs for s in model.states)
            if untraced and model.has_point_probs():
                continue
            seen[kind] += 1
            seen["untraced"] += untraced
            seen["interval trace"] += any(not p.is_point for s in model.states for p in s.trace.probs.values())
            seen["zero weight"] += any(a.arrow_prob.hi == 0.0 for a in model.arrows)
            want = _outcome(lambda: list(future_by_layers(model, depth, cap).entries.items()))
            assert _outcome(lambda: list(enumerate_future(model, depth, cap=cap).entries.items())) == want, i
            seen["cap"] += isinstance(want, tuple) and want[0] is CapExceededError
            exact = model.has_point_probs() and all(
                s.trace.probs and all(p.is_point for p in s.trace.probs.values()) for s in model.states
            )
            got = _outcome(lambda: list(exact_future(model, depth, cap=cap).items()))
            if exact:
                seen["exact"] += 1
                assert got == _outcome(lambda: list(exact_future_by_layers(model, depth, cap).items())), i
            else:
                assert got == (ModelError, "exact enumeration needs point probabilities"), i
        assert sum(seen[k] for k in KINDS) >= 1000
        assert all(seen[k] >= 100 for k in KINDS), seen
        for feature in ("untraced", "interval trace", "zero weight", "cap", "exact"):
            assert seen[feature] >= 50, seen

    def test_mixed_scale_oracle(self):
        """Probabilities of every scale, from 1/3 and 0.1 to the least
        subnormal: exact_future equals the Fraction oracle word for word,
        enumerate_future gives the double of each oracle value, and caps
        refuse alike."""
        rng = random.Random(20261018)
        pool = (0.0, 1.0, 0.1, 1 / 3, 1 - 2.0**-53, 2.0**-60, 5e-324)

        def prob():
            roll = rng.random()
            if roll < 0.6:
                return rng.choice(pool)
            return rng.random() if roll < 0.8 else math.ldexp(rng.random(), -rng.randint(1, 1000))

        seen: Counter = Counter()
        for i in range(300):
            kind = ("fomm", "hmm", "mdp-fixed")[i % 3]
            model = random_scaled_model(rng, kind, prob)
            depth = i % 6
            cap = rng.choice((4, 64, 512))
            want = _outcome(lambda: list(exact_future_by_layers(model, depth, cap).items()))
            assert _outcome(lambda: list(exact_future(model, depth, cap=cap).items())) == want, i
            got = _outcome(
                lambda: [(d, p.lo.hex(), p.hi.hex()) for d, p in enumerate_future(model, depth, cap=cap).entries.items()]
            )
            if isinstance(want, tuple):
                assert got == want, i
                seen["cap"] += 1
                continue
            assert got == [(w, float(p).hex(), float(p).hex()) for w, p in want], i
            seen[kind] += 1
            seen["subnormal"] += any(0 < p < 2.0**-1022 for _, p in want)
            seen["underflow"] += any(float(p) == 0.0 for _, p in want)
            seen["mixed"] += len({p.denominator for _, p in want}) > 1
        assert all(seen[k] >= 50 for k in ("fomm", "hmm", "mdp-fixed")), seen
        for feature in ("cap", "subnormal", "underflow", "mixed"):
            assert seen[feature] >= 10, seen


class TestEnumeratePast:
    def test_cycle_unique_history(self, cycle3):
        fs = enumerate_past(cycle3, 2)
        assert len(fs.entries) == 1
        (dev, p), = fs.entries.items()
        assert tuple(o for _, o in dev) == ("b", "c")
        assert p.mid == pytest.approx(1.0)

    def test_chain_one_step_back(self):
        chain = chain_model({"A": {"B": 1.0}, "B": {"A": 0.5, "B": 0.5}}, initial="A")
        at_b = replace(
            chain,
            states=tuple(replace(s, initial=(s.id == "B")) for s in chain.states),
        )
        fs = enumerate_past(at_b, 1)
        words = {tuple(o for _, o in dev): p.mid for dev, p in fs.entries.items()}
        assert words[("A",)] == pytest.approx(0.5)
        assert words[("B",)] == pytest.approx(0.5)

    def test_white_peak_propagates(self, fig3):
        with pytest.raises(WhitePeakError):
            enumerate_past(fig3, 2)

    @pytest.mark.parametrize("name", ["m1_coin", "m2_bbww", "cycle3"])
    def test_keys_reverse_the_inverse_future(self, name):
        """The past's keys are the inverse model's future words, reversed."""
        model = load_model(name)
        for depth in range(5):
            past = enumerate_past(model, depth)
            future = enumerate_future(invert_chain(model), depth)
            assert (past.depth, past.direction) == (depth, "past")
            assert all(type(dev) is Development for dev in past.entries)
            assert past.entries == {tuple(reversed(word)): p for word, p in future.entries.items()}


class TestEstimateFomm:
    def test_coin_estimation(self, m1):
        traj = simulate(m1, SimulationConfig(steps=10_000, seed=2026))
        est = estimate_fomm(traj)
        assert est.kind == "fomm"
        for a in est.arrows:
            assert a.arrow_prob.mid == pytest.approx(0.5, abs=0.02)

    def test_bbww_same_standard_fomm(self, m2):
        traj = simulate(m2, SimulationConfig(steps=10_000, seed=1))
        est = estimate_fomm(traj)
        for a in est.arrows:
            assert a.arrow_prob.mid == pytest.approx(0.5, abs=0.02)

    def test_constant_trajectory(self):
        traj = Trajectory.of([("B", None)] * 8)
        est = estimate_fomm(traj)
        assert len(est.states) == 1
        (arrow,) = est.arrows
        assert arrow.key == ("B", "true", "B") and arrow.arrow_prob.mid == 1.0

    def test_too_short(self):
        with pytest.raises(ModelError):
            estimate_fomm(Trajectory.of([("B", None)]))

    def test_unseen_transitions_absent(self):
        traj = Trajectory.of([(o, None) for o in "BBWW"])
        est = estimate_fomm(traj)
        keys = {a.key for a in est.arrows}
        assert ("W", "true", "B") not in keys  # W is never followed by B here

    def test_initial_state_is_current_observation(self):
        traj = Trajectory.of([(o, None) for o in "BWBWB"], t0=2)
        assert estimate_fomm(traj).initial_state.id == "B"
        all_past = Trajectory.of([(o, None) for o in "BBBW"])
        assert estimate_fomm(all_past).initial_state.id == "W"

    def test_convergence_on_random_chains(self):
        import random

        rng = random.Random(607)
        for _ in range(3):
            model = random_connected_chain(rng, rng.randint(3, 4))
            traj = simulate(model, SimulationConfig(steps=10_000, seed=rng.randint(0, 999)))
            est = {a.key: a.arrow_prob.mid for a in estimate_fomm(traj).arrows}
            for a in model.arrows:
                assert est.get(a.key, 0.0) == pytest.approx(a.arrow_prob.mid, abs=0.02)


def one_state_model(intervals):
    lines = ["model mdp-plus", "obs x", "act " + " ".join(a for a, _ in intervals), "state s initial trace x=[0,1]"]
    for action, (lo, hi) in intervals:
        lines.append(f"arrow s {action} s lp=[{lo},{hi}] ap=1")
    return parse_model("\n".join(lines) + "\n")


class TestPreferenceToPolicy:
    def test_royal_rain(self, rain):
        policy = preference_to_policy(rain, Preference({"w": ("rain", "dry")}))
        assert policy.of("w", "rain") == pytest.approx(0.8)

    def test_royal_dry(self, rain):
        policy = preference_to_policy(rain, Preference({"w": ("dry", "rain")}))
        assert policy.of("w", "rain") == pytest.approx(0.1)

    def test_unconstrained_is_deterministic(self):
        model = one_state_model([("a", (0, 1)), ("b", (0, 1)), ("c", (0, 1))])
        policy = preference_to_policy(model, Preference({"s": ("b", "a", "c")}))
        assert policy.of("s", "b") == 1.0
        assert policy.of("s", "a") == 0.0 and policy.of("s", "c") == 0.0

    def test_infeasible_rejected(self):
        model = one_state_model([("a", (0.3, 0.4)), ("b", (0.3, 0.4))])
        with pytest.raises(PolicyError):
            preference_to_policy(model, Preference({"s": ("a", "b")}))

    def test_lower_bound_repair_flags(self):
        model = one_state_model([("a", (0, 1)), ("b", (0.5, 0.5))])
        policy = preference_to_policy(model, Preference({"s": ("a", "b")}))
        assert policy.of("s", "a") == pytest.approx(0.5)
        assert policy.of("s", "b") == pytest.approx(0.5)
        assert "s" in policy.adjusted

    @given(st.integers(2, 4), st.booleans(), st.integers(-4, 4), st.data())
    @settings(max_examples=400, deadline=None)
    def test_always_feasible_inside_bounds(self, n, pressed, ulps, data):
        """A policy inside the bounds that sums to 1.  ``pressed`` sets the
        last upper bound so that the upper sum is 1 - 1e-9 within ``ulps``
        ulps, where the Royal algorithm gives way to the bounds (``TOL``;
        the feasibility edge is 1 - 1e-6, ``SUM_TOL``): such a preference is
        never refused either."""
        his = [data.draw(st.floats(0.0, 1.0)) for _ in range(n)]
        if pressed:
            his[-1] = (1.0 - 1e-9) - sum(his[:-1])
            for _ in range(abs(ulps)):
                his[-1] = math.nextafter(his[-1], math.copysign(math.inf, ulps))
        if not 0.0 <= his[-1] <= 1.0 or sum(his) < (1.0 - 1e-9 if pressed else 1.0):
            return  # infeasible instances are rejected elsewhere
        los = [data.draw(st.floats(0.0, h)) for h in his]
        if sum(los) > 1.0:
            return
        names = [f"a{i}" for i in range(n)]
        model = one_state_model(list(zip(names, zip(los, his))))
        policy = preference_to_policy(model, Preference({"s": tuple(names)}))
        total = sum(policy.of("s", a) for a in names)
        assert total == pytest.approx(1.0, abs=1e-9)
        for name, lo, hi in zip(names, los, his):
            assert lo - 1e-9 <= policy.of("s", name) <= hi + 1e-9

    def test_overflow_that_does_not_fit_kept(self):
        """Upper bounds that sum to 1 - 1e-9, the least upper sum the Royal
        algorithm takes (``TOL``; below it, and down to the feasibility edge
        1 - 1e-6, ``SUM_TOL``, the policy is the bounds); the overflow handed
        back from the last action is 1e-9 and a few ulps, and the first
        action, at its upper bound, has no room for it.  What is left over
        stays unassigned: the policy is both upper bounds, short of 1 by
        ``TOL``."""
        his = [0.8988382879679935, 0.10116171103200651]
        assert sum(his) >= 1.0 - 1e-9 and (1.0 - his[0]) - his[1] > 1e-9
        model = one_state_model([("a", (0.0, his[0])), ("b", (0.0, his[1]))])
        policy = preference_to_policy(model, Preference({"s": ("a", "b")}))
        assert policy.probs == {("s", "a"): his[0], ("s", "b"): his[1]} and policy.adjusted == {"s"}
        assert 1.0 - sum(policy.probs.values()) == 9.999999717180685e-10


#: agents that ``validate`` admits only within its slack, 1e-6: upper bounds
#: that sum to 1 - 5e-7, lower bounds that sum to 1 + 5e-7
SLACK_AGENTS = {
    "upper sum short": ([("a", (0.0, 0.4999995)), ("b", (0.0, 0.5))], {"a": 0.4999995, "b": 0.5}),
    "lower sum over": ([("a", (0.5000005, 1.0)), ("b", (0.5, 1.0))], {"a": 0.5000005, "b": 0.5}),
}


def slack_agent_model(intervals):
    lines = ["model mdp-plus", "obs x", "act a b", "state s initial trace x=1"]
    lines += [f"arrow s {action} s lp=[{lo},{hi}] ap=1" for action, (lo, hi) in intervals]
    return parse_model("\n".join(lines) + "\n")


class TestPreferenceFeasibilityIsValidates:
    """``preference_to_policy`` refuses an agent exactly when ``validate``
    does, and the policy it returns passes ``compose_policy``."""

    @pytest.mark.parametrize("intervals, want", list(SLACK_AGENTS.values()), ids=list(SLACK_AGENTS))
    def test_slack_agent_takes_its_bounds(self, intervals, want):
        model = slack_agent_model(intervals)
        assert validate(model).ok
        policy = preference_to_policy(model, Preference({"s": ("a", "b")}))
        assert policy.probs == {("s", a): p for a, p in want.items()} and policy.adjusted == {"s"}
        assert compose_policy(model, policy).kind == "mdp-fixed"
        config = SimulationConfig(steps=20, seed=3, preference=Preference({"s": ("b", "a")}))
        assert set(simulate(model, config).acts) == {"a", "b"}

    def test_refused_exactly_where_validate_refuses(self):
        """Groups of 2 to 4 actions whose upper bounds sum to 1 - eps or lower
        bounds to 1 + eps, eps at and around the slack, in any ranking."""
        rng = random.Random(24)
        seen = Counter()
        for _ in range(1500):
            n = rng.randint(2, 4)
            eps = rng.choice((1e-6, 5e-7, 0.0, rng.uniform(0.0, 2e-6)))
            weights = [rng.random() for _ in range(n)]
            if rng.random() < 0.5:
                his = [w / sum(weights) * (1.0 - eps) for w in weights]
                los = [h * rng.choice((0.0, rng.random())) for h in his]
            else:
                los = [w / sum(weights) * (1.0 + eps) for w in weights]
                his = [min(1.0, lo + rng.choice((0.0, rng.random()))) for lo in los]
            names = [f"a{i}" for i in range(n)]
            model = one_state_model([(a, (repr(lo), repr(hi))) for a, lo, hi in zip(names, los, his)])
            rng.shuffle(names)
            try:
                compose_policy(model, preference_to_policy(model, Preference({"s": tuple(names)})))
                composed = True
            except PolicyError:
                composed = False
            assert composed == validate(model).ok, (los, his, names)
            seen[composed] += 1
        assert seen[True] >= 500 and seen[False] >= 100, seen


def p_values_close(got, want, rel):
    """Within ``rel`` relative, or 1e-300 absolute: below that, scipy's own
    error reaches about 1e-312."""
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-300)


def assert_reports_agree(got, want, rel):
    """Equal reports but for the p-values, which are close (``p_values_close``)."""
    untested = lambda r: replace(r, tests=tuple(replace(t, p_value=t.p_value is None) for t in r.tests))
    assert untested(got) == untested(want)
    for g, w in zip(got.tests, want.tests):
        assert g.p_value is None or p_values_close(g.p_value, w.p_value, rel), (g, w)


def assert_tail_close(k, x, rel):
    """``_chi2_tail`` against Q(k/2, x/2) at 50 digits: within ``rel``
    relative, or 1e-300 absolute where Q is below 1e-300."""
    with mpmath.workdps(50):
        exact = mpmath.gammainc(mpmath.mpf(k) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
        error = abs(mpmath.mpf(_chi2_tail(k, x)) - exact)
        assert error <= (1e-300 if exact < 1e-300 else rel * exact), (k, x, float(exact))


class TestCheckMarkov:
    def test_bbww_improvable(self, m2):
        traj = simulate(m2, SimulationConfig(steps=10_000, seed=4))
        report = check_markov(traj, order=1, significance=0.01)
        assert report.improvable
        flagged = {t.symbol for t in report.flagged}
        assert flagged == {"B", "W"}
        assert all(t.p_value < 1e-6 for t in report.flagged)

    def test_coin_not_flagged(self, m1):
        traj = simulate(m1, SimulationConfig(steps=10_000, seed=2026))
        report = check_markov(traj, order=1, significance=0.01)
        assert not report.improvable
        assert not report.inconclusive

    def test_constant_inconclusive(self):
        traj = Trajectory.of([("B", None)] * 500)
        report = check_markov(traj, order=1)
        assert report.inconclusive

    def test_thin_contexts_skipped(self, m1):
        traj = simulate(m1, SimulationConfig(steps=60, seed=5))
        report = check_markov(traj, order=1, min_count=50)
        assert report.inconclusive or all(t.contexts_skipped >= 0 for t in report.tests)

    def test_p_value_equals_contingency_oracle(self):
        """Within 1e-12 relative, on tables near independence (p spread over
        (0, 1)) and far from it (p down to 0), 2 to 8 rows and columns."""
        rng = random.Random(9)
        for _ in range(1500):
            r, c = rng.randint(2, 8), rng.randint(2, 8)
            if rng.random() < 0.7:
                total = rng.choice((20, 200, 2000, 20_000))
                rw = [rng.random() + 0.05 for _ in range(r)]
                cw = [rng.random() + 0.05 for _ in range(c)]
                scale = total / sum(rw) / sum(cw)
                mean = [[scale * a * b for b in cw] for a in rw]
                table = [[max(0, round(rng.gauss(m, m**0.5))) for m in row] for row in mean]
            else:
                table = [[rng.randint(0, 5000) for _ in range(c)] for _ in range(r)]
            # check_markov's tables have no empty row or column
            for row in table:
                row[rng.randrange(c)] += 1
            for j in range(c):
                table[rng.randrange(r)][j] += 1
            assert p_values_close(_chi2_p_value(table), contingency_p_value(table), 1e-12), table

    def test_random_logs_equal_per_symbol_oracle(self):
        """The one-pass count equals the per-symbol rescan, p-values within
        1e-11 relative, on logs of 1 to 8 symbols and 0 to 3000 steps drawn
        from random second-order chains, some shorter than order + 2."""
        rng = random.Random(31)
        tested = 0
        for i in range(520):
            symbols = [f"s{k}" for k in range(rng.randint(1, 8))]
            nxt = {(a, b): [rng.random() ** 3 for _ in symbols] for a in symbols for b in symbols}
            n = rng.randint(0, rng.choice((6, 300, 3000) if i % 10 else (6,)))
            obs = [rng.choice(symbols) for _ in range(min(n, 2))]
            while len(obs) < n:
                obs.append(rng.choices(symbols, nxt[obs[-2], obs[-1]])[0])
            traj = Trajectory.of([(o, None) for o in obs])
            order, min_count = rng.randint(1, 4), rng.choice((1, 10, 50))
            got = check_markov(traj, order, min_count=min_count)
            want = check_markov_by_contingency(traj, order, min_count=min_count)
            assert_reports_agree(got, want, 1e-11)
            tested += sum(t.p_value is not None for t in got.tests)
        assert tested > 500

    def test_order_below_one_refused(self):
        traj = Trajectory.of([("a", None), ("b", None)] * 5)
        for order in (0, -1):
            with pytest.raises(ModelError, match=f"^Markov check order must be 1 or more, got {order}$"):
                check_markov(traj, order)

    @pytest.mark.parametrize("name", ["m1_coin", "m2_bbww", "cycle3", "daynight", "fig3"])
    def test_shipped_walks_equal_contingency_oracle(self, name):
        model = load_model(name)
        for seed in (1, 41):
            traj = simulate(model, SimulationConfig(steps=3000, seed=seed))
            for order in (1, 2, 3):
                for min_count in (10, 50):
                    got = check_markov(traj, order, min_count=min_count)
                    want = check_markov_by_contingency(traj, order, min_count=min_count)
                    assert_reports_agree(got, want, 1e-11)

    @pytest.mark.parametrize("significance", ["0.01", None, [0.01]], ids=["str", "None", "list"])
    def test_non_number_significance_refused(self, significance):
        traj = Trajectory.of([("a", None), ("b", None)] * 5)
        with pytest.raises(ModelError, match=f"significance that is a number, got {re.escape(repr(significance))}"):
            check_markov(traj, significance=significance)

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 49), x=st.one_of(st.floats(0, 1600), st.floats(0, 40).map(math.exp)))
    def test_tail_equals_50_digit_reference_small_k(self, k, x):
        """Every table of up to 8 x 8 has k ≤ 49: within 1e-14 relative."""
        assert_tail_close(k, x, 1e-14)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 10_000), x=st.one_of(st.floats(0, 30_000), st.floats(0.5, 1.5)), scaled=st.booleans())
    def test_tail_equals_50_digit_reference_large_k(self, k, x, scaled):
        """Up to 10 000 degrees of freedom and x up to 30 000, half the draws
        near the mean k, where the tail is neither 0 nor 1: within 1e-11."""
        assert_tail_close(k, x * k if scaled else x, 1e-11)

    def test_tail_at_its_edges(self):
        """x = 0, both sides of the switch to a scaled e^-h (x = 1416), and
        tails that underflow."""
        for k in (1, 2, 3, 48, 49, 9999, 10_000):
            assert _chi2_tail(k, 0.0) == 1.0
            for x in (5e-324, 1e-300, 1e-8, 1415.9, 1416.0, 1416.1, 1500.0, 3e4, 1e6):
                assert_tail_close(k, x, 1e-11 if k > 49 else 1e-14)


RAIN = load_model("rain")

#: each library count, cap, window, budget and seed, as a call on a model and the value
COUNTS = {
    "exact_future depth": exact_future,
    "enumerate_future depth": enumerate_future,
    "enumerate_past depth": enumerate_past,
    "belief_determinize depth": belief_determinize,
    "minimal_model_parts depth": minimal_model_parts,
    "simulate steps": lambda m, n: simulate(m, SimulationConfig(n, 1)),
    "simulate_events steps": lambda m, n: simulate_events(m, SimulationConfig(n, 1)),
    "simulate_journeys journeys": lambda m, n: simulate_journeys(m, n, 1),
    "exact_future cap": lambda m, n: exact_future(m, 1, cap=n),
    "enumerate_future cap": lambda m, n: enumerate_future(m, 1, cap=n),
    "enumerate_past cap": lambda m, n: enumerate_past(m, 1, cap=n),
    "belief_determinize cap": lambda m, n: belief_determinize(m, 1, cap=n),
    "check_markov order": lambda m, n: check_markov(simulate(m, SimulationConfig(20, 1)), n),
    "check_markov min_count": lambda m, n: check_markov(simulate(m, SimulationConfig(20, 1)), min_count=n),
    "detect_indirect window": lambda m, n: detect_indirect(simulate(m, SimulationConfig(20, 1)), n, 0.5),
    "invert_mdp_plus vertex budget": lambda m, n: invert_mdp_plus(RAIN, "vertex", n),
    "invert_mdp_plus monte-carlo budget": lambda m, n: invert_mdp_plus(RAIN, "monte-carlo", n, 1),
    "simulate seed": lambda m, n: simulate(m, SimulationConfig(3, n)),
    "monte_carlo_invert seed": lambda m, n: monte_carlo_invert(m, 10, n),
    "invert_mdp_plus monte-carlo seed": lambda m, n: invert_mdp_plus(RAIN, "monte-carlo", 2, n),
    "CharFn past_len": lambda m, n: CharFn("e", "obs-match", n, 1, obs="a"),
    "CharFn future_len": lambda m, n: CharFn("e", "obs-match", 0, n, obs="a"),
}

#: per row of ``COUNTS``, the name its refusals give and its least value
LEAST = {
    "exact_future depth": ("future enumeration depth", 0),
    "enumerate_future depth": ("future enumeration depth", 0),
    "enumerate_past depth": ("future enumeration depth", 0),
    "belief_determinize depth": ("belief determinization depth", 0),
    "minimal_model_parts depth": ("minimal model depth", 1),
    "simulate steps": ("walk step count", 0),
    "simulate_events steps": ("walk step count", 0),
    "simulate_journeys journeys": ("journey count", 1),
    "exact_future cap": ("future enumeration cap", 0),
    "enumerate_future cap": ("future enumeration cap", 0),
    "enumerate_past cap": ("future enumeration cap", 0),
    "belief_determinize cap": ("belief determinization cap", 0),
    "check_markov order": ("Markov check order", 1),
    "check_markov min_count": ("Markov check minimum count", 0),
    "detect_indirect window": ("indirect detection window", 1),
    "invert_mdp_plus vertex budget": ("interval inversion budget", 0),
    "invert_mdp_plus monte-carlo budget": ("interval inversion budget", 0),
    "simulate seed": ("the walk seed", 0),
    "monte_carlo_invert seed": ("journey simulation seed", 0),
    "invert_mdp_plus monte-carlo seed": ("monte-carlo interval inversion seed", 0),
    "CharFn past_len": ("charfn e: past_len", 0),
    "CharFn future_len": ("charfn e: future_len", 0),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("call", list(COUNTS.values()), ids=list(COUNTS))
def test_non_integer_count_refused(m1, call, value):
    with pytest.raises(ModelError, match=f"must be an integer, got {value!r}$"):
        call(m1, value)
    call(m1, 2)


@pytest.mark.parametrize("value", [True, False], ids=repr)
@pytest.mark.parametrize("call", list(COUNTS.values()), ids=list(COUNTS))
def test_bool_count_refused(m1, call, value):
    """A bool is not a count, a seed or a budget; a numpy integer is."""
    with pytest.raises(ModelError, match=f"must be an integer, got {value!r}$"):
        call(m1, value)
    call(m1, np.int64(2))


@pytest.mark.parametrize("row", list(COUNTS))
def test_count_below_its_least_refused(m1, row):
    """One text for every count of the library, naming it, its least value
    and the value given."""
    what, least = LEAST[row]
    with pytest.raises(ModelError) as err:
        COUNTS[row](m1, least - 1)
    assert str(err.value) == f"{what} must be {least} or more, got {least - 1}"
