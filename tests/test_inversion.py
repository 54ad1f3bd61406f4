"""inversion: journey statistics, analytic/Monte-Carlo/interval inversion."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import helpers
import stochworld
import stochworld.inversion as inversion

from stochworld import (
    JourneyError,
    ModelError,
    Policy,
    PolicyError,
    ProbInterval,
    WhitePeakError,
    find_black_hole,
    invert_chain,
    invert_mdp_fixed,
    invert_mdp_plus,
    journey_statistics,
    monte_carlo_invert,
    parse_model,
    serialize_model,
    simulate_journeys,
    validate,
)

from stochworld.cli import main
from stochworld.core import SUM_TOL, replace
from stochworld.format import fmt_num
from stochworld.inversion import _reverse_from_counts

from genmodels import random_model
from helpers import (
    ArrowIndex,
    chain_model,
    invert_mdp_plus_by_models,
    journey_statistics_by_loops,
    load_model,
    random_connected_chain,
    random_flow_model,
    reverse_by_branches,
    simulate_journeys_by_rounds,
)


@pytest.fixture(scope="module")
def ab_chain():
    # A -> B surely; B returns to A or loops, 50/50
    return chain_model({"A": {"B": 1.0}, "B": {"A": 0.5, "B": 0.5}}, initial="A")


# the outgoing sum of b is 0.75, so the flow system is refused
LEAKY = (
    "model hmm\nobs x\nstate a initial trace x=1\nstate b trace x=1\n"
    "arrow a true b ap=1\narrow b true a ap=0.5\narrow b true b ap=0.25\n"
)


def arrow_prob(model, src, dst, label="true"):
    for a in model.arrows:
        if a.key == (src, label, dst):
            return a.arrow_prob.mid
    return 0.0


class TestJourneyStatistics:
    def test_chain_flow_solution(self, ab_chain):
        stats = journey_statistics(ab_chain)
        # v(B) solves v = 1 + 0.5 v, so 2; frozen from the hand calculation
        assert stats.visit_counts == pytest.approx({"A": 1.0, "B": 2.0})
        assert stats.arrow_counts[("A", "true", "B")] == pytest.approx(1.0)
        assert stats.arrow_counts[("B", "true", "B")] == pytest.approx(1.0)
        assert stats.arrow_counts[("B", "true", "A")] == pytest.approx(1.0)
        assert stats.return_count == pytest.approx(1.0)

    def test_chain_against_monte_carlo(self, ab_chain):
        stats = journey_statistics(ab_chain)
        empirical = simulate_journeys(ab_chain, 100_000, seed=17)
        for key, expected in stats.arrow_counts.items():
            assert empirical.arrow_counts[key] == pytest.approx(expected, abs=0.02)

    def test_three_cycle_counts(self, cycle3):
        stats = journey_statistics(cycle3)
        assert all(c == pytest.approx(1.0) for c in stats.arrow_counts.values())

    def test_initial_into_black_hole(self):
        model = chain_model({"s0": {"z": 1.0}, "z": {"z": 1.0}}, initial="s0")
        stats = journey_statistics(model)
        assert stats.return_count == pytest.approx(0.0)
        assert stats.absorption_counts == pytest.approx({"z": 1.0})

    def test_flow_conservation(self):
        rng = random.Random(2024)
        for _ in range(15):
            model = random_connected_chain(rng, rng.randint(3, 8))
            stats = journey_statistics(model)
            s0 = model.initial_state.id
            for s in model.states:
                if s.id == s0:
                    continue
                inbound = sum(
                    c for (src, _, dst), c in stats.arrow_counts.items() if dst == s.id
                )
                outbound = sum(
                    c for (src, _, dst), c in stats.arrow_counts.items() if src == s.id
                )
                assert inbound == pytest.approx(outbound, abs=1e-9)

    def test_interval_model_rejected(self, rain):
        with pytest.raises(JourneyError):
            journey_statistics(rain)

    def test_nonterminating_deficit(self):
        with pytest.raises(JourneyError):
            journey_statistics(parse_model(LEAKY))


    def test_equals_loop_oracle(self):
        """The flow system built from the compiled view and solved in floats
        gives the loop-built exact solution's keys in the same order, every
        count within 1e-13 of it, and its refusals, on chains and on composed
        mdp-fixed models with rounding sums, black holes and white peaks."""
        rng = random.Random(20261018)
        seen: Counter = Counter()
        for i in range(1000):
            model = random_flow_model(rng)
            want = _flow_values(journey_statistics_by_loops, model)
            _assert_flow_close(_flow_values(journey_statistics, model), want, i)
            solved = not isinstance(want[0], type)
            seen[model.kind] += solved
            seen["refused"] += not solved
            seen["absorbed"] += solved and bool(want[3])
            seen["white peak"] += solved and len(want[0]) + len(want[3]) < len(model.states)
        assert seen["fomm"] + seen["hmm"] >= 300 and seen["mdp-fixed"] >= 200, seen
        for feature in ("refused", "absorbed", "white peak"):
            assert seen[feature] >= 30, seen

    @pytest.mark.parametrize(
        "cut, seed, systems, unknowns, lapack_least",
        [(8, 2029, 24, (40, 85), 20), (32, 7, 3, (110, 130), 3)],
        ids=["cut 8", "shipped cut"],
    )
    def test_mixed_path_equals_loop_oracle(self, monkeypatch, cut, seed, systems, unknowns, lapack_least):
        """Sparse strongly connected chains, about three arrows per state: the
        reduction censors the cheap states and LAPACK solves the rest, and
        every count is within 1e-13 of the exact solution.  A cut of 8 makes
        chains of 40-85 unknowns leave a remainder; at the shipped cut, 32,
        the first does at about 95 unknowns, and chains of 110-130 leave 30
        to 50, where the exact oracle takes most of a second each."""
        dense = stochworld._dense_solve
        lapack_calls = []
        monkeypatch.setattr(stochworld, "_dense_solve", lambda *system: lapack_calls.append(system[0]) or dense(*system))
        assert inversion._ELIMINATION_MAX == 32
        monkeypatch.setattr(inversion, "_ELIMINATION_MAX", cut)
        rng = random.Random(seed)
        for i in range(systems):
            text = serialize_model(random_connected_chain(rng, rng.randint(unknowns[0] + 1, unknowns[1] + 1), extra=4))
            want = _flow_values(journey_statistics_by_loops, parse_model(text))
            _assert_flow_close(_flow_values(journey_statistics, parse_model(text)), want, i)
        assert len(lapack_calls) >= lapack_least and all(lapack_calls), lapack_calls

    @pytest.mark.parametrize("unknowns", [32, 33])
    def test_both_solvers_at_the_cut(self, monkeypatch, unknowns):
        """Chains of 32 unknowns, which the reduction always finishes, and of
        33, which it finishes as soon as a cheap step leaves 32: as shipped
        no system reaches LAPACK.  At a cut of 0 the reduction stops at the
        first step that updates an entry and LAPACK solves the rest; at 1000
        it never stops.  Each path's counts are within 1e-13 of the exact
        ones and of the others'."""
        dense = stochworld._dense_solve
        lapack_calls = []
        monkeypatch.setattr(stochworld, "_dense_solve", lambda *system: lapack_calls.append(1) or dense(*system))
        shipped = inversion._ELIMINATION_MAX
        assert shipped == 32
        rng = random.Random(unknowns)
        for _ in range(3):
            text = serialize_model(random_connected_chain(rng, unknowns + 1))
            want = _flow_values(journey_statistics_by_loops, parse_model(text))
            solved = {}
            for cut in (shipped, 0, 1000):  # as shipped, the most to LAPACK, none to LAPACK
                monkeypatch.setattr(inversion, "_ELIMINATION_MAX", cut)
                lapack_calls.clear()
                solved[cut] = _flow_values(journey_statistics, parse_model(text))
                assert lapack_calls == [1] * (cut == 0), cut
                _assert_flow_close(solved[cut], want, cut)
            _assert_flow_close(solved[0], solved[1000], "LAPACK against the reduction")

    @pytest.mark.parametrize("cut", [32, 0])
    def test_zero_pivot_refused(self, monkeypatch, cut):
        """b loops on itself with probability 1 and returns with 1e-7, a sum
        ``validate`` admits: its column of I - Q^T is zero.  Or b and c swap
        surely and c returns with 1e-7: censoring b leaves c a zero pivot.
        Both solvers refuse, as the exact oracle does."""
        monkeypatch.setattr(inversion, "_ELIMINATION_MAX", cut)
        head = "model hmm\nobs x\nstate a initial trace x=1\nstate b trace x=1\n"
        for text in (
            head + "arrow a true b ap=1\narrow b true b ap=1\narrow b true a ap=1e-7\n",
            head + "state c trace x=1\narrow a true b ap=1\narrow b true c ap=1\narrow c true b ap=1\narrow c true a ap=1e-7\n",
        ):
            model = parse_model(text)
            want = (JourneyError, "singular flow system: the visit counts are unbounded")
            assert _flow_values(journey_statistics_by_loops, model) == want
            assert _flow_values(journey_statistics, model) == want


class TestSimulateJourneys:
    def test_equals_round_oracle(self):
        """One arrow count per round, and the arrivals it makes, give the
        per-round visit, return and absorption counts bit for bit, in the
        same order, and the same refusals."""
        rng = random.Random(20261020)
        seen: Counter = Counter()
        for i in range(320):
            model = random_flow_model(rng)
            for journeys in (1, 50, 500):
                seed = rng.randrange(2**31)
                want = _flow_outcome(lambda m: simulate_journeys_by_rounds(m, journeys, seed), model)
                assert _flow_outcome(lambda m: simulate_journeys(m, journeys, seed), model) == want, (i, journeys)
                solved = not isinstance(want[0], type)
                seen["solved"] += solved
                seen["refused"] += not solved
                seen["absorbed"] += solved and bool(want[3])
        assert seen["solved"] >= 450, seen
        for feature in ("refused", "absorbed"):
            assert seen[feature] >= 30, seen


def _flow_outcome(solve, model):
    """Counts as (key, float.hex) lists in their order, or the refusal."""
    try:
        stats = solve(model)
    except JourneyError as exc:
        return type(exc), str(exc)
    bits = lambda counts: [(k, float(v).hex()) for k, v in counts.items()]
    return (
        bits(stats.visit_counts),
        bits(stats.arrow_counts),
        float(stats.return_count).hex(),
        bits(stats.absorption_counts),
    )


def _flow_values(solve, model):
    """Visit, arrow, return and absorption counts as (key, count) lists in
    their order, or the refusal."""
    try:
        stats = solve(model)
    except JourneyError as exc:
        return type(exc), str(exc)
    return (
        list(stats.visit_counts.items()),
        list(stats.arrow_counts.items()),
        [("return", stats.return_count)],
        list(stats.absorption_counts.items()),
    )


def _assert_flow_close(got, want, tag):
    """The same refusal, or the same keys in the same order, each count
    within 1e-13 of ``want``'s, relative to it (both read exactly)."""
    if isinstance(want[0], type):
        assert got == want, tag
        return
    assert not isinstance(got[0], type), (tag, got)
    for g, w in zip(got, want):
        assert [k for k, _ in g] == [k for k, _ in w], tag
        for (k, gv), (_, wv) in zip(g, w):
            assert abs(Fraction(gv) - Fraction(wv)) <= abs(Fraction(wv)) * Fraction(1, 10**13), (tag, k, gv, wv)


def _model_bits(model):
    """A model's arrows in order, every bound as float.hex, and its meta."""
    bounds = lambda iv: (iv.lo.hex(), iv.hi.hex())
    return [(a.key, bounds(a.label_prob), bounds(a.arrow_prob)) for a in model.arrows], model.meta


class TestFlowMemo:
    """Each model's flow system is solved once; callers get copies."""

    def test_second_calls_equal_the_first_bit_for_bit(self):
        rng = random.Random(1318)
        for _ in range(40):
            model = random_connected_chain(rng, rng.randint(1, 9))
            stats = _flow_outcome(journey_statistics, model)
            inverse = _model_bits(invert_chain(model))
            assert _flow_outcome(journey_statistics, model) == stats
            assert _model_bits(invert_chain(model)) == inverse

    def test_mutated_result_does_not_reach_the_memo(self):
        chain = {"A": {"B": 1.0}, "B": {"A": 0.5, "B": 0.5}}
        model = chain_model(chain, initial="A")
        want = _flow_outcome(journey_statistics, model)
        stats = journey_statistics(model)
        stats.visit_counts.clear()
        stats.arrow_counts[("A", "true", "B")] = 7.0
        stats.absorption_counts["B"] = 1.0
        assert _flow_outcome(journey_statistics, model) == want
        assert _model_bits(invert_chain(model)) == _model_bits(invert_chain(chain_model(chain, initial="A")))

    @pytest.mark.parametrize("refused", ["rain", "leaky"])
    def test_refusal_raised_on_every_call(self, refused):
        model = load_model("rain") if refused == "rain" else parse_model(LEAKY)
        for _ in range(3):
            with pytest.raises(JourneyError):
                journey_statistics(model)
        assert model.compiled.journeys is None

    def test_white_peak_refused_after_a_solve(self):
        model = load_model("fig3")
        journey_statistics(model)  # the flow exists; the inverse still has no answer
        for _ in range(3):
            with pytest.raises(WhitePeakError):
                invert_chain(model)

    def test_statistics_then_inverse_equals_a_fresh_inverse(self):
        rng = random.Random(1319)
        texts = [serialize_model(load_model(name)) for name in ("m1_coin", "m2_bbww", "cycle3")]
        texts += [serialize_model(random_connected_chain(rng, rng.randint(2, 9))) for _ in range(20)]
        for text in texts:
            model = parse_model(text)
            journey_statistics(model)
            assert _model_bits(invert_chain(model)) == _model_bits(invert_chain(parse_model(text)))


class TestReverseFromCounts:
    def test_equals_branch_oracle(self):
        """The one-pass reversal gives the two-branch one's model bit for
        bit, from solved, sampled and arbitrary counts, on chains and
        composed mdp-fixed models whose arrows come in shuffled order."""
        rng = random.Random(20261019)
        seen: Counter = Counter()
        for i in range(600):
            model = random_flow_model(rng)
            kinds = [model.kind] + (["mdp"] if model.single_label and rng.random() < 0.3 else [])
            sources = {"arbitrary": _arbitrary_counts(rng, model)}
            try:
                sources["solved"] = journey_statistics(model).arrow_counts
                sources["sampled"] = simulate_journeys(model, 50, i).arrow_counts
            except JourneyError:
                pass
            for source, counts in sources.items():
                for kind in kinds:
                    want = reverse_by_branches(model, counts, kind)
                    got = _reverse_from_counts(model, counts, kind)
                    assert _model_bits(got) == _model_bits(want), (i, source, kind)
                    seen[source] += 1
                    seen["uniform-inbound"] += bool(want.meta)
                    seen["zero label mass"] += kind != "fomm" and kind != "hmm" and any(
                        a.label_prob.hi <= 1e-12 for a in want.arrows
                    )
                    seen["counts out of arrow order"] += list(counts) != [a.key for a in model.arrows if a.key in counts]
        assert seen["solved"] >= 300 and seen["sampled"] >= 300 and seen["arbitrary"] >= 600, seen
        for feature in ("uniform-inbound", "zero label mass", "counts out of arrow order"):
            assert seen[feature] >= 50, seen


def _arbitrary_counts(rng, model):
    """Counts on a random subset of the arrows, some zero, in random order."""
    keys = [a.key for a in model.arrows if rng.random() < 0.7]
    rng.shuffle(keys)
    return {k: rng.choice((0.0, rng.random(), rng.random() * 1e-13)) for k in keys}


def _model_bits(model):
    """A model as plain data with every probability as float.hex."""
    bits = lambda iv: (iv.lo.hex(), iv.hi.hex())
    return (
        model.kind,
        model.obs,
        model.labels,
        [(s.id, s.initial, sorted((o, bits(p)) for o, p in s.trace.probs.items())) for s in model.states],
        [(a.key, bits(a.label_prob), bits(a.arrow_prob)) for a in model.arrows],
        model.meta,
    )


class TestInvertChain:
    def test_chain_example(self, ab_chain):
        inverse = invert_chain(ab_chain)
        assert arrow_prob(inverse, "B", "A") == pytest.approx(0.5)
        assert arrow_prob(inverse, "B", "B") == pytest.approx(0.5)
        assert arrow_prob(inverse, "A", "B") == pytest.approx(1.0)

    def test_coin_self_inverse(self, m1):
        inverse = invert_chain(m1)
        for a in m1.arrows:
            assert arrow_prob(inverse, a.target, a.source) == pytest.approx(a.arrow_prob.mid)

    def test_cycle_reverses(self, cycle3):
        inverse = invert_chain(cycle3)
        assert arrow_prob(inverse, "b", "a") == pytest.approx(1.0)
        assert arrow_prob(inverse, "c", "b") == pytest.approx(1.0)
        assert arrow_prob(inverse, "a", "c") == pytest.approx(1.0)

    def test_white_peak_rejected(self, fig3):
        with pytest.raises(WhitePeakError) as err:
            invert_chain(fig3)
        assert err.value.states == ["1"]

    def test_target_sums_to_one(self):
        rng = random.Random(31)
        for _ in range(10):
            model = random_connected_chain(rng, rng.randint(3, 8))
            inverse = invert_chain(model)
            per_state: dict = {}
            for a in inverse.arrows:
                per_state[a.source] = per_state.get(a.source, 0.0) + a.arrow_prob.mid
            for sid, total in per_state.items():
                assert total == pytest.approx(1.0, abs=1e-9), sid

    def test_double_inversion(self):
        rng = random.Random(88)
        for _ in range(10):
            model = random_connected_chain(rng, rng.randint(3, 8))
            twice = invert_chain(invert_chain(model))
            for a in model.arrows:
                assert arrow_prob(twice, a.source, a.target) == pytest.approx(
                    a.arrow_prob.mid, abs=1e-6
                )

    def test_traces_and_initial_unchanged(self, ab_chain):
        inverse = invert_chain(ab_chain)
        assert inverse.initial_state.id == "A"
        assert {s.id: s.trace for s in inverse.states} == {
            s.id: s.trace for s in ab_chain.states
        }


class TestMonteCarloInvert:
    def test_agrees_with_analytic(self, ab_chain):
        analytic = invert_chain(ab_chain)
        empirical = monte_carlo_invert(ab_chain, 100_000, seed=5)
        for a in analytic.arrows:
            assert arrow_prob(empirical, a.source, a.target) == pytest.approx(
                a.arrow_prob.mid, abs=0.01
            )

    @pytest.mark.parametrize("sample", [monte_carlo_invert, simulate_journeys])
    def test_negative_seed_refused(self, m1, sample):
        with pytest.raises(ModelError, match="^journey simulation seed must be 0 or more, got -1$"):
            sample(m1, 10, -1)

    def test_coin_close_to_itself(self, m1):
        inverse = monte_carlo_invert(m1, 10_000, seed=9)
        for a in m1.arrows:
            assert arrow_prob(inverse, a.target, a.source) == pytest.approx(
                a.arrow_prob.mid, abs=0.02
            )

    def test_deterministic_given_seed(self, ab_chain):
        one = monte_carlo_invert(ab_chain, 5_000, seed=123)
        two = monte_carlo_invert(ab_chain, 5_000, seed=123)
        assert one == two

    def test_zero_journeys(self, ab_chain):
        with pytest.raises(ModelError, match="^journey count must be 1 or more, got 0$"):
            monte_carlo_invert(ab_chain, 0, seed=1)

    def test_convergence_trend(self, ab_chain):
        analytic = invert_chain(ab_chain)

        def deviation(journeys, seed):
            empirical = monte_carlo_invert(ab_chain, journeys, seed)
            return max(
                abs(arrow_prob(empirical, a.source, a.target) - a.arrow_prob.mid)
                for a in analytic.arrows
            )

        # monotone only in expectation, so compare with slack at fixed seeds
        coarse = deviation(1_000, seed=40)
        medium = deviation(10_000, seed=40)
        fine = deviation(100_000, seed=40)
        assert medium <= coarse + 5e-3
        assert fine <= medium + 1e-3

    def test_rounded_total_takes_last_arrow(self):
        """A state of the largest out-degree whose probabilities sum just
        under 1: a draw above the sum takes the state's last arrow."""
        model = chain_model({"s": {"a": 1.0}, "a": {"a": 0.999, "s": 0.0009991}}, initial="s")
        assert validate(model).ok
        for seed in range(3):
            stats = simulate_journeys(model, 2000, seed)
            assert stats.return_count == 1.0

    def test_deep_black_hole_uniform_fallback(self):
        model = chain_model(
            {"s0": {"s0": 0.5, "b1": 0.5}, "b1": {"b2": 1.0}, "b2": {"b1": 0.5, "b2": 0.5}},
            initial="s0",
        )
        inverse = invert_chain(model)
        assert any(note.startswith("uniform-inbound") and "b2" in note for note in inverse.meta)
        # per-source sums still hold everywhere, uniform states included
        per_state: dict = {}
        for a in inverse.arrows:
            per_state[a.source] = per_state.get(a.source, 0.0) + a.arrow_prob.mid
        for total in per_state.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_past_prediction_frequencies(self, ab_chain):
        """Inverse chain vs window frequencies before returns to the start."""
        from stochworld import enumerate_past

        depth = 2
        past = enumerate_past(ab_chain, depth)
        rng = random.Random(73)
        cum = {
            s.id: [] for s in ab_chain.states
        }
        index = ArrowIndex(ab_chain)
        for sid in cum:
            acc = 0.0
            for a in sorted(index.out[sid], key=lambda x: x.key):
                acc += a.arrow_prob.mid
                cum[sid].append((acc, a.target))
        state = "A"
        history = [state]
        windows: dict = {}
        visits = 0
        for _ in range(200_000):
            u = rng.random()
            for acc, target in cum[state]:
                if u < acc:
                    state = target
                    break
            history.append(state)
            if state == "A" and len(history) > depth:
                visits += 1
                word = tuple(history[-depth - 1 : -1])
                windows[word] = windows.get(word, 0) + 1
        for dev, p in past.entries.items():
            word = tuple(o for _, o in dev)
            assert windows.get(word, 0) / visits == pytest.approx(p.mid, abs=0.02)


@pytest.fixture(scope="module")
def two_action_mdp():
    return parse_model(
        "model mdp\nobs x y\nact go stay\n"
        "state sx initial trace x=1\nstate sy trace y=1\n"
        "arrow sx go sy ap=1\narrow sx stay sx ap=1\n"
        "arrow sy go sx ap=1\narrow sy stay sy ap=1\n"
    )


class TestInvertMdpFixed:
    def test_single_action_matches_chain(self, ab_chain):
        mdp = parse_model(
            "model mdp-fixed\nobs A B\nact a\n"
            "state A initial trace A=1\nstate B trace B=1\n"
            "arrow A a B lp=1 ap=1\narrow B a A lp=1 ap=0.5\narrow B a B lp=1 ap=0.5\n"
        )
        chain_inverse = invert_chain(ab_chain)
        fixed_inverse = invert_mdp_fixed(mdp)
        for a in fixed_inverse.arrows:
            assert a.label_prob.mid == pytest.approx(1.0)
            assert a.arrow_prob.mid == pytest.approx(
                arrow_prob(chain_inverse, a.source, a.target)
            )

    def test_split_probabilities_are_consistent(self, two_action_mdp):
        policy = Policy(
            {("sx", "go"): 0.7, ("sx", "stay"): 0.3, ("sy", "go"): 0.6, ("sy", "stay"): 0.4}
        )
        inverse = invert_mdp_fixed(two_action_mdp, policy)
        assert inverse.kind == "mdp-fixed"
        label_mass: dict = {}
        arrow_mass: dict = {}
        for a in inverse.arrows:
            label_mass.setdefault(a.source, set()).add((a.label, a.label_prob.mid))
            arrow_mass[(a.source, a.label)] = (
                arrow_mass.get((a.source, a.label), 0.0) + a.arrow_prob.mid
            )
        for sid, pairs in label_mass.items():
            assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-9)
        for key, total in arrow_mass.items():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_policy_point_split(self, two_action_mdp):
        policy = Policy(
            {("sx", "go"): 1.0, ("sx", "stay"): 0.0, ("sy", "go"): 1.0, ("sy", "stay"): 0.0}
        )
        inverse = invert_mdp_fixed(two_action_mdp, policy)
        # the walk alternates sx/sy via go, so the past is all go-arrows
        assert arrow_prob(inverse, "sx", "sy", label="go") == pytest.approx(1.0)

    def test_policy_outside_interval(self, two_action_mdp):
        fixed = parse_model(
            "model mdp-fixed\nobs x\nact a b\n"
            "state s initial trace x=1\n"
            "arrow s a s lp=0.6 ap=1\narrow s b s lp=0.4 ap=1\n"
        )
        with pytest.raises(PolicyError):
            invert_mdp_fixed(fixed, Policy({("s", "a"): 0.9, ("s", "b"): 0.1}))


class TestInvertMdpPlus:
    def test_point_intervals_match_fixed(self):
        model = parse_model(
            "model mdp-plus\nobs x y\nact a\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx a sy lp=1 ap=1\narrow sy a sx lp=1 ap=0.5\narrow sy a sy lp=1 ap=0.5\n"
        )
        plus = invert_mdp_plus(model, "vertex", budget=100)
        fixed = invert_mdp_fixed(model)
        assert plus.kind == "mdp-plus"
        for a in plus.arrows:
            assert a.arrow_prob.is_point
            assert a.arrow_prob.mid == pytest.approx(
                arrow_prob(fixed, a.source, a.target, a.label)
            )

    def test_negative_seed_refused(self):
        model = parse_model(
            "model smdp\nobs x\nact a\nstate s initial trace x=1\narrow s a s lp=1 ap=[0.5,1]\n"
        )
        with pytest.raises(ModelError, match="^monte-carlo interval inversion seed must be 0 or more, got -1$"):
            invert_mdp_plus(model, "monte-carlo", budget=10, seed=-1)

    @pytest.mark.parametrize("mode", ["vertex", "monte-carlo"])
    def test_negative_budget_refused(self, rain, mode):
        with pytest.raises(ModelError, match="^interval inversion budget must be 0 or more, got -1$"):
            invert_mdp_plus(rain, mode, -1, 1)
        with pytest.raises(JourneyError, match=r"zero valid resolutions \(explored 0\)"):
            invert_mdp_plus(rain, mode, 0, 1)

    def test_smdp_contains_vertex_extremes(self):
        from itertools import product

        model = parse_model(
            "model smdp\nobs x y\nact a\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx a sx\narrow sx a sy\narrow sy a sx\narrow sy a sy\n"
        )
        plus = invert_mdp_plus(model, "vertex", budget=1_000)
        hull = {a.key: a.arrow_prob for a in plus.arrows}
        # exhaustive deterministic world resolutions, checked independently
        arrows = sorted(model.arrows, key=lambda a: a.key)
        for bits in product((0.0, 1.0), repeat=2):
            resolved = replace(
                model,
                kind="mdp-fixed",
                arrows=tuple(
                    replace(
                        a,
                        label_prob=ProbInterval.point(1.0),
                        arrow_prob=ProbInterval.point(
                            bits[0] if a.key == ("sx", "a", "sx") else
                            1 - bits[0] if a.key == ("sx", "a", "sy") else
                            bits[1] if a.key == ("sy", "a", "sx") else
                            1 - bits[1]
                        ),
                    )
                    for a in arrows
                ),
            )
            try:
                inverse = invert_mdp_fixed(resolved)
            except (WhitePeakError, JourneyError):
                continue
            for a in inverse.arrows:
                if a.key in hull:
                    iv = hull[a.key]
                    assert iv.lo - 1e-9 <= a.arrow_prob.mid <= iv.hi + 1e-9

    def test_monte_carlo_deterministic(self):
        model = parse_model(
            "model mdp-plus\nobs x y\nact a\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx a sx lp=1 ap=[0.2,0.8]\narrow sx a sy lp=1 ap=[0.2,0.8]\n"
            "arrow sy a sx lp=1 ap=[0.5,1]\narrow sy a sy lp=1 ap=[0,0.5]\n"
        )
        one = invert_mdp_plus(model, "monte-carlo", budget=50, seed=77)
        two = invert_mdp_plus(model, "monte-carlo", budget=50, seed=77)
        assert one == two
        assert "approximate" in one.meta[0]

    @pytest.mark.parametrize(
        "a, b, mode, inverse",
        [
            ("[0,0.4999997]", "[0,0.5]", ("plus-vertex",), ("0.49999985", "0.50000015")),
            ("[0,0.4999997]", "[0,0.5]", ("plus-mc", "--seed", "1", "--budget", "20"), ("0.49999985", "0.50000015")),
            ("[0.5000003,1]", "[0.5,1]", ("plus-vertex",), ("0.50000015", "0.49999985")),
            ("[0.5000003,1]", "[0.5,1]", ("plus-mc", "--seed", "1", "--budget", "20"), ("0.50000015", "0.49999985")),
            (
                "[0.2153682629917959,0.7091209691427717]",
                "[0.10753605667330744,0.2908780308572283]",
                ("plus-mc", "--seed", "1", "--budget", "20"),
                ("0.709121678264", "0.290878321736"),
            ),
        ],
        ids=[
            "vertex upper sum 1 - 3e-7",
            "mc upper sum 1 - 3e-7",
            "vertex lower sum 1 + 3e-7",
            "mc lower sum 1 + 3e-7",
            "mc upper fsum 1 - 1e-6",
        ],
    )
    def test_agent_within_validates_slack(self, capsys, tmp_path, a, b, mode, inverse):
        """An agent validate admits, within 1e-6 of a sum of 1, resolves in
        both modes; its one resolution inside the box is its corner."""
        head = "model mdp-plus\nobs x\nact a b\nstate s initial trace x=1\n"
        path = tmp_path / "slack.model"
        path.write_text(head + f"arrow s a s lp={a} ap=1\narrow s b s lp={b} ap=1\n")
        assert main(["validate", str(path)]) == 0 and capsys.readouterr() == ("ok\n", "")
        code = main(["invert", str(path), "--mode", *mode])
        want = head + f"arrow s a s lp={inverse[0]} ap=1\narrow s b s lp={inverse[1]} ap=1\n"
        assert (code, *capsys.readouterr()) == (0, want, "")

    def test_journey_check_refuses_where_validate_does(self):
        """A resolved one-state agent of 1 to 4 actions whose points sum to
        1 - eps or 1 + eps, eps at and around the slack: the journey check
        refuses it exactly where ``validate`` does."""
        rng = random.Random(29)
        seen = Counter()
        for _ in range(1500):
            n = rng.randint(1, 4)
            eps = rng.choice((1e-6, 1e-6 * (1 - 2**-40), 1e-6 * (1 + 2**-40), 0.0, rng.uniform(0.0, 2e-6)))
            weights = [rng.random() for _ in range(n)]
            sign = -1 if n == 1 else rng.choice((-1, 1))  # one action's probability cannot pass 1
            lps = [w / sum(weights) * (1.0 + sign * eps) for w in weights]
            model = parse_model(
                f"model mdp-fixed\nobs x\nact {' '.join(f'a{i}' for i in range(n))}\nstate s initial trace x=1\n"
                + "".join(f"arrow s a{i} s lp={lp!r} ap=1\n" for i, lp in enumerate(lps))
            )
            admitted = validate(model).ok
            try:
                journey_statistics(model)
                refused = False
            except JourneyError as exc:
                assert str(exc).startswith("journeys do not terminate: state s outgoing probability sum "), exc
                refused = True
            assert refused != admitted, lps
            seen["refused" if refused else "admitted"] += 1
        assert min(seen.values()) >= 250, seen

    def test_samples_lie_in_their_boxes(self):
        """Every ``plus-vertex`` vertex and every resolution ``plus-mc`` draws
        lies inside its box and fsums to 1 within ``SUM_TOL``, for agents of
        1 to 4 actions whose upper bounds sum to 1 - eps or lower bounds to
        1 + eps, eps at and around the slack, their bounds written at
        ``repr`` and at the 12 digits ``serialize_model`` writes.  A group
        has a vertex, and a draw, exactly where ``validate`` admits it."""
        rng = random.Random(28)
        seen = Counter()
        for _ in range(1500):
            n = rng.randint(1, 4)
            eps = rng.choice((1e-6, 5e-7, 0.0, rng.uniform(0.0, 2e-6)))
            weights = [rng.random() for _ in range(n)]
            if n == 1 or rng.random() < 0.5:  # one action's lower bound cannot pass 1
                his = [w / sum(weights) * (1.0 - eps) for w in weights]
                los = [h * rng.choice((0.0, rng.random())) for h in his]
            else:
                los = [w / sum(weights) * (1.0 + eps) for w in weights]
                his = [min(1.0, lo + rng.choice((0.0, rng.random()))) for lo in los]
            for number in (repr, fmt_num):
                model = parse_model(
                    f"model mdp-plus\nobs x\nact {' '.join(f'a{i}' for i in range(n))}\nstate s initial trace x=1\n"
                    + "".join(
                        f"arrow s a{i} s lp=[{number(lo)},{number(hi)}] ap=1\n" for i, (lo, hi) in enumerate(zip(los, his))
                    )
                )
                bounds = [a.label_prob for a in model.arrows]
                admitted = validate(model).ok
                vertices = inversion._simplex_box_vertices(bounds)
                assert bool(vertices) == admitted, (bounds, vertices)
                draws = [inversion._sample_simplex_box(bounds, rng) for _ in range(5)]
                assert all((x is not None) == admitted for x in draws), (bounds, draws)
                for x in vertices + [x for x in draws if x is not None]:
                    assert len(x) == n and all(b.lo <= v <= b.hi for b, v in zip(bounds, x)), (bounds, x)
                    assert 1.0 - SUM_TOL <= math.fsum(x) <= 1.0 + SUM_TOL, (bounds, x)
                seen["refused" if not admitted else "slack" if eps > 0.0 else "exact"] += 1
        assert min(seen.values()) >= 500, seen

    def test_vertices_keep_their_coordinates(self):
        """A vertex is a corner of the model's own boxes: one action's corner
        is its upper bound, not 1, and corners equal to 12 decimals merge
        without their coordinates being rounded."""
        assert inversion._simplex_box_vertices([ProbInterval(0.2, 0.9999995)]) == [(0.9999995,)]
        bounds = [ProbInterval(0.0123456789012, 0.5), ProbInterval(0.2, 0.9876543210988)]
        assert inversion._simplex_box_vertices(bounds) == [(0.0123456789012, 0.9876543210988), (0.5, 0.5)]

    def test_vertex_inverse_keeps_the_models_bounds(self, capsys, tmp_path):
        """``plus-vertex`` prints the self loop's lower bound as the model
        writes it, not rounded below it."""
        head = "model mdp-plus\nobs x y\nact a b\nstate s initial trace x=1\nstate t trace y=1\n"
        path = tmp_path / "digits.model"
        path.write_text(
            head + "arrow s a s lp=[0.0123456789012,0.5] ap=1\narrow s b t lp=[0.2,0.9876543210988] ap=1\n"
            "arrow t a s lp=1 ap=1\n"
        )
        want = head + (
            "arrow s a s lp=1 ap=[0.0123456789012,0.5]\narrow s a t lp=1 ap=[0.5,0.987654321099]\n"
            "arrow t b s lp=1 ap=1\n"
        )
        assert (main(["invert", str(path), "--mode", "plus-vertex"]), *capsys.readouterr()) == (0, want, "")

    def test_white_peak_rejected(self):
        model = parse_model(
            "model smdp\nobs x y\nact a\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx a sx\narrow sy a sx\n"
        )
        with pytest.raises(WhitePeakError):
            invert_mdp_plus(model, "vertex", budget=10)


def _plus_outcome(invert, model, mode, budget):
    """``invert``'s interval inverse as plain bits, or its refusal's type and text."""
    try:
        return _model_bits(invert(model, mode, budget, 3))
    except (JourneyError, ModelError, WhitePeakError) as exc:
        return type(exc).__name__, str(exc)


_SHORT = (
    "arrow s a s lp=[0.9999991,1] ap=0.4999991\narrow s a t lp=[0.9999991,1] ap=0.5\n"
    "arrow s b s lp=0 ap=1\narrow t a s lp=1\n"
)


def _random_plus_model(rng: random.Random):
    """An mdp-plus model of 1 to 4 states whose boxes sit around random
    distributions, often reaching 0, so that many resolutions cut an arrow:
    a white peak, a black hole or a zero label at that resolution."""
    n = rng.randint(1, 4)
    ids = [f"s{i}" for i in range(n)]

    def boxes(k):
        weights = [rng.choice((0, 1, 1, 2, 3)) for _ in range(k)]
        weights[0] += not any(weights)
        spread = rng.choice((0.0, 0.1, 0.5, 1.0))
        return [f"[{max(0.0, w / sum(weights) - spread)!r},{min(1.0, w / sum(weights) + spread)!r}]" for w in weights]

    lines = ["model mdp-plus", "obs x", "act a b c"] + [f"state {s}{' initial' * (s == 's0')} trace x=1" for s in ids]
    for s in ids:
        labels = rng.sample("abc", rng.randint(1, 3))
        for label, lp in zip(labels, boxes(len(labels))):
            targets = rng.sample(ids, rng.randint(1, n))
            lines += [f"arrow {s} {label} {t} lp={lp} ap={ap}" for t, ap in zip(targets, boxes(len(targets)))]
    return parse_model("\n".join(lines) + "\n")


class TestIntervalInversionOracle:
    """``invert_mdp_plus`` solves each resolution on the model's own tables;
    its reference builds, compiles and inverts one ``mdp-fixed`` model per
    resolution.  Both agree on every bound's bits, the resolution note and
    every refusal."""

    BUDGETS = (1, 8, 200)

    def test_generated_models(self, monkeypatch):
        cut = Counter()  # what the reference met at a resolution

        def counted(resolved):
            try:
                inverse = inversion._invert_by_flow(resolved)
            except WhitePeakError:
                cut["white peak"] += 1
                raise
            except JourneyError as exc:
                cut["sum fault" if "do not terminate" in str(exc) else str(exc)] += 1
                raise
            cut["black hole"] += bool(find_black_hole(resolved))
            return inverse

        monkeypatch.setattr(helpers, "_invert_by_flow", counted)
        rng = random.Random(31)
        models = [_random_plus_model(rng) for _ in range(16)]
        while len(models) < 40:
            model = random_model(rng)
            if model.kind == "mdp-plus":
                models.append(model)
        seen = Counter()
        for i, model in enumerate(models):
            for mode in ("vertex", "monte-carlo"):
                for budget in self.BUDGETS:
                    want = _plus_outcome(invert_mdp_plus_by_models, model, mode, budget)
                    assert _plus_outcome(invert_mdp_plus, model, mode, budget) == want, (i, mode, budget)
                    seen[want[0]] += 1  # the inverse's kind, or the refusal's type
        assert seen["mdp-plus"] >= 60 and seen["JourneyError"] >= 20 and seen["WhitePeakError"] >= 20, seen
        assert cut["white peak"] >= 20 and cut["black hole"] >= 20, cut

    HEAD = "model mdp-plus\nobs x y\nact a b\nstate s initial trace x=1\nstate t trace y=1\n"

    @pytest.mark.parametrize(
        "arrows, budget, want",
        [
            # the vertex s->t = 0 leaves t a white peak; the other is valid
            ("arrow s a s lp=1 ap=[0,1]\narrow s a t lp=1 ap=[0,1]\narrow t a s lp=1\n", 8, "over 1 explored"),
            # the vertex t->s = 0 makes t a black hole, which absorbs every journey
            ("arrow s a t lp=1\narrow t a s lp=1 ap=[0,1]\narrow t a t lp=1 ap=[0,1]\n", 8, "over 2 explored"),
            # at lp(a) = 0.9999991, beside lp(b) = 0, s's points sum to 1 - 1.8e-6, which sum_fault refuses
            (_SHORT, 8, "over 1 explored"),
            (_SHORT, 1, "zero valid resolutions (explored 1)"),
        ],
        ids=["white peak", "black hole", "sum fault", "zero valid"],
    )
    def test_resolutions_that_cut_an_arrow(self, arrows, budget, want):
        model = parse_model(self.HEAD + arrows)
        got = _plus_outcome(invert_mdp_plus, model, "vertex", budget)
        assert got == _plus_outcome(invert_mdp_plus_by_models, model, "vertex", budget)
        assert want in (got[1] if got[0] == "JourneyError" else got[-1][0]), got
        assert _plus_outcome(invert_mdp_plus, model, "monte-carlo", budget) == _plus_outcome(
            invert_mdp_plus_by_models, model, "monte-carlo", budget
        )

    def test_plus_mc_hull_is_the_same_on_every_python(self):
        """A ``plus-mc`` hull that Python 3.12's compensated ``sum`` moved by
        an ulp in two bounds (to ...72p-6 and ...6dp-2) while the sampler and
        the flow reduction summed with it.  ``ordered_sum`` adds left to right
        on every version, so these are its bits on 3.10 to 3.13."""
        model = parse_model(
            "model mdp-plus\nobs x y z\nact a0 a1 a2\n"
            "state n0 initial trace x=[0.198,0.268] y=[0.244,0.39] z=[0.366,0.534]\n"
            "state n1 trace x=[0.331,0.367] z=[0.643,0.659]\nstate n2 trace x=[0.977,1]\n"
            "state n3 trace x=[0.946,1]\nstate n4 trace y=[0.361,0.431] z=[0.405,0.803]\n"
            "state n5 trace x=[0.897,1]\n"
            "arrow n0 a2 n1 lp=[0.853,1] ap=[0.87,1]\narrow n1 a0 n2 lp=[0.089,0.477] ap=[0.995,1]\n"
            "arrow n1 a1 n2 lp=[0.626,0.65] ap=[0.029,0.133]\narrow n1 a1 n3 lp=[0.626,0.65] ap=[0.818,1]\n"
            "arrow n1 a2 n2 lp=[0.001,0.224] ap=[0.893,1]\narrow n1 a2 n5 lp=[0.001,0.224] ap=[0.001,0.172]\n"
            "arrow n2 a0 n3 lp=[0.862,1] ap=[0.915,1]\narrow n3 a0 n4 lp=[0.231,0.535] ap=[0.977,1]\n"
            "arrow n3 a2 n4 lp=[0.448,0.786] ap=[0.175,0.559]\narrow n3 a2 n5 lp=[0.448,0.786] ap=[0.528,0.738]\n"
            "arrow n4 a0 n5 lp=[0.93,1] ap=[0.984,1]\narrow n5 a1 n0 lp=[0.864,1] ap=[0.831,1]\n"
        )
        hull = {a.key: (a.label_prob.lo.hex(), a.label_prob.hi.hex()) for a in invert_mdp_plus(model, "monte-carlo", 20, 3).arrows}
        assert hull[("n2", "a2", "n1")] == ("0x1.e3f31fc79fc73p-6", "0x1.25f07a7207c15p-1")
        assert hull[("n3", "a0", "n2")] == ("0x1.7e08e7aee5a6cp-2", "0x1.cde559dbf002fp-2")
