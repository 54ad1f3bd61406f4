"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s for the PASS lines).
Everything is seeded and finishes at desk scale.
"""

import random

import pytest

from stochworld import (
    EventSet,
    Preference,
    SimulationConfig,
    canonical,
    check_markov,
    enumerate_past,
    estimate_fomm,
    event_to_fact,
    exact_future,
    invert_chain,
    journey_statistics,
    memory_bits,
    minimal_model_parts,
    monte_carlo_invert,
    parity_model,
    parse_model,
    preference_to_policy,
    serialize_model,
    simulate,
    validate,
)
from stochworld.cli import main as cli_main

from genmodels import random_model
from helpers import MODELS_DIR, ArrowIndex, chain_model, load_model, random_connected_chain, walk
from test_constructions import all_paths, follow_doubled


def ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="module")
def acceptance_chains():
    """Twenty seeded 5-8 state chains without white peaks (or black holes)."""
    rng = random.Random(987654)
    return [random_connected_chain(rng, rng.randint(5, 8)) for _ in range(20)]


def test_criterion_01_coin_estimation(m1):
    trajectory = simulate(m1, SimulationConfig(steps=10_000, seed=20260808))
    estimated = estimate_fomm(trajectory)
    assert len(estimated.arrows) == 4
    for arrow in estimated.arrows:
        assert abs(arrow.arrow_prob.mid - 0.5) <= 0.02
    ok("01 coin-world estimation")


def test_criterion_02_bbww_equivalence(m1, m2):
    coin_traj = simulate(m1, SimulationConfig(steps=10_000, seed=20260808))
    bbww_traj = simulate(m2, SimulationConfig(steps=10_000, seed=1))
    coin_est = {a.key: a.arrow_prob.mid for a in estimate_fomm(coin_traj).arrows}
    bbww_est = {a.key: a.arrow_prob.mid for a in estimate_fomm(bbww_traj).arrows}
    assert set(coin_est) == set(bbww_est)
    for key, p in bbww_est.items():
        assert abs(p - coin_est[key]) <= 0.02  # the standard chain is the same
    bbww_report = check_markov(bbww_traj, order=1, significance=0.01)
    assert bbww_report.improvable
    assert all(t.p_value < 0.01 for t in bbww_report.flagged)
    coin_report = check_markov(coin_traj, order=1, significance=0.01)
    assert not coin_report.improvable and not coin_report.inconclusive
    ok("02 BBWW equivalence-of-estimates and Markov flags")


def test_criterion_03_figure3_structure(capsys):
    code = cli_main(["analyze", str(MODELS_DIR / "fig3.model")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "white-peak: 1" in lines
    assert "black-hole: 3 4" in lines
    ok("03 Figure-3 structure report")


def test_criterion_04_inversion_oracle_agreement(acceptance_chains):
    for i, model in enumerate(acceptance_chains):
        stats = journey_statistics(model)
        s0 = model.initial_state.id
        for state in model.states:
            if state.id == s0:
                continue
            inbound = sum(c for (_, _, dst), c in stats.arrow_counts.items() if dst == state.id)
            outbound = sum(c for (src, _, _), c in stats.arrow_counts.items() if src == state.id)
            assert abs(inbound - outbound) <= 1e-9
        analytic = invert_chain(model)
        per_source: dict = {}
        for a in analytic.arrows:
            per_source[a.source] = per_source.get(a.source, 0.0) + a.arrow_prob.mid
        for total in per_source.values():
            assert abs(total - 1.0) <= 1e-9
        empirical = monte_carlo_invert(model, 100_000, seed=1000 + i)
        mc = {a.key: a.arrow_prob.mid for a in empirical.arrows}
        for a in analytic.arrows:
            assert abs(mc[a.key] - a.arrow_prob.mid) <= 0.01, (i, a.key)
    ok("04 inversion oracle agreement on 20 chains")


def _journey_windows(model, journeys, depth, seed):
    """Chained forward journeys; the observation windows just before each
    return to the start, counted with plain python (independent oracle)."""
    rng = random.Random(seed)
    index = ArrowIndex(model)
    cum = {}
    for state in model.states:
        acc = 0.0
        rows = []
        for a in sorted(index.out[state.id], key=lambda x: x.key):
            acc += a.arrow_prob.mid
            rows.append((acc, a.target))
        cum[state.id] = rows
    s0 = model.initial_state.id
    state = s0
    recent = [s0]
    counts: dict = {}
    returns = 0
    steps = 0
    while returns < journeys:
        u = rng.random()
        for acc, target in cum[state]:
            if u < acc:
                state = target
                break
        recent.append(state)
        if len(recent) > depth + 1:
            recent.pop(0)
        steps += 1
        if state == s0 and steps >= depth:
            returns += 1
            word = tuple(recent[-depth - 1 : -1])
            counts[word] = counts.get(word, 0) + 1
    return counts, returns


def test_criterion_05_past_prediction(acceptance_chains):
    depth = 3
    for i, model in enumerate(acceptance_chains):
        past = enumerate_past(model, depth)
        counts, total = _journey_windows(model, 100_000, depth, seed=4000 + i)
        seen = set()
        for dev, p in past.entries.items():
            word = tuple(o for _, o in dev)
            seen.add(word)
            assert abs(counts.get(word, 0) / total - p.mid) <= 0.02, (i, word)
        for word in counts:
            assert word in seen, (i, word)  # nothing empirically possible is missing
    ok("05 past-prediction against forward journeys")


def test_criterion_06_double_inversion(acceptance_chains):
    for model in acceptance_chains:
        twice = invert_chain(invert_chain(model))
        probs = {a.key: a.arrow_prob.mid for a in twice.arrows}
        for a in model.arrows:
            assert abs(probs[a.key] - a.arrow_prob.mid) <= 1e-6
    ok("06 double inversion returns the original")


def test_criterion_07_doubling_constructions():
    small = [load_model(n) for n in ("m1_coin", "m2_bbww", "cycle3")]
    for model in small:
        assert len(model.states) <= 4
        reference = exact_future(model, 6)
        for event_arrow in model.arrows:
            event = EventSet("e", frozenset([event_arrow]))
            parity = parity_model(model, event)
            for taken in all_paths(model, 8):
                path = follow_doubled(parity, parity.initial_state.id, taken)
                count = 0
                for t, arrow in enumerate(taken):
                    count += arrow.key == event_arrow.key
                    assert path[t + 1].endswith("''") == (count % 2 == 1)
            doubled, fact = event_to_fact(model, event)
            _, taken = walk(model, 1000, seed=7)
            path = follow_doubled(doubled, doubled.initial_state.id, taken)
            for t, arrow in enumerate(taken):
                assert (path[t + 1] in fact.states) == (arrow.key == event_arrow.key)
            assert exact_future(parity, 6) == reference
            assert exact_future(doubled, 6) == reference
    ok("07 doubling constructions (exhaustive parity, fact timing, exact futures)")


def test_criterion_08_royal_preference(rain):
    royal_rain = preference_to_policy(rain, Preference({"w": ("rain", "dry")}))
    assert royal_rain.of("w", "rain") == 0.8
    royal_dry = preference_to_policy(rain, Preference({"w": ("dry", "rain")}))
    assert abs(royal_dry.of("w", "rain") - 0.1) < 1e-12
    free = parse_model(
        "model mdp-plus\nobs x\nact a b\nstate s initial trace x=[0,1]\n"
        "arrow s a s lp=[0,1] ap=1\narrow s b s lp=[0,1] ap=1\n"
    )
    deterministic = preference_to_policy(free, Preference({"s": ("b", "a")}))
    assert deterministic.of("s", "b") == 1.0 and deterministic.of("s", "a") == 0.0
    ok("08 Royal preference 80%/10% and deterministic limit")


def test_criterion_09_memory_bits(m1, fig3, cycle3):
    rng = random.Random(55)
    fomms = [m1, fig3, cycle3] + [random_connected_chain(rng, rng.randint(2, 6)) for _ in range(5)]
    for model in fomms:
        assert validate(model).ok
        assert memory_bits(model) == 0
    hmm = chain_model(
        {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"d": 1.0}, "d": {"a": 1.0}},
        initial="a",
        obs_of={"a": "red", "b": "red", "c": "red", "d": "blue"},
    )
    assert memory_bits(hmm) == 2
    ok("09 memory bits: zero for FOMMs, two for 3-red/1-blue")


def test_criterion_10_minimal_model_pipeline(m1, cycle3):
    for model in (m1, cycle3):
        parts = minimal_model_parts(model, 12)
        forward = exact_future(parts.forward_part, 6)
        original = exact_future(model, 6)
        assert set(forward) == set(original)
        for word, p in original.items():
            assert abs(float(forward[word] - p)) <= 1e-6
        backward = exact_future(parts.backward_part, 6)
        inverse = exact_future(invert_chain(model), 6)
        assert set(backward) == set(inverse)
        for word, p in inverse.items():
            assert abs(float(backward[word] - p)) <= 1e-6
        now = parts.joined.initial_state.id
        inbound = {a.source for a in parts.joined.arrows if a.target == now}
        assert all(src.startswith("past:") for src in inbound)
        fwd_states = {s.id for s in parts.joined.states if s.id.startswith("fut:")}
        assert not (inbound & fwd_states)
    ok("10 minimal-model pipeline on coin and 3-cycle")


def test_criterion_11_ed_runtime(house, daynight):
    from stochworld import EventOccurrence, EventStream, ProbInterval, Trajectory, detect_indirect, phenomenon_validity, track

    # house-world lamp recall, deterministic simulation
    lamps = {"r1": "on", "r2": "off", "r3": "on"}
    rooms = ["r1", "r2", "r3"] * 5
    obs = [lamps[r] for r in rooms]
    moves = EventStream(
        tuple(EventOccurrence(t, "move", ProbInterval.point(1.0)) for t in range(len(rooms)))
    )
    full = Trajectory.of([(o, "move") for o in obs])
    result = track(house, full, moves)
    assert [b.top() for b in result.beliefs] == rooms
    checks = hits = 0
    for t in range(3, len(rooms)):
        prefix = Trajectory.of([(o, "move") for o in obs[:t]])
        upto = EventStream(tuple(o for o in moves.occurrences if o.time < t))
        sofar = track(house, prefix, upto)
        if rooms[t] in sofar.memory:
            checks += 1
            hits += sofar.memory[rooms[t]] == obs[t]
    assert checks > 0 and hits == checks

    # day/night validity on an Earth + Mars trajectory
    glare = parse_model(
        (MODELS_DIR / "daynight.model").read_text().replace("obs sun dark", "obs sun dark glare")
    )
    earth = ["sun", "dark"] * 12
    mars = ["glare"] * 12
    events = EventStream(
        tuple(
            EventOccurrence(t, "sunset" if t % 2 == 0 else "sunrise", ProbInterval.point(1.0))
            for t in range(23)
        )
    )
    spans = phenomenon_validity(glare, Trajectory.of([(o, None) for o in earth + mars]), events)
    assert len(spans) == 1
    assert spans[0].start == 0 and abs(spans[0].end - 24) <= 1

    # indirect detection: localized change point, quiet stationary stream
    rng = random.Random(3)
    shifted = ["d" if rng.random() < 0.9 else "n" for _ in range(200)]
    shifted += ["d" if rng.random() < 0.1 else "n" for _ in range(200)]
    stream, _ = detect_indirect(Trajectory.of([(o, None) for o in shifted]), 50, 0.5)
    assert len(stream) == 1 and abs(stream.occurrences[0].time - 200) <= 50
    stationary = ["a" if rng.random() < 0.5 else "b" for _ in range(400)]
    quiet, _ = detect_indirect(Trajectory.of([(o, None) for o in stationary]), 50, 0.5)
    assert len(quiet) == 0
    ok("11 ED runtime: lamp recall, the Earth segment, change points")


def test_criterion_12_format_round_trip():
    from stochworld import parse_model as parse

    rng = random.Random(314159)
    for i in range(1000):
        model = random_model(rng)
        text = serialize_model(model)
        parsed = parse(text)
        assert parsed == canonical(model), i
        again = serialize_model(parsed)
        assert again == text, i  # byte stability
    ok("12 format round-trip over 1000 random models")
