"""ed-runtime: characteristic functions, detection, tracking, validity,
derived events and hierarchical composition."""

import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stochworld import (
    Arrow,
    Belief,
    CharFn,
    EventOccurrence,
    EventStream,
    FormatError,
    Model,
    ModelError,
    ProbInterval,
    SimulationConfig,
    State,
    TraceSpec,
    TrackingError,
    Trajectory,
    ValiditySpan,
    derived_events,
    detect_direct,
    detect_indirect,
    parse_charfns,
    parse_event_stream,
    parse_model,
    phenomenon_validity,
    serialize_event_stream,
    simulate_events,
    track,
)
from stochworld.format import fmt_num

from helpers import (
    ArrowIndex,
    derived_by_states,
    detect_by_steps,
    indirect_by_counter,
    parse_event_stream_by_lines,
    random_walk_model,
    track_by_steps,
)


def traj_of(obs, acts=None):
    acts = acts or [None] * len(obs)
    return Trajectory.of(list(zip(obs, acts)))


def stream_of(*pairs):
    return EventStream(
        tuple(EventOccurrence(t, label, ProbInterval.point(1.0), "direct") for t, label in pairs)
    )


class TestCharFns:
    def test_action_match_reproduces_log(self):
        acts = ["go", "stay", "go", "go", "stay"]
        traj = traj_of(["x"] * 5, acts)
        stream = detect_direct(traj, [CharFn("go", "action-match", action="go")])
        assert [o.time for o in stream.occurrences] == [t for t, a in enumerate(acts) if a == "go"]

    def test_obs_match_constant(self):
        traj = traj_of(["x"] * 4)
        stream = detect_direct(traj, [CharFn("seen", "obs-match", obs="x")])
        assert [o.time for o in stream.occurrences] == [0, 1, 2, 3]

    def test_missing_window_gives_no_knowledge(self):
        fn = CharFn("pair", "pattern", past_len=0, future_len=2, future_pattern="x,x")
        traj = traj_of(["x", "x", "x"])
        assert fn.evaluate(traj, 2) == ProbInterval(0.0, 1.0)  # future sticks out
        stream = detect_direct(traj, [fn])
        assert [o.time for o in stream.occurrences] == [0, 1]

    def test_longer_window_wins(self):
        short = CharFn("e", "obs-match", obs="x")
        long = CharFn("e", "pattern", past_len=0, future_len=2, future_pattern="x,y")
        traj = traj_of(["x", "x", "x"])
        assert tuple(o.label for o in detect_direct(traj, [short]).occurrences) == ("e", "e", "e")
        merged = detect_direct(traj, [short, long])
        assert len(merged) == 0  # x is never followed by y; the longer view vetoes

    def test_past_window_pattern(self):
        fn = CharFn("after-xy", "pattern", past_len=2, future_len=0, past_pattern="x,y")
        traj = traj_of(["x", "y", "z", "x", "y", "w"])
        stream = detect_direct(traj, [fn])
        assert [o.time for o in stream.occurrences] == [2, 5]

    def test_infinite_thresholds_keep_their_meaning_and_nan_is_refused(self):
        traj = traj_of(["x", "y", "x"])
        fns = [CharFn("seen", "obs-match", obs="x")]
        assert [o.time for o in detect_direct(traj, fns, float("-inf")).occurrences] == [0, 2]
        assert len(detect_direct(traj, fns, float("inf"))) == 0
        with pytest.raises(ModelError, match="threshold that is a number, got nan"):
            detect_direct(traj, fns, float("nan"))

    @pytest.mark.parametrize("threshold", ["3", None])
    def test_non_number_threshold_refused(self, threshold):
        # math.isnan let these escape as a built-in TypeError
        traj = traj_of(["x", "y", "x"])
        fns = [CharFn("seen", "obs-match", obs="x")]
        with pytest.raises(ModelError, match=re.escape(f"threshold that is a number, got {threshold!r}")):
            detect_direct(traj, fns, threshold)

    def test_fields_checked_at_construction(self):
        # a negative window used to detect nothing, and a bad regex escaped as re.error
        traj = traj_of(["a", "b", "a"])
        with pytest.raises(ModelError, match="past_len"):
            detect_direct(traj, [CharFn("e", "pattern", -2, 1, future_pattern="a")])
        with pytest.raises(ModelError, match="future_pattern"):
            detect_direct(traj, [CharFn("e", "pattern", 0, 1, future_pattern="(")])
        stream = detect_direct(traj, [CharFn("e", "pattern", 0, 1, future_pattern="a")])
        assert [o.time for o in stream.occurrences] == [0, 2]

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"kind": "regex"}, "kind"),
            ({"kind": "pattern", "future_len": -1, "future_pattern": "a"}, "future_len"),
            ({"kind": "pattern", "past_len": 1.5, "future_pattern": "a"}, "past_len"),
            ({"kind": "table", "past_len": "2"}, "past_len"),
            ({"kind": "pattern", "past_pattern": "[a", "future_pattern": "a"}, "past_pattern"),
        ],
    )
    def test_bad_field_refused(self, fields, named):
        with pytest.raises(ModelError, match=named):
            CharFn("e", **fields)

    def test_table_charfn(self):
        table = {
            (("x",), ("y",)): ProbInterval.point(1.0),
            (("y",), ("x",)): ProbInterval.point(0.0),
        }
        fn = CharFn("flip", "table", past_len=1, future_len=1, table=table)
        traj = traj_of(["x", "y", "x"])
        values = [fn.evaluate(traj, t) for t in range(3)]
        assert values[0] == ProbInterval(0.0, 1.0)  # no past window at t=0
        assert values[1] == ProbInterval.point(1.0)
        assert values[2] == ProbInterval.point(0.0)

    def test_table_rows_from_referenced_file(self, tmp_path):
        (tmp_path / "rows.tbl").write_text("x y 1\ny x [0,0.5]\n")
        fns = parse_charfns("charfn tab table rows.tbl\n", base_dir=tmp_path)
        (fn,) = fns
        assert fn.kind == "table" and fn.past_len == 1 and fn.future_len == 1
        assert fn.table[(("x",), ("y",))] == ProbInterval.point(1.0)

    def test_charfn_file_round_trip(self):
        text = (
            "charfn go action=go\n"
            "charfn seen obs=x\n"
            "charfn pair pattern future=x,y flen=2\n"
            "charfn tab table plen=1 flen=1\n"
            "row x y 1\n"
            "row y x [0,0.5]\n"
        )
        fns = parse_charfns(text)
        kinds = [(f.name, f.kind) for f in fns]
        assert kinds == [
            ("go", "action-match"),
            ("seen", "obs-match"),
            ("pair", "pattern"),
            ("tab", "table"),
        ]
        assert fns[3].table[(("y",), ("x",))] == ProbInterval(0.0, 0.5)


def run_python(script: str, **env) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports this
    checkout's package."""
    import stochworld

    src = str(Path(stochworld.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def indirect_by_recount(obs, window: int, threshold: float):
    """Reference scan: both windows recounted at every step, distances as
    exact fractions.  Returns the boundary times and their lower confidences."""
    hits = []
    for t in range(window, len(obs) - window + 1):
        before, after = Counter(obs[t - window : t]), Counter(obs[t : t + window])
        d = sum(abs(before[o] - after[o]) for o in before.keys() | after.keys())
        if Fraction(d, 2 * window) > Fraction(threshold):
            hits.append((t, Fraction(d, 2 * window)))
    clusters: list = []
    for t, tv in hits:
        if clusters and t - clusters[-1][-1][0] <= window:
            clusters[-1].append((t, tv))
        else:
            clusters.append([(t, tv)])
    best = [max(c, key=lambda item: (item[1], -item[0])) for c in clusters]
    los = [min(max((float(tv) - threshold) / (1.0 - threshold), 0.0), 1.0) for _, tv in best]
    return [t for t, _ in best], los


class TestDetectIndirect:
    def test_synthetic_change_point(self):
        rng = random.Random(3)
        obs = ["d" if rng.random() < 0.9 else "n" for _ in range(200)]
        obs += ["d" if rng.random() < 0.1 else "n" for _ in range(200)]
        stream, segments = detect_indirect(traj_of(obs), window=50, threshold=0.5)
        assert len(stream) == 1
        hit = stream.occurrences[0]
        assert abs(hit.time - 200) <= 50
        assert hit.provenance == "indirect"
        assert segments == [(0, hit.time), (hit.time, 400)]

    def test_stationary_no_false_positive(self):
        rng = random.Random(12)
        obs = ["a" if rng.random() < 0.5 else "b" for _ in range(400)]
        stream, segments = detect_indirect(traj_of(obs), window=50, threshold=0.5)
        assert len(stream) == 0
        assert segments == [(0, 400)]

    def test_identical_distributions_invisible(self):
        # two regimes, same observation distribution: loops stay undetectable
        obs = ["a", "b"] * 100 + ["b", "a"] * 100
        stream, _ = detect_indirect(traj_of(obs), window=40, threshold=0.3)
        assert len(stream) == 0

    def test_too_short(self):
        with pytest.raises(ModelError):
            detect_indirect(traj_of(["a"] * 10), window=50, threshold=0.5)

    def test_window_must_be_positive(self):
        with pytest.raises(ModelError):
            detect_indirect(traj_of(["a"] * 10), window=0, threshold=-1.0)

    def test_matches_exact_recount(self):
        rng = random.Random(2024)
        hits = 0
        for _ in range(500):
            window = rng.choice((1, 2, 5, 10, 25, 50))
            threshold = rng.choice((0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.9))
            symbols = "abcde"[: rng.randint(1, 5)]
            obs = [rng.choice(symbols) for _ in range(rng.randint(2 * window, 300))]
            stream, segments = detect_indirect(traj_of(obs), window, threshold)
            times, los = indirect_by_recount(obs, window, threshold)
            assert [o.time for o in stream.occurrences] == times
            assert [o.confidence for o in stream.occurrences] == [ProbInterval(lo, 1.0) for lo in los]
            cuts = [0] + times + [len(obs)]
            assert segments == list(zip(cuts, cuts[1:]))
            hits += len(times)
        assert hits > 500

    def test_equals_counter_scan(self):
        """Streams and segments equal the `Counter` scan's, bit for bit, on
        logs of 1 to 8 symbols, runs of one symbol included, and thresholds
        on both sides of [0, 1].  A non-finite threshold, which the reference
        takes, is refused."""
        rng = random.Random(77)
        thresholds = (0.0, 0.1, 0.25, 0.4, 0.5, 0.9, 1.0, 1.5, -0.5)
        thresholds += (float("inf"), float("-inf"), float("nan"))
        hits = 0
        for _ in range(1200):
            window = rng.choice((1, 2, 3, 5, 10, 25, 50))
            threshold = rng.choice(thresholds)
            symbols = "abcdefgh"[: rng.randint(1, 8)]
            sticky = rng.random()  # the chance a step repeats its predecessor
            obs = [rng.choice(symbols)]
            for _ in range(rng.randint(2 * window, 400) - 1):
                obs.append(obs[-1] if rng.random() < sticky else rng.choice(symbols))
            if not math.isfinite(threshold):
                with pytest.raises(ModelError, match="needs a finite threshold"):
                    detect_indirect(traj_of(obs), window, threshold)
                continue
            want = indirect_by_counter(traj_of(obs), window, threshold)
            got = detect_indirect(traj_of(obs), window, threshold)
            assert got == want, (obs, window, threshold)
            assert [o.confidence.lo.hex() for o in got[0].occurrences] == [
                o.confidence.lo.hex() for o in want[0].occurrences
            ]
            hits += len(got[0])
        assert hits > 1000

    @pytest.mark.parametrize("threshold", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_threshold_refused(self, threshold):
        obs = ["a"] * 5 + ["b"] * 5
        with pytest.raises(ModelError, match=f"indirect detection needs a finite threshold, got {threshold}"):
            detect_indirect(traj_of(obs), 3, threshold)

    @pytest.mark.parametrize("threshold", ["3", None, [0.5]])
    def test_non_number_threshold_refused(self, threshold):
        obs = ["a"] * 5 + ["b"] * 5
        with pytest.raises(ModelError, match=re.escape(f"indirect detection needs a finite threshold, got {threshold!r}")):
            detect_indirect(traj_of(obs), 3, threshold)

    def test_distance_equal_to_threshold_is_no_boundary(self):
        # window 10: before a:2 b:8, after a:4 b:6, distance exactly 4/20
        obs = ["a"] * 2 + ["b"] * 8 + ["a"] * 4 + ["b"] * 6
        assert len(detect_indirect(traj_of(obs), window=10, threshold=0.2)[0]) == 0
        (hit,) = detect_indirect(traj_of(obs), window=10, threshold=0.19)[0].occurrences
        assert hit.label == "invisible"
        # a threshold the float holds exactly: distance 2/8
        obs = ["a"] * 4 + ["a"] * 3 + ["b"]
        assert len(detect_indirect(traj_of(obs), window=4, threshold=0.25)[0]) == 0

    def test_output_independent_of_hash_seed(self):
        script = (
            "import random\n"
            "from stochworld import Trajectory, check_markov, detect_indirect\n"
            "rng = random.Random(5)\n"
            "for _ in range(300):\n"
            "    symbols = 'abcdef'[: rng.randint(3, 6)]\n"
            "    obs = [(rng.choice(symbols), None) for _ in range(300)]\n"
            "    print(detect_indirect(Trajectory.of(obs), 50, 0.4))\n"
            "    report = check_markov(Trajectory.of(obs), order=1, min_count=10)\n"
            "    print(report, [t.p_value.hex() for t in report.tests if t.p_value is not None])\n"
        )
        outputs = [run_python(script, PYTHONHASHSEED=seed) for seed in ("1", "2")]
        assert "0x1." in outputs[0]  # some Markov tests have p-values
        assert outputs[0] == outputs[1]


class TestTrack:
    def test_daynight_point_mass(self, daynight):
        obs = ["sun", "dark", "sun", "dark", "sun"]
        events = stream_of((0, "sunset"), (1, "sunrise"), (2, "sunset"), (3, "sunrise"))
        result = track(daynight, traj_of(obs), events)
        assert [b.top() for b in result.beliefs] == ["day", "night", "day", "night", "day"]
        assert result.final_belief.probs == {"day": 1.0}

    def test_impossible_event_keeps_belief(self, daynight):
        # sunrise cannot fire while the tracked state is day
        events = stream_of((0, "sunrise"))
        result = track(daynight, traj_of(["sun", "sun"]), events)
        assert [b.top() for b in result.beliefs] == ["day", "day"]
        assert any("impossible" in w for w in result.warnings)

    def test_unknown_label_warns(self, daynight):
        events = stream_of((0, "meteor"))
        result = track(daynight, traj_of(["sun"]), events)
        assert any("unknown event label" in w for w in result.warnings)

    def test_refuses_other_kinds_and_unknown_collision_rules(self, daynight, m1):
        with pytest.raises(ModelError) as err:
            track(m1, traj_of(["B"]), stream_of())
        assert str(err.value) == "tracking needs an event-driven model"
        with pytest.raises(ModelError) as err:
            track(daynight, traj_of(["sun"]), stream_of(), collision="first")
        assert str(err.value) == "unknown collision rule 'first'"

    def test_inconsistent_trajectory_raises_with_index(self, daynight):
        events = stream_of((0, "sunset"))
        with pytest.raises(TrackingError) as err:
            track(daynight, traj_of(["sun", "sun"]), events)  # should be dark after sunset
        assert err.value.time_index == 1

    def test_underflowing_mass_is_dropped(self):
        """Mass halved at every step underflows to 0.0 after about 1075
        steps; the state leaves the belief instead of holding a zero."""
        model = parse_model(
            "model ed leak\nobs x\nevent go\n"
            "state a initial trace x=1\nstate b trace x=1\n"
            "arrow a go a lp=1 ap=0.5\narrow a go b lp=1 ap=0.5\narrow b go b lp=1 ap=1\n"
        )
        n = 1200
        result = track(model, traj_of(["x"] * n), stream_of(*((t, "go") for t in range(n))))
        assert len(result.beliefs) == n
        assert result.beliefs[1000].probs["a"] > 0.0
        assert result.final_belief.probs == {"b": 1.0}
        assert not result.final_belief.approximate

    def test_house_rooms_and_memory(self, house):
        lamps = {"r1": "on", "r2": "off", "r3": "on"}
        rooms = ["r1", "r2", "r3"] * 4
        traj = traj_of([lamps[r] for r in rooms], ["move"] * len(rooms))
        events = stream_of(*((t, "move") for t in range(len(rooms))))
        result = track(house, traj, events)
        assert [b.top() for b in result.beliefs] == rooms
        assert result.memory == lamps

    def test_memory_recall_on_reentry(self, house):
        """Re-entering a room, the remembered lamp state matches what is seen."""
        lamps = {"r1": "on", "r2": "off", "r3": "on"}
        rooms = ["r1", "r2", "r3"] * 4
        obs = [lamps[r] for r in rooms]
        traj = traj_of(obs, ["move"] * len(rooms))
        events = stream_of(*((t, "move") for t in range(len(rooms))))
        hits = checks = 0
        for t in range(3, len(rooms)):
            prefix = Trajectory.of(list(zip(obs[:t], ["move"] * t)))
            upto = EventStream(tuple(o for o in events.occurrences if o.time < t))
            sofar = track(house, prefix, upto)
            room = rooms[t]
            if room in sofar.memory:
                checks += 1
                hits += sofar.memory[room] == obs[t]
        assert checks > 0 and hits == checks  # 100% agreement

    def test_prefix_determinism(self, house):
        lamps = {"r1": "on", "r2": "off", "r3": "on"}
        rooms = ["r1", "r2", "r3"] * 3
        obs = [lamps[r] for r in rooms]
        full = track(
            house,
            traj_of(obs, ["move"] * len(rooms)),
            stream_of(*((t, "move") for t in range(len(rooms)))),
        )
        cut = 5
        prefix = track(
            house,
            traj_of(obs[:cut], ["move"] * cut),
            stream_of(*((t, "move") for t in range(cut))),
        )
        assert prefix.beliefs == full.beliefs[:cut]


@pytest.fixture()
def daynight_glare():
    from helpers import MODELS_DIR

    raw = (MODELS_DIR / "daynight.model").read_text()
    return parse_model(raw.replace("obs sun dark", "obs sun dark glare"))


class TestPhenomenonValidity:
    def test_earth_then_mars(self, daynight_glare):
        obs = ["sun", "dark"] * 10 + ["glare"] * 10
        events = stream_of(
            *(((t, "sunset") if t % 2 == 0 else (t, "sunrise")) for t in range(19))
        )
        spans = phenomenon_validity(daynight_glare, traj_of(obs), events)
        assert len(spans) == 1
        span = spans[0]
        assert span.start == 0
        assert abs(span.end - 20) <= 1
        assert not span.permanent_so_far

    def test_permanent_pattern_flagged(self, daynight):
        obs = ["sun", "dark"] * 6
        events = stream_of(
            *(((t, "sunset") if t % 2 == 0 else (t, "sunrise")) for t in range(11))
        )
        spans = phenomenon_validity(daynight, traj_of(obs), events)
        assert len(spans) == 1
        assert spans[0] == spans[0].__class__(0, 12, permanent_so_far=True)

    def test_never_consistent(self, daynight_glare):
        spans = phenomenon_validity(
            daynight_glare, traj_of(["glare"] * 8), EventStream(())
        )
        assert spans == []

    def test_intervals_are_maximal(self, daynight_glare):
        obs = ["glare"] * 3 + ["sun", "dark"] * 5 + ["glare"] * 4
        events = stream_of(
            *(((t, "sunset") if t % 2 == 1 else (t, "sunrise")) for t in range(3, 13))
        )
        traj = traj_of(obs)
        spans = phenomenon_validity(daynight_glare, traj, events)
        uniform = {s.id: 0.5 for s in daynight_glare.states}
        for span in spans:
            # tracking from the start fails exactly at the end
            _, _, _, _, failed = track_by_steps(daynight_glare, traj, events, start=span.start, initial=uniform)
            assert (failed or len(traj)) == span.end
            if span.start > 0:
                _, _, _, _, earlier = track_by_steps(
                    daynight_glare, traj, events, start=span.start - 1, initial=uniform
                )
                assert earlier is not None and earlier < span.end


    def test_matches_restart_oracle(self):
        rng = random.Random(11)
        seen: Counter = Counter()
        for _ in range(1000):
            model, trajectory, events = random_ed_log(rng)
            spans = phenomenon_validity(model, trajectory, events)
            assert spans == validity_by_restarts(model, trajectory, events)
            traces = [p for s in model.states for p in s.trace.probs.values()]
            seen["interval trace"] += any(not p.is_point for p in traces)
            seen["untraced state"] += any(s.trace.is_empty for s in model.states)
            seen["zero-weight arrow"] += any(a.arrow_prob.hi == 0.0 for a in model.arrows)
            index = ArrowIndex(model)
            seen["stuck event"] += any(
                o.label in model.labels
                and all(a.arrow_prob.hi == 0.0 for a in index.by_label.get((s.id, o.label), ()))
                for o in events.occurrences
                for s in model.states
            )
            seen["unknown label"] += any(o.label not in model.labels for o in events.occurrences)
            seen["priorities"] += bool(model.priorities)
            seen["empty log"] += len(trajectory) == 0
            seen["restarts"] += len(spans) > 1
            seen["permanent"] += any(s.permanent_so_far for s in spans)
        assert len(seen) == 9 and min(seen.values()) >= 20, seen


def validity_by_restarts(model: Model, trajectory: Trajectory, events: EventStream) -> list:
    """Reference validity: a full tracker run from a uniform belief at every
    step; a span opens where a run outlasts every earlier one."""
    n = len(trajectory)
    uniform = {s.id: 1.0 / len(model.states) for s in model.states}
    spans = []
    best = -1
    for i in range(n):
        _, _, _, _, failed = track_by_steps(model, trajectory, events, start=i, initial=uniform)
        end = n if failed is None else failed
        if end > i and end > best:
            spans.append(ValiditySpan(i, end, permanent_so_far=(i == 0 and end == n)))
            best = end
    return spans


def random_ed_log(rng: random.Random) -> tuple:
    """Seeded random ED model with a random log of up to 30 steps: point,
    interval and absent traces, zero-weight and interval arrows, events
    some states cannot take, unknown labels, priorities half the time."""
    obs = tuple(f"o{i}" for i in range(rng.randint(1, 3)))
    labels = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    ids = [f"n{i}" for i in range(rng.randint(1, 5))]
    states = []
    for i, sid in enumerate(ids):
        trace = {}
        if rng.random() > 0.15:
            for o in rng.sample(obs, rng.randint(1, len(obs))):
                if rng.random() < 0.6:
                    trace[o] = ProbInterval.point(rng.choice((0.0, 0.25, 0.5, 1.0)))
                else:
                    trace[o] = ProbInterval(0.0, rng.choice((0.3, 1.0)))
        states.append(State(sid, i == 0, TraceSpec(trace, memory=rng.random() < 0.3)))
    arrows = []
    for sid in ids:
        for e in labels:
            if rng.random() < 0.6:
                for target in rng.sample(ids, rng.randint(1, len(ids))):
                    k = rng.random()
                    if k < 0.2:
                        ap = ProbInterval.point(0.0)
                    elif k < 0.7:
                        ap = ProbInterval.point(rng.choice((0.25, 0.5, 1.0)))
                    else:
                        ap = ProbInterval(0.1, 0.7)
                    arrows.append(Arrow(sid, e, target, ProbInterval(0.0, 1.0), ap))
    priorities = {}
    if rng.random() < 0.5:
        priorities = {e: r for r, e in enumerate(rng.sample(labels, len(labels)), start=1)}
    model = Model("ed", obs, labels, tuple(states), tuple(arrows), priorities)
    n = 0 if rng.random() < 0.1 else rng.randint(1, 30)
    trajectory = traj_of([rng.choice(obs) for _ in range(n)])
    times = sorted(rng.randrange(n) for _ in range(rng.randint(0, 2 * n)))
    events = stream_of(*((t, rng.choice(labels + ("unknown",))) for t in times))
    return model, trajectory, events


class TestDerivedEvents:
    def test_daynight_derivation(self, daynight):
        obs = ["sun", "dark"] * 4
        events = stream_of(
            *(((t, "sunset") if t % 2 == 0 else (t, "sunrise")) for t in range(7))
        )
        result = track(daynight, traj_of(obs), events)
        derived = derived_events(daynight, result.beliefs)
        nights = [o.time for o in derived.occurrences if o.label == "daynight.night"]
        days = [o.time for o in derived.occurrences if o.label == "daynight.day"]
        assert nights == [1, 3, 5, 7]  # one step after each sunset
        assert days == [2, 4, 6]

    def test_threshold_rule(self, daynight):
        half = Belief({"day": 0.5, "night": 0.5})
        derived = derived_events(daynight, [half, half, half])
        assert len(derived) == 0

    def test_infinite_and_negative_thresholds_keep_their_meaning(self, daynight):
        day, night = Belief({"day": 1.0}), Belief({"night": 1.0})
        for threshold in (-0.5, float("-inf"), float("inf")):
            assert len(derived_events(daynight, [day, night, day], threshold)) == 0
        assert [o.time for o in derived_events(daynight, [day, night, day], 0.0).occurrences] == [1, 2]

    @pytest.mark.parametrize("threshold", ["0.5", None, [0.5], float("nan")], ids=["str", "None", "list", "nan"])
    def test_non_number_threshold_refused(self, daynight, threshold):
        # "0.5", None and [0.5] escaped as a built-in TypeError; NaN gave no events
        beliefs = [Belief({"day": 1.0}), Belief({"night": 1.0})]
        with pytest.raises(ModelError) as err:
            derived_events(daynight, beliefs, threshold)
        assert str(err.value) == f"derived events need a threshold that is a number, got {threshold!r}"

    def test_week_hierarchy_counts_seven_days(self, daynight):
        days = 21
        obs = ["sun", "dark"] * days
        events = stream_of(
            *(((t, "sunset") if t % 2 == 0 else (t, "sunrise")) for t in range(2 * days - 1))
        )
        level1 = track(daynight, traj_of(obs), events)
        derived = derived_events(daynight, level1.beliefs)

        lines = ["model ed week", "obs sun dark", "event daynight.day"]
        for i in range(1, 8):
            nxt = i % 7 + 1
            flag = " initial" if i == 1 else ""
            lines.append(f"state d{i}{flag}")
            lines.append(f"arrow d{i} daynight.day d{nxt} lp=1 ap=1")
        week = parse_model("\n".join(lines) + "\n")

        level2 = track(week, traj_of(obs), derived)
        day_events = [o for o in derived.occurrences if o.label == "daynight.day"]
        tops = [b.top() for b in level2.beliefs]
        assert len(day_events) == days - 1
        # the k-th morning is witnessed in week state d(k mod 7 + 1): one state
        # per day event, wrapping to d1 every seven days
        for k, occ in enumerate(day_events):
            assert tops[occ.time] == f"d{k % 7 + 1}"
        assert tops[day_events[7].time] == "d1"


#: event lines: time, label, interval and provenance tokens, some of them bad
#: or missing, joined by one separator and padded
EVENT_LINES = st.tuples(
    st.sampled_from(["0", "3", "12", "7", "-2", "+5"] * 4 + ["soon", "1.5"]),
    st.sampled_from(["go", "stop", "m.s"]),
    st.sampled_from(["1", "0.5", "[0.5,1]", "[0,1]", "[0.25,0.75]"] * 6 + ["", "0", "[0.5]", "[0.5", "2", "x"]),
    st.sampled_from(["", "direct", "indirect", "derived"] * 4 + ["direct extra"]),
    st.sampled_from([" ", " ", "\t", "  ", " \t "]),
    st.sampled_from(["", "", " ", "\t"]),
).map(lambda p: p[5] + p[4].join(token for token in p[:4] if token) + p[5])
OTHER_LINES = st.sampled_from(["", "   ", "\t", "# note", "#", "  # 3 go 1", "#3 go 1"])


def read_stream(reader, text):
    """The stream, or the refusal's type and text."""
    try:
        return reader(text)
    except (FormatError, ModelError) as err:
        return type(err).__name__, str(err)


def printed(stream):
    """The stream as its document reads back: each bound at 12 significant digits."""
    at_12 = lambda x: float(fmt_num(x))
    return EventStream(
        tuple(
            EventOccurrence(o.time, o.label, ProbInterval(at_12(o.confidence.lo), at_12(o.confidence.hi)), o.provenance)
            for o in stream.occurrences
        )
    )


class TestEventStreamFormat:
    def test_round_trip(self):
        stream = stream_of((0, "sunset"), (3, "sunrise"))
        text = serialize_event_stream(stream)
        assert parse_event_stream(text) == stream

    def test_parse_sorts_times(self):
        stream = parse_event_stream("5 b [1,1] direct\n2 a [0.5,1] indirect\n")
        assert tuple(o.label for o in stream.occurrences) == ("a", "b")

    def test_confidence_tokens_parsed_once(self):
        text = "0 a [0.5,1] direct\n1 a [0.4,1] direct\n2 b [0.5,1] direct\n3 a 1\n"
        stream = parse_event_stream(text)
        confidences = [o.confidence for o in stream.occurrences]
        assert confidences == [ProbInterval(0.5, 1.0), ProbInterval(0.4, 1.0), ProbInterval(0.5, 1.0), ProbInterval.point(1.0)]
        assert confidences[0] is confidences[2]
        with pytest.raises(FormatError, match="line 3: bad probability '0.5,1'"):
            parse_event_stream("0 a 1\n1 a 1\n2 a 0.5,1\n3 a 0.5,1\n")

    def test_zero_confidence_rejected(self):
        with pytest.raises(ModelError):
            EventStream((EventOccurrence(0, "e", ProbInterval.point(0.0), "direct"),))

    def test_decreasing_times_rejected(self):
        with pytest.raises(ModelError):
            EventStream(
                (
                    EventOccurrence(3, "a", ProbInterval.point(1.0), "direct"),
                    EventOccurrence(1, "b", ProbInterval.point(1.0), "direct"),
                )
            )

    def test_first_fault_refused(self):
        """One pass checks the order and the confidences, and refuses the
        first fault in stream order."""
        zero, one = ProbInterval.point(0.0), ProbInterval.point(1.0)
        with pytest.raises(ModelError, match=re.escape("occurrence of 'a' at 0 has confidence [0,0]")):
            EventStream((EventOccurrence(0, "a", zero), EventOccurrence(3, "b", one), EventOccurrence(1, "c", one)))
        with pytest.raises(ModelError, match="non-decreasing"):
            EventStream((EventOccurrence(3, "b", one), EventOccurrence(1, "c", zero)))

    def test_records_only(self):
        """The readers of a stream read its occurrences by field name, so a
        plain tuple is refused when the stream is built, in the same pass."""
        one = ProbInterval.point(1.0)
        with pytest.raises(ModelError, match=re.escape("event stream holds (1, 'b', ")):
            EventStream((EventOccurrence(0, "a", one), (1, "b", one, "direct"), EventOccurrence(0, "c", one)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_of_every_producer(self, seed):
        """A stream of each producer reads back from its document.  Walks and
        quarter-valued tables read back exactly; a derived or indirect bound
        reads back at the 12 significant digits the document prints."""
        rng = random.Random(seed)
        model = random_walk_model(rng, "ed")
        trajectory = traj_of([rng.choice(model.obs) for _ in range(rng.randint(0, 60))])
        try:
            trajectory, walked = simulate_events(model, SimulationConfig(rng.randint(0, 200), seed))
        except ModelError:  # a walk that reaches an interval
            walked = EventStream(())
        fns = [
            CharFn("seen", "obs-match", obs=rng.choice(model.obs)),
            CharFn("shift", "pattern", 1, 1, past_pattern=rng.choice(model.obs), future_pattern=".*"),
            CharFn("row", "table", 0, 1, table={((), (o,)): ProbInterval(0.25, rng.choice((0.5, 1.0))) for o in model.obs}),
        ]
        direct = detect_direct(trajectory, fns, rng.choice((0.0, 0.25, 0.5)))
        window = rng.randint(1, 5)
        shifts = EventStream(())
        if len(trajectory) >= 2 * window:
            shifts, _ = detect_indirect(trajectory, window, rng.choice((0.0, 0.2, 1 / 3)))
        ids = [state.id for state in model.states]
        beliefs = []
        for _ in range(rng.randint(0, 20)):
            picked = rng.sample(ids, rng.randint(1, len(ids)))
            weights = [rng.randint(1, 3) for _ in picked]
            beliefs.append(Belief({sid: w / sum(weights) for sid, w in zip(picked, weights)}))
        derived = derived_events(model, beliefs, rng.choice((0.0, 0.3, 0.5)))
        for stream in (walked, direct, shifts, derived):
            back = parse_event_stream(serialize_event_stream(stream))
            assert back == printed(stream)
        for stream in (walked, direct):
            assert parse_event_stream(serialize_event_stream(stream)) == stream

    @given(st.lists(st.one_of(EVENT_LINES, OTHER_LINES), max_size=14), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=400, deadline=None)
    def test_parse_equals_line_reader(self, lines, newline):
        """Tabs, repeated spaces, padding, comments, blank lines, 3-token
        lines and bad tokens: the stream or the refusal of the reader that
        splits every line."""
        text = newline.join(lines)
        assert read_stream(parse_event_stream, text) == read_stream(parse_event_stream_by_lines, text)


# -- memoized runtime against its step-by-step oracles ------------------------------


def belief_bits(belief):
    """A belief as its ordered items with masses as float.hex, and its flag."""
    if belief is None:
        return None
    return [(s, p.hex()) for s, p in belief.probs.items()], belief.approximate


def tracked(model, trajectory, events, collision=None):
    """What `track` exposes, in comparable form: the beliefs, the final
    belief, the memory and the warnings, or the step it fails at."""
    try:
        result = track(model, trajectory, events, collision)
    except TrackingError as err:
        return err.time_index
    beliefs = [belief_bits(b) for b in result.beliefs]
    return beliefs, belief_bits(result.final_belief), result.memory, result.warnings


def exposed(beliefs, final, memory, warnings, failed):
    """A `track_by_steps` result in the form of `tracked`."""
    if failed is not None:
        return failed
    return [belief_bits(b) for b in beliefs], belief_bits(final), memory, warnings


class TestMemoizedRuntime:
    def test_track_equals_step_oracle(self):
        rng = random.Random(23)
        seen: Counter = Counter()
        for _ in range(1200):
            model, trajectory, events = random_ed_log(rng)
            collision = rng.choice((None, "priority", "both-arrows"))
            want = track_by_steps(model, trajectory, events, collision=collision)
            assert tracked(model, trajectory, events, collision) == exposed(*want)
            beliefs, _, memory, warnings, failed = want
            seen[f"collision {collision}"] += 1
            seen["failed"] += failed is not None
            seen["approximate"] += any(b.approximate for b in beliefs)
            seen["memory"] += bool(memory)
            seen["stuck"] += any("impossible" in w for w in warnings)
            seen["repeated belief"] += len({str(belief_bits(b)) for b in beliefs}) < len(beliefs)
        assert min(seen.values()) >= 20 and len(seen) == 8, seen

    def test_equal_beliefs_are_one_object(self):
        rng = random.Random(5)
        repeated = 0
        for _ in range(300):
            model, trajectory, events = random_ed_log(rng)
            want, _, _, _, failed = track_by_steps(model, trajectory, events)
            if failed is not None:
                continue
            result = track(model, trajectory, events)
            objects: dict = {}
            for b in result.beliefs + [result.final_belief]:
                key = belief_bits(b)
                key = (tuple(key[0]), key[1])
                assert objects.setdefault(key, b) is b
            repeated += len({str(belief_bits(b)) for b in want}) < len(want)
        assert repeated >= 100

    def test_derived_events_equal_state_oracle(self):
        rng = random.Random(29)
        seen: Counter = Counter()
        for _ in range(600):
            model, trajectory, events = random_ed_log(rng)
            beliefs, _, _, _, _ = track_by_steps(model, trajectory, events)
            if rng.random() < 0.5:
                # also beliefs over states the model lacks, and equal
                # beliefs that are distinct objects
                ids = [s.id for s in model.states] + ["stranger"]
                pool = []
                for _ in range(rng.randint(1, 4)):
                    picked = rng.sample(ids, rng.randint(1, len(ids)))
                    weights = [rng.choice((1, 1, 2, 3)) for _ in picked]
                    pool.append(Belief({s: w / sum(weights) for s, w in zip(picked, weights)}))
                beliefs = [
                    rng.choice(pool) if rng.random() < 0.8 else Belief(rng.choice(pool).probs)
                    for _ in range(rng.randint(0, 30))
                ]
                seen["unknown state"] += any("stranger" in b.probs for b in beliefs)
            for threshold in (-0.1, 0.0, 0.5, 1.0, rng.choice((0.25, 1 / 3))):
                got = derived_events(model, beliefs, threshold)
                assert got == derived_by_states(model, beliefs, threshold)
                seen[f"occurrences at {threshold}"] += len(got) > 0
        assert seen["unknown state"] >= 50
        assert seen["occurrences at 0.0"] >= 100 and seen["occurrences at 0.5"] >= 100, seen

    def test_detect_direct_equals_step_oracle(self):
        rng = random.Random(31)
        seen: Counter = Counter()
        for _ in range(1000):
            symbols = ("a", "b", "c")[: rng.randint(1, 3)]
            acts = ("go", "stay")
            n = rng.choice((0, 1, 2, rng.randint(3, 40)))
            trajectory = Trajectory.of(
                [(rng.choice(symbols), rng.choice(acts + (None,))) for _ in range(n)]
            )
            fns = []
            for _ in range(rng.randint(1, 5)):
                name = rng.choice(("e", "f", "g"))
                kind = rng.choice(("action-match", "obs-match", "pattern", "table"))
                plen, flen = rng.randint(0, 3), rng.randint(0, 3)
                seen[kind] += 1
                seen["plen 0"] += plen == 0
                seen["flen 0"] += flen == 0
                if kind == "action-match":
                    fns.append(CharFn(name, kind, plen, flen, action=rng.choice(acts)))
                elif kind == "obs-match":
                    fns.append(CharFn(name, kind, plen, flen, obs=rng.choice(symbols)))
                elif kind == "pattern":
                    regex = lambda: ",".join(rng.choice(symbols + ("[ab]", ".*")) for _ in range(rng.randint(0, 3)))
                    fns.append(
                        CharFn(name, kind, plen, flen, past_pattern=rng.choice((None, regex())), future_pattern=regex())
                    )
                else:
                    table = {}
                    for _ in range(rng.randint(0, 8)):
                        key = (
                            tuple(rng.choice(symbols) for _ in range(plen)),
                            tuple(rng.choice(symbols) for _ in range(flen)),
                        )
                        table[key] = rng.choice(
                            (ProbInterval.point(1.0), ProbInterval.point(0.0), ProbInterval(0.0, 1.0), ProbInterval(0.5, 0.75))
                        )
                    fns.append(CharFn(name, kind, plen, flen, table=table))
            for threshold in (-0.5, 0.0, 0.5, 1.0):
                got = detect_direct(trajectory, fns, threshold)
                assert got == detect_by_steps(trajectory, fns, threshold)
                seen["hits"] += len(got) > 0
        assert min(seen.values()) >= 100 and len(seen) == 7, seen

    def test_detect_direct_on_a_long_walk(self):
        """A seeded 10 000-step walk of an ed model: every kind of function,
        and a name two functions share, against the step oracle."""
        model = parse_model(
            "model ed plant\nobs a b c\nevent go back\n"
            "state s initial trace a=0.5 b=0.5\nstate t trace b=0.25 c=0.75\nstate u trace a=1\n"
            "arrow s go t lp=0.3 ap=1\narrow t go u lp=0.2 ap=1\n"
            "arrow u back s lp=0.4 ap=0.5\narrow u back t lp=0.4 ap=0.5\n"
        )
        trajectory, _ = simulate_events(model, SimulationConfig(10_000, 41))
        fns = parse_charfns(
            "charfn seen obs=c\ncharfn pressed action=go\n"
            "charfn shift pattern past=a|b future=c plen=1 flen=1\n"
            "charfn seen pattern past=a,a future=b plen=2 flen=1\n"
            "charfn row table plen=1 flen=1\nrow a b 1\nrow b c [0.5,1]\nrow c c [0.25,0.75]\n"
        )
        for threshold in (0.5, 0.0):
            got = detect_direct(trajectory, fns, threshold)
            assert got == detect_by_steps(trajectory, fns, threshold)
            assert len({o.label for o in got.occurrences}) == (3 if threshold else 4)
