"""cli: subcommand behavior, error lines, exit codes, pipeline composition."""

import io
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stochworld import (
    SimulationConfig,
    invert_mdp_plus,
    minimize_forward,
    monte_carlo_invert,
    parse_model,
    serialize_model,
    simulate,
)
from stochworld.cli import main
from stochworld.format import parse_event_stream, parse_partition, serialize_trajectory

from genmodels import random_model
from helpers import MODELS_DIR, cycle_model, load_model
from test_format import check_dot_grammar

M1 = str(MODELS_DIR / "m1_coin.model")
M2 = str(MODELS_DIR / "m2_bbww.model")
FIG3 = str(MODELS_DIR / "fig3.model")
CYCLE3 = str(MODELS_DIR / "cycle3.model")
HOUSE = str(MODELS_DIR / "house.model")
RAIN = str(MODELS_DIR / "rain.model")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_validate_ok(self, capsys):
        code, out, _ = run(capsys, "validate", M1)
        assert code == 0 and out.strip() == "ok"

    def test_validate_warning_still_ok(self, capsys):
        code, out, _ = run(capsys, "validate", FIG3)
        assert code == 0
        assert "warning:" in out and out.strip().endswith("ok")

    def test_validate_violation_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(
            "model fomm\nobs A B\nstate A initial trace A=1\nstate B trace B=1\n"
            "arrow A true B ap=0.4\narrow B true A ap=1\n"
        )
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "violation:" in out
        assert err.startswith("error: validation:")

    def test_analyze_fig3(self, capsys):
        code, out, _ = run(capsys, "analyze", FIG3)
        assert code == 0
        lines = out.splitlines()
        assert "white-peak: 1" in lines
        assert "black-hole: 3 4" in lines

    def test_invert_white_peak_error_line(self, capsys):
        code, _, err = run(capsys, "invert", FIG3)
        assert code == 1
        assert err.strip() == "error: white-peak: 1"

    def test_export_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot", M1)
        assert code == 0
        check_dot_grammar(out)

    def test_parse_error_reported(self, capsys, tmp_path):
        broken = tmp_path / "broken.model"
        broken.write_text("model fomm\nobs A\nstate A initial trace A=chaos\n")
        code, _, err = run(capsys, "validate", str(broken))
        assert code == 1
        assert err.startswith("error: format: line 3")


ABOVE_ONE = (
    "model hmm\nobs a b c\nstate s initial trace a=1\nstate t1 trace b=1\nstate t2 trace {t2}=1\n"
    "arrow s true t1 ap=0.75\narrow s true t2 ap=0.5\narrow t1 true s\narrow t2 true s\n"
)


class TestModelDocuments:
    def test_future_bounds_untraced_state(self, capsys, tmp_path):
        model = tmp_path / "untraced.model"
        model.write_text(
            "model ed\nobs x y\nevent go\nstate a initial trace x=1\nstate b\n"
            "arrow a go b lp=1 ap=1\narrow b go a lp=1 ap=1\n"
        )
        code, out, err = run(capsys, "future", str(model), "--depth", "2")
        assert code == 0, err
        assert out.splitlines() == ["go:x,go:x [0,1]", "go:y,go:x [0,1]"]

    def test_untraced_fomm_state_observes_itself(self, capsys, tmp_path):
        model = tmp_path / "fomm.model"
        model.write_text(
            "model fomm\nobs a b\nstate a initial\nstate b\n"
            "arrow a true a ap=0.5\narrow a true b ap=0.5\narrow b true a\n"
        )
        code, out, err = run(capsys, "future", str(model), "--depth", "2")
        assert code == 0, err
        assert out.splitlines() == ["a,a 0.25", "a,b 0.25", "b,a 0.5"]
        code, out, err = run(capsys, "simulate", str(model), "--steps", "6", "--seed", "1")
        assert code == 0, err
        assert {line.split()[0] for line in out.splitlines()[1:]} <= {"a", "b"}

    @pytest.mark.parametrize(
        "t2, argv",
        [
            ("b", ("minimize",)),  # t1 and t2 merge
            ("c", ("minimize",)),  # nothing merges
            ("b", ("future", "--depth", "1")),
        ],
    )
    def test_kind_violation_refused(self, capsys, tmp_path, t2, argv):
        model = tmp_path / "above.model"
        model.write_text(ABOVE_ONE.format(t2=t2))
        code, out, err = run(capsys, argv[0], str(model), *argv[1:])
        assert code == 1 and out == ""
        assert err.strip() == "error: model: state s: outgoing probabilities sum to 1.25, above 1"


class TestCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ("future", M1, "--depth", "-2"),
            ("past", M1, "--depth", "-2"),
            ("minimal", M1, "--depth", "-1"),
            ("minimize", M1, "--determinize", "-1"),
            ("simulate", M1, "--seed", "1", "--steps", "-3"),
            ("invert", M1, "--mode", "mc", "--seed", "1", "--journeys", "-5"),
            ("invert", RAIN, "--mode", "plus-vertex", "--budget", "-1"),
            ("markov-check", "{traj}", "--order", "0"),
            ("markov-check", "{traj}", "--order", "-1"),
            ("markov-check", "{traj}", "--min-count", "-5"),
            ("simulate", M1, "--steps", "3", "--seed", "-1"),
            ("invert", M1, "--mode", "mc", "--journeys", "5", "--seed", "-1"),
            ("invert", RAIN, "--mode", "plus-mc", "--seed", "-3"),
            ("detect", "{traj}", "--indirect", "-2"),
            ("detect", "{traj}", "--indirect", "0"),
            ("minimal", M1, "--depth", "0"),
            ("invert", M1, "--mode", "mc", "--seed", "1", "--journeys", "0"),
        ],
    )
    def test_negative_count_is_usage_error(self, capsys, tmp_path, argv):
        traj = tmp_path / "coin.traj"
        traj.write_text("H -\nT -\nH -\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(traj=traj) for a in argv])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be at least" in capsys.readouterr().err

    def test_zero_depth_future_is_the_empty_word(self, capsys):
        code, out, _ = run(capsys, "future", M1, "--depth", "0")
        assert code == 0 and out == "- 1\n"

    @pytest.mark.parametrize("name", ["m1_coin", "m2_bbww", "cycle3"])
    def test_minimal_depth_zero_names_the_depth(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["minimal", str(MODELS_DIR / f"{name}.model"), "--depth", "0"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(" error: argument --depth: must be at least 1, got 0\n")

    def test_minimal_depth_one(self, capsys):
        code, out, _ = run(capsys, "minimal", M1, "--depth", "1")
        assert code == 0 and parse_model(out).initial_state.id == "now"


class TestSeedDiscipline:
    def test_simulate_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", M1, "--steps", "10"])
        assert exc.value.code == 2

    def test_mc_invert_requires_seed(self, capsys):
        code, _, err = run(capsys, "invert", M1, "--mode", "mc")
        assert code == 2
        assert "usage error" in err


#: an interval decision process with two states, both agent and world open
PLUS = (
    "model mdp-plus\nobs x y\nact a b\nstate s initial trace x=1\nstate t trace y=1\n"
    "arrow s a s lp=[0.2,0.6] ap=[0.3,0.7]\narrow s a t lp=[0.2,0.6] ap=[0.3,0.7]\n"
    "arrow s b t lp=[0.4,0.8] ap=1\narrow t a s lp=1 ap=1\n"
)


@pytest.mark.parametrize(
    "doc, options, call",
    [
        (None, ("--mode", "mc", "--journeys", "500", "--seed", "7"), lambda m: monte_carlo_invert(m, 500, 7)),
        (PLUS, ("--mode", "plus-vertex", "--budget", "40"), lambda m: invert_mdp_plus(m, "vertex", 40)),
        (PLUS, ("--mode", "plus-mc", "--budget", "40", "--seed", "3"), lambda m: invert_mdp_plus(m, "monte-carlo", 40, 3)),
    ],
    ids=["mc", "plus-vertex", "plus-mc"],
)
def test_invert_mode_prints_the_library_inverse(capsys, tmp_path, doc, options, call):
    path = Path(M1)
    if doc is not None:
        path = tmp_path / "plus.model"
        path.write_text(doc)
    code, out, err = run(capsys, "invert", str(path), *options)
    assert (code, err) == (0, "")
    assert out == serialize_model(call(parse_model(path.read_text())))


class TestPipelines:
    def test_simulate_feeds_estimate(self, capsys, tmp_path):
        traj_path = tmp_path / "run.traj"
        code, _, _ = run(capsys, "simulate", M1, "--steps", "4000", "--seed", "11", "-o", str(traj_path))
        assert code == 0
        code, out, _ = run(capsys, "estimate", str(traj_path))
        assert code == 0
        est = parse_model(out)
        for a in est.arrows:
            assert abs(a.arrow_prob.mid - 0.5) < 0.05

    def test_invert_feeds_future(self, capsys, tmp_path):
        inv_path = tmp_path / "inv.model"
        code, _, _ = run(capsys, "invert", CYCLE3, "-o", str(inv_path))
        assert code == 0
        code, out, _ = run(capsys, "future", str(inv_path), "--depth", "2")
        assert code == 0
        assert out.strip() == "c,b 1"

    def test_past_equals_future_of_inverse(self, capsys):
        code, out, _ = run(capsys, "past", CYCLE3, "--depth", "2")
        assert code == 0
        assert out.strip() == "b,c 1"

    def test_detect_feeds_track(self, capsys, tmp_path):
        lamps = {"r1": "on", "r2": "off", "r3": "on"}
        rooms = ["r1", "r2", "r3"] * 3
        traj_path = tmp_path / "house.traj"
        lines = ["t0 9"] + [f"{lamps[r]} move" for r in rooms]
        traj_path.write_text("\n".join(lines) + "\n")
        fn_path = tmp_path / "fns.charfn"
        fn_path.write_text("charfn move action=move\n")
        stream_path = tmp_path / "events.stream"
        code, _, _ = run(
            capsys, "detect", str(traj_path), "--direct", str(fn_path), "-o", str(stream_path)
        )
        assert code == 0
        assert len(parse_event_stream(stream_path.read_text())) == 9
        code, out, _ = run(
            capsys, "track", str(traj_path), "--model", HOUSE, "--events", str(stream_path)
        )
        assert code == 0
        assert "belief r1 1" in out
        assert "memory r2 off" in out

    def test_indirect_detection_segments(self, capsys, tmp_path):
        import random

        rng = random.Random(3)
        obs = ["d" if rng.random() < 0.9 else "n" for _ in range(200)]
        obs += ["d" if rng.random() < 0.1 else "n" for _ in range(200)]
        traj_path = tmp_path / "shift.traj"
        traj_path.write_text("\n".join(f"{o} -" for o in obs) + "\n")
        code, out, err = run(
            capsys, "detect", str(traj_path), "--indirect", "50", "--threshold", "0.5"
        )
        assert code == 0
        assert "invisible" in out
        assert err.count("segment") == 2

    def test_double_and_quotient(self, capsys, tmp_path):
        arrows = tmp_path / "event.arrows"
        arrows.write_text("B2 true W1\nW2 true B1\n")
        code, out, err = run(
            capsys, "double", M2, "--mode", "fact", "--event", "flip", "--arrows", str(arrows)
        )
        assert code == 0
        doubled = parse_model(out)
        assert len(doubled.states) == 8
        assert "fact flip:" in err

        classes = tmp_path / "classes.txt"
        classes.write_text("B1 B2\nW1 W2\n")
        code, out, _ = run(
            capsys, "quotient", M2, "--classes", str(classes), "--monitor", f"flip={arrows}"
        )
        assert code == 0
        reduced = parse_model(out)
        assert reduced.kind == "ed" and len(reduced.states) == 2

    def test_quotient_coverage_error(self, capsys, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("B1 B2\nW1 W2\n")
        code, _, err = run(capsys, "quotient", M2, "--classes", str(classes))
        assert code == 1
        assert err.startswith("error: coverage:")
        assert "B2 true W1" in err and "W2 true B1" in err

    def test_minimize_and_minimal(self, capsys):
        code, out, _ = run(capsys, "minimize", M2)
        assert code == 0
        assert len(parse_model(out).states) == 4
        code, out, _ = run(capsys, "minimal", CYCLE3, "--depth", "10")
        assert code == 0
        joined = parse_model(out)
        assert joined.initial_state.id == "now"

    def test_minimize_depth_bounds_determinization_only(self, capsys, tmp_path):
        """Minimization takes no depth and keeps all 30 states of the cycle;
        ``--determinize 10`` expands 10 steps and so keeps 11 beliefs."""
        cycle = tmp_path / "cycle30.model"
        cycle.write_text(serialize_model(cycle_model(30)))
        for options, states in (((), 30), (("--determinize", "10"), 11)):
            code, out, _ = run(capsys, "minimize", str(cycle), *options)
            assert code == 0
            assert len(parse_model(out).states) == states

    def test_detect_threshold_zero_emits_only_possible_events(self, capsys, tmp_path):
        traj_path = tmp_path / "x.traj"
        traj_path.write_text("a -\nb -\na -\n")
        fn_path = tmp_path / "s.charfn"
        fn_path.write_text("charfn seen obs=a\n")
        code, out, err = run(
            capsys, "detect", str(traj_path), "--direct", str(fn_path), "--threshold", "0"
        )
        assert code == 0, err
        stream = parse_event_stream(out)
        assert [(o.time, o.label) for o in stream.occurrences] == [(0, "seen"), (2, "seen")]

    def test_reserved_observation_refused_at_parse(self, capsys, tmp_path):
        model = tmp_path / "obs.model"
        model.write_text(
            "model fomm\nobs obs x\nstate s initial trace obs=1\nstate t trace x=1\n"
            "arrow s true t\narrow t true s\n"
        )
        code, _, err = run(capsys, "simulate", str(model), "--steps", "4", "--seed", "1")
        assert code == 1
        assert err.startswith("error: format:") and "'obs'" in err

    def test_policy_from_preference(self, capsys, tmp_path):
        pref = tmp_path / "royal.pref"
        pref.write_text("state w: rain > dry\n")
        code, out, _ = run(capsys, "policy-from-preference", RAIN, "--preference", str(pref))
        assert code == 0
        assert "w rain 0.8" in out

    def test_invert_mdp_with_policy_file(self, capsys, tmp_path):
        mdp_path = tmp_path / "walk.model"
        mdp_path.write_text(
            "model mdp\nobs x y\nact go stay\n"
            "state sx initial trace x=1\nstate sy trace y=1\n"
            "arrow sx go sy ap=1\narrow sx stay sx ap=1\n"
            "arrow sy go sx ap=1\narrow sy stay sy ap=1\n"
        )
        pol_path = tmp_path / "walk.policy"
        pol_path.write_text("sx go 0.7\nsx stay 0.3\nsy go 0.6\nsy stay 0.4\n")
        code, out, _ = run(capsys, "invert", str(mdp_path), "--policy", str(pol_path))
        assert code == 0
        inverse = parse_model(out)
        assert inverse.kind == "mdp-fixed"

    def test_track_collision_flag(self, capsys, tmp_path):
        model_path = tmp_path / "pair.model"
        model_path.write_text(
            "model ed\nobs x\nevent e1 e2\n"
            "state s initial trace x=1\nstate t1 trace x=1\nstate t2 trace x=1\n"
            "arrow s e1 t1 lp=1 ap=1\narrow s e2 t2 lp=1 ap=1\n"
            "arrow t1 e2 t2 lp=1 ap=1\narrow t2 e1 t1 lp=1 ap=1\n"
        )
        traj_path = tmp_path / "pair.traj"
        traj_path.write_text("x -\nx -\n")
        events_path = tmp_path / "pair.stream"
        events_path.write_text("0 e1 [1,1] direct\n0 e2 [1,1] direct\n")
        code, out, _ = run(
            capsys,
            "track", str(traj_path), "--model", str(model_path),
            "--events", str(events_path), "--collision", "both-arrows",
        )
        assert code == 0 and "belief t2 1" in out
        code, out, _ = run(
            capsys,
            "track", str(traj_path), "--model", str(model_path),
            "--events", str(events_path), "--collision", "priority",
        )
        assert code == 0 and "belief t1 1" in out

    def test_markov_check_output(self, capsys, tmp_path):
        traj_path = tmp_path / "bbww.traj"
        code, _, _ = run(capsys, "simulate", M2, "--steps", "2000", "--seed", "3", "-o", str(traj_path))
        assert code == 0
        code, out, _ = run(capsys, "markov-check", str(traj_path))
        assert code == 0
        assert "improvable" in out


class TestCommandBranches:
    """Branches of the commands that the pipelines above do not take."""

    def test_quotient_monitor_label(self, capsys, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("B1 B2\nW1 W2\n")
        code, out, err = run(capsys, "quotient", M2, "--classes", str(classes), "--monitor-label", "true")
        assert (code, err) == (0, "")
        assert out == (
            "model ed\nobs B W\nevent true\n"
            "state B1+B2 initial trace B=1\nstate W1+W2 trace W=1\n"
            "arrow B1+B2 true B1+B2 lp=1 ap=[0,1]\narrow B1+B2 true W1+W2 lp=1 ap=[0,1]\n"
            "arrow W1+W2 true B1+B2 lp=1 ap=[0,1]\narrow W1+W2 true W1+W2 lp=1 ap=[0,1]\n"
        )

    def test_quotient_monitor_without_file_is_a_usage_error(self, capsys, tmp_path):
        classes = tmp_path / "classes.txt"
        classes.write_text("B1 B2\nW1 W2\n")
        code, out, err = run(capsys, "quotient", M2, "--classes", str(classes), "--monitor", "flip")
        assert (code, out, err) == (2, "", "usage error: --monitor needs <name>=<arrow-file>\n")

    def test_minimize_partition_out_reads_back(self, capsys, tmp_path):
        doc = (
            "model hmm\nobs x y\nstate a initial trace x=1\nstate b1 trace y=1\nstate b2 trace y=1\n"
            "arrow a true b1 ap=0.5\narrow a true b2 ap=0.5\narrow b1 true a\narrow b2 true a\n"
        )
        model_path, classes = tmp_path / "twins.model", tmp_path / "classes.txt"
        model_path.write_text(doc)
        code, out, _ = run(capsys, "minimize", str(model_path), "--partition-out", str(classes))
        reduced, partition = minimize_forward(parse_model(doc))
        assert code == 0 and out == serialize_model(reduced)
        assert classes.read_text() == "a\nb1 b2\n"
        read_back = parse_partition(classes.read_text(), parse_model(doc))
        assert sorted(map(sorted, read_back.classes)) == sorted(map(sorted, partition.classes))

    def test_markov_check_inconclusive(self, capsys, tmp_path):
        traj_path = tmp_path / "short.traj"
        traj_path.write_text("a -\nb -\na -\n")
        assert run(capsys, "markov-check", str(traj_path)) == (0, "inconclusive\n", "")

    def test_markov_check_skipped_symbol(self, capsys, tmp_path):
        rng = random.Random(5)
        obs = [rng.choice("ab") for _ in range(400)]
        obs[200] = "c"  # one context of c, thinner than the minimum count
        traj_path = tmp_path / "rare.traj"
        traj_path.write_text("".join(f"{o} -\n" for o in obs))
        code, out, _ = run(capsys, "markov-check", str(traj_path), "--min-count", "5")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[0].startswith("symbol a: p=") and lines[1].startswith("symbol b: p=")
        assert lines[2] == "symbol c: skipped (1 thin contexts)"

    def test_policy_from_preference_reports_adjusted_states(self, capsys, tmp_path):
        model_path, pref = tmp_path / "wide.model", tmp_path / "wide.pref"
        model_path.write_text(
            "model mdp-plus\nobs x\nact a b\nstate s initial trace x=1\n"
            "arrow s a s lp=[0.5,1] ap=1\narrow s b s lp=[0.3,1] ap=1\n"
        )
        pref.write_text("state s: a > b\n")
        code, out, err = run(capsys, "policy-from-preference", str(model_path), "--preference", str(pref))
        assert (code, out, err) == (0, "s a 0.7\ns b 0.3\n", "adjusted: s\n")

    @pytest.mark.parametrize(
        "a, b, policy",
        [("[0,0.4999995]", "[0,0.5]", "s a 0.4999995\ns b 0.5\n"), ("[0.5000005,1]", "[0.5,1]", "s a 0.5000005\ns b 0.5\n")],
        ids=["upper sum 1 - 5e-7", "lower sum 1 + 5e-7"],
    )
    def test_preference_within_validates_slack(self, capsys, tmp_path, a, b, policy):
        model_path, pref = tmp_path / "edge.model", tmp_path / "edge.pref"
        model_path.write_text(
            "model mdp-plus\nobs x\nact a b\nstate s initial trace x=1\n"
            f"arrow s a s lp={a} ap=1\narrow s b s lp={b} ap=1\n"
        )
        pref.write_text("state s: a > b\n")
        assert run(capsys, "validate", str(model_path)) == (0, "ok\n", "")
        code, out, err = run(capsys, "policy-from-preference", str(model_path), "--preference", str(pref))
        assert (code, out, err) == (0, policy, "adjusted: s\n")
        code, out, err = run(capsys, "simulate", str(model_path), "--steps", "3", "--seed", "1", "--preference", str(pref))
        assert (code, err) == (0, "") and out.splitlines()[0] == "t0 3" and set(out.splitlines()[1:]) <= {"x a", "x b"}

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--direct", "DOC", "--indirect", "1"], "argument --indirect: not allowed with argument --direct"),
            (["--indirect"], "argument --indirect: expected one argument"),
            ([], "one of the arguments --direct --indirect is required"),
        ],
        ids=["both", "indirect-without-window", "neither"],
    )
    def test_detect_usage_errors(self, capsys, tmp_path, options, message):
        traj_path, fns = tmp_path / "w.traj", tmp_path / "doc"
        traj_path.write_text("a -\nb -\na -\n")
        fns.write_text("charfn seen obs=a\n")
        argv = [str(fns) if o == "DOC" else o for o in options]
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(traj_path), *argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"stochworld detect: error: {message}\n")

    def test_track_prints_warnings(self, capsys, tmp_path):
        traj_path, events = tmp_path / "day.traj", tmp_path / "day.stream"
        traj_path.write_text("sun -\nsun -\n")
        events.write_text("0 sunrise 1\n1 meteor 1\n")
        code, out, err = run(
            capsys, "track", str(traj_path), "--model", str(MODELS_DIR / "daynight.model"), "--events", str(events)
        )
        assert (code, out) == (0, "belief day 1\n")
        assert err == (
            "warning: step 1: unknown event label 'meteor' ignored\n"
            "warning: step 0: event 'sunrise' impossible in day; belief kept\n"
        )

    def test_missing_input_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.model"
        code, out, err = run(capsys, "validate", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: io: [Errno 2] No such file or directory: {str(missing)!r}\n"


MALFORMED = [  # document, argv (TRAJ and DOC name the files), the error line's start
    pytest.param(
        "charfn e pattern past=a plen=x\n", ["detect", "TRAJ", "--direct", "DOC"],
        "error: format: line 1: window length must be an integer of 0 or more: 'plen=x'",
        id="charfn-plen-not-an-integer",
    ),
    pytest.param(
        "charfn e pattern past=a plen=-2\n", ["detect", "TRAJ", "--direct", "DOC"],
        "error: format: line 1: window length must be an integer of 0 or more: 'plen=-2'",
        id="charfn-plen-negative",
    ),
    pytest.param(
        "charfn e table flen=1.5\nrow - a 1\n", ["detect", "TRAJ", "--direct", "DOC"],
        "error: format: line 1: window length must be an integer of 0 or more: 'flen=1.5'",
        id="charfn-table-flen-not-an-integer",
    ),
    pytest.param(
        "charfn e pattern past=(\n", ["detect", "TRAJ", "--direct", "DOC"],
        "error: format: line 1: bad regex 'past=(': ",
        id="charfn-past-regex",
    ),
    pytest.param(
        "# a comment\ncharfn e pattern future=[a\n", ["detect", "TRAJ", "--direct", "DOC"],
        "error: format: line 2: bad regex 'future=[a': ",
        id="charfn-future-regex",
    ),
    pytest.param(
        "state : rain > dry\n", ["policy-from-preference", RAIN, "--preference", "DOC"],
        "error: format: line 1: expected: state <id>: a1 > a2 > ...",
        id="preference-without-state-id",
    ),
    pytest.param(
        "state a b: x > y\n", ["policy-from-preference", RAIN, "--preference", "DOC"],
        "error: format: line 1: expected: state <id>: a1 > a2 > ...",
        id="preference-with-two-state-ids",
    ),
    pytest.param(
        "charfn seen obs=a\n", ["detect", "TRAJ", "--direct", "DOC", "--threshold", "nan"],
        "error: model: direct detection needs a threshold that is a number, got nan",
        id="detect-direct-nan-threshold",
    ),
    pytest.param(
        "", ["markov-check", "TRAJ", "--significance", "nan"],
        "error: model: the Markov check needs a significance that is a number, got nan",
        id="markov-check-nan-significance",
    ),
]


class TestMalformedInputs:
    @pytest.mark.parametrize("doc, argv, line", MALFORMED)
    def test_refused_with_one_error_line(self, capsys, tmp_path, doc, argv, line):
        files = {"TRAJ": tmp_path / "w.traj", "DOC": tmp_path / "doc"}
        files["TRAJ"].write_text("a -\nb -\na -\n")
        files["DOC"].write_text(doc)
        code, out, err = run(capsys, *(str(files[a]) if a in files else a for a in argv))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(line), err


#: per guarded command: the document it reads and each count option's largest value
GUARDED = {
    "simulate": ("model", (), {"--steps": 1000, "--seed": 50}),
    "future": ("model", (), {"--depth": 8}),
    "past": ("model", (), {"--depth": 8}),
    "minimal": ("model", (), {"--depth": 8}),
    "minimize": ("model", (), {"--determinize": 8}),
    "invert": ("model", ("--mode", "mc"), {"--journeys": 1000, "--seed": 50}),
    "invert plus": ("model", ("--mode", "plus-mc"), {"--budget": 50, "--seed": 50}),
    "markov-check": ("trajectory", (), {"--order": 8, "--min-count": 50}),
    "detect": ("trajectory", (), {"--indirect": 50}),
}
SHIPPED = {path.stem: path.read_text() for path in sorted(MODELS_DIR.glob("*.model"))}
WALKS = [serialize_trajectory(simulate(load_model(n), SimulationConfig(60, 1))) for n in ("m1_coin", "daynight")]
#: what a mangled line's token becomes
MANGLED = ["", "-1", "0", "nan", "1e999", "[0.5", "x=", "state", "arrow", "-"]
ERROR_LINE = re.compile(r"error: [a-z-]+: [^\n]+\n")


def count_text(top: int):
    """A count option at and around its edges, or text that is not an integer."""
    return st.one_of(st.sampled_from(["-1", "0", "1", "x", "1.5", ""]), st.integers(2, top).map(str))


@st.composite
def document(draw, kind: str):
    """A shipped or generated document with one line dropped, duplicated or
    mangled (or none), or None for a missing file."""
    source = draw(st.sampled_from(["shipped", "generated", "missing"] if kind == "model" else ["walk", "missing"]))
    if source == "missing":
        return None
    if source == "shipped":
        text = SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))]
    elif source == "generated":
        text = serialize_model(random_model(random.Random(draw(st.integers(0, 2**16)))))
    else:
        text = draw(st.sampled_from(WALKS))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["none", "drop", "duplicate", "mangle"]))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "mangle":
        tokens = lines[i].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(MANGLED))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def invocation(draw):
    """A guarded command's argv, with {doc} for its document, and the document."""
    command = draw(st.sampled_from(sorted(GUARDED)))
    kind, flags, counts = GUARDED[command]
    argv = [command.split()[0], "{doc}", *flags]
    for option, top in counts.items():
        argv += [option, draw(count_text(top))]
    return argv, draw(document(kind))


def run_guarded(argv):
    """Exit code, stdout and stderr of ``main``; argparse's usage errors
    leave through ``SystemExit``, any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(call=invocation())
def test_counts_and_damaged_documents_keep_the_exit_contract(call):
    """Exit 0, 1 or 2 and no exception, for count options at their edges
    over damaged documents; exit 1 prints one ``error: <code>: <detail>``
    line."""
    argv, doc = call
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc"
        if doc is not None:
            path.write_text(doc)
        code, out, err = run_guarded([str(path) if a == "{doc}" else a for a in argv])
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert ERROR_LINE.fullmatch(err), (argv, err)


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stochworld.cli", "validate", M1],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, stochworld.cli; print('numpy' in sys.modules, 'scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False"

    def test_stdin_dash(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stochworld.cli", "analyze", "-"],
            input=open(FIG3).read(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "white-peak: 1" in proc.stdout


#: runs the command, if any, then prints the stochworld modules it loaded
#: (without the package prefix) and fractions, then which of numpy, scipy,
#: dataclasses and inspect it loaded (any of their modules loads the package)
PROBE = (
    "import sys\n"
    "from stochworld.cli import main\n"
    "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "names = [m for m in sys.modules if m.partition('.')[0] in ('stochworld', 'fractions')]\n"
    "print('modules:', *sorted(m.removeprefix('stochworld.') for m in names), file=sys.stderr)\n"
    "print('loaded:', *(m for m in ('numpy', 'scipy', 'dataclasses', 'inspect') if m in sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

#: what ``import stochworld.cli`` loads: parsing a document checks its
#: structure (validation), and validation looks for white peaks (analysis)
CLI_MODULES = {"stochworld", "analysis", "cli", "core", "errors", "format", "validation"}

#: one run of every command, with the modules it loads beyond CLI_MODULES
COMMANDS = [
    (["validate", M1], ""),
    (["analyze", FIG3], ""),
    (["future", M1, "--depth", "3"], "fractions future"),
    (["estimate", "{d}/walk.traj"], "fractions future"),
    (["detect", "{d}/walk.traj", "--indirect", "20"], "events fractions"),
    (["track", "{d}/house.traj", "--model", HOUSE, "--events", "{d}/house.stream"], "events fractions"),
    (["double", M2, "--mode", "parity", "--event", "flip", "--arrows", "{d}/flip.arrows"], "constructions fractions"),
    (["quotient", M2, "--classes", "{d}/classes.txt", "--monitor", "flip={d}/flip.arrows"], "constructions fractions"),
    (["minimize", M2, "--determinize", "3"], "constructions fractions"),
    (["policy-from-preference", RAIN, "--preference", "{d}/royal.pref"], "fractions future"),
    (["export-dot", M1], ""),
    (["invert", M1], "inversion"),
    (["invert", M1, "--mode", "mc", "--seed", "1"], "inversion journeys"),
    (["past", CYCLE3, "--depth", "2"], "fractions future inversion"),
    (["minimal", CYCLE3, "--depth", "3"], "constructions fractions inversion"),
    (["simulate", M1, "--steps", "10", "--seed", "1"], "walk"),
    (["markov-check", "{d}/walk.traj", "--min-count", "5"], "markov"),
]
#: the commands that load numpy: Monte-Carlo journeys
NUMPY_COMMANDS = [["invert", M1, "--mode", "mc", "--seed", "1"]]


class TestStartup:
    """Each command imports only the modules it computes with."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("docs")
        rng = random.Random(5)
        (d / "walk.traj").write_text("".join(f"{rng.choice('ab')} -\n" for _ in range(400)))
        (d / "house.traj").write_text("t0 3\non move\noff move\non move\n")
        (d / "house.stream").write_text("".join(f"{t} move [1,1] direct\n" for t in range(3)))
        (d / "flip.arrows").write_text("B2 true W1\nW2 true B1\n")
        (d / "classes.txt").write_text("B1 B2\nW1 W2\n")
        (d / "royal.pref").write_text("state w: rain > dry\n")
        return d

    def probe(self, argv, docs):
        """The command's stdout, the stochworld modules (and fractions) it
        loaded, and which of numpy, scipy, dataclasses and inspect it loaded."""
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *(a.format(d=docs) for a in argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        modules, loaded = (line.split()[1:] for line in proc.stderr.splitlines()[-2:])
        return proc.stdout, set(modules), loaded

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in COMMANDS if argv not in NUMPY_COMMANDS],
        ids=lambda argv: argv[0],
    )
    def test_pure_command_loads_no_numpy(self, docs, argv):
        """Nor dataclasses or inspect: the value types build their methods
        without them."""
        _, _, loaded = self.probe(argv, docs)
        assert loaded == []

    @pytest.mark.parametrize("argv", NUMPY_COMMANDS, ids=lambda argv: argv[0])
    def test_numpy_command_loads_no_dataclasses(self, docs, argv):
        """numpy imports inspect itself, so only dataclasses is pinned."""
        _, _, loaded = self.probe(argv, docs)
        assert "numpy" in loaded and "dataclasses" not in loaded

    def test_markov_check_loads_no_scipy_stats(self, docs):
        out, _, loaded = self.probe(["markov-check", "{d}/walk.traj", "--min-count", "5"], docs)
        assert "p=" in out
        assert loaded == []

    def test_markov_check_runs_without_scipy(self, docs):
        """With scipy unimportable, the same stdout as with it installed."""
        argv = ["markov-check", f"{docs}/walk.traj", "--min-count", "5"]
        script = "import sys\nsys.modules['scipy'] = None\nfrom stochworld.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        runs = [
            subprocess.run([sys.executable, *head, *argv], capture_output=True, text=True)
            for head in (["-c", script], ["-m", "stochworld.cli"])
        ]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert "p=" in runs[0].stdout and runs[0].stdout == runs[1].stdout

    def test_simulate_with_preference_loads_no_numpy(self, docs, tmp_path):
        """The preference's policy comes from ``future``; the walk draws from
        the standard library."""
        (tmp_path / "rain.model").write_text(
            "model mdp-plus\nobs wet\nact rain dry\nstate w initial trace wet=1\n"
            "arrow w rain w lp=[0.1,0.8] ap=1\narrow w dry w lp=[0.2,0.9] ap=1\n"
        )
        argv = ["simulate", f"{tmp_path}/rain.model", "--steps", "10", "--seed", "1", "--preference", "{d}/royal.pref"]
        out, modules, loaded = self.probe(argv, docs)
        assert out.startswith("t0 10\n")
        assert modules == CLI_MODULES | {"fractions", "future", "walk"} and loaded == []

    @pytest.mark.parametrize(
        "shape, states", [("ring", 34), ("ring", 400), ("all-to-all", 34)], ids=["ring-34", "ring-400", "all-to-all-34"]
    )
    def test_invert_loads_numpy_for_a_dense_remainder(self, docs, tmp_path, shape, states):
        """A fomm ring of any size is censored state by state in plain Python,
        one entry per step; an all-to-all chain of 34 states, 33 unknowns
        whose cheapest step updates 32 x 32 entries, leaves them all to LAPACK."""
        ids = [f"s{i}" for i in range(states)]
        text = f"model fomm\nobs {' '.join(ids)}\nstate s0 initial trace s0=1\n"
        text += "".join(f"state {s} trace {s}=1\n" for s in ids[1:])
        if shape == "ring":
            text += "".join(f"arrow {s} true {s} ap=0.5\narrow {s} true {t} ap=0.5\n" for s, t in zip(ids, ids[1:] + ids[:1]))
        else:
            text += "".join(f"arrow {s} true {t} ap={1 / states!r}\n" for s in ids for t in ids)
        (tmp_path / "chain.model").write_text(text)
        out, modules, loaded = self.probe(["invert", f"{tmp_path}/chain.model"], docs)
        assert out.count("\narrow ") == text.count("\narrow ")
        if shape == "ring":
            assert modules == CLI_MODULES | {"inversion"} and loaded == []
        else:
            assert modules == CLI_MODULES | {"inversion", "journeys"} and "numpy" in loaded

    def test_cli_import_loads_no_computing_module(self, docs):
        _, modules, loaded = self.probe([], docs)
        assert modules == CLI_MODULES and loaded == []

    @pytest.mark.parametrize(
        "argv, extra", [pytest.param(*c, id="invert-mc" if c[0] in NUMPY_COMMANDS else c[0][0]) for c in COMMANDS]
    )
    def test_command_loads_only_its_modules(self, docs, argv, extra):
        _, modules, _ = self.probe(argv, docs)
        assert modules == CLI_MODULES | set(extra.split())
