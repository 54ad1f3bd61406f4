"""model-format: parsing, canonical serialization, DOT export, trajectories."""

import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from stochworld import (
    FormatError,
    ProbInterval,
    TraceSpec,
    Trajectory,
    canonical,
    export_dot,
    parse_model,
    parse_trajectory,
    serialize_model,
    serialize_trajectory,
    validate,
)
from stochworld.core import POINT_ONE
from stochworld.format import RESERVED_SYMBOLS, fmt_interval, fmt_num

from genmodels import random_model
from helpers import load_model, parse_trajectory_by_lines, random_trajectory_document


class TestParseModel:
    def test_coin_document(self, m1):
        assert len(m1.states) == 2
        assert len(m1.arrows) == 4
        assert m1.initial_state.id == "B"

    def test_undeclared_target_names_state_and_line(self):
        text = "model fomm\nobs A\nstate A initial trace A=1\narrow A true Z ap=1\n"
        with pytest.raises(FormatError) as err:
            parse_model(text)
        assert "Z" in str(err.value)

    def test_syntax_error_carries_line_number(self):
        text = "model fomm\nobs A\nstate A initial trace A=oops\n"
        with pytest.raises(FormatError) as err:
            parse_model(text)
        assert err.value.line == 3

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse_model("model banana\nobs A\nstate A initial\n")

    def test_duplicate_state(self):
        text = "model fomm\nobs A\nstate A initial trace A=1\nstate A trace A=1\n"
        with pytest.raises(FormatError):
            parse_model(text)

    def test_kind_violations_still_parse(self):
        text = (
            "model hmm\nobs a\nstate s initial trace a=1\nstate t trace a=1\n"
            "arrow s true t ap=0.75\narrow s true s ap=0.5\narrow t true s ap=1\n"
        )
        model = parse_model(text)
        assert validate(model).violations == ["state s: outgoing probabilities sum to 1.25, above 1"]

    def test_structural_faults_keep_their_text(self):
        text = (
            "model ed\nobs x\nevent go\nstate s initial trace x=1 y=1\nstate s\n"
            "arrow s stop t\npriority halt 1\n"
        )
        with pytest.raises(FormatError) as err:
            parse_model(text)
        assert str(err.value) == (
            "duplicate state ids: ['s']; arrow to undeclared state 't'; "
            "arrow label 'stop' not in the label alphabet; "
            "state s: trace observation 'y' not in the alphabet; priority for unknown event 'halt'"
        )

    def test_inverted_interval(self):
        text = "model mdp-plus\nobs x\nact a\nstate s initial\narrow s a s lp=[0.8,0.2] ap=1\n"
        with pytest.raises(FormatError):
            parse_model(text)

    def test_equal_interval_tokens_share_one_object(self):
        text = (
            "model hmm\nobs a b\nstate s initial trace a=0.5 b=0.5\nstate t trace a=[0.25,1]\n"
            "arrow s true t ap=0.5\narrow s true s ap=0.5\narrow t true s ap=[0.25,1]\narrow t true t ap=.5\n"
        )
        model = parse_model(text)
        s, t = (model.by_id[sid].trace.probs for sid in ("s", "t"))
        first, second, third, fourth = model.arrows
        assert s["a"] is s["b"] is first.arrow_prob is second.arrow_prob
        assert t["a"] is third.arrow_prob == ProbInterval(0.25, 1)
        assert fourth.arrow_prob == first.arrow_prob  # another token, an equal value
        assert first.label_prob is third.label_prob is POINT_ONE  # the hmm default
        # tokens are shared within one document, not across documents
        assert parse_model(text).arrows[0].arrow_prob is not first.arrow_prob

    @pytest.mark.parametrize(
        "text, line",
        [
            ("model hmm\nobs a\nstate s initial trace a=oops\narrow s true s ap=oops\n", 3),
            ("model hmm\nobs a\nstate s initial trace a=1\narrow s true s ap=1.5\narrow s true s ap=1.5\n", 4),
            ("model smdp\nobs a\nact x\nstate s initial\narrow s x s lp=1 ap=[1,0]\narrow s x s lp=[1,0]\n", 5),
        ],
    )
    def test_bad_interval_token_fails_on_its_first_line(self, text, line):
        with pytest.raises(FormatError, match="bad probability") as err:
            parse_model(text)
        assert err.value.line == line

    def test_rain_agent_interval(self, rain):
        arrow = next(a for a in rain.arrows if (a.source, a.label) == ("w", "rain"))
        assert arrow.label_prob == ProbInterval(0.1, 0.8)

    def test_untraced_fomm_state_observes_itself(self):
        model = parse_model(
            "model fomm\nobs A B\nstate A initial\nstate B memory\narrow A true B\narrow B true A\n"
        )
        assert model.by_id["A"].trace == TraceSpec({"A": ProbInterval.point(1.0)})
        assert model.by_id["B"].trace == TraceSpec({"B": ProbInterval.point(1.0)}, memory=True)
        assert validate(model).ok

    def test_kind_violations_do_not_abort(self):
        # fomm whose states do not match the alphabet still parses
        text = "model fomm\nobs A B\nstate A initial trace A=1\narrow A true A ap=1\n"
        model = parse_model(text)
        assert model.kind == "fomm"


class TestSerializeModel:
    def test_round_trip_coin(self, m1):
        assert parse_model(serialize_model(m1)) == canonical(m1)

    def test_deterministic(self, m1):
        assert serialize_model(m1) == serialize_model(m1)

    def test_point_interval_prints_bare(self):
        assert fmt_interval(ProbInterval(0.5, 0.5)) == "0.5"
        assert fmt_interval(ProbInterval(0.25, 0.75)) == "[0.25,0.75]"
        assert fmt_num(1.0) == "1"

    def test_all_checked_in_models_round_trip(self):
        for name in ("m1_coin", "m2_bbww", "fig3", "cycle3", "daynight", "house", "rain"):
            model = load_model(name)
            text = serialize_model(model)
            again = parse_model(text)
            assert again == canonical(model), name
            assert serialize_model(again) == text, name

    def test_memory_and_phenomena_round_trip(self):
        text = (
            "model ed storms\nobs wet dry\nevent thunder\n"
            "state calm initial trace dry=[0.5,1] phenomena daynight tide\n"
            "state storm memory trace wet=[0,1]\n"
            "arrow calm thunder storm lp=[0,1] ap=1\n"
            "priority thunder 1\n"
        )
        model = parse_model(text)
        by_id = {s.id: s for s in model.states}
        assert by_id["calm"].trace.phenomena == ("daynight", "tide")
        assert by_id["storm"].trace.memory
        assert model.priorities == {"thunder": 1}
        assert model.name == "storms"
        serialized = serialize_model(model)
        assert parse_model(serialized) == canonical(model)
        assert serialize_model(parse_model(serialized)) == serialized


class TestRandomRoundTrip:
    def test_seeded_sample(self):
        rng = random.Random(20260808)
        for _ in range(200):
            model = random_model(rng)
            text = serialize_model(model)
            parsed = parse_model(text)
            assert parsed == canonical(model)
            assert serialize_model(parsed) == text


#: Every symbol a model document can declare: one token, not reserved.
SYMBOLS = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6).filter(
    lambda s: s.split() == [s] and s not in RESERVED_SYMBOLS and not s.startswith("#")
)


class TestTrajectoryFormat:
    def test_t0_header(self):
        t = parse_trajectory("t0 2\nB -\nW -\nB -\nW -\n")
        assert t.t0 == 2 and len(t) == 4

    def test_t0_defaults_to_end(self):
        t = parse_trajectory("\n".join(["B -"] * 10))
        assert t.t0 == 10

    def test_unknown_symbol_against_model(self, m1):
        with pytest.raises(FormatError):
            parse_trajectory("B -\nQ -\n", model=m1)

    def test_unknown_action_against_header(self):
        with pytest.raises(FormatError):
            parse_trajectory("obs B\nact go\nB stay\n")

    def test_round_trip(self):
        t = Trajectory.of([("B", "go"), ("W", None)], t0=1)
        text = serialize_trajectory(t)
        assert parse_trajectory(text) == t

    def test_bad_t0(self):
        with pytest.raises(FormatError):
            parse_trajectory("t0 7\nB -\n")

    @pytest.mark.parametrize("header", ["t0 1", "obs a b", "act go"])
    def test_header_after_first_step_refused(self, header):
        # read as a step, "t0 1" became the step ('t0', '1'), which does not serialize
        with pytest.raises(FormatError, match="line 3") as err:
            parse_trajectory(f"a\nb\n{header}\n")
        assert header.split()[0] in str(err.value)

    def test_steps_built_once(self):
        t = parse_trajectory("a go\nb -\na go\nb\na\n")
        assert t == Trajectory(("a", "b", "a", "b", "a"), ("go", None, "go", None, None), 5)
        with pytest.raises(FormatError, match="line 3: unknown action 'stay'"):
            parse_trajectory("act go\na go\na stay\na stay\n")

    @pytest.mark.parametrize("header", ["t0", "t0 1 2"])
    def test_t0_header_needs_one_index(self, header):
        with pytest.raises(FormatError, match="line 1: expected: t0 <index>"):
            parse_trajectory(f"{header}\na\n")

    @pytest.mark.parametrize("sym", ["obs", "act", "t0", "#x"])
    def test_reserved_observation_refused(self, sym):
        with pytest.raises(FormatError, match="reserved"):
            parse_model(f"model fomm\nobs {sym} y\nstate s initial trace y=1\narrow s true s\n")
        with pytest.raises(FormatError, match="reserved"):
            serialize_trajectory(Trajectory.of([("y", None), (sym, None)]))

    @pytest.mark.parametrize("sym", ["obs", "act", "t0", "-"])
    def test_reserved_label_refused(self, sym):
        with pytest.raises(FormatError, match="reserved"):
            parse_model(f"model mdp\nobs y\nact go {sym}\nstate s initial trace y=1\n")
        with pytest.raises(FormatError, match="reserved"):
            serialize_trajectory(Trajectory.of([("y", sym)]))

    @pytest.mark.parametrize(
        "text, what", [("- go\n", "observation '-'"), ("a #b\n", "action '#b'"), ("a t0\n", "action 't0'")]
    )
    def test_parse_refuses_what_serialize_refuses(self, text, what):
        with pytest.raises(FormatError, match=f"line 3: {what} is reserved"):
            parse_trajectory("a go\na go\n" + text)

    @given(
        st.lists(
            st.tuples(SYMBOLS, st.one_of(st.none(), SYMBOLS)),
            max_size=8,
        ),
        st.data(),
    )
    def test_round_trip_of_arbitrary_symbols(self, steps, data):
        t = Trajectory.of(steps, t0=data.draw(st.integers(0, len(steps))))
        assert parse_trajectory(serialize_trajectory(t)) == t

    def test_reader_equals_line_oracle(self):
        """The reader that parses each distinct line once returns what the
        line-by-line reader returns, or raises the same refusal at the same
        line."""
        rng = random.Random(20261019)
        model = parse_model("model mdp\nobs a b c\nact go stay\nstate s initial trace a=1\narrow s go s lp=1 ap=1\n")
        seen = Counter()
        for i in range(2400):
            text = random_trajectory_document(rng)
            given_model = model if rng.random() < 0.2 else None
            want = _read(parse_trajectory_by_lines, text, given_model)
            got = _read(parse_trajectory, text, given_model)
            assert got == want, (i, text)
            seen["refused" if isinstance(want, str) else "read"] += 1
            seen["repeated step lines"] += not isinstance(want, str) and len(set(zip(want.obs, want.acts))) < len(want)
        assert seen["read"] >= 500 and seen["refused"] >= 500 and seen["repeated step lines"] >= 300, seen


def _read(reader, text, model):
    """The trajectory, or the refusal's text."""
    try:
        return reader(text, model)
    except FormatError as exc:
        return str(exc)


DOT_EDGE = re.compile(r'^\s+"[^"]*" -> "[^"]*" \[label="[^"]*", color="[^"]*"\];$')
DOT_NODE = re.compile(r'^\s+"[^"]*" \[shape=circle(, peripheries=2)?\];$')


def check_dot_grammar(text: str):
    """Tiny DOT checker: digraph wrapper, then only node/edge/attr statements."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph model {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if line.strip() == "rankdir=LR;":
            continue
        if DOT_NODE.match(line):
            nodes += 1
        elif DOT_EDGE.match(line):
            edges += 1
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


class TestExportDot:
    def test_coin(self, m1):
        text = export_dot(m1)
        nodes, edges = check_dot_grammar(text)
        assert nodes == 2 and edges == 4
        assert text.count("peripheries=2") == 1

    def test_daynight_colours(self, daynight):
        text = export_dot(daynight)
        check_dot_grammar(text)
        colours = set(re.findall(r'color="([^"]+)"', text))
        assert len(colours) == 2  # sunset and sunrise in distinct colours

    def test_isolated_nodes(self):
        model = parse_model("model hmm\nobs x\nstate a initial trace x=1\nstate b trace x=1\n")
        nodes, edges = check_dot_grammar(export_dot(model))
        assert nodes == 2 and edges == 0

    def test_random_models_stay_grammatical(self):
        rng = random.Random(7)
        for _ in range(50):
            check_dot_grammar(export_dot(random_model(rng)))
