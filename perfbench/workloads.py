"""The four workloads: one round of seeded requests each, and the request.

A round is a fixed ladder of input sizes; the seed picks the random
structure at each size.  The runner repeats whole rounds, so every run sees
the same mix of sizes and its medians do not depend on where a run stops.

A request makes its library calls through the tracer and hands the output
checks to ``out``; the runner runs them after the request's clock stops.
"""

from __future__ import annotations

import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import speed
from checks import require

#: Seconds one CLI child may take before it is killed and counted as failed.
CHILD_TIMEOUT = 120


@dataclass
class Outcome:
    """Deferred checks and golden text collected while a request runs."""

    checks: list = field(default_factory=list)
    golden: list = field(default_factory=list)

    def check(self, fn, *args) -> None:
        self.checks.append((fn, args))

    def gold(self, fn, *args) -> None:
        """Golden text ``fn(*args)`` of an exact answer."""
        self.golden.append((fn, args))


def refused(tr, error, fn_name: str, fn, *args, **kwargs):
    """(result, None), or (None, exception) when ``fn`` raised ``error``."""
    try:
        return tr.call(fn_name, fn, *args, **kwargs), None
    except error as exc:
        tr.raised_in = ""
        return None, exc


def expect_refusal(exc, predicted, layer: str, what: str) -> None:
    """The call raised exactly the refusal the generator predicted (an
    exception class name), or nothing when ``predicted`` is None."""
    got = type(exc).__name__ if exc is not None else None
    require(got == predicted, layer, f"{what}: refused with {got}, predicted {predicted}")


def predict(*cases) -> str | None:
    """The first refusal whose condition holds: cases are (condition, name)."""
    return next((name for condition, name in cases if condition), None)


def arrow_map(model) -> dict:
    """(source, label, target) -> ((lp lo, hi), (ap lo, hi)) of a model."""
    return {
        (a.source, a.label, a.target): ((a.label_prob.lo, a.label_prob.hi), (a.arrow_prob.lo, a.arrow_prob.hi))
        for a in model.arrows
    }


def stable_classes(spec, partition) -> None:
    checks.stable_partition(spec, [frozenset(c) for c in partition.classes])


def classes_text(partition) -> str:
    return " | ".join(sorted(" ".join(sorted(c)) for c in partition.classes))


# -- model-large --------------------------------------------------------------------

#: (shape, kind, states); chains alternate with n-cycles
LARGE_LADDER = (
    ("chain", "fomm", 250),
    ("cycle", "hmm", 100),
    ("chain", "hmm", 500),
    ("cycle", "hmm", 200),
    ("chain", "fomm", 1000),
    ("cycle", "hmm", 300),
    ("chain", "hmm", 2000),
    ("cycle", "hmm", 400),
)
JOURNEYS = 2000
BELIEF_STEPS = 2000


@dataclass
class LargeItem:
    spec: gen.Spec
    shape: str
    steps: int
    sim_seed: int
    mc_seed: int


class ModelLarge:
    name = "model-large"
    unit = "arrow"
    in_process = True

    def round(self, seed: int) -> list:
        items = []
        for i, (shape, kind, n) in enumerate(LARGE_LADDER):
            rng = random.Random(f"{self.name}/{seed}/{i}")
            spec = gen.chain(rng, n, kind) if shape == "chain" else gen.cycle(rng, n)
            items.append(LargeItem(spec, shape, 12_000 + 2_000 * i, rng.randrange(2**31), rng.randrange(2**31)))
        return items

    def request(self, tr, sw, item: LargeItem, out: Outcome) -> float:
        spec = item.spec
        n, m = len(spec.states), spec.n_arrows
        tr.family = f"{item.shape}-{spec.kind}"
        model = tr.call("parse_model", sw.parse_model, spec.text, size=m)
        text = tr.call("serialize_model", sw.serialize_model, model, size=m)
        out.check(require, text == spec.text, "format", "serialize(parse(document)) differs from the document")
        report = tr.call("validate", sw.validate, model, size=m)
        out.check(require, report.ok and not report.warnings, "validation", f"valid model rejected: {report.violations[:2]}")
        structure = tr.call("analyze", sw.analyze, model, size=m)
        out.check(checks.structure, spec, structure.white_peak, structure.black_hole)

        stats = tr.call("journey_statistics", sw.journey_statistics, model, size=n)
        out.check(checks.flow_balance, spec, stats.visit_counts, stats.arrow_counts, stats.return_count)
        inverse = tr.call("invert_chain", sw.invert_chain, model, size=n)
        out.check(inverse_from_counts, stats.visit_counts, stats.arrow_counts, inverse)
        if item.shape == "cycle":
            # a journey takes exactly n steps here; on random chains the
            # longest of the journeys sets the cost, and it varies tenfold by seed
            mc = tr.call("monte_carlo_invert", sw.monte_carlo_invert, model, JOURNEYS, item.mc_seed, size=n)
            out.check(sampled_inverse, spec, mc, True)

        trajectory = tr.call("simulate", sw.simulate, model, sw.SimulationConfig(item.steps, item.sim_seed), size=item.steps)
        observations = trajectory.observations()
        out.check(checks.cycle_walk if item.shape == "cycle" else checks.walk, spec, observations)
        estimated = tr.call("estimate_fomm", sw.estimate_fomm, trajectory, size=item.steps)
        out.check(estimate, observations, trajectory.t0, estimated)

        belief = sw.Belief.point(model.initial_state.id)
        beliefs = []
        for o in observations[1 : BELIEF_STEPS + 1]:
            belief = tr.call("step_belief", sw.step_belief, model, belief, "true", o, size=1)
            beliefs.append(belief)
        out.check(filtered, spec, observations[1 : BELIEF_STEPS + 1], beliefs)

        reduced, partition = tr.call("minimize_forward", sw.minimize_forward, model, size=n)
        tr.count("constructions.minimize_forward.state_ratio", len(reduced.states) / n)
        out.check(stable_classes, spec, partition)
        if item.shape == "cycle":
            out.check(require, len(reduced.states) == n, "constructions", f"{n}-cycle minimized to {len(reduced.states)} states")
        out.gold(classes_text, partition)
        return m


def inverse_from_counts(visits: dict, counts: dict, inverse_model) -> None:
    """The inverse arrow t -> s carries count(s -> t) / visits(t)."""
    inverse = arrow_map(inverse_model)
    require(set(inverse) == {(t, l, s) for s, l, t in counts}, "inversion", "inverse arrows are not the reversed arrows")
    for (s, label, t), c in counts.items():
        got = inverse[(t, label, s)][1][0]
        require(checks.close(got, c / visits[t]), "inversion", f"inverse {t}->{s} = {got}, counted {c / visits[t]}")


def sampled_inverse(spec: gen.Spec, model, deterministic: bool) -> None:
    arrows = arrow_map(model)
    checks.reversed_keys(spec, arrows)
    checks.out_sums(arrows, "inversion")
    if deterministic:
        require(all(ap == (1.0, 1.0) for _, ap in arrows.values()), "inversion", "cycle inverse is not deterministic")


def estimate(observations, t0: int, model) -> None:
    checks.estimate(observations, t0, arrow_map(model), model.initial_state.id)


def filtered(spec: gen.Spec, observations, beliefs) -> None:
    """Belief filtering keeps only states that show the observation; a fully
    observable or deterministic walk keeps exactly one."""
    single = spec.kind == "fomm" or all(a.ap == gen.ONE for a in spec.arrows)
    for t, (o, belief) in enumerate(zip(observations, beliefs)):
        support = belief.probs
        require(all(o in spec.trace_of[s] for s in support), "core", f"belief at step {t} holds states that cannot show {o}")
        require(not single or len(support) == 1, "core", f"belief at step {t} is not a point mass")


# -- event-log ----------------------------------------------------------------------

LOG_STEPS = 10_000
#: (states, events, observations, validity window), each used by three of
#: the round's models: fifteen distinct models keep one seed's unlucky
#: structure from moving the median
LOG_LADDER = ((3, 2, 3, 350), (4, 2, 3, 425), (4, 3, 4, 500), (5, 3, 4, 575), (6, 3, 4, 650))
LOG_MODELS = 15
INDIRECT_WINDOW = 50
INDIRECT_THRESHOLD = 0.4


@dataclass
class LogItem:
    spec: gen.Spec
    charfns: str
    fns: list
    window: int
    sim_seed: int


class EventLog:
    name = "event-log"
    unit = "step"
    in_process = True

    def round(self, seed: int) -> list:
        items = []
        for i in range(LOG_MODELS):
            n_states, n_events, n_obs, window = LOG_LADDER[i % len(LOG_LADDER)]
            rng = random.Random(f"{self.name}/{seed}/{i}")
            spec = gen.ed_model(rng, n_states, n_events, n_obs)
            doc, fns = gen.charfns(rng, spec)
            items.append(LogItem(spec, doc, fns, window, rng.randrange(2**31)))
        return items

    def request(self, tr, sw, item: LogItem, out: Outcome) -> float:
        spec, n = item.spec, LOG_STEPS
        model = tr.call("parse_model", sw.parse_model, spec.text, size=spec.n_arrows)
        trajectory, stream = tr.call("simulate_events", sw.simulate_events, model, sw.SimulationConfig(n, item.sim_seed), size=n)
        observations = trajectory.observations()
        fired = [(o.time, o.label) for o in stream.occurrences]
        out.check(checks.observations_fit, spec, fired, observations)

        text = tr.call("serialize_trajectory", sw.serialize_trajectory, trajectory, size=n)
        out.check(require, text == checks.trajectory_text(observations, n), "format", "trajectory document differs")
        parsed = tr.call("parse_trajectory", sw.parse_trajectory, text, size=n)
        out.check(require, parsed == trajectory, "format", "trajectory round trip differs")
        events_text = tr.call("serialize_event_stream", sw.serialize_event_stream, stream, size=len(fired))
        out.check(require, events_text == checks.stream_text(fired), "events", "event stream document differs")
        events = tr.call("parse_event_stream", sw.parse_event_stream, events_text, size=len(fired))
        out.check(require, events == stream, "events", "event stream round trip differs")

        fns = tr.call("parse_charfns", sw.parse_charfns, item.charfns, size=len(item.fns))
        detected = tr.call("detect_direct", sw.detect_direct, parsed, fns, 0.5, size=n)
        found = [(o.time, o.label) for o in detected.occurrences]
        tr.count("events.detect_direct.hit_ratio", len(found) / (n * len(item.fns)))
        out.check(checks.direct_detections, item.fns, observations, found)
        shifts, segments = tr.call(
            "detect_indirect", sw.detect_indirect, parsed, INDIRECT_WINDOW, INDIRECT_THRESHOLD, size=n
        )
        out.check(
            checks.indirect_detections, observations, INDIRECT_WINDOW, INDIRECT_THRESHOLD,
            [o.time for o in shifts.occurrences], segments,
        )

        result = tr.call("track", sw.track, model, parsed, events, size=n)
        tr.count("events.track.warnings", len(result.warnings))
        out.check(checks.tracked, spec, fired, result.beliefs, result.final_belief)
        derived = tr.call("derived_events", sw.derived_events, model, result.beliefs, 0.5, size=n)
        out.check(checks.derived, spec, result.beliefs, derived.occurrences, 0.5)
        markov = tr.call("check_markov", sw.check_markov, parsed, size=n)
        out.check(checks.markov_symbols, observations, [t.symbol for t in markov.tests], [t.p_value for t in markov.tests])

        w = item.window
        glitches = (w // 3, 2 * w // 3)
        window_obs = list(observations[n - w :])
        for g in glitches:
            window_obs[g] = gen.GLITCH
        window_events = [(t - (n - w), label) for t, label in fired if t >= n - w]
        window = tr.call("parse_trajectory", sw.parse_trajectory, checks.trajectory_text(window_obs, w), size=w)
        window_stream = tr.call(
            "parse_event_stream", sw.parse_event_stream, checks.stream_text(window_events), size=len(window_events)
        )
        spans = tr.call("phenomenon_validity", sw.phenomenon_validity, model, window, window_stream, size=w)
        tr.count("events.phenomenon_validity.spans", len(spans))
        out.check(checks.validity_spans, w, glitches, [(s.start, s.end, s.permanent_so_far) for s in spans])
        return n


# -- model-batch --------------------------------------------------------------------

#: seven kinds x six sizes x 24: the heaviest 5% (the p95 tail) spans fifty
#: distinct models, so it varies little from seed to seed
BATCH_MODELS = 1008
FUTURE_DEPTH = 6
MINIMAL_DEPTH = 8
#: Development cap passed to enumerate_future: words of tiny models with
#: larger alphabets outgrow it, and the subset construction predicts when.
DEV_CAP = 100
PLUS_BUDGET = 8
BATCH_JOURNEYS = 500
ED_STEPS = 200


@dataclass
class BatchItem:
    spec: gen.Spec
    sim_seed: int


class ModelBatch:
    name = "model-batch"
    unit = "model"
    in_process = True

    def round(self, seed: int) -> list:
        """The same mix in every round: each kind at each size 24 times,
        a quarter of them with a white peak, alphabets of one to three
        symbols in turn.  The seed picks arrows and probabilities, so each
        seed's round costs about the same."""
        items = []
        kinds = len(gen.TINY_KINDS)
        for i in range(BATCH_MODELS):
            rng = random.Random(f"{self.name}/{seed}/{i}")
            group = i // (6 * kinds)
            spec = gen.tiny(
                rng, gen.TINY_KINDS[i % kinds], 1 + (i // kinds) % 6,
                with_peak=group % 4 == 0, alphabet=1 + (group + i // kinds) % 3,
            )
            items.append(BatchItem(spec, rng.randrange(2**31)))
        return items

    def request(self, tr, sw, item: BatchItem, out: Outcome) -> float:
        spec = item.spec
        n, m = len(spec.states), spec.n_arrows
        tr.family = spec.kind
        model = tr.call("parse_model", sw.parse_model, spec.text, size=m)
        text = tr.call("serialize_model", sw.serialize_model, model, size=m)
        out.check(require, text == spec.text, "format", "serialize(parse(document)) differs from the document")
        report = tr.call("validate", sw.validate, model, size=m)
        out.check(require, report.ok and not report.warnings, "validation", f"valid {spec.kind} rejected: {report.violations[:2]}")
        structure = tr.call("analyze", sw.analyze, model, size=m)
        out.check(checks.structure, spec, structure.white_peak, structure.black_hole)
        out.gold(lambda r: f"{sorted(r.white_peak)} {sorted(r.black_hole)}", structure)

        sizes = spec.layer_sizes(FUTURE_DEPTH)
        future, exc = refused(tr, sw.CapExceededError, "enumerate_future", sw.enumerate_future, model, FUTURE_DEPTH, cap=DEV_CAP)
        out.check(expect_refusal, exc, predict((max(sizes) > DEV_CAP, "CapExceededError")), "simulate", "future cap")
        if future is not None:
            tr.count("simulate.enumerate_future.developments", len(future.entries))
            tr.resize_last(len(future.entries))
            out.check(checks.development_count, len(future.entries), sizes)
            if spec.point_probs and spec.kind in ("fomm", "hmm", "mdp-fixed"):
                out.check(checks.total_mass, sum(p.lo for p in future.entries.values()))
            out.gold(render_future, future)

        if spec.kind in gen.CHAIN_KINDS:
            self.chain_requests(tr, sw, spec, model, item.sim_seed, out)
        elif spec.kind == "mdp-plus":
            inverse, exc = refused(tr, sw.WhitePeakError, "invert_mdp_plus", sw.invert_mdp_plus, model, "vertex", PLUS_BUDGET, size=m)
            out.check(expect_refusal, exc, predict((spec.white_peak, "WhitePeakError")), "inversion", "interval inversion")
            if inverse is not None:
                out.check(interval_inverse, spec, inverse)
        elif spec.kind == "ed":
            trajectory, stream = tr.call(
                "simulate_events", sw.simulate_events, model, sw.SimulationConfig(ED_STEPS, item.sim_seed), size=ED_STEPS
            )
            fired = [(o.time, o.label) for o in stream.occurrences]
            out.check(checks.observations_fit, spec, fired, trajectory.observations())
            result = tr.call("track", sw.track, model, trajectory, stream, size=ED_STEPS)
            tr.count("events.track.warnings", len(result.warnings))
            out.check(checks.tracked, spec, fired, result.beliefs, result.final_belief)
        return 1

    def chain_requests(self, tr, sw, spec, model, seed: int, out: Outcome) -> None:
        n = len(spec.states)
        peak = predict((spec.white_peak, "WhitePeakError"))
        # without a white peak the tiny chains are strongly connected, and
        # the inverse walks every arrow backwards
        sizes = spec.layer_sizes(FUTURE_DEPTH, reverse=True) if peak is None else [0]
        past, exc = refused(
            tr, (sw.WhitePeakError, sw.CapExceededError), "enumerate_past", sw.enumerate_past, model, FUTURE_DEPTH, cap=DEV_CAP
        )
        out.check(expect_refusal, exc, peak or predict((max(sizes) > DEV_CAP, "CapExceededError")), "simulate", "past")
        if past is not None:
            out.check(checks.development_count, len(past.entries), sizes)
            out.check(checks.total_mass, sum(p.lo for p in past.entries.values()))
            tr.resize_last(len(past.entries))
        inverse, exc = refused(tr, sw.WhitePeakError, "invert_chain", sw.invert_chain, model, size=n)
        out.check(expect_refusal, exc, peak, "inversion", "chain inversion")
        if inverse is not None:
            out.check(lambda model: checks.time_reversal(spec, arrow_map(model)), inverse)
        sampled, exc = refused(
            tr, sw.WhitePeakError, "monte_carlo_invert", sw.monte_carlo_invert, model, BATCH_JOURNEYS, seed, size=n
        )
        out.check(expect_refusal, exc, peak, "inversion", "sampled inversion")
        if sampled is not None:
            out.check(sampled_inverse, spec, sampled, False)

        det = tr.call("belief_determinize", sw.belief_determinize, model, MINIMAL_DEPTH, size=n)
        tr.count("constructions.belief_determinize.truncated", any("truncated" in note for note in det.meta))
        out.check(determinized, det)
        out.gold(lambda model: " ".join(sorted(f"{k}:{v}" for k, v in arrow_map(model).items())), det)

        reduced, partition = tr.call("minimize_forward", sw.minimize_forward, model, size=n)
        tr.count("constructions.minimize_forward.state_ratio", len(reduced.states) / n)
        out.check(stable_classes, spec, partition)
        out.gold(classes_text, partition)

        joined, exc = refused(tr, sw.WhitePeakError, "minimal_model", sw.minimal_model, model, MINIMAL_DEPTH, size=n)
        out.check(expect_refusal, exc, peak, "constructions", "minimal model")
        if joined is not None:
            out.check(starts_now, joined)


def render_future(future) -> str:
    return " ".join(sorted(f"{dev.render(False)}={p.lo!r},{p.hi!r}" for dev, p in future.entries.items()))


def determinized(model) -> None:
    checks.deterministic(list(arrow_map(model)), {s.id: next(iter(s.trace.probs)) for s in model.states})


def starts_now(model) -> None:
    initial = [s.id for s in model.states if s.initial]
    require(initial == ["now"], "constructions", f"minimal model starts in {initial}")


def interval_inverse(spec: gen.Spec, model) -> None:
    arrows, meta = arrow_map(model), model.meta
    checks.reversed_keys(spec, arrows)
    for key, (lp, ap) in arrows.items():
        require(0.0 <= lp[0] <= lp[1] <= 1.0 and 0.0 <= ap[0] <= ap[1] <= 1.0, "inversion", f"bad interval on {key}")
    explored = [int(note.split()[-3]) for note in meta if note.startswith("approximate:")]
    require(len(explored) == 1 and 1 <= explored[0] <= PLUS_BUDGET, "inversion", f"resolution note {meta}")


# -- cli-tiny -----------------------------------------------------------------------


@dataclass
class CliItem:
    name: str
    argv: list
    #: check(stdout, stderr) -> None; stderr excludes import-time lines
    check: object
    golden: bool = False


def expect_text(want: str):
    def check(stdout: str, stderr: str) -> None:
        require(stdout == want, "cli", f"printed {stdout[:80]!r}, expected {want[:80]!r}")

    return check


def analysis_text(spec: gen.Spec) -> str:
    lines = [
        "white-peak:" + "".join(f" {s}" for s in sorted(spec.white_peak)),
        "black-hole:" + "".join(f" {s}" for s in sorted(spec.black_hole)),
        "redundant:" + "".join(f" {s}" for s in sorted(spec.white_peak & spec.black_hole)),
        f"memory-bits: {checks.memory_bits(spec)}",
    ]
    return "\n".join(lines) + "\n"


def developments(spec: gen.Spec, depth: int, reverse: bool):
    def check(stdout: str, stderr: str) -> None:
        probs = [float(line.split()[-1]) for line in stdout.splitlines()]
        checks.development_count(len(probs), spec.layer_sizes(depth, reverse), "cli")
        checks.total_mass(sum(probs), "cli")

    return check


def trajectory_file(path: Path) -> tuple:
    """(observations, t0) of an unacted trajectory document."""
    lines = path.read_text().splitlines()
    require(lines and lines[0].startswith("t0 "), "cli", f"{path.name} has no t0 header")
    return [line.split()[0] for line in lines[1:]], int(lines[0].split()[1])


class CliTiny:
    """One ``stochworld.cli`` process at a time, a metered child that runs
    the module as ``python -m`` does; pipelines pass files in a scratch
    directory of the checkout."""

    name = "cli-tiny"
    unit = "command"
    in_process = False

    def __init__(self, root: Path, workdir: Path, env: dict):
        self.root, self.workdir, self.env = root, workdir, env

    def round(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        chain = gen.chain(rng, rng.randint(3, 5), "fomm")
        other = gen.tiny(rng, rng.choice(gen.TINY_KINDS))
        ring, charfns = gen.ring(rng, rng.randint(2, 4))
        sim_seed, ring_seed = rng.randrange(2**31), rng.randrange(2**31)
        wd = self.workdir
        wd.mkdir(parents=True, exist_ok=True)
        for name, text in (("chain.model", chain.text), ("other.model", other.text), ("ring.model", ring.text), ("ring.charfn", charfns)):
            (wd / name).write_text(text)
        coin = str(self.root / "models" / "m1_coin.model")

        def inverse(stdout, stderr):
            checks.time_reversal(chain, checks.arrow_lines(stdout))

        def minimal(stdout, stderr):
            tokens = checks.state_lines(stdout).get("now", [])
            require("initial" in tokens, "cli", "minimal model does not start in now")

        def walked(stdout, stderr):
            obs, t0 = trajectory_file(wd / "run.traj")
            require(len(obs) == 5000 and t0 == 5000, "cli", "simulate wrote the wrong number of steps")
            checks.walk(chain, obs)

        def estimated(stdout, stderr):
            obs, t0 = trajectory_file(wd / "run.traj")
            text = (wd / "est.model").read_text()
            initial = [s for s, tokens in checks.state_lines(text).items() if "initial" in tokens]
            require(len(initial) == 1, "cli", "estimate has no single initial state")
            checks.estimate(obs, t0, checks.arrow_lines(text), initial[0])

        def markov(stdout, stderr):
            obs, _ = trajectory_file(wd / "run.traj")
            if stdout != "inconclusive\n":
                symbols = [line.split()[1].rstrip(":") for line in stdout.splitlines()]
                require(symbols == sorted(set(obs)), "cli", "markov-check does not test each symbol once")

        ring_obs = {s.id: next(iter(s.trace)) for s in ring.states}
        k = len(ring.states)
        moves = {(f"w{i}", f"w{(i + 1) % k}"): f"go{i}" for i in range(k)}

        def ring_walked(stdout, stderr):
            obs, _ = trajectory_file(wd / "ring.traj")
            require(obs[0] == "w0", "cli", "ring walk does not start in r0")
            for pair in zip(obs, obs[1:]):
                require(pair[0] == pair[1] or pair in moves, "cli", f"ring walk jumps {pair}")

        def detected(stdout, stderr):
            obs, _ = trajectory_file(wd / "ring.traj")
            want = {(t, moves[p]) for t, p in enumerate(zip(obs, obs[1:])) if p in moves}
            got = {(int(t), label) for t, label, *_ in (line.split() for line in (wd / "ring.stream").read_text().splitlines() if line)}
            require(got == want, "cli", f"{len(got)} detections, recounted {len(want)}")

        def tracked(stdout, stderr):
            obs, _ = trajectory_file(wd / "ring.traj")
            last = next(s for s, o in ring_obs.items() if o == obs[-1])
            require(stdout == f"belief {last} 1\n", "cli", f"track printed {stdout[:60]!r}, expected belief {last} 1")
            require(not stderr.strip(), "cli", f"track warned: {stderr[:80]!r}")

        return [
            CliItem("validate-shipped", ["validate", coin], expect_text("ok\n")),
            CliItem("validate", ["validate", "other.model"], expect_text("ok\n")),
            CliItem("analyze", ["analyze", "other.model"], expect_text(analysis_text(other))),
            CliItem("invert", ["invert", "chain.model"], inverse),
            CliItem("future", ["future", "chain.model", "--depth", "6"], developments(chain, 6, False), golden=True),
            CliItem("past", ["past", "chain.model", "--depth", "4"], developments(chain, 4, True)),
            CliItem("minimal", ["minimal", "chain.model", "--depth", "8"], minimal),
            CliItem("simulate", ["simulate", "chain.model", "--steps", "5000", "--seed", str(sim_seed), "-o", "run.traj"], walked),
            CliItem("estimate", ["estimate", "run.traj", "-o", "est.model"], estimated),
            CliItem("markov-check", ["markov-check", "run.traj"], markov),
            CliItem("simulate-ring", ["simulate", "ring.model", "--steps", "3000", "--seed", str(ring_seed), "-o", "ring.traj"], ring_walked),
            CliItem("detect", ["detect", "ring.traj", "--direct", "ring.charfn", "-o", "ring.stream"], detected),
            CliItem("track", ["track", "ring.traj", "--model", "ring.model", "--events", "ring.stream"], tracked),
        ]

    def request(self, tr, sw, item: CliItem, out: Outcome) -> float:
        argv = speed.child_argv(sys.executable, "run", "stochworld.cli", item.argv, importtime=tr.enabled)
        proc = tr.call(
            "process", subprocess.run, argv, cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, size=1,
        )
        tr.timing.inner, log = speed.child_report(proc.stderr)
        stderr = "".join(line + "\n" for line in log.splitlines() if not line.startswith("import time:"))
        if tr.enabled:
            tr.cli_sample(log)
        out.check(require, proc.returncode == 0, "cli", f"{item.name} exited {proc.returncode}: {stderr[-200:]!r}")
        out.check(item.check, proc.stdout, stderr)
        if item.golden:
            out.gold(str, proc.stdout)
        return 1
