"""Shared test helpers: model builders, checked-in model loading, and the
reference implementations that fast paths are compared against."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.stats import chi2_contingency

from stochworld import (
    Arrow,
    Belief,
    CapExceededError,
    EventOccurrence,
    EventStream,
    FormatError,
    FutureSet,
    JourneyError,
    JourneyStatistics,
    Model,
    ModelError,
    Partition,
    Policy,
    Preference,
    ProbInterval,
    SimulationConfig,
    State,
    TraceSpec,
    Trajectory,
    WhitePeakError,
    belief_determinize,
    canonical,
    find_white_peak,
    invert_chain,
    minimize_forward,
    parse_model,
)
from stochworld.constructions import _doubled_kind
from stochworld.core import ACTION_KINDS, POINT_ONE, SUM_TOL, TOL, checked_int, compose_policy, ordered_sum, replace
from stochworld.events import _labels_at
from stochworld.format import _check_symbols, _lines, parse_interval
from stochworld.inversion import _invert_by_flow, _sample_simplex_box, _simplex_box_vertices
from stochworld.markov import MarkovReport, SymbolTest
from stochworld.walk import _resolve_agent

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def load_model(name: str) -> Model:
    return parse_model((MODELS_DIR / f"{name}.model").read_text())


class ArrowIndex:
    """The tests' own index of a model's arrows, built from ``model.arrows``
    and independent of ``Model.compiled``: per state, and per (state, label),
    the arrows out of it in model order."""

    def __init__(self, model: Model):
        self.labels = model.labels
        self.out: dict = {s.id: [] for s in model.states}
        self.by_label: dict = {}
        for a in model.arrows:
            self.out.setdefault(a.source, []).append(a)
            self.by_label.setdefault((a.source, a.label), []).append(a)

    def labels_from(self, sid: str) -> tuple:
        """Labels with at least one arrow out of the state, in alphabet order."""
        present = {a.label for a in self.out.get(sid, ())}
        return tuple(l for l in self.labels if l in present)


def chain_model(transitions: dict, initial: str, obs_of: dict | None = None) -> Model:
    """Single-label chain from {state: {target: prob}}; fomm unless obs_of maps
    states onto shared colours (then hmm)."""
    states = sorted(transitions)
    obs_of = obs_of or {s: s for s in states}
    kind = "fomm" if len(set(obs_of.values())) == len(states) and all(
        obs_of[s] == s for s in states
    ) else "hmm"
    model_states = tuple(
        State(s, initial=(s == initial), trace=TraceSpec({obs_of[s]: ProbInterval.point(1.0)}))
        for s in states
    )
    arrows = tuple(
        Arrow(src, "true", dst, ProbInterval.point(1.0), ProbInterval.point(p))
        for src in states
        for dst, p in sorted(transitions[src].items())
        if p > 0.0
    )
    return Model(kind, tuple(sorted(set(obs_of.values()))), ("true",), model_states, arrows)


def random_connected_chain(rng: random.Random, n_states: int, extra: int = 2) -> Model:
    """Strongly connected random chain (no white peaks, no black holes) with
    dyadic probabilities, so float and rational arithmetic agree exactly;
    each state draws 0 to ``extra`` random arrows besides its ring arrow."""
    names = [f"s{i}" for i in range(n_states)]
    targets: dict = {s: set() for s in names}
    ring = names[1:] + names[:1]
    for src, dst in zip(names, ring):  # a covering cycle keeps it connected
        targets[src].add(dst)
    for src in names:
        for _ in range(rng.randint(0, extra)):
            targets[src].add(rng.choice(names))
    transitions = {}
    for src in names:
        tgts = sorted(targets[src])
        weights = [rng.randint(1, 16) for _ in tgts]
        # probabilities in 256ths: exactly representable doubles
        total = sum(weights)
        probs = [round(w / total * 256) for w in weights]
        probs[-1] = 256 - sum(probs[:-1])
        while min(probs) <= 0:  # keep every chosen arrow structurally present
            hi = probs.index(max(probs))
            lo = probs.index(min(probs))
            probs[lo] += 1
            probs[hi] -= 1
        transitions[src] = {t: p / 256.0 for t, p in zip(tgts, probs)}
    return chain_model(transitions, initial="s0")


def walk(model: Model, steps: int, seed: int):
    """Independent reference walker: list of visited state ids (length steps+1)
    and the arrows taken.  Deliberately unrelated to the package simulator."""
    rng = random.Random(seed)
    index = ArrowIndex(model)
    state = model.initial_state.id
    visited = [state]
    taken = []
    for _ in range(steps):
        arrows = sorted(index.out[state], key=lambda a: a.key)
        u = rng.random()
        acc = 0.0
        chosen = arrows[-1]
        for a in arrows:
            acc += a.effective().mid
            if u < acc:
                chosen = a
                break
        taken.append(chosen)
        state = chosen.target
        visited.append(state)
    return visited, taken


def cycle_model(n: int) -> Model:
    """Deterministic n-cycle c0 -> c1 -> ... -> c0 in which only c0 shows "b":
    no two states are bisimilar, and round-based refinement needs about n
    rounds to see it."""
    names = [f"c{i}" for i in range(n)]
    states = tuple(
        State(s, initial=(i == 0), trace=TraceSpec({"b" if i == 0 else "a": ProbInterval.point(1.0)}))
        for i, s in enumerate(names)
    )
    arrows = tuple(Arrow(s, "true", names[(i + 1) % n]) for i, s in enumerate(names))
    return Model("hmm", ("a", "b"), ("true",), states, arrows)


def refine_by_rounds(model: Model):
    """Reference bisimulation partition: round-based signature refinement.

    Start from the classes of equal traces; each round re-signs every state
    by its class and, per label with arrows, the label probability and the
    exact (Fraction) mass into each class; stop when a round splits nothing.
    Returns the classes ordered by smallest member id.
    """

    def regroup(signature: dict) -> dict:
        groups: dict = {}
        for sid, sig in signature.items():
            groups.setdefault(sig, []).append(sid)
        ordered = sorted(groups.values(), key=min)
        return {sid: i for i, group in enumerate(ordered) for sid in group}

    index = ArrowIndex(model)
    block = regroup(
        {
            s.id: (frozenset((o, p.lo, p.hi) for o, p in s.trace.probs.items()), s.trace.memory)
            for s in model.states
        }
    )
    while True:
        signature = {}
        for s in model.states:
            per_label = []
            for label in model.labels:
                arrows = index.by_label.get((s.id, label), ())
                if not arrows:
                    continue
                mass: dict = {}
                for a in arrows:
                    mass[block[a.target]] = mass.get(block[a.target], Fraction(0)) + Fraction(a.arrow_prob.lo)
                lp = arrows[0].label_prob
                per_label.append((label, lp.lo, lp.hi, tuple(sorted(mass.items()))))
            signature[s.id] = (block[s.id], tuple(per_label))
        refined = regroup(signature)
        if len(set(refined.values())) == len(set(block.values())):
            break
        block = refined
    classes: dict = {}
    for sid, b in block.items():
        classes.setdefault(b, set()).add(sid)
    return Partition(tuple(frozenset(classes[b]) for b in sorted(classes)))


def random_point_model(rng: random.Random) -> Model:
    """Small point-probability model (fomm, hmm or multi-label mdp-fixed) of
    1-8 states for bisimulation properties.

    Traces come from a pool of two point traces and one interval trace, and
    arrow weights are quarters, some of them zero, so that states often tie
    and refinement takes several rounds.  Self-loops, differing label
    probabilities and labels missing from some states all occur.
    """
    kind = rng.choice(("fomm", "hmm", "mdp-fixed"))
    n = rng.randint(1, 8)
    labels = ("true",) if kind != "mdp-fixed" else tuple(f"a{i}" for i in range(rng.randint(2, 3)))
    pool = (
        {"x": ProbInterval.point(1.0)},
        {"y": ProbInterval.point(1.0)},
        {"x": ProbInterval(0.25, 0.5), "y": ProbInterval(0.5, 0.75)},
    )
    if kind == "fomm":
        pool = pool[:2]
    names = [f"s{i}" for i in range(n)]
    states = tuple(
        State(s, initial=(i == 0), trace=TraceSpec(dict(rng.choice(pool)))) for i, s in enumerate(names)
    )
    arrows = []
    for src in names:
        for label in labels:
            if kind == "mdp-fixed" and rng.random() < 0.2:
                continue  # this action is not offered here
            lp = ProbInterval.point(rng.choice((0.25, 0.5)) if kind == "mdp-fixed" else 1.0)
            targets = rng.sample(names, rng.randint(1, min(n, 3)))
            quarters = [0] * len(targets)
            for _ in range(4):
                quarters[rng.randrange(len(targets))] += 1
            for dst, q in zip(targets, quarters):
                if q or rng.random() < 0.3:  # keep some zero-weight arrows
                    arrows.append(Arrow(src, label, dst, lp, ProbInterval.point(q / 4)))
    return Model(kind, ("x", "y"), labels, states, tuple(arrows))


def random_filter_model(rng: random.Random) -> Model:
    """Small valid point model (fomm, hmm or mdp-fixed) with deterministic
    traces, for the belief filters.

    Arrow probabilities are quarters, some of them zero.  An mdp-fixed
    state splits four quarters between the actions it offers, some of them
    zero, so the members of a belief differ in action probability and in
    action set.  One state in eight is a dead end.
    """
    kind = rng.choice(("fomm", "hmm", "mdp-fixed"))
    names = [f"s{i}" for i in range(rng.randint(1, 5))]
    obs = tuple(names) if kind == "fomm" else ("x", "y")
    labels = ("go", "stay") if kind == "mdp-fixed" else ("true",)
    states = tuple(
        State(s, initial=(i == 0), trace=TraceSpec({s if kind == "fomm" else rng.choice(obs): POINT_ONE}))
        for i, s in enumerate(names)
    )

    def quarters(n: int) -> list:
        parts = [0] * n
        for _ in range(4):
            parts[rng.randrange(n)] += 1
        return [q / 4 for q in parts]

    arrows = []
    for src in names:
        if rng.random() < 0.125:
            continue
        offered = rng.sample(labels, rng.randint(1, len(labels)))
        for label, lp in zip(offered, quarters(len(offered)) if kind == "mdp-fixed" else [1.0]):
            targets = rng.sample(names, rng.randint(1, min(len(names), 3)))
            for dst, ap in zip(targets, quarters(len(targets))):
                if ap or rng.random() < 0.3:  # keep some zero-weight arrows
                    arrows.append(Arrow(src, label, dst, ProbInterval.point(lp), ProbInterval.point(ap)))
    return Model(kind, obs, labels, states, tuple(arrows))


def determinize_by_fractions(model: Model, depth: int, cap: int = 4096) -> Model:
    """Reference ``belief_determinize``: the same filter with every belief,
    label mass and arrow weight a normalized ``Fraction``, from one exact
    weight per arrow.  Its model and its ``meta`` must equal the fast path's
    to the byte."""
    depth = checked_int(depth, "belief determinization depth", 0)
    cap = checked_int(cap, "belief determinization cap", 0)
    if not model.has_point_probs():
        raise ModelError("belief determinization needs point probabilities")
    obs_of = [s.trace.deterministic_obs for s in model.states]
    if None in obs_of:
        sid = model.states[obs_of.index(None)].id
        raise ModelError(f"belief determinization needs deterministic traces (state {sid} has none)")

    compiled = model.compiled
    ids, index, out, dst = compiled.ids, compiled.index, compiled.out, compiled.dst
    # per arrow, its weight lp.lo * ap.lo as an exact Fraction of the stored doubles
    ratios = ((a.label_prob.lo.as_integer_ratio(), a.arrow_prob.lo.as_integer_ratio()) for a in model.arrows)
    exact = [Fraction(nl * na, dl * da) for (nl, dl), (na, da) in ratios]
    start = ((model.initial_state.id, Fraction(1)),)
    names = {start: "q0"}
    order = [start]
    arrows = []
    frontier = [start]
    short = []  # expanded beliefs whose label mass, the chance of a step, is below 1
    for _ in range(depth):
        if not frontier:
            break
        layer, frontier = frontier, []
        for belief in layer:
            rows = [(out[index[sid]], mass) for sid, mass in belief]
            label_mass = 0
            for label in model.labels:
                offered = [(row[label], mass) for row, mass in rows if label in row]
                lp = sum(mass * Fraction(model.arrows[ks[0]].label_prob.lo) for ks, mass in offered)
                label_mass += lp
                if not lp:
                    continue
                label_prob = ProbInterval.point(float(lp))
                by_obs: dict = {}  # observation -> target -> moved mass
                for ks, mass in offered:
                    for k in ks:
                        w = mass * exact[k]
                        if w:
                            bucket = by_obs.setdefault(obs_of[dst[k]], {})
                            bucket[dst[k]] = bucket.get(dst[k], 0) + w
                for obs in sorted(by_obs):
                    total = sum(by_obs[obs].values())
                    successor = tuple(sorted((ids[j], w / total) for j, w in by_obs[obs].items()))
                    if successor not in names:
                        if len(names) >= cap:
                            raise CapExceededError(f"belief expansion exceeds the cap of {cap} states")
                        names[successor] = f"q{len(names)}"
                        order.append(successor)
                        frontier.append(successor)
                    ap = ProbInterval.point(float(total / lp))
                    arrows.append(Arrow(names[belief], label, names[successor], label_prob, ap))
            if model.kind not in ("ed", "smdp") and 0 < label_mass < 1 - TOL:  # their labels need not sum to 1
                short.append(f"{names[belief]}:{label_mass}")

    states = tuple(
        State(names[b], initial=(b == start), trace=TraceSpec({obs_of[index[b[0][0]]]: POINT_ONE}))
        for b in order
    )
    meta = tuple(f"{names[b]} = " + " ".join(f"{sid}:{mass}" for sid, mass in b) for b in order)
    if frontier:  # deepest-layer beliefs stay unexpanded: they keep no outgoing arrows
        meta += ("frontier truncated at depth; outgoing sums may fall short",)
    meta += ("label mass below 1: " + " ".join(short),) if short else ()
    return Model(
        kind=_doubled_kind(model.kind),
        obs=model.obs,
        labels=model.labels,
        states=states,
        arrows=tuple(arrows),
        priorities=model.priorities,
        name=model.name,
        meta=meta,
    )



def exact_future_by_layers(model: Model, depth: int, cap: int = 200_000) -> dict:
    """Reference exact expansion: Fractions of the stored doubles, arrows
    re-weighed at every step.  Takes the lower trace bounds as points."""
    index = ArrowIndex(model)
    layer = {(): {model.initial_state.id: Fraction(1)}}
    for _ in range(depth):
        nxt: dict = {}
        for word, dist in layer.items():
            for sid, mass in dist.items():
                for a in index.out.get(sid, ()):
                    eff = Fraction(a.label_prob.lo) * Fraction(a.arrow_prob.lo)
                    if eff == 0:
                        continue
                    trace = model.by_id[a.target].trace
                    for obs in sorted(trace.probs):
                        tp = Fraction(trace.probs[obs].lo)
                        if tp == 0:
                            continue
                        w = word + ((a.label, obs),)
                        bucket = nxt.setdefault(w, {})
                        bucket[a.target] = bucket.get(a.target, Fraction(0)) + mass * eff * tp
        layer = nxt
        if len(layer) > cap:
            raise CapExceededError(f"future enumeration exceeds {cap} developments")
    return {word: sum(dist.values()) for word, dist in layer.items()}


def interval_future_by_layers(model: Model, depth: int, cap: int) -> dict:
    """Reference interval expansion: float (lo, hi) bounds per word,
    multiplied per step, sums (left to right, as the library adds) capped at 1."""
    index = ArrowIndex(model)
    layer = {(): {model.initial_state.id: (1.0, 1.0)}}
    for _ in range(depth):
        nxt: dict = {}
        for word, dist in layer.items():
            for sid, (lo, hi) in dist.items():
                for a in index.out.get(sid, ()):
                    eff = a.effective()
                    if eff.hi <= 0.0:
                        continue
                    trace = model.by_id[a.target].trace
                    for obs in model.obs:
                        tp = trace.prob(obs)
                        if tp.hi <= 0.0:
                            continue
                        w = word + ((a.label, obs),)
                        nlo = lo * eff.lo * tp.lo
                        nhi = hi * eff.hi * tp.hi
                        bucket = nxt.setdefault(w, {})
                        old = bucket.get(a.target, (0.0, 0.0))
                        bucket[a.target] = (old[0] + nlo, min(old[1] + nhi, 1.0))
        layer = nxt
        if len(layer) > cap:
            raise CapExceededError(f"future enumeration exceeds {cap} developments")
    out = {}
    for word, dist in layer.items():
        lo = min(ordered_sum(v[0] for v in dist.values()), 1.0)
        hi = min(ordered_sum(v[1] for v in dist.values()), 1.0)
        out[word] = (lo, hi)
    return out


def future_by_layers(model: Model, depth: int, cap: int) -> FutureSet:
    """Reference future description: the exact expansion on point models
    with point traces, the interval expansion otherwise.  It drops every
    word through an untraced state of a point model."""
    if model.has_point_probs() and all(
        p.is_point for s in model.states for p in s.trace.probs.values()
    ):
        dist = exact_future_by_layers(model, depth, cap)
        entries = {
            w: ProbInterval.point(float(p)) for w, p in dist.items() if p > 0
        }
    else:
        dist = interval_future_by_layers(model, depth, cap)
        entries = {
            w: ProbInterval(lo, hi) for w, (lo, hi) in dist.items() if hi > 0.0
        }
    return FutureSet(depth, "future", entries)


def random_future_model(rng: random.Random, kind: str) -> Model:
    """Small model of the given kind for comparing future expansions.

    Arrow weights are quarters, some of them zero; agent intervals are
    [0,1] for mdp and smdp, random for mdp-plus, points otherwise.  A
    state's trace is a point distribution, a set of intervals (one time in
    four) or empty (one time in eight).  Validity is not a goal.
    """
    n = rng.randint(1, 4)
    names = [f"s{i}" for i in range(n)]
    obs = ("x", "y", "z")[: rng.randint(1, 3)]
    labels = ("true",) if kind in ("fomm", "hmm") else tuple(f"e{i}" for i in range(rng.randint(1, 2)))
    def quarter():
        return ProbInterval.point(rng.randint(0, 4) / 4)

    def interval():
        lo, hi = sorted((rng.randint(0, 4) / 4, rng.randint(0, 4) / 4))
        return ProbInterval(lo, hi)

    states = []
    for i, sid in enumerate(names):
        roll = rng.random()
        seen = rng.sample(obs, rng.randint(1, len(obs)))
        if roll < 0.125:
            trace = {}
        elif roll < 0.375:
            trace = {o: interval() for o in seen}
        else:
            trace = {o: quarter() for o in seen}
        states.append(State(sid, initial=(i == 0), trace=TraceSpec(trace)))
    arrows = []
    for src in names:
        for label in labels:
            if kind in ("mdp", "smdp"):
                lp = ProbInterval(0.0, 1.0)
            elif kind == "mdp-plus":
                lp = interval()
            else:
                lp = ProbInterval.point(1.0) if kind in ("fomm", "hmm") else quarter()
            for dst in rng.sample(names, rng.randint(1, n)):
                ap = interval() if kind in ("smdp", "mdp-plus") and rng.random() < 0.5 else quarter()
                arrows.append(Arrow(src, label, dst, lp, ap))
    return Model(kind, obs, labels, tuple(states), tuple(arrows))



def random_scaled_model(rng: random.Random, kind: str, prob) -> Model:
    """Small point model of the given kind, every state traced, for the exact
    expansions.  Each arrow, trace and (outside fomm and hmm) label
    probability is ``prob()`` over the size of its group (a state's trace,
    its labels, the arrows of one label out of it), so no word weighs more
    than 1.  Validity is not a goal."""
    n = rng.randint(1, 4)
    names = [f"s{i}" for i in range(n)]
    obs = ("x", "y", "z")[: rng.randint(1, 3)]
    labels = ("true",) if kind in ("fomm", "hmm") else tuple(f"e{i}" for i in range(rng.randint(1, 2)))

    def share(k):
        return ProbInterval.point(prob() / k)

    states = []
    for i, sid in enumerate(names):
        seen = rng.sample(obs, rng.randint(1, len(obs)))
        states.append(State(sid, initial=(i == 0), trace=TraceSpec({o: share(len(seen)) for o in seen})))
    arrows = []
    for src in names:
        for label in labels:
            lp = POINT_ONE if kind in ("fomm", "hmm") else share(len(labels))
            targets = rng.sample(names, rng.randint(1, n))
            arrows.extend(Arrow(src, label, dst, lp, share(len(targets))) for dst in targets)
    return Model(kind, obs, labels, tuple(states), tuple(arrows))

# -- reference walk and journey flow ---------------------------------------------


def _point_mid(iv: ProbInterval, what: str) -> float:
    if not iv.is_point:
        raise ModelError(f"unresolved interval for {what}; supply a policy or resolution")
    return iv.mid


def _sample_sequentially(pairs, rng):
    u = rng.random()
    acc = 0.0
    for item, p in pairs:
        acc += p
        if u < acc:
            return item
    return pairs[-1][0]


def _move_by_scan(model: Model, index: ArrowIndex, state: State, label: str, rng):
    arrows = index.by_label.get((state.id, label))
    if not arrows:
        return None
    pairs = [(a, _point_mid(a.arrow_prob, "arrow")) for a in sorted(arrows, key=lambda a: a.key)]
    return model.by_id[_sample_sequentially(pairs, rng).target]


def simulate_by_steps(model: Model, config: SimulationConfig):
    """Reference walk: re-sorts the state's arrows and re-reads every
    probability at each step, one ``rng.random()`` per draw, in the order
    ``simulate_events`` draws them."""
    if config.collision not in ("priority", "both-arrows"):
        raise ModelError(f"unknown collision rule {config.collision!r}")
    resolved = _resolve_agent(model, config)
    index = ArrowIndex(resolved)
    rng = random.Random(None if config.seed is None else checked_int(config.seed, "the walk seed", 0))
    state = resolved.initial_state
    order = sorted(resolved.labels, key=lambda e: (resolved.priorities.get(e, float("inf")), e))
    steps = []  # (observation, action) per step
    occurrences = []
    for t in range(config.steps):
        trace = [(o, _point_mid(p, f"trace of {state.id}")) for o, p in sorted(state.trace.probs.items())]
        if not trace:
            raise ModelError(f"state {state.id} has no trace to observe")
        obs = _sample_sequentially(trace, rng)
        if resolved.kind == "ed":
            fired = []
            for e in order:
                arrows = index.by_label.get((state.id, e))
                if not arrows:
                    continue
                if rng.random() < _point_mid(arrows[0].label_prob, f"event {e} in {state.id}"):
                    fired.append(e)
            if fired and config.collision == "priority":
                fired = fired[:1]
            for e in fired:
                target = _move_by_scan(resolved, index, state, e, rng)
                if target is None:
                    continue
                occurrences.append(EventOccurrence(t, e, POINT_ONE, "direct"))
                state = target
            steps.append((obs, None))
            continue
        act = None
        if resolved.kind in ACTION_KINDS:
            labels = index.labels_from(state.id)
            if not labels:
                raise JourneyError(f"state {state.id} has no outgoing actions")
            pairs = [(l, _point_mid(index.by_label[state.id, l][0].label_prob, f"agent in {state.id}")) for l in labels]
            act = _sample_sequentially(pairs, rng)
            label = act
        else:
            label = "true"
        target = _move_by_scan(resolved, index, state, label, rng)
        if target is None:
            raise JourneyError(f"state {state.id} has no {label!r} arrows")
        steps.append((obs, act))
        state = target
    return Trajectory.of(steps), EventStream(tuple(occurrences))


def parse_trajectory_by_lines(text: str, model: Model | None = None) -> Trajectory:
    """Reference trajectory reader: strips, splits and checks every line."""
    steps: list = []
    t0 = None
    obs_alpha = set(model.obs) if model else None
    act_alpha = set(model.labels) if model else None

    for num, tokens in _lines(text):
        head = tokens[0]
        if head in ("t0", "obs", "act"):
            if steps:
                raise FormatError(f"{head} header after the first step", num)
            if head == "obs":
                obs_alpha = (obs_alpha or set()) | set(tokens[1:])
            elif head == "act":
                act_alpha = (act_alpha or set()) | set(tokens[1:])
            elif len(tokens) != 2:
                raise FormatError("expected: t0 <index>", num)
            else:
                try:
                    t0 = int(tokens[1])
                except ValueError:
                    raise FormatError(f"bad t0 {tokens[1]!r}", num)
            continue
        if len(tokens) > 2:
            raise FormatError("expected: <obs> [<act>|-]", num)
        a = tokens[1] if len(tokens) == 2 else "-"
        if obs_alpha is not None and head not in obs_alpha:
            raise FormatError(f"unknown observation {head!r}", num)
        act = None if a == "-" else a
        if act is not None and act_alpha is not None and act not in act_alpha:
            raise FormatError(f"unknown action {a!r}", num)
        _check_symbols((head,), "observation", num)
        _check_symbols({act} - {None}, "action", num)
        steps.append((head, act))

    if t0 is None:
        t0 = len(steps)
    if not 0 <= t0 <= len(steps):
        raise FormatError(f"t0 = {t0} outside [0, {len(steps)}]")
    return Trajectory.of(steps, t0)


def parse_event_stream_by_lines(text: str) -> EventStream:
    """Reference event stream reader: strips and splits every line, then
    reads its time and its interval."""
    occurrences = []
    for num, tokens in _lines(text):
        if len(tokens) not in (3, 4):
            raise FormatError("expected: <time> <label> <interval> [<provenance>]", num)
        try:
            time = int(tokens[0])
        except ValueError:
            raise FormatError(f"bad time {tokens[0]!r}", num)
        provenance = tokens[3] if len(tokens) == 4 else "direct"
        occurrences.append(EventOccurrence(time, tokens[1], parse_interval(tokens[2], num), provenance))
    occurrences.sort(key=lambda o: o.time)
    return EventStream(tuple(occurrences))


def random_trajectory_document(rng: random.Random) -> str:
    """A trajectory document of up to 40 lines over observations a, b, c
    and actions go, stay: steps with an action, "-" or none, repeats of
    earlier lines, headers (some after a step), comments, blank and padded
    lines, and now and then a bad or reserved line, which may repeat too."""
    lines: list = []
    for _ in range(rng.randint(0, 40)):
        r = rng.random()
        if lines and r < 0.35:
            line = rng.choice(lines)
        elif r < 0.39:
            line = rng.choice(["t0 0", "t0 3", "t0 -1", "t0 99", "t0", "t0 x", "t0 1 2", "obs a b", "obs d", "act go", "act run"])
        elif r < 0.46:
            line = rng.choice(["# note", "#", "#a go", "", "   ", "\t"])
        elif r < 0.47:
            line = rng.choice(["a go stay", "- go", "a -x", "#b", "a t0", "a obs", "t0x go", "obs", "d", "a run"])
        else:
            obs = rng.choice("aaaabbbccd")
            line = obs + rng.choice(["", " -", " go", " stay", " go", " -", "\t-"])
        pad = rng.random() < 0.15
        lines.append((rng.choice([" ", "\t", "  "]) if pad else "") + line + (rng.choice([" ", "\t"]) if pad else ""))
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def _edges_by_scan(model: Model, reverse: bool) -> dict:
    adj: dict = {s.id: set() for s in model.states}
    for a in model.arrows:
        if a.effective().hi > 0.0:
            if reverse:
                adj[a.target].add(a.source)
            else:
                adj[a.source].add(a.target)
    return adj


def unreached_by_scan(model: Model, reverse: bool) -> frozenset:
    """Reference reachability: the white peak, or with ``reverse`` the
    black hole, from sets of ids rebuilt per call."""
    start = model.initial_state.id
    adj = _edges_by_scan(model, reverse)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(s.id for s in model.states if s.id not in seen)


def _standing_by_scan(model: Model) -> tuple:
    """The states journeys stand on, in model order, and the black hole;
    refuses an interval arrow out of one, or an outgoing sum that
    ``validate`` refuses: an ``fsum`` more than ``SUM_TOL`` from 1."""
    black = unreached_by_scan(model, reverse=True)
    white = unreached_by_scan(model, reverse=False)
    nt = [s.id for s in model.states if s.id not in white and s.id not in black]
    index = ArrowIndex(model)
    for sid in nt:
        probs = []
        for a in index.out.get(sid, ()):
            eff = a.effective()
            if not eff.is_point:
                raise JourneyError(
                    f"journey statistics need point probabilities (arrow {a.source} "
                    f"{a.label} {a.target} is an interval)"
                )
            probs.append(eff.mid)
        total = math.fsum(probs)
        if total < 1.0 - SUM_TOL or total > 1.0 + SUM_TOL:
            raise JourneyError(f"journeys do not terminate: state {sid} outgoing probability sum {total:g}")
    return nt, black


def journey_statistics_by_loops(model: Model) -> JourneyStatistics:
    """Reference journey flow: the system filled arrow by arrow in model
    order from per-arrow ``Arrow.effective()`` values, and solved exactly;
    every count is the exact ``Fraction`` for those float probabilities."""
    s0 = model.initial_state.id
    nt, black = _standing_by_scan(model)
    others = [s for s in nt if s != s0]
    pos = {s: i for i, s in enumerate(others)}
    n = len(others)
    # I - Q^T beside c
    system = [[Fraction(int(i == j)) for j in range(n)] + [Fraction(0)] for i in range(n)]
    nt_set = set(nt)
    for a in model.arrows:
        if a.source not in nt_set or a.target not in pos:
            continue
        p = Fraction(a.effective().mid)
        j = pos[a.target]
        if a.source == s0:
            system[j][n] += p
        else:
            system[j][pos[a.source]] -= p
    visits = {s0: Fraction(1)}
    visits.update(zip(others, _solved_exactly(system)))
    arrow_counts: dict = {}
    return_count = Fraction(0)
    absorption: dict = {}
    for a in model.arrows:
        if a.source not in nt_set:
            continue
        count = visits[a.source] * Fraction(a.effective().mid)
        arrow_counts[a.key] = count
        if a.target == s0:
            return_count += count
        elif a.target in black:
            absorption[a.target] = absorption.get(a.target, 0) + count
    return JourneyStatistics(visits, arrow_counts, return_count, absorption)


def _solved_exactly(system: list) -> list:
    """x with A x = b, ``system`` being the rows of A beside b in
    ``Fraction``s, by exact elimination; a column without a nonzero pivot is
    the flow system's singular refusal."""
    n = len(system)
    for k in range(n):
        p = next((i for i in range(k, n) if system[i][k]), None)
        if p is None:
            raise JourneyError("singular flow system: the visit counts are unbounded")
        system[k], system[p] = system[p], system[k]
        pivot = system[k]
        for row in system[k + 1 :]:
            if row[k]:
                f = row[k] / pivot[k]
                row[k:] = [r - f * q for r, q in zip(row[k:], pivot[k:])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = system[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def simulate_journeys_by_rounds(model: Model, journeys: int, seed: int) -> JourneyStatistics:
    """Reference Monte-Carlo journeys: the same draws, and per round one
    bincount each of the arrows taken, of the absorptions and of the visits."""
    journeys = checked_int(journeys, "journey count", 1)
    compiled = model.compiled
    ids = compiled.ids
    nt, black = _standing_by_scan(model)
    per_state = {}
    for i in sorted((compiled.index[sid] for sid in nt), key=ids.__getitem__):
        out = compiled.out[i]
        per_state[i] = [k for label in sorted(out) for k in sorted(out[label], key=lambda j: ids[compiled.dst[j]])]
    arrows = [k for ks in per_state.values() for k in ks]

    max_deg = max(len(ks) for ks in per_state.values())
    cum = np.ones((len(ids), max_deg))
    aid = np.zeros((len(ids), max_deg), dtype=np.int64)
    tgt = np.array([compiled.dst[k] for k in arrows], dtype=np.int64)
    first = 0
    for si, ks in per_state.items():
        cum[si, : len(ks)] = np.cumsum([compiled.mid[k] for k in ks])
        cum[si, len(ks) - 1 :] = np.inf
        aid[si, : len(ks)] = np.arange(first, first + len(ks))
        first += len(ks)

    rng = np.random.default_rng(checked_int(seed, "journey simulation seed", 0))
    s0_idx = compiled.index[model.initial_state.id]
    black_mask = np.array([sid in black for sid in ids], dtype=bool)

    cur = np.full(journeys, s0_idx, dtype=np.int64)
    arrow_counts = np.zeros(len(arrows))
    visit_counts = np.zeros(len(ids))
    visit_counts[s0_idx] = journeys
    returns = 0
    absorbed_at = np.zeros(len(ids))
    for _ in range(1_000_000):
        if cur.size == 0:
            break
        u = rng.random(cur.size)
        choice = (u[:, None] > cum[cur]).sum(axis=1)
        taken = aid[cur, choice]
        arrow_counts += np.bincount(taken, minlength=len(arrows))
        nxt = tgt[taken]
        done_return = nxt == s0_idx
        done_black = black_mask[nxt]
        returns += int(done_return.sum())
        absorbed_at += np.bincount(nxt[done_black], minlength=len(ids))
        alive = ~(done_return | done_black)
        visit_counts += np.bincount(nxt[alive], minlength=len(ids))
        cur = nxt[alive]
    else:
        raise JourneyError("journeys do not terminate within the step cap")

    scale = 1.0 / journeys
    return JourneyStatistics(
        visit_counts={ids[i]: float(v) * scale for i, v in enumerate(visit_counts) if v},
        arrow_counts={model.arrows[k].key: float(c) * scale for k, c in zip(arrows, arrow_counts)},
        return_count=returns * scale,
        absorption_counts={ids[i]: float(v) * scale for i, v in enumerate(absorbed_at) if v},
    )


def reverse_by_branches(model: Model, counts: dict, kind: str) -> Model:
    """Reference reversal of ``counts`` keyed by arrow in model order: one
    branch for decision kinds, which keys the inbound probabilities by
    reversed arrow, and one for the other kinds, which groups the arrows by
    target."""
    eps = 1e-12
    inflow: dict = {s.id: 0.0 for s in model.states}
    for (src, label, dst), c in counts.items():
        inflow[dst] += c

    notes = []
    reversed_arrows = []
    if kind in ("mdp", "mdp-fixed"):
        q: dict = {}
        for a in model.arrows:
            denom = inflow[a.target]
            q[(a.target, a.label, a.source)] = counts.get(a.key, 0.0) / denom if denom > eps else None
        uniform_states = sorted({src for (src, _, _), v in q.items() if v is None})
        for sid in uniform_states:
            keys = [k for k in q if k[0] == sid]
            for k in keys:
                q[k] = 1.0 / len(keys)
        if uniform_states:
            notes.append("uniform-inbound: " + " ".join(uniform_states))
        label_mass: dict = {}
        for (src, label, dst), v in q.items():
            label_mass[(src, label)] = label_mass.get((src, label), 0.0) + v
        for (src, label, dst), v in q.items():
            lp = label_mass[(src, label)]
            ap = v / lp if lp > eps else 1.0 / sum(1 for k in q if k[:2] == (src, label))
            reversed_arrows.append(Arrow(src, label, dst, ProbInterval.point(lp), ProbInterval.point(ap)))
    else:
        grouped: dict = {}
        for a in model.arrows:
            grouped.setdefault(a.target, []).append(a)
        uniform_states = []
        for dst, arrows in grouped.items():
            denom = inflow[dst]
            if denom > eps:
                probs = [counts.get(a.key, 0.0) / denom for a in arrows]
            else:
                probs = [1.0 / len(arrows)] * len(arrows)
                uniform_states.append(dst)
            for a, p in zip(arrows, probs):
                reversed_arrows.append(Arrow(dst, a.label, a.source, a.label_prob, ProbInterval.point(p)))
        if uniform_states:
            notes.append("uniform-inbound: " + " ".join(sorted(uniform_states)))

    return canonical(replace(model, kind=kind, arrows=tuple(reversed_arrows), meta=tuple(notes)))


def invert_mdp_plus_by_models(model: Model, mode: str = "vertex", budget: int = 10_000, seed=None) -> Model:
    """Reference interval inversion, one model per resolution: each resolution
    becomes a resolved ``mdp-fixed`` model, with its own compiled tables,
    reachability sets and flow solve, inverted through ``_invert_by_flow``;
    the reversed model's probabilities are hulled per reversed arrow key."""
    budget = checked_int(budget, "interval inversion budget", 0)
    if model.kind not in ACTION_KINDS:
        raise ModelError(f"invert_mdp_plus does not apply to {model.kind} models")
    peak = find_white_peak(model)
    if peak:
        raise WhitePeakError(peak)

    compiled = model.compiled
    groups = []  # (0 label or 1 arrow probability; per point, the arrows it sets; the points' bounds)
    for out in compiled.out:
        labels = [l for l in model.labels if l in out]
        if labels:
            groups.append((0, [out[l] for l in labels], [model.arrows[out[l][0]].label_prob for l in labels]))
    world = sorted((sid, label, ks) for sid, out in zip(compiled.ids, compiled.out) for label, ks in out.items())
    for _, _, ks in world:
        groups.append((1, [[k] for k in ks], [model.arrows[k].arrow_prob for k in ks]))

    def resolutions():
        if mode == "vertex":
            per_group = [_simplex_box_vertices(b) for _, _, b in groups]
            if any(not g for g in per_group):
                return
            yield from itertools.islice(itertools.product(*per_group), budget)
        elif mode == "monte-carlo":
            if seed is None:
                raise ModelError("monte-carlo interval inversion needs a seed")
            rng = random.Random(checked_int(seed, "monte-carlo interval inversion seed", 0))
            for _ in range(budget):
                pick = [_sample_simplex_box(b, rng) for _, _, b in groups]
                if all(p is not None for p in pick):
                    yield tuple(pick)
        else:
            raise ModelError(f"unknown inversion mode {mode!r}")

    lp_hull: dict = {}
    ap_hull: dict = {}
    explored = valid = 0
    for combo in resolutions():
        explored += 1
        probs = [[None, None] for _ in model.arrows]  # per arrow, its label and arrow probability
        for (side, targets, _), vec in zip(groups, combo):
            for ks, p in zip(targets, vec):
                for k in ks:
                    probs[k][side] = p
        resolved = tuple(
            Arrow(a.source, a.label, a.target, ProbInterval.point(lp), ProbInterval.point(ap))
            for a, (lp, ap) in zip(model.arrows, probs)
        )
        try:
            inv = _invert_by_flow(replace(model, kind="mdp-fixed", arrows=resolved))
        except (WhitePeakError, JourneyError):
            continue
        valid += 1
        for a in inv.arrows:
            lo, hi = lp_hull.get((a.source, a.label), (1.0, 0.0))
            lp_hull[(a.source, a.label)] = (min(lo, a.label_prob.lo), max(hi, a.label_prob.hi))
            lo, hi = ap_hull.get(a.key, (1.0, 0.0))
            ap_hull[a.key] = (min(lo, a.arrow_prob.lo), max(hi, a.arrow_prob.hi))

    if valid == 0:
        raise JourneyError(f"budget exhausted with zero valid resolutions (explored {explored})")
    arrows = tuple(Arrow(*key, ProbInterval(*lp_hull[key[:2]]), ProbInterval(*ap_hull[key])) for key in ap_hull)
    meta = (f"approximate: bounds certified over {valid} explored resolutions",)
    return canonical(replace(model, kind="mdp-plus", arrows=arrows, meta=meta))


def joined_by_assembly(model: Model, depth: int) -> Model:
    """Reference joined minimal model, assembled state by state and arrow by
    arrow: "now" with the forward-minimal model's initial exits, the forward
    part as ``fut:``, and the inverse of the backward-minimal model as
    ``past:``, its arrows into its initial state entering "now"."""
    forward0, _ = minimize_forward(belief_determinize(model, depth))
    backward1, _ = minimize_forward(belief_determinize(invert_chain(model), depth))
    backflow = invert_chain(backward1)
    init_f = forward0.initial_state
    init_b = backflow.initial_state
    fut = {s.id: f"fut:{s.id}" for s in forward0.states}
    past = {s.id: f"past:{s.id}" for s in backflow.states}
    states = [State("now", initial=True, trace=init_f.trace)]
    states += [State(fut[s.id], trace=s.trace) for s in forward0.states]
    states += [State(past[s.id], trace=s.trace) for s in backflow.states]
    arrows = [
        replace(a, source="now", target=fut[a.target])
        for a in forward0.arrows
        if a.source == init_f.id
    ]
    arrows += [
        replace(a, source=fut[a.source], target=fut[a.target]) for a in forward0.arrows
    ]
    for a in backflow.arrows:
        target = "now" if a.target == init_b.id else past[a.target]
        arrows.append(replace(a, source=past[a.source], target=target))
    return Model(
        kind="hmm",
        obs=tuple(sorted(set(forward0.obs) | set(backflow.obs))),
        labels=forward0.labels,
        states=tuple(states),
        arrows=tuple(arrows),
        name=model.name,
        meta=("minimal: forward part predicts the future, backward part the past",),
    )


def random_walk_model(rng: random.Random, kind: str) -> Model:
    """Small model of the given kind for comparing walks, validity not a goal.

    Probabilities are quarters or, one time in twelve, intervals; traces are
    sometimes empty; some labels are missing from some states, and some
    states have no arrows.  A state ``w`` no arrow enters carries interval
    trace and arrow probabilities, and outside the action kinds interval
    label probabilities, that a walk never reaches.  ed models rank
    some events, with ties, and leave others unranked.
    """
    n = rng.randint(1, 4)
    names = [f"s{i}" for i in range(n)]
    obs = ("x", "y", "z")[: rng.randint(1, 3)]
    labels = ("true",) if kind in ("fomm", "hmm") else tuple(f"e{i}" for i in range(rng.randint(1, 3)))

    def prob(interval_odds: float = 1 / 12) -> ProbInterval:
        if rng.random() < interval_odds:
            lo, hi = sorted((rng.randint(0, 4) / 4, rng.randint(0, 4) / 4))
            if lo < hi:
                return ProbInterval(lo, hi)
        return ProbInterval.point(rng.randint(0, 4) / 4)

    states = []
    for i, sid in enumerate(names):
        roll = rng.random()
        trace = {} if roll < 0.03 else {o: prob() for o in rng.sample(obs, rng.randint(1, len(obs)))}
        states.append(State(sid, initial=(i == 0), trace=TraceSpec(trace)))
    states.append(State("w", trace=TraceSpec({o: ProbInterval(0.25, 0.75) for o in obs})))
    arrows = []
    for src in names + ["w"]:
        if src != "w" and rng.random() < 0.03:
            continue  # a state with no arrows
        for label in labels:
            if kind not in ("fomm", "hmm") and rng.random() < 0.15:
                continue
            if src == "w":  # an agent is never asked about w
                lp = ProbInterval.point(0.5) if kind in ACTION_KINDS else ProbInterval(0.25, 0.75)
            elif kind in ("fomm", "hmm"):
                lp = ProbInterval.point(1.0)
            elif kind in ("mdp", "smdp"):
                lp = ProbInterval(0.0, 1.0)
            elif kind == "mdp-plus":
                lp = prob(0.5)
            else:
                lp = prob()
            for dst in rng.sample(names, rng.randint(1, n)):
                ap = ProbInterval(0.25, 0.75) if src == "w" else prob()
                arrows.append(Arrow(src, label, dst, lp, ap))
    priorities = {}
    if kind == "ed":
        priorities = {e: rng.randint(1, 2) for e in labels if rng.random() < 0.6}
    return Model(kind, obs, labels, tuple(states), tuple(arrows), priorities)


def random_agent(rng: random.Random, model: Model):
    """A policy or a preference for the model's states but ``w`` (or None),
    drawn at random: the policy splits four quarters between each state's
    labels."""
    roll = rng.random()
    if roll < 0.3:
        return None
    index = ArrowIndex(model)
    order = {s.id: index.labels_from(s.id) for s in model.states if s.id != "w"}
    if roll < 0.6:
        return Preference({sid: tuple(rng.sample(ranked, len(ranked))) for sid, ranked in order.items() if ranked})
    probs = {}
    for sid, ranked in order.items():
        quarters = [0] * len(ranked)
        for _ in range(4 if ranked else 0):
            quarters[rng.randrange(len(ranked))] += 1
        probs.update({(sid, l): q / 4 for l, q in zip(ranked, quarters)})
    return Policy(probs)


def random_flow_model(rng: random.Random) -> Model:
    """Point model for comparing journey flows: a chain of 1-12 states, or an
    mdp of 1-8 states composed with a random policy.  Arrow probabilities
    are random doubles normalized per state and label, so sums round; some
    states are absorbing or unreachable, a few fall short of 1 or carry an
    interval, and the arrows come in shuffled order."""
    composed = rng.random() < 0.4
    n = rng.randint(1, 8 if composed else 12)
    names = [f"s{i}" for i in range(n)]
    labels = ("a", "b", "c")[: rng.randint(2, 3)] if composed else ("true",)
    states = tuple(
        State(s, initial=(i == 0), trace=TraceSpec({"x": ProbInterval.point(1.0)})) for i, s in enumerate(names)
    )
    lp = ProbInterval(0.0, 1.0) if composed else ProbInterval.point(1.0)
    arrows = []
    policy = {}
    for src in names:
        if rng.random() < 0.1:
            continue  # absorbing: a black hole unless it is s0
        present = [l for l in labels if rng.random() < 0.7] or [labels[0]]
        split = [rng.random() for _ in present]
        policy.update({(src, l): w / sum(split) for l, w in zip(present, split)})
        for label in present:
            targets = rng.sample(names, rng.randint(1, min(n, 3)))
            weights = [rng.random() for _ in targets]
            total = sum(weights) * (2.0 if rng.random() < 0.03 else 1.0)
            for dst, w in zip(targets, weights):
                p = w / total
                ap = ProbInterval(p / 2, p) if rng.random() < 0.01 else ProbInterval.point(p)
                arrows.append(Arrow(src, label, dst, lp, ap))
    rng.shuffle(arrows)
    model = Model("mdp" if composed else rng.choice(("fomm", "hmm")), ("x",), labels, states, tuple(arrows))
    return compose_policy(model, Policy(policy)) if composed else model


# -- event runtime, step by step ----------------------------------------------------


def _apply_event_by_steps(moves: dict, belief: dict, label: str, warnings: list, t: int) -> tuple:
    """Move belief mass through the event's arrows; mass in states the event
    cannot leave stays put (with a warning)."""
    moved: dict = {}
    stuck = []
    approx = False
    for sid, mass in belief.items():
        entry = moves.get((sid, label))
        if entry is None:
            stuck.append(sid)
            moved[sid] = moved.get(sid, 0.0) + mass
            continue
        shares, midpoints = entry
        approx = approx or midpoints
        for target, share in shares:
            moved[target] = moved.get(target, 0.0) + mass * share
    if stuck:
        warnings.append(
            f"step {t}: event {label!r} impossible in {' '.join(sorted(stuck))}; belief kept"
        )
    return moved, approx


def track_by_steps(
    model: Model,
    trajectory: Trajectory,
    events: EventStream,
    start: int = 0,
    initial: dict | None = None,
    collision: str | None = None,
) -> tuple:
    """Reference tracker: conditions, renormalizes and builds a `Belief` at
    every step.  Returns (beliefs, final_belief, memory, warnings,
    failed_at), failed_at None on success and the step at which `track`
    raises `TrackingError` otherwise.  It can also restart: from step
    `start`, with the belief `initial`.  The states that admit an
    observation come straight from the traces."""
    warnings: list = []
    labels_at = _labels_at(model, events, collision, warnings)
    belief = dict(initial) if initial is not None else {model.initial_state.id: 1.0}
    remembering = {s.id for s in model.states if s.trace.memory}
    approx = False
    beliefs: list = []
    memory: dict = {}
    for t in range(start, len(trajectory)):
        obs = trajectory.obs[t]
        allowed = {s.id for s in model.states if s.trace.prob(obs).hi > 0.0}
        conditioned = {sid: mass for sid, mass in belief.items() if sid in allowed}
        if len(conditioned) != len(belief):
            approx = True
        total = ordered_sum(conditioned.values())
        if total <= 0.0:
            return beliefs, None, memory, warnings, t
        belief = {sid: mass / total for sid, mass in conditioned.items()}
        beliefs.append(Belief(belief, approximate=approx))
        if remembering:
            top = min(belief, key=lambda s: (-belief[s], s))
            if top in remembering:
                memory[top] = obs
        for label in labels_at.get(t, ()):
            belief, moved_approx = _apply_event_by_steps(model.compiled.shares, belief, label, warnings, t)
            approx = approx or moved_approx
    return beliefs, Belief(belief, approximate=approx), memory, warnings, None


def derived_by_states(model: Model, beliefs, threshold: float = 0.5) -> EventStream:
    """Reference derived events: every model state's mass at every step."""
    name = model.name or "ed"
    occurrences = []
    for t in range(1, len(beliefs)):
        for s in model.states:
            now = beliefs[t].probs.get(s.id, 0.0)
            before = beliefs[t - 1].probs.get(s.id, 0.0)
            if now > threshold >= before:
                occurrences.append(
                    EventOccurrence(t, f"{name}.{s.id}", ProbInterval.point(now), "derived")
                )
    return EventStream(tuple(occurrences))


def detect_by_steps(trajectory: Trajectory, fns, threshold: float = 0.5) -> EventStream:
    """Reference direct detection: every chosen function evaluated at every
    step."""
    by_name: dict = {}
    for fn in fns:
        by_name.setdefault(fn.name, []).append(fn)
    chosen = [(name, max(by_name[name], key=lambda f: f.window)) for name in sorted(by_name)]
    occurrences = []
    for t in range(len(trajectory)):
        for name, fn in chosen:
            value = fn.evaluate(trajectory, t)
            if value.lo >= threshold and value.hi > 0.0:
                occurrences.append(EventOccurrence(t, name, value, "direct"))
    return EventStream(tuple(occurrences))


def indirect_by_counter(trajectory: Trajectory, window: int, threshold: float) -> tuple:
    """Reference indirect detection: the two windows' count difference kept
    in a `Counter` keyed by observation, each step applying its three
    updates.  Returns (stream, segments) as ``detect_indirect`` does."""
    n = len(trajectory)
    window = checked_int(window, "indirect detection window", 1)
    if n < 2 * window:
        raise ModelError(f"trajectory of {n} steps is too short for window {window}")
    if math.isfinite(threshold):
        cut = math.floor(2 * window * Fraction(threshold)) + 1
    else:  # nothing exceeds +inf or nan, everything exceeds -inf
        cut = 0 if threshold < 0 else 2 * window + 1
    obs = trajectory.observations()
    diff = Counter(obs[:window])  # count before t minus count from t on
    diff.subtract(obs[window : 2 * window])
    d = sum(map(abs, diff.values()))
    hits = []
    for t in range(window, n - window + 1):
        if t > window:
            # obs[t - 1 - window] leaves the first window, obs[t - 1] crosses
            # into it, obs[t - 1 + window] joins the second
            for o, k in ((obs[t - 1 - window], -1), (obs[t - 1], 2), (obs[t - 1 + window], -1)):
                c = diff[o]
                diff[o] = c + k
                d += abs(c + k) - abs(c)
        if d >= cut:
            hits.append((t, d))
    merged: list = []
    for t, d in hits:
        if merged and t - merged[-1][-1][0] <= window:
            merged[-1].append((t, d))
        else:
            merged.append([(t, d)])
    occurrences = []
    boundaries = []
    for cluster in merged:
        t, d = max(cluster, key=lambda item: (item[1], -item[0]))
        tv = d / (2 * window)
        lo = (tv - threshold) / (1.0 - threshold) if threshold < 1.0 else 1.0
        occurrences.append(
            EventOccurrence(t, "invisible", ProbInterval(min(max(lo, 0.0), 1.0), 1.0), "indirect")
        )
        boundaries.append(t)
    cuts = [0] + boundaries + [n]
    segments = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    return EventStream(tuple(occurrences)), segments


def contingency_p_value(table) -> float:
    """p-value of ``scipy.stats.chi2_contingency`` without continuity
    correction: the reference for ``check_markov``'s p-values."""
    return float(chi2_contingency(np.array(table), correction=False).pvalue)


def check_markov_by_contingency(
    trajectory: Trajectory, order: int = 1, significance: float = 0.01, min_count: int = 50
) -> MarkovReport:
    """Reference ``check_markov``: the log rescanned once per symbol, each
    table tested with ``scipy.stats.chi2_contingency``."""
    seq = trajectory.observations()
    tests = []
    for sym in sorted(set(seq)):
        rows: dict = {}
        for i in range(order, len(seq) - 1):
            if seq[i] != sym:
                continue
            ctx = tuple(seq[i - order : i + 1])
            rows.setdefault(ctx, Counter())[seq[i + 1]] += 1
        usable = {c: cnt for c, cnt in rows.items() if sum(cnt.values()) >= min_count}
        skipped = len(rows) - len(usable)
        cols = sorted({o for cnt in usable.values() for o in cnt})
        if len(usable) < 2 or len(cols) < 2:
            tests.append(SymbolTest(sym, None, False, 0, len(rows)))
            continue
        p_value = contingency_p_value([[cnt.get(o, 0) for o in cols] for _, cnt in sorted(usable.items())])
        tests.append(SymbolTest(sym, p_value, p_value < significance, len(usable), skipped))
    inconclusive = all(t.p_value is None for t in tests) if tests else True
    return MarkovReport(order, significance, tuple(tests), inconclusive)
