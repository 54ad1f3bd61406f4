"""Shared test helpers: model builders and checked-in model loading."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from stochworld import (
    Arrow,
    CapExceededError,
    Development,
    FutureSet,
    Model,
    Partition,
    ProbInterval,
    State,
    TraceSpec,
    parse_model,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def load_model(name: str) -> Model:
    return parse_model((MODELS_DIR / f"{name}.model").read_text())


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


def random_connected_chain(rng: random.Random, n_states: int) -> Model:
    """Strongly connected random chain (no white peaks, no black holes) with
    dyadic probabilities, so float and rational arithmetic agree exactly."""
    names = [f"s{i}" for i in range(n_states)]
    targets: dict = {s: set() for s in names}
    ring = names[1:] + names[:1]
    for src, dst in zip(names, ring):  # a covering cycle keeps it connected
        targets[src].add(dst)
    for src in names:
        for _ in range(rng.randint(0, 2)):
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
    state = model.initial_state.id
    visited = [state]
    taken = []
    for _ in range(steps):
        arrows = sorted(model.out_index[state], key=lambda a: a.key)
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
                arrows = model.out_by_label.get((s.id, label), ())
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


def exact_future_by_layers(model: Model, depth: int, cap: int = 200_000) -> dict:
    """Reference exact expansion: Fractions of the stored doubles, arrows
    re-weighed at every step.  Takes the lower trace bounds as points."""
    layer = {(): {model.initial_state.id: Fraction(1)}}
    for _ in range(depth):
        nxt: dict = {}
        for word, dist in layer.items():
            for sid, mass in dist.items():
                for a in model.out_index.get(sid, ()):
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
    multiplied per step, sums capped at 1."""
    layer = {(): {model.initial_state.id: (1.0, 1.0)}}
    for _ in range(depth):
        nxt: dict = {}
        for word, dist in layer.items():
            for sid, (lo, hi) in dist.items():
                for a in model.out_index.get(sid, ()):
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
        lo = min(sum(v[0] for v in dist.values()), 1.0)
        hi = min(sum(v[1] for v in dist.values()), 1.0)
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
            Development("future", w): ProbInterval.point(float(p)) for w, p in dist.items() if p > 0
        }
    else:
        dist = interval_future_by_layers(model, depth, cap)
        entries = {
            Development("future", w): ProbInterval(lo, hi) for w, (lo, hi) in dist.items() if hi > 0.0
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
