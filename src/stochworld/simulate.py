"""Ground-truth machinery: simulation, truncated future/past sets,
estimation of standard chains, Royal preference policies, and a statistical
test of the Markov property.

Step convention shared with the tracker: at step t the agent sees the
current state's observation, then the action happens (or the step's events
fire), then the state changes.  Future developments therefore start with
the step leaving the current state and do not repeat the current
observation.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    ACTION_KINDS,
    POINT_ONE,
    SINGLE_LABEL_KINDS,
    TOL,
    TRUE_LABEL,
    Arrow,
    Development,
    EventOccurrence,
    EventStream,
    FutureSet,
    Model,
    Policy,
    Preference,
    ProbInterval,
    State,
    Step,
    TraceSpec,
    Trajectory,
)
from .errors import CapExceededError, JourneyError, ModelError, PolicyError
from .inversion import compose_policy, invert_chain


@dataclass(frozen=True)
class SimulationConfig:
    steps: int
    seed: int
    policy: Optional[Policy] = None
    preference: Optional[Preference] = None
    collision: str = "priority"  # or "both-arrows"


def _resolve_agent(model: Model, config: SimulationConfig) -> Model:
    if model.kind == "ed" or model.kind in SINGLE_LABEL_KINDS:
        if config.policy or config.preference:
            raise ModelError(f"{model.kind} generators take no policy or preference")
        return model
    if config.policy and config.preference:
        raise ModelError("give either a policy or a preference, not both")
    if config.preference:
        return compose_policy(model, preference_to_policy(model, config.preference))
    if config.policy:
        return compose_policy(model, config.policy)
    if all(a.label_prob.is_point for a in model.arrows):
        return model
    raise ModelError("interval agent probabilities need a policy or preference")


#: Uniforms drawn per call to the generator: enough to amortize the call,
#: few enough that a short walk draws little it does not use.
_BLOCK = 1024


def _uniforms(rng):
    """The generator's uniforms, drawn in blocks: the same sequence as one
    ``rng.random()`` call per value."""
    while True:
        yield from rng.random(_BLOCK).tolist()


def _unresolved(what: str) -> ModelError:
    return ModelError(f"unresolved interval for {what}; supply a policy or resolution")


def simulate_events(model: Model, config: SimulationConfig):
    """Walk the generator; returns the trajectory and, for ed, the events fired.

    The walk reads the model's compiled tables: per step it draws one
    observation, for ed one uniform per event that can fire and one arrow
    per fired event, else the action of an action kind and one arrow, each
    by bisection into cumulative probabilities.  An interval the walk
    reaches is refused there.
    """
    if config.collision not in ("priority", "both-arrows"):
        raise ModelError(f"unknown collision rule {config.collision!r}")
    resolved = _resolve_agent(model, config)
    compiled = resolved.compiled
    ids, dst, traces, draws = compiled.ids, compiled.dst, compiled.traces, compiled.draws
    agents = compiled.agents if resolved.kind in ACTION_KINDS else None
    draw = _uniforms(np.random.default_rng(config.seed)).__next__
    state = compiled.index[resolved.initial_state.id]
    interned: dict = {}
    ed = resolved.kind == "ed"
    steps = []
    occurrences = []
    for t in range(config.steps):
        symbols, cum = traces[state]
        if cum is None:
            raise _unresolved(f"trace of {ids[state]}")
        if not symbols:
            raise ModelError(f"state {ids[state]} has no trace to observe")
        obs = symbols[bisect_right(cum, draw())]
        act = None
        if ed:
            fired = []
            row = draws[state]
            for e in compiled.event_order:
                entry = row.get(e)
                if entry is None:
                    continue
                if entry[0] is None:
                    raise _unresolved(f"event {e} in {ids[state]}")
                if draw() < entry[0]:
                    fired.append(e)
            if fired and config.collision == "priority":
                fired = fired[:1]
            for e in fired:
                entry = draws[state].get(e)
                if entry is None:
                    continue  # the walk moved; the event cannot fire here
                _, arrows, cum = entry
                if cum is None:
                    raise _unresolved("arrow")
                state = dst[arrows[bisect_right(cum, draw())]]
                occurrences.append(EventOccurrence(t, e, POINT_ONE, "direct"))
        else:
            if agents is not None:
                labels, cum = agents[state]
                if not labels:
                    raise JourneyError(f"state {ids[state]} has no outgoing actions")
                if cum is None:
                    raise _unresolved(f"agent in {ids[state]}")
                act = label = labels[bisect_right(cum, draw())]
            else:
                label = TRUE_LABEL
            entry = draws[state].get(label)
            if entry is None:
                raise JourneyError(f"state {ids[state]} has no {label!r} arrows")
            _, arrows, cum = entry
            if cum is None:
                raise _unresolved("arrow")
            state = dst[arrows[bisect_right(cum, draw())]]
        step = interned.get((obs, act))
        if step is None:
            step = interned[(obs, act)] = Step(obs, act)
        steps.append(step)
    return Trajectory(tuple(steps), len(steps)), EventStream(tuple(occurrences))


def simulate(model: Model, config: SimulationConfig) -> Trajectory:
    """Deterministic-by-seed generator walk recording (observation, action) steps."""
    trajectory, _ = simulate_events(model, config)
    return trajectory


# -- future and past enumeration -------------------------------------------------


def _is_exact(model: Model) -> bool:
    """Exact rationals apply when every arrow and trace probability is a
    point and every state is traced (an untraced state observes anything)."""
    return model.has_point_probs() and all(
        s.trace.probs and all(p.is_point for p in s.trace.probs.values()) for s in model.states
    )


def _times_bounds(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0], x[1] * y[1])


def _plus_bounds(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], min(x[1] + y[1], 1.0))


def _total_bounds(values) -> tuple:
    return (min(sum(v[0] for v in values), 1.0), min(sum(v[1] for v in values), 1.0))


def _develop(m: Model, depth: int, cap: int, exact: bool) -> dict:
    """Layered expansion of the development words to the given depth.

    Each layer maps a word to its mass per end state.  The exact backend
    multiplies Fractions of the stored doubles, an arrow weighing
    ``CompiledModel.exact``; the other multiplies (lo, hi) float bounds and
    caps sums at 1.  Moves and emissions whose upper bound is zero are
    dropped once, in per-call tables.  Returns {word: Fraction} or
    {word: (lo, hi)}.
    """
    if exact:
        one, times, plus, total = Fraction(1), operator.mul, operator.add, sum
        positive = lambda w: w > 0
        weights = m.compiled.exact
        emits = {s.id: [(o, Fraction(p.lo)) for o, p in sorted(s.trace.probs.items())] for s in m.states}
    else:
        one, times, plus, total = (1.0, 1.0), _times_bounds, _plus_bounds, _total_bounds
        positive = lambda w: w[1] > 0.0
        weights = [(eff.lo, eff.hi) for eff in map(Arrow.effective, m.arrows)]
        emits = {s.id: [(o, (p.lo, p.hi)) for o in m.obs for p in (s.trace.prob(o),)] for s in m.states}
    emits = {sid: [(o, p) for o, p in pairs if positive(p)] for sid, pairs in emits.items()}
    moves: dict = {s.id: [] for s in m.states}
    for a, weight in zip(m.arrows, weights):
        if positive(weight):
            moves.setdefault(a.source, []).append((a.label, a.target, weight, emits[a.target]))
    layer = {(): {m.initial_state.id: one}}
    for _ in range(depth):
        nxt: dict = {}
        for word, dist in layer.items():
            for sid, mass in dist.items():
                for label, target, weight, emitted in moves[sid]:
                    moved = times(mass, weight)
                    for obs, p in emitted:
                        bucket = nxt.setdefault(word + ((label, obs),), {})
                        w = times(moved, p)
                        bucket[target] = plus(bucket[target], w) if target in bucket else w
        layer = nxt
        if len(layer) > cap:
            raise CapExceededError(f"future enumeration exceeds {cap} developments")
    return {word: total(list(dist.values())) for word, dist in layer.items()}


def exact_future(
    model: Model, depth: int, policy: Optional[Policy] = None, cap: int = 200_000
) -> dict:
    """Exact development distribution of a point-probability model whose
    states are all traced.

    Returns {(label, obs) word tuple: Fraction}; rational arithmetic keeps
    desk-scale comparisons exact.
    """
    m = compose_policy(model, policy) if policy is not None else model
    if not _is_exact(m):
        raise ModelError("exact enumeration needs point probabilities")
    return _develop(m, depth, cap, exact=True)


def enumerate_future(
    model: Model, depth: int, policy: Optional[Policy] = None, cap: int = 200_000
) -> FutureSet:
    """Perfect or quasi-perfect description of the future to the given depth.

    Point models (after an optional policy) get exact probabilities; interval
    models get sound multiplicative bounds, and so do models with an
    untraced state, whose observations each get [0, 1].  Developments with an
    upper probability of zero are absent.
    """
    m = compose_policy(model, policy) if policy is not None else model
    exact = _is_exact(m)
    entries = {}
    for word, p in _develop(m, depth, cap, exact).items():
        lo, hi = (p, p) if exact else p
        if hi > 0:
            entries[Development("future", word)] = ProbInterval(float(lo), float(hi))
    return FutureSet(depth, "future", entries)


def enumerate_past(model: Model, depth: int, cap: int = 200_000) -> FutureSet:
    """Developments of the past: the future of the inverse model, reversed
    into chronological order."""
    inverse = invert_chain(model)
    fs = enumerate_future(inverse, depth, cap=cap)
    entries = {
        Development("past", tuple(reversed(dev.word))): p for dev, p in fs.entries.items()
    }
    return FutureSet(depth, "past", entries)


# -- estimation -------------------------------------------------------------------


def estimate_fomm(trajectory: Trajectory) -> Model:
    """Standard chain over the observed symbols, counted from the trajectory.

    The model describes exactly the statistics period; transitions never
    observed are structurally absent.  The initial (current) state is the
    observation at the current moment, or the last one when all data is past.
    """
    obs_seq = trajectory.observations()
    if len(obs_seq) < 2:
        raise ModelError("trajectory too short to estimate (need at least 2 steps)")
    counts: Counter = Counter(zip(obs_seq, obs_seq[1:]))
    totals: Counter = Counter(obs_seq[:-1])
    symbols = sorted(set(obs_seq))
    current = obs_seq[trajectory.t0] if trajectory.t0 < len(obs_seq) else obs_seq[-1]
    states = tuple(
        State(o, initial=(o == current), trace=TraceSpec({o: ProbInterval.point(1.0)}))
        for o in symbols
    )
    arrows = tuple(
        Arrow(i, TRUE_LABEL, j, ProbInterval.point(1.0), ProbInterval.point(c / totals[i]))
        for (i, j), c in sorted(counts.items())
    )
    return Model("fomm", tuple(symbols), (TRUE_LABEL,), states, arrows)


# -- preference -------------------------------------------------------------------


def preference_to_policy(model: Model, preference: Preference) -> Policy:
    """Royal policy: each action takes the top of its allowed interval, in
    preference order, and the least preferred absorbs the remainder.

    Probabilities falling below an action's lower bound are raised to it and
    the shortfall is taken from the remaining mass; such states are flagged
    as adjusted.
    """
    preference.check(model)
    compiled = model.compiled
    probs: dict = {}
    adjusted: set = set()
    for sid, ranked in preference.order.items():
        out = compiled.out[compiled.index[sid]]
        bounds = [model.arrows[out[a][0]].label_prob for a in ranked]
        lo_sum = sum(b.lo for b in bounds)
        hi_sum = sum(b.hi for b in bounds)
        if lo_sum > 1.0 + 1e-9 or hi_sum < 1.0 - 1e-9:
            raise PolicyError(
                f"state {sid}: no feasible policy within the agent intervals"
            )
        n = len(ranked)
        remaining = 1.0
        values = []
        for k in range(n):
            if k == n - 1:
                p = remaining
            else:
                reserve = sum(b.lo for b in bounds[k + 1 :])
                p = bounds[k].hi * remaining
                cap = remaining - reserve
                if p > cap + TOL:
                    p = cap
                    adjusted.add(sid)
                if p < bounds[k].lo - TOL:
                    p = bounds[k].lo
                    adjusted.add(sid)
            values.append(p)
            remaining -= p
        overflow = values[-1] - bounds[-1].hi
        if overflow > TOL:
            adjusted.add(sid)
            values[-1] = bounds[-1].hi
            for k in range(n - 1):
                room = bounds[k].hi - values[k]
                take = min(room, overflow)
                values[k] += take
                overflow -= take
                if overflow <= TOL:
                    break
            if overflow > 1e-9:
                raise PolicyError(f"state {sid}: no feasible policy within the agent intervals")
        for a, p in zip(ranked, values):
            probs[(sid, a)] = p
    return Policy(probs, frozenset(adjusted))


# -- Markov property --------------------------------------------------------------


@dataclass(frozen=True)
class SymbolTest:
    symbol: str
    p_value: Optional[float]
    flagged: bool
    contexts_tested: int
    contexts_skipped: int


@dataclass(frozen=True)
class MarkovReport:
    order: int
    significance: float
    tests: tuple = ()
    inconclusive: bool = False

    @property
    def flagged(self) -> tuple:
        return tuple(t for t in self.tests if t.flagged)

    @property
    def improvable(self) -> bool:
        """True when some longer context significantly improves prediction."""
        return bool(self.flagged)


def check_markov(
    trajectory: Trajectory,
    order: int = 1,
    significance: float = 0.01,
    min_count: int = 50,
) -> MarkovReport:
    """Chi-squared comparison of next-symbol distributions conditioned on
    one symbol versus a longer context ending in it.

    A flagged symbol means the standard chain can be improved by splitting
    that state.  Contexts with fewer than ``min_count`` occurrences are
    skipped; if every context is skipped the report is inconclusive.
    """
    # imported here: scipy.stats takes most of a second to import, and no
    # other command needs it
    from scipy import stats as scipy_stats

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
        if len(usable) < 2:
            tests.append(SymbolTest(sym, None, False, 0, len(rows)))
            continue
        cols = sorted({o for cnt in usable.values() for o in cnt})
        if len(cols) < 2:
            tests.append(SymbolTest(sym, None, False, 0, len(rows)))
            continue
        table = np.array([[cnt.get(o, 0) for o in cols] for _, cnt in sorted(usable.items())])
        result = scipy_stats.chi2_contingency(table, correction=False)
        p_value = float(result.pvalue)
        tests.append(SymbolTest(sym, p_value, p_value < significance, len(usable), skipped))
    inconclusive = all(t.p_value is None for t in tests) if tests else True
    return MarkovReport(order, significance, tuple(tests), inconclusive)
