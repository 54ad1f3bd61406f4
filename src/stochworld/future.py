"""Exact and interval descriptions of the future, standard chains estimated
from trajectories, and Royal preference policies.

Step convention shared with the walk and the tracker: at step t the agent
sees the current state's observation, then the action happens (or the
step's events fire), then the state changes.  Future developments
therefore start with the step leaving the current state and do not repeat
the current observation.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .core import (
    POINT_ONE,
    TOL,
    TRUE_LABEL,
    Arrow,
    Development,
    FutureSet,
    Model,
    Policy,
    Preference,
    ProbInterval,
    State,
    TraceSpec,
    Trajectory,
    checked_int,
    compose_policy,
    dyadic,
    sum_fault,
)
from .errors import CapExceededError, ModelError, PolicyError


# -- future enumeration ---------------------------------------------------------


def _is_exact(model: Model) -> bool:
    """Exact rationals apply when every arrow and trace probability is a
    point and every state is traced (an untraced state observes anything)."""
    return model.has_point_probs() and all(
        s.trace.probs and all(p.is_point for p in s.trace.probs.values()) for s in model.states
    )


def _develop(m: Model, depth: int, cap: int, exact: bool) -> tuple:
    """Layered expansion of the development words to the given depth.

    Each layer maps a word to its mass per end state, built by one loop on
    plain scalars.  A point model runs it once, on Python ints: ``dyadic``
    turns the label, the arrow and the trace probabilities into exact ints
    at units lu, au and tu, so every word of a layer carries one more factor
    of lu * au * tu.  Any other model runs it twice, on floats: on the lower
    bounds, then on the upper bounds with each sum into a bucket capped at 1.
    Moves and emissions whose upper bound is zero are dropped once, so both
    passes visit the same words in the same order.  A layer is refused at its
    (cap + 1)-th word.  Returns one {word: total} per pass, and the scale: an
    exact word's probability is its int over the scale (None for floats).
    """
    depth = checked_int(depth, "future enumeration depth", 0)
    cap = checked_int(cap, "future enumeration cap", 0)
    if exact:  # per arrow and per emission, one bound per pass, the upper last
        lu, lps = dyadic(a.label_prob.lo for a in m.arrows)
        au, aps = dyadic(a.arrow_prob.lo for a in m.arrows)
        traces = {s.id: sorted(s.trace.probs.items()) for s in m.states}
        tu, tps = dyadic(p.lo for pairs in traces.values() for _, p in pairs)
        weights = [(lp * ap,) for lp, ap in zip(lps, aps)]
        emitted = iter(tps)  # in the order of traces
        emits = {sid: [(o, (next(emitted),)) for o, _ in pairs] for sid, pairs in traces.items()}
        tops, scale = (math.inf,), (lu * au * tu) ** depth
    else:
        weights = [(eff.lo, eff.hi) for eff in map(Arrow.effective, m.arrows)]
        emits = {s.id: [(o, (p.lo, p.hi)) for o in m.obs for p in (s.trace.prob(o),)] for s in m.states}
        tops, scale = (math.inf, 1.0), None
    emits = {sid: [(o, p) for o, p in pairs if p[-1] > 0] for sid, pairs in emits.items()}
    kept = [(a, w) for a, w in zip(m.arrows, weights) if w[-1] > 0]
    totals = []
    for k, top in enumerate(tops):
        bounds = {sid: [(o, p[k]) for o, p in pairs] for sid, pairs in emits.items()}
        moves: dict = {s.id: [] for s in m.states}
        for a, w in kept:
            moves.setdefault(a.source, []).append((a.label, a.target, w[k], bounds[a.target]))
        layer = {(): {m.initial_state.id: 1}}
        for _ in range(depth):
            nxt: dict = {}
            for word, dist in layer.items():
                for sid, mass in dist.items():
                    for label, target, weight, emitted in moves[sid]:
                        moved = mass * weight
                        for obs, p in emitted:
                            bucket = nxt.setdefault(word + ((label, obs),), {})
                            if len(nxt) > cap:
                                raise CapExceededError(f"future enumeration exceeds {cap} developments")
                            w = moved * p
                            if target in bucket:
                                w += bucket[target]
                                if w > top:
                                    w = top
                            bucket[target] = w
            layer = nxt
        totals.append({word: sum(dist.values()) for word, dist in layer.items()})
    return totals, scale


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
    (totals,), scale = _develop(m, depth, cap, exact=True)
    return {word: Fraction(p, scale) for word, p in totals.items()}


def enumerate_future(
    model: Model, depth: int, policy: Optional[Policy] = None, cap: int = 200_000
) -> FutureSet:
    """Perfect or quasi-perfect description of the future to the given depth.

    Point models (after an optional policy) get exact probabilities.  Other
    models, and models with an untraced state, whose observations each get
    [0, 1], get bounds from floats: each product and sum is rounded to
    nearest, and upper sums are capped at 1, so a bound can sit an ulp or so
    on the wrong side of the exact value.  Developments with an upper
    probability of zero are absent.
    """
    m = compose_policy(model, policy) if policy is not None else model
    exact = _is_exact(m)
    totals, scale = _develop(m, depth, cap, exact)
    entries = {}
    for word, p in totals[-1].items():
        # int / int rounds once, correctly, as float(Fraction) does
        lo, hi = (p / scale,) * 2 if exact else (min(totals[0][word], 1.0), min(p, 1.0))
        if exact or hi > 0:  # an exact total is above 0, even where its double is 0.0
            entries[Development(word)] = ProbInterval(lo, hi)
    return FutureSet(depth, "future", entries)


# -- estimation -------------------------------------------------------------------


def estimate_fomm(trajectory: Trajectory) -> Model:
    """Standard chain over the observed symbols, counted from the trajectory.

    The model describes exactly the statistics period; transitions never
    observed are structurally absent.  The initial (current) state is the
    observation at the current moment, or the last one when all data is past.
    """
    obs_seq = trajectory.obs
    if len(obs_seq) < 2:
        raise ModelError("trajectory too short to estimate (need at least 2 steps)")
    counts: Counter = Counter(zip(obs_seq, obs_seq[1:]))
    totals: Counter = Counter(obs_seq[:-1])
    symbols = sorted(set(obs_seq))
    current = obs_seq[trajectory.t0] if trajectory.t0 < len(obs_seq) else obs_seq[-1]
    states = tuple(
        State(o, initial=(o == current), trace=TraceSpec({o: POINT_ONE}))
        for o in symbols
    )
    arrows = tuple(
        Arrow(i, TRUE_LABEL, j, POINT_ONE, ProbInterval.point(c / totals[i]))
        for (i, j), c in sorted(counts.items())
    )
    return Model("fomm", tuple(symbols), (TRUE_LABEL,), states, arrows)


# -- preference -------------------------------------------------------------------


def preference_to_policy(model: Model, preference: Preference) -> Policy:
    """Royal policy: each action takes the top of its allowed interval, in
    preference order, and the least preferred absorbs the remainder.

    Probabilities falling below an action's lower bound are raised to it and
    the shortfall is taken from the remaining mass; such states are flagged
    as adjusted.  An agent is refused by ``validate``'s rule; one that only
    the rule's slack admits puts every action at its upper bound, or at its
    lower bound when those sum above 1, and is flagged too.
    """
    preference.check(model)
    compiled = model.compiled
    probs: dict = {}
    adjusted: set = set()
    for sid, ranked in preference.order.items():
        out = compiled.out[compiled.index[sid]]
        bounds = [model.arrows[out[a][0]].label_prob for a in ranked]
        los, his = [b.lo for b in bounds], [b.hi for b in bounds]
        if sum_fault(los, his):
            raise PolicyError(f"state {sid}: no feasible policy within the agent intervals")
        hi_sum = math.fsum(his)
        if hi_sum < 1.0 - TOL or math.fsum(los) > 1.0 + TOL:
            adjusted.add(sid)
            for a, b in zip(ranked, bounds):
                probs[(sid, a)] = b.hi if hi_sum < 1.0 else b.lo
            continue
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
            # the rooms sum to the overflow less 1 - hi_sum, so what is left
            # is at most TOL, 1e-9, plus rounding
        for a, p in zip(ranked, values):
            probs[(sid, a)] = p
    return Policy(probs, frozenset(adjusted))
