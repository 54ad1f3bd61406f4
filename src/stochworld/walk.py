"""Seeded walks of a generator, recorded as trajectories and, for
event-driven models, as the events fired.

The standard library's ``random.Random`` drives every draw, so a walk is a
deterministic function of its seed.  A step follows the convention of
``future``: the observation of the current state, then the action or the
events fired, then the move.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Optional

# preference_to_policy comes through the package's exports, imported on first use
import stochworld as sw

from .core import (
    ACTION_KINDS,
    POINT_ONE,
    SINGLE_LABEL_KINDS,
    TRUE_LABEL,
    EventStream,
    Model,
    Policy,
    Preference,
    Trajectory,
    Value,
    _occurrence,
    checked_int,
    compose_policy,
)
from .errors import JourneyError, ModelError


class SimulationConfig(Value):
    _fields = ("steps", "seed", "policy", "preference", "collision")

    def __init__(self, steps: int, seed: int, policy: Optional[Policy] = None,
                 preference: Optional[Preference] = None, collision: str = "priority"):  # or "both-arrows"
        self._set(steps, seed, policy, preference, collision)


def _resolve_agent(model: Model, config: SimulationConfig) -> Model:
    if model.kind == "ed" or model.kind in SINGLE_LABEL_KINDS:
        if config.policy or config.preference:
            raise ModelError(f"{model.kind} generators take no policy or preference")
        return model
    if config.policy and config.preference:
        raise ModelError("give either a policy or a preference, not both")
    if config.preference:
        return compose_policy(model, sw.preference_to_policy(model, config.preference))
    if config.policy:
        return compose_policy(model, config.policy)
    if all(a.label_prob.is_point for a in model.arrows):
        return model
    raise ModelError("interval agent probabilities need a policy or preference")


def _cumulative(intervals) -> Optional[list]:
    """Running sums of the values of point intervals, the last replaced
    by +inf so that a draw at or above the rounded total takes the last
    item; None when one of them is an interval, however narrow."""
    cum = []
    total = 0.0
    for iv in intervals:
        if not iv.is_point:
            return None
        total += iv.mid
        cum.append(total)
    if cum:
        cum[-1] = math.inf
    return cum


def _unresolved(what: str) -> ModelError:
    return ModelError(f"unresolved interval for {what}; supply a policy or resolution")


def _rows(model: Model) -> list:
    """Per state, what a step there reads: (refusal, symbols, cum, choices,
    moves, acts).

    ``symbols`` are the state's trace symbols, sorted, and ``cum`` their
    cumulative probabilities (see ``_cumulative``).  ``moves`` holds per
    label the arrows' targets in key order and their cumulative
    probabilities, None for an interval: for ed by event, and ``choices``
    are the events that can fire in collision order with their
    probabilities; for an action kind by action in alphabet order, and
    ``choices`` the actions' cumulative probabilities; for a single-label
    kind, only "true", and ``choices`` is None.  ``acts`` are the actions
    in the order of ``moves``, (None,) for the other kinds.
    ``refusal`` is the error a step from the state raises, or None.
    """
    compiled = model.compiled
    ids, dst, arrows = compiled.ids, compiled.dst, model.arrows
    ed, agent = model.kind == "ed", model.kind in ACTION_KINDS
    rows = []
    for s, out in zip(model.states, compiled.out):
        symbols = tuple(sorted(s.trace.probs))
        cum = _cumulative([s.trace.probs[o] for o in symbols])
        moves = {}
        for label, ks in out.items():
            ks = sorted(ks, key=lambda k: ids[dst[k]])
            moves[label] = ([dst[k] for k in ks], _cumulative([arrows[k].arrow_prob for k in ks]))
        acts, choices = (None,), None
        if ed:
            lps = [(e, arrows[out[e][0]].label_prob) for e in compiled.event_order if e in out]
            choices = [(e, lp.mid) for e, lp in lps]
            unresolved = [e for e, lp in lps if not lp.is_point]
            refusal = _unresolved(f"event {unresolved[0]} in {s.id}") if unresolved else None
        elif agent:
            acts = tuple(l for l in model.labels if l in out)
            choices = _cumulative([arrows[out[a][0]].label_prob for a in acts])
            moves = [moves[a] for a in acts]
            refusal = None if acts else JourneyError(f"state {s.id} has no outgoing actions")
        else:
            moves = [moves[TRUE_LABEL]] if TRUE_LABEL in moves else []
            refusal = None if moves else JourneyError(f"state {s.id} has no {TRUE_LABEL!r} arrows")
        if not symbols:
            refusal = ModelError(f"state {s.id} has no trace to observe")
        if cum is None:
            refusal = _unresolved(f"trace of {s.id}")
        rows.append((refusal, symbols, cum, choices, moves, acts))
    return rows


def simulate_events(model: Model, config: SimulationConfig):
    """Walk the generator; returns the trajectory and, for ed, the events fired.

    The walk reads one row per state (see ``_rows``): per step it draws one
    observation, for ed one uniform per event that can fire and one arrow
    per fired event, else the action of an action kind and one arrow, each
    by one bisection into cumulative probabilities.  An interval the walk
    reaches is refused there.
    """
    n = checked_int(config.steps, "walk step count", 0)
    if config.collision not in ("priority", "both-arrows"):
        raise ModelError(f"unknown collision rule {config.collision!r}")
    resolved = _resolve_agent(model, config)
    rows = _rows(resolved)
    seed = None if config.seed is None else checked_int(config.seed, "the walk seed", 0)
    draw = random.Random(seed).random
    state = resolved.compiled.index[resolved.initial_state.id]
    priority = config.collision == "priority"
    obs = []
    acts = []
    occurrences = []
    if resolved.kind == "ed":
        for t in range(n):
            refusal, symbols, cum, events, _, _ = rows[state]
            if refusal is not None:
                raise refusal
            obs.append(symbols[bisect_right(cum, draw())])
            fired = []
            for e, p in events:
                if draw() < p:
                    fired.append(e)
            if fired:
                for e in fired[:1] if priority else fired:
                    move = rows[state][4].get(e)
                    if move is None:
                        continue  # the walk moved; the event cannot fire here
                    targets, cum = move
                    if cum is None:
                        raise _unresolved("arrow")
                    state = targets[bisect_right(cum, draw())]
                    occurrences.append(_occurrence((t, e, POINT_ONE, "direct")))
        acts = [None] * len(obs)
    else:
        for _ in range(n):
            refusal, symbols, cum, choices, moves, actions = rows[state]
            if refusal is not None:
                raise refusal
            obs.append(symbols[bisect_right(cum, draw())])
            j = bisect_right(choices, draw()) if choices else 0
            acts.append(actions[j])
            targets, cum = moves[j]
            if cum is None:
                raise _unresolved("arrow")
            state = targets[bisect_right(cum, draw())]
    return Trajectory(obs, acts, len(obs)), EventStream(tuple(occurrences))


def simulate(model: Model, config: SimulationConfig) -> Trajectory:
    """Deterministic-by-seed generator walk recording (observation, action) steps."""
    trajectory, _ = simulate_events(model, config)
    return trajectory
