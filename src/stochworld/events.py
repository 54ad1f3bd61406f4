"""Event-driven runtime over recorded trajectories.

Direct detection evaluates characteristic functions on bounded past/future
windows around each step; indirect detection compares the observation
distributions of two adjacent sliding windows and flags distribution
shifts.  Tracking advances a belief over an ED model's states only when a
monitored event occurs, conditioning on each step's observation in
between; trace memory remembers the last observation per memory-flagged
state.  Hierarchies compose through derived events: a tracked model's
state becoming dominant is itself an event another model can monitor.

Step semantics match the simulator: the observation at step t is seen
first, then the step's events fire and move the state, taking effect from
step t+1 on.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .core import (
    FULL,
    POINT_ONE,
    POINT_ZERO,
    Belief,
    EventOccurrence,
    EventStream,
    Model,
    ProbInterval,
    Trajectory,
)
from .errors import ModelError, TrackingError

#: Last observation per memory-flagged state, absent until first visit.
TraceMemory = Dict[str, str]


@dataclass(frozen=True)
class CharFn:
    """Interval-valued event detector over past and future windows.

    Returns [0, 1] whenever a window sticks out of the recorded data: no
    data means no knowledge.  Action and observation matchers return the
    points [1,1] or [0,0].
    """

    name: str
    kind: str  # action-match | obs-match | pattern | table
    past_len: int = 0
    future_len: int = 1
    action: Optional[str] = None
    obs: Optional[str] = None
    past_pattern: Optional[str] = None
    future_pattern: Optional[str] = None
    table: Mapping[tuple, ProbInterval] = field(default_factory=dict)

    @property
    def window(self) -> int:
        return self.past_len + self.future_len

    def evaluate(self, trajectory: Trajectory, t: int) -> ProbInterval:
        steps = trajectory.steps
        if t - self.past_len < 0 or t + self.future_len > len(steps):
            return FULL
        if self.kind == "action-match":
            act = steps[t].act
            if act is None:
                return FULL
            return POINT_ONE if act == self.action else POINT_ZERO
        if self.kind == "obs-match":
            return POINT_ONE if steps[t].obs == self.obs else POINT_ZERO
        past = steps[t - self.past_len : t]
        future = steps[t : t + self.future_len]
        if self.kind == "pattern":
            past_word = ",".join(s.obs for s in past)
            future_word = ",".join(s.obs for s in future)
            ok = True
            if self.past_pattern is not None:
                ok = ok and re.fullmatch(self.past_pattern, past_word) is not None
            if self.future_pattern is not None:
                ok = ok and re.fullmatch(self.future_pattern, future_word) is not None
            return POINT_ONE if ok else POINT_ZERO
        if self.kind == "table":
            key = (tuple(s.obs for s in past), tuple(s.obs for s in future))
            return self.table.get(key, FULL)
        raise ModelError(f"unknown characteristic function kind {self.kind!r}")


def detect_direct(
    trajectory: Trajectory, fns, threshold: float = 0.5
) -> EventStream:
    """Evaluate characteristic functions at every step; an occurrence is
    emitted when the interval's lower bound clears the threshold and its
    upper bound is above 0 (a [0,0] answer is never an occurrence).

    When same-named functions disagree at a step, the verdict of the one
    with the longer combined window stands (the first listed among equals).
    """
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


def detect_indirect(
    trajectory: Trajectory, window: int, threshold: float
) -> Tuple[EventStream, List[Tuple[int, int]]]:
    """Sliding two-window total-variation change-point scan.

    The distance between the observation counts of the windows before and
    after step t is tv = d / (2 * window), with d their integer L1 distance.
    Step t is a boundary hit when tv exceeds the threshold, compared exactly
    (as rationals, the threshold at its binary value), so a distance equal
    to the threshold is not a hit.  Both counts slide one step at a time:
    the scan costs O(n) for n steps, whatever the window.

    Boundary hits closer than `window` steps merge into the maximal-distance
    point, so detection latency is up to `window` steps.  Two regimes with
    identical observation distributions are invisible to this method: loops
    cannot be found indirectly.
    """
    n = len(trajectory)
    if window < 1:
        raise ModelError(f"window must be positive, got {window}")
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


# -- tracking ---------------------------------------------------------------------


@dataclass
class TrackResult:
    """Per-step beliefs (after that step's observation, before its events),
    the belief after everything processed, trace memory, warnings."""

    beliefs: List[Belief]
    final_belief: Belief
    memory: TraceMemory
    warnings: List[str]


class _Tables:
    """Lookup tables built once per tracking or validity call.

    - ``labels_at[t]``: the known labels of the events at step t, in the
      model's collision order (``CompiledModel.event_order``; only the first
      under the priority rule).  Unknown labels are dropped with a warning.
    - ``allowed[obs]``: the states whose trace admits the observation, for
      every observation of the trajectory.
    - ``moves[(state, label)]``: the model's ``CompiledModel.shares``, absent
      where the event cannot leave the state.
    """

    def __init__(
        self,
        model: Model,
        trajectory: Trajectory,
        events: EventStream,
        collision: Optional[str],
        warnings: list,
    ):
        if model.kind != "ed":
            raise ModelError("tracking needs an event-driven model")
        if collision is None:
            collision = "priority" if model.priorities else "both-arrows"
        if collision not in ("priority", "both-arrows"):
            raise ModelError(f"unknown collision rule {collision!r}")
        compiled = model.compiled
        rank = {e: r for r, e in enumerate(compiled.event_order)}
        by_time: dict = {}
        for occ in events.occurrences:
            if occ.label not in rank:
                warnings.append(f"step {occ.time}: unknown event label {occ.label!r} ignored")
                continue
            by_time.setdefault(occ.time, set()).add(occ.label)
        keep = 1 if collision == "priority" else None
        self.labels_at = {
            t: tuple(sorted(labels, key=rank.__getitem__)[:keep]) for t, labels in by_time.items()
        }
        self.allowed = {
            o: frozenset(s.id for s in model.states if s.trace.prob(o).hi > 0.0)
            for o in set(trajectory.observations())
        }
        self.moves = compiled.shares


def _apply_event(moves: dict, belief: dict, label: str, warnings: list, t: int) -> tuple:
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


def _track(
    model: Model,
    trajectory: Trajectory,
    events: EventStream,
    start: int = 0,
    initial: Optional[dict] = None,
    collision: Optional[str] = None,
) -> tuple:
    """Run the tracker from `start`; returns (beliefs, final_belief, memory,
    warnings, failed_at) where failed_at is None on full success."""
    warnings: list = []
    tables = _Tables(model, trajectory, events, collision, warnings)
    belief = dict(initial) if initial is not None else {model.initial_state.id: 1.0}
    remembering = {s.id for s in model.states if s.trace.memory}
    approx = False
    beliefs: list = []
    memory: TraceMemory = {}
    steps = trajectory.steps
    for t in range(start, len(steps)):
        obs = steps[t].obs
        allowed = tables.allowed[obs]
        conditioned = {sid: mass for sid, mass in belief.items() if sid in allowed}
        if len(conditioned) != len(belief):
            approx = True
        total = sum(conditioned.values())
        if total <= 0.0:
            return beliefs, None, memory, warnings, t
        belief = {sid: mass / total for sid, mass in conditioned.items()}
        beliefs.append(Belief(belief, approximate=approx))
        if remembering:
            top = min(belief, key=lambda s: (-belief[s], s))
            if top in remembering:
                memory[top] = obs
        for label in tables.labels_at.get(t, ()):
            belief, moved_approx = _apply_event(tables.moves, belief, label, warnings, t)
            approx = approx or moved_approx
    return beliefs, Belief(belief, approximate=approx), memory, warnings, None


def track(
    model: Model,
    trajectory: Trajectory,
    events: EventStream,
    collision: Optional[str] = None,
) -> TrackResult:
    """Belief tracking over an ED model: the state changes only on monitored
    events, each step's observation filters the belief in between."""
    beliefs, final, memory, warnings, failed = _track(
        model, trajectory, events, collision=collision
    )
    if failed is not None:
        raise TrackingError(failed)
    return TrackResult(beliefs, final, memory, warnings)


@dataclass(frozen=True)
class ValiditySpan:
    start: int
    end: int  # exclusive
    permanent_so_far: bool = False


def phenomenon_validity(
    model: Model, trajectory: Trajectory, events: EventStream
) -> List[ValiditySpan]:
    """Maximal step intervals on which the model tracks the trajectory.

    Restarts use a uniform belief (the phenomenon may re-emerge in any
    state).  A span covering everything recorded is flagged permanent so
    far; whether it stays permanent beyond the data is unknowable.

    A restart at step i fails at the first step whose observation no state
    of its belief's support can show.  Supports grow with the start: the
    support of a later restart contains that of an earlier one.  So one
    forward pass keeps, per state, the earliest restart whose support holds
    it: a restart enters every state, a trace mismatch drops the state, an
    event carries each value to the targets of its positive-weight arrows
    (keeping the minimum) and leaves it on states the event cannot leave.
    Restart i fails at the first step t >= i after whose observation every
    state's earliest restart is later than i.  The cost is
    O(n * (|S| + |arrows|)) for n steps.
    """
    n = len(trajectory)
    tables = _Tables(model, trajectory, events, None, [])
    # oldest[t]: the earliest restart still tracking after step t's
    # observation, n when none is
    oldest = []
    earliest: dict = {}
    for t, step in enumerate(trajectory.steps):
        earliest = {s: earliest.get(s, t) for s in tables.allowed[step.obs]}
        oldest.append(min(earliest.values(), default=n))
        for label in tables.labels_at.get(t, ()):
            moved: dict = {}
            for s, i in earliest.items():
                entry = tables.moves.get((s, label))
                targets = (s,) if entry is None else [target for target, _ in entry[0]]
                for target in targets:
                    if i < moved.get(target, n):
                        moved[target] = i
            earliest = moved
    spans: list = []
    end = 0
    for i in range(n):
        end = max(end, i)
        while end < n and oldest[end] <= i:
            end += 1
        if end > i and (not spans or end > spans[-1].end):
            spans.append(ValiditySpan(i, end, permanent_so_far=(i == 0 and end == n)))
    return spans


def derived_events(model: Model, beliefs, threshold: float = 0.5) -> EventStream:
    """Events of the form "<model>.<state>": the state's belief mass crossed
    above the threshold at that step.  These streams feed higher-level
    models' track calls."""
    name = model.name or "ed"
    occurrences = []
    for t in range(1, len(beliefs)):
        for s in model.states:
            now = beliefs[t].mass(s.id)
            before = beliefs[t - 1].mass(s.id)
            if now > threshold >= before:
                occurrences.append(
                    EventOccurrence(t, f"{name}.{s.id}", ProbInterval.point(now), "derived")
                )
    return EventStream(tuple(occurrences))
