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
from fractions import Fraction
from itertools import chain, repeat
from numbers import Real
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from .core import (
    FULL,
    POINT_ONE,
    POINT_ZERO,
    Belief,
    EventStream,
    Model,
    ProbInterval,
    Trajectory,
    Value,
    _occurrence,
    checked_int,
)
from .errors import ModelError, TrackingError

#: Last observation per memory-flagged state, absent until first visit.
TraceMemory = Dict[str, str]


class CharFn(Value):
    """Interval-valued event detector over past and future windows.

    Returns [0, 1] whenever a window sticks out of the recorded data: no
    data means no knowledge.  Action and observation matchers return the
    points [1,1] or [0,0].
    """

    _fields = ("name", "kind", "past_len", "future_len", "action", "obs", "past_pattern", "future_pattern", "table")

    def __init__(
        self, name: str, kind: str, past_len: int = 0, future_len: int = 1, action: Optional[str] = None,
        obs: Optional[str] = None, past_pattern: Optional[str] = None, future_pattern: Optional[str] = None,
        table: Optional[Mapping[tuple, ProbInterval]] = None,
    ):  # refuses, naming the field, what evaluate cannot read
        if kind not in ("action-match", "obs-match", "pattern", "table"):
            raise ModelError(f"charfn {name}: unknown kind {kind!r}")
        past_len = checked_int(past_len, f"charfn {name}: past_len", 0)  # a numpy integer is stored as an int
        future_len = checked_int(future_len, f"charfn {name}: future_len", 0)
        for field_name, pattern in (("past_pattern", past_pattern), ("future_pattern", future_pattern)):
            try:
                re.compile(pattern or "")
            except (re.error, TypeError):
                raise ModelError(f"charfn {name}: {field_name} does not compile") from None
        table = {} if table is None else table
        self._set(name, kind, past_len, future_len, action, obs, past_pattern, future_pattern, table)

    @property
    def window(self) -> int:
        return self.past_len + self.future_len

    def evaluate(self, trajectory: Trajectory, t: int) -> ProbInterval:
        obs = trajectory.obs
        if t - self.past_len < 0 or t + self.future_len > len(obs):
            return FULL
        if self.kind == "action-match":
            act = trajectory.acts[t]
            if act is None:
                return FULL
            return POINT_ONE if act == self.action else POINT_ZERO
        if self.kind == "obs-match":
            return POINT_ONE if obs[t] == self.obs else POINT_ZERO
        past = obs[t - self.past_len : t]
        future = obs[t : t + self.future_len]
        if self.kind == "pattern":
            windows = ((self.past_pattern, past), (self.future_pattern, future))
            ok = all(p is None or re.fullmatch(p, ",".join(w)) for p, w in windows)
            return POINT_ONE if ok else POINT_ZERO
        return self.table.get((past, future), FULL)  # a table


def _fired_at(fn: CharFn, trajectory: Trajectory, threshold: float) -> list:
    """fn's occurrences under the threshold, in step order.  Matchers look
    their verdict up by symbol; a pattern or table is evaluated once per
    distinct observation window."""

    def fired(value: ProbInterval) -> Optional[ProbInterval]:
        return value if value.lo >= threshold and value.hi > 0.0 else None

    obs = trajectory.obs
    n = len(obs)
    plen, flen = fn.past_len, fn.future_len
    first = min(plen, n)
    end = max(first, min(n - flen + 1, n))  # steps first..end-1 have whole windows
    outside = fired(FULL)
    # a [0,0] verdict never fires, so a symbol that does not match maps to None
    if fn.kind == "obs-match":
        inside = map({fn.obs: fired(POINT_ONE)}.get, obs[first:end])
    elif fn.kind == "action-match":  # no action reads as outside, even for action=None
        verdict = {fn.action: fired(POINT_ONE), None: outside}.get
        inside = map(verdict, trajectory.acts[first:end])
    else:
        memo: dict = {}  # observation window -> verdict
        inside = []
        for t in range(first, end):
            window = obs[t - plen : t + flen]
            value = memo.get(window, memo)  # memo itself marks an unseen window
            if value is memo:
                value = memo[window] = fired(fn.evaluate(trajectory, t))
            inside.append(value)
    name = fn.name
    values = chain(repeat(outside, first), inside, repeat(outside, n - end))
    return [_occurrence((t, name, value, "direct")) for t, value in enumerate(values) if value is not None]


def detect_direct(
    trajectory: Trajectory, fns, threshold: float = 0.5
) -> EventStream:
    """Evaluate characteristic functions at every step; an occurrence is
    emitted when the interval's lower bound clears the threshold and its
    upper bound is above 0 (a [0,0] answer is never an occurrence).

    When same-named functions disagree at a step, the verdict of the one
    with the longer combined window stands (the first listed among equals).
    Occurrences come by step, then by name: each name's hits, in name
    order, sorted stably by step.  A NaN threshold, and one that is not a
    real number, is refused; -inf and +inf keep their meaning.
    """
    if not isinstance(threshold, Real) or math.isnan(threshold):
        raise ModelError(f"direct detection needs a threshold that is a number, got {threshold!r}")
    by_name: dict = {}
    for fn in fns:
        by_name.setdefault(fn.name, []).append(fn)
    occurrences = []
    for name in sorted(by_name):
        occurrences += _fired_at(max(by_name[name], key=lambda f: f.window), trajectory, threshold)
    occurrences.sort(key=itemgetter(0))
    return EventStream(tuple(occurrences))


def detect_indirect(
    trajectory: Trajectory, window: int, threshold: float
) -> Tuple[EventStream, List[Tuple[int, int]]]:
    """Sliding two-window total-variation change-point scan.

    The distance between the observation counts of the windows before and
    after step t is tv = d / (2 * window), with d their integer L1 distance.
    Step t is a boundary hit when tv exceeds the threshold, compared exactly
    (as rationals, the threshold at its binary value), so a distance equal
    to the threshold is not a hit; a threshold must be a finite number.
    The observations are numbered once, and both counts slide one step at
    a time in one integer list: the scan costs O(n) for n steps, whatever
    the window.

    Boundary hits closer than `window` steps merge into the maximal-distance
    point, so detection latency is up to `window` steps.  Two regimes with
    identical observation distributions are invisible to this method: loops
    cannot be found indirectly.
    """
    n = len(trajectory)
    window = checked_int(window, "indirect detection window", 1)
    if n < 2 * window:
        raise ModelError(f"trajectory of {n} steps is too short for window {window}")
    if not isinstance(threshold, Real) or not math.isfinite(threshold):
        raise ModelError(f"indirect detection needs a finite threshold, got {threshold!r}")
    cut = math.floor(2 * window * Fraction(threshold)) + 1
    number: dict = {}  # observation -> its index into diff
    codes = [number.setdefault(o, len(number)) for o in trajectory.obs]
    diff = [0] * len(number)  # count before t minus count from t on
    for o in codes[:window]:
        diff[o] += 1
    for o in codes[window : 2 * window]:
        diff[o] -= 1
    d = sum(map(abs, diff))
    hits = [(window, d)] if d >= cut else []
    # at step t, codes[t - 1 - window] leaves the first window, codes[t - 1]
    # crosses into it and codes[t - 1 + window] joins the second
    for t, leaving, crossing, joining in zip(
        range(window + 1, n - window + 1), codes, codes[window:], codes[2 * window :]
    ):
        c = diff[leaving]
        diff[leaving] = c - 1
        d += abs(c - 1) - abs(c)
        c = diff[crossing]
        diff[crossing] = c + 2
        d += abs(c + 2) - abs(c)
        c = diff[joining]
        diff[joining] = c - 1
        d += abs(c - 1) - abs(c)
        if d >= cut:
            hits.append((t, d))
    merged: list = []
    for t, d in hits:
        if merged and t - merged[-1][-1][0] <= window:
            merged[-1].append((t, d))
        else:
            merged.append([(t, d)])
    occurrences = []
    for cluster in merged:
        t, d = max(cluster, key=lambda item: (item[1], -item[0]))
        tv = d / (2 * window)
        lo = (tv - threshold) / (1.0 - threshold) if threshold < 1.0 else 1.0
        occurrences.append(_occurrence((t, "invisible", ProbInterval(min(max(lo, 0.0), 1.0), 1.0), "indirect")))
    cuts = [0] + [t for t, _, _, _ in occurrences] + [n]
    segments = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    return EventStream(tuple(occurrences)), segments


# -- tracking ---------------------------------------------------------------------


class TrackResult:
    """Per-step beliefs (after that step's observation, before its events),
    the belief after everything processed, trace memory, warnings.  Steps
    with equal beliefs share one immutable `Belief` object."""

    def __init__(self, beliefs: List[Belief], final_belief: Belief, memory: TraceMemory, warnings: List[str]):
        self.beliefs, self.final_belief, self.memory, self.warnings = beliefs, final_belief, memory, warnings


def _labels_at(model: Model, events: EventStream, collision: Optional[str], warnings: list) -> dict:
    """Step -> the known labels of its events, in the model's collision order
    (``CompiledModel.event_order``; only the first under the priority rule).
    Unknown labels are dropped with a warning."""
    if model.kind != "ed":
        raise ModelError("tracking needs an event-driven model")
    if collision is None:
        collision = "priority" if model.priorities else "both-arrows"
    if collision not in ("priority", "both-arrows"):
        raise ModelError(f"unknown collision rule {collision!r}")
    rank = {e: r for r, e in enumerate(model.compiled.event_order)}
    by_time: dict = {}
    for time, label, _, _ in events.occurrences:
        if label not in rank:
            warnings.append(f"step {time}: unknown event label {label!r} ignored")
            continue
        by_time.setdefault(time, set()).add(label)
    keep = 1 if collision == "priority" else None
    return {t: tuple(sorted(labels, key=rank.__getitem__)[:keep]) for t, labels in by_time.items()}


def _apply_event(moves: dict, belief: dict, label: str) -> tuple:
    """Move belief mass through the event's arrows; mass in states the event
    cannot leave stays put.  A share that underflows to 0.0 is dropped.
    Returns the moved belief, whether a midpoint moved it, and the stuck
    states as warning text ("" when none)."""
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
            w = mass * share
            if w > 0.0:
                moved[target] = moved.get(target, 0.0) + w
    return moved, approx, " ".join(sorted(stuck)) if stuck else ""


def track(
    model: Model,
    trajectory: Trajectory,
    events: EventStream,
    collision: Optional[str] = None,
) -> TrackResult:
    """Belief tracking over an ED model: the state changes only on monitored
    events, each step's observation filters the belief in between.  Raises
    `TrackingError` at the first step whose observation no state of the
    belief can show.

    A log meets few distinct beliefs, so the tracker builds the automaton
    over them lazily, as it reads the log (the subset construction): each
    step out of a belief on an observation or an event is computed once,
    then looked up.  Beliefs are numbered; a conditioned one by its ordered
    (state, mass) items, which closes the automaton's cycles.  A miss runs
    the arithmetic on the numbered dict, so each belief is bit for bit the
    one a step-by-step run gives.  One `Belief` is built per distinct
    (belief, approximate) pair and shared by its steps.
    """
    warnings: list = []
    labels_at = _labels_at(model, events, collision, warnings)
    allowed, moves = model.compiled.allowed, model.compiled.shares
    remembering = {s.id for s in model.states if s.trace.memory}
    dicts: list = [{model.initial_state.id: 1.0}]
    numbers: dict = {}  # ordered items of a conditioned belief -> its number
    shown: dict = {}  # (number, approximate) -> its Belief
    # (number, approximate, obs) -> (number, approximate, Belief, state to
    # remember obs in or None)
    observed: dict = {}
    fired: dict = {}  # (number, label) -> (number, moved by midpoints, stuck states)

    b = 0
    approx = False
    beliefs: list = []
    memory: TraceMemory = {}
    for t, obs in enumerate(trajectory.obs):
        key = (b, approx, obs)
        entry = observed.get(key)
        if entry is None:
            belief = dicts[b]
            admitted = allowed.get(obs, allowed[None])
            conditioned = {sid: mass for sid, mass in belief.items() if sid in admitted}
            total = sum(conditioned.values())
            if total <= 0.0:
                raise TrackingError(t)
            probs = {sid: mass / total for sid, mass in conditioned.items()}
            after = numbers.setdefault(tuple(probs.items()), len(dicts))
            if after == len(dicts):
                dicts.append(probs)
            shown_approx = approx or len(conditioned) != len(belief)
            made = shown.get((after, shown_approx))
            if made is None:
                made = shown[(after, shown_approx)] = Belief(probs, approximate=shown_approx)
            top = min(probs, key=lambda s: (-probs[s], s)) if remembering else None
            if top not in remembering:
                top = None
            entry = observed[key] = (after, shown_approx, made, top)
        b, approx, belief, top = entry
        beliefs.append(belief)
        if top is not None:
            memory[top] = obs
        for label in labels_at.get(t, ()):
            key = (b, label)
            entry = fired.get(key)
            if entry is None:
                probs, midpoints, stuck = _apply_event(moves, dicts[b], label)
                entry = fired[key] = (len(dicts), midpoints, stuck)
                dicts.append(probs)
            b, midpoints, stuck = entry
            approx = approx or midpoints
            if stuck:
                warnings.append(f"step {t}: event {label!r} impossible in {stuck}; belief kept")
    # an unconditioned final belief may equal a conditioned one and share its object
    b = numbers.get(tuple(dicts[b].items()), b)
    final = shown.get((b, approx)) or Belief(dicts[b], approximate=approx)
    return TrackResult(beliefs, final, memory, warnings)


class ValiditySpan(Value):
    _fields = ("start", "end", "permanent_so_far")

    def __init__(self, start: int, end: int, permanent_so_far: bool = False):  # end is exclusive
        self._set(start, end, permanent_so_far)


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
    labels_at = _labels_at(model, events, None, [])
    allowed, moves = model.compiled.allowed, model.compiled.shares
    # oldest[t]: the earliest restart still tracking after step t's
    # observation, n when none is
    oldest = []
    earliest: dict = {}
    for t, obs in enumerate(trajectory.obs):
        earliest = {s: earliest.get(s, t) for s in allowed.get(obs, allowed[None])}
        oldest.append(min(earliest.values(), default=n))
        for label in labels_at.get(t, ()):
            moved: dict = {}
            for s, i in earliest.items():
                entry = moves.get((s, label))
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
    models' track calls.

    Mass above a threshold of at least 0 puts the state in the belief's
    support, so only the support is read, once per pair of consecutive
    belief objects: the tracker shares one object between the steps of a
    belief.  A negative threshold is never crossed, since no mass is below
    it before, and neither is +inf.  A NaN threshold, and one that is not a
    real number, is refused."""
    if not isinstance(threshold, Real) or math.isnan(threshold):
        raise ModelError(f"derived events need a threshold that is a number, got {threshold!r}")
    if not threshold >= 0.0:
        return EventStream(())
    name = model.name or "ed"
    rank = {s.id: r for r, s in enumerate(model.states)}
    beliefs = list(beliefs)  # keeps alive the objects whose ids key the memo
    crossings: dict = {}
    occurrences = []
    for t in range(1, len(beliefs)):
        before, now = beliefs[t - 1], beliefs[t]
        if before is now:  # a belief crosses nothing against itself
            continue
        pair = (id(before), id(now))
        crossed = crossings.get(pair)
        if crossed is None:
            past = before.probs
            crossed = crossings[pair] = []
            for s, p in now.probs.items():
                if p > threshold >= past.get(s, 0.0) and s in rank:
                    crossed.append((rank[s], f"{name}.{s}", ProbInterval.point(p)))
            crossed.sort()  # into model state order
        for _, label, confidence in crossed:
            occurrences.append(_occurrence((t, label, confidence, "derived")))
    return EventStream(tuple(occurrences))
