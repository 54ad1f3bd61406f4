"""Inverse models that predict the past.

A journey starts in the initial state and walks arrows until it first
returns there or enters a black hole.  Expected per-arrow traversal counts
per journey satisfy a linear flow system; normalizing the counts per target
state yields the inbound probabilities, i.e. the arrows of the inverse
model.  The system is reduced here in plain Python, cheapest state first;
what a dense graph leaves of it, and the Monte-Carlo journeys that estimate
the same statistics, are in ``journeys``.

Inversion requires the absence of white peaks: over those, any inbound
probabilities whatsoever would be consistent, so the toolkit refuses to
guess.

The past is the future of the inverse.  The minimal model joins the
minimized model with its minimized inverse at a fresh initial state.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from typing import Mapping, Optional

# belief_determinize, minimize_forward, enumerate_future, _dense_solve: package exports, imported on first use
import stochworld as sw

from .analysis import find_white_peak, reached
from .core import (
    ACTION_KINDS, Arrow, Development, FutureSet, Model, Policy, ProbInterval, State, Value, canonical, checked_int,
    compose_policy, ordered_sum, replace, sum_fault,
)
from .errors import JourneyError, ModelError, WhitePeakError

_EPS = 1e-12
#: The reduction censors unknowns while its cheapest step updates at most this many entries, or
#: while at most this many are left; LAPACK solves the rest.  So a command's model (2-4 unknowns),
#: a batch's (at most 14) and a ring of any size need no numpy, which takes 140 ms to import, and
#: a 2000-state chain of three arrows a state leaves about 900 unknowns; 16 and 64 were no faster.
_ELIMINATION_MAX = 32
_SINGULAR = "singular flow system: the visit counts are unbounded"


class JourneyStatistics(Value):
    """Expected per-journey visit and traversal counts."""

    _fields = ("visit_counts", "arrow_counts", "return_count", "absorption_counts")

    def __init__(self, visit_counts: Mapping[str, float], arrow_counts: Mapping[tuple, float], return_count: float,
                 absorption_counts: Mapping[str, float]):
        self._set(visit_counts, arrow_counts, return_count, absorption_counts)


def _propagating_states(model: Model) -> tuple:
    """The states journeys can stand on, reachable and outside black holes, as a flag per state
    number, and the black hole; refused as by ``_check_journeys`` over the arrows' midpoints."""
    compiled = model.compiled
    s0 = compiled.index[model.initial_state.id]
    returns = reached(compiled.backward, s0)
    standing = list(map(operator.and_, reached(compiled.forward, s0), returns))
    _check_journeys(model, standing, compiled.mid, compiled.point)
    return standing, frozenset(sid for sid, back in zip(compiled.ids, returns) if not back)


def _check_journeys(model: Model, standing: list, mid: list, point: Optional[list] = None) -> None:
    """Refuses, out of the states ``standing`` flags, an arrow that ``point``
    (where given) does not flag as a point, and an outgoing sum of ``mid``
    that ``validate`` refuses by ``sum_fault``; the first such state in model
    order is named."""
    compiled = model.compiled
    outgoing = [[] for _ in standing]
    interval: dict = {}  # standing state -> its first interval arrow
    for k, (i, m) in enumerate(zip(compiled.src, mid)):
        if standing[i]:
            outgoing[i].append(m)
            if point is not None and not point[k]:
                interval.setdefault(i, k)
    for i, stands in enumerate(standing):
        if stands and i in interval:
            a = model.arrows[interval[i]]
            raise JourneyError(
                f"journey statistics need point probabilities (arrow {a.source} "
                f"{a.label} {a.target} is an interval)"
            )
        fault = stands and sum_fault(outgoing[i])
        if fault:
            raise JourneyError(f"journeys do not terminate: state {compiled.ids[i]} outgoing probability sum {fault[1]:g}")


def journey_statistics(model: Model) -> JourneyStatistics:
    """Solve the journey flow system for expected visit and arrow counts."""
    s = _solved_flow(model)  # once per model; fresh dicts per call, and no refusal is kept
    return JourneyStatistics(dict(s.visit_counts), dict(s.arrow_counts), s.return_count, dict(s.absorption_counts))


def _reduced(out: list, inn: list, exits: list, c: list) -> list:
    """x with x[r] = c[r] + sum_k p(k->r) x[k], p off the diagonal as ``out[k] = {r: p(k->r)}`` and
    ``inn[r] = {k: p(k->r)}``, ``exits[k]`` the rest of k's pivot (1 minus its column of Q^T); all four
    are used up.  Grassmann-Taksar-Heyman state reduction censors the unknowns in Markowitz order, the
    one whose elimination updates the fewest entries first.  A pivot is its exit mass plus its flow to
    the unknowns left, so no step subtracts; a self loop a step makes is dropped, as the pivot leaves it
    out.  Censoring stops once the cheapest step would update more than ``_ELIMINATION_MAX`` entries
    and more than that many unknowns are left; LAPACK solves those."""
    n = len(c)
    heap = [(len(inn[k]) * len(row), k) for k, row in enumerate(out)]
    heapq.heapify(heap)
    censored = []  # (k, its pivot), in elimination order
    while heap:
        cost, k = heapq.heappop(heap)
        row = out[k]
        if row is None or cost != len(inn[k]) * len(row):  # censored, or pushed again since
            continue
        if cost > _ELIMINATION_MAX and n - len(censored) > _ELIMINATION_MAX:
            break
        d = exits[k] + ordered_sum(row.values())
        if not d:
            raise JourneyError(_SINGULAR)
        out[k] = None
        censored.append((k, d))
        col, ek, ck = inn[k], exits[k] / d, c[k] / d
        for r, p in row.items():
            del inn[r][k]
            c[r] += p * ck
        for j, q in col.items():
            exits[j] += q * ek
            to = out[j]
            del to[k]
            f = q / d
            for r, p in row.items():
                if r != j:
                    to[r] = inn[r][j] = to.get(r, 0.0) + f * p
        for t in (*row, *col):
            heapq.heappush(heap, (len(inn[t]) * len(out[t]), t))
    x = c[:]
    left = [k for k, row in enumerate(out) if row is not None]
    if left:  # the matrix's entries: each pivot on the diagonal, and minus each arrow's p off it
        at = dict(zip(left, range(len(left))))
        entries = [(i, i, exits[k] + ordered_sum(out[k].values())) for i, k in enumerate(left)]
        entries += [(at[r], i, -p) for i, k in enumerate(left) for r, p in out[k].items()]
        for k, v in zip(left, sw._dense_solve(len(left), *zip(*entries), [c[k] for k in left])):
            x[k] = v
    for k, d in reversed(censored):
        x[k] = (c[k] + ordered_sum(q * x[j] for j, q in inn[k].items())) / d
    return x


def _solved_flow(model: Model) -> JourneyStatistics:
    compiled = model.compiled
    if compiled.journeys is not None:  # the model was solved before
        return compiled.journeys
    ids, s0 = compiled.ids, compiled.index[model.initial_state.id]
    standing, black = _propagating_states(model)
    visits, counts = _flow(compiled, s0, standing, compiled.mid)
    arrow_counts = {}
    return_count = 0.0
    absorption: dict = {}
    for k, (i, j) in enumerate(zip(compiled.src, compiled.dst)):
        if standing[i]:
            arrow_counts[model.arrows[k].key] = count = counts[k]
            if j == s0:
                return_count += count
            elif ids[j] in black:
                absorption[ids[j]] = absorption.get(ids[j], 0.0) + count
    compiled.journeys = JourneyStatistics({ids[i]: v for i, v in visits.items()}, arrow_counts, return_count, absorption)
    return compiled.journeys


def _flow(compiled, s0: int, standing: list, mid: list) -> tuple:
    """The journey flow over the arrow probabilities ``mid`` out of the states
    ``standing`` flags, solved: their expected visits per journey by state
    number, and per arrow its expected traversals, 0.0 out of the others."""
    others = [i for i, stands in enumerate(standing) if stands and i != s0]
    n = len(others)
    pos = [-1] * len(standing)
    for p, i in enumerate(others):
        pos[i] = p

    # v(s0) = 1; v(s) = sum_k v(k) p(k, s) over propagating k, summed in model order
    out, inn = [{} for _ in range(n)], [{} for _ in range(n)]  # p(k->r) as out[k][r] and inn[r][k]
    column = [[1.0] for _ in range(n)]  # per unknown, 1 and minus each of its arrows into the unknowns
    c = [0.0] * n
    for i, j, m in zip(compiled.src, compiled.dst, mid):
        if standing[i]:
            r, s = pos[j], pos[i]
            if r < 0:
                continue
            if i == s0:
                c[r] += m
            else:
                column[s].append(-m)
                if s != r:
                    out[s][r] = inn[r][s] = out[s].get(r, 0.0) + m
    x = _reduced(out, inn, [math.fsum(col) for col in column], c)
    if not all(map(math.isfinite, x)):
        raise JourneyError("flow system produced non-finite visit counts")
    visits = dict(zip((s0, *others), (1.0, *x)))
    return visits, [visits[i] * m if standing[i] else 0.0 for i, m in zip(compiled.src, mid)]


def _reverse_from_counts(model: Model, counts: Mapping[tuple, float], kind: str) -> Model:
    """Build the reversed model with inbound probabilities from counts (see ``_reversed``)."""
    compiled = model.compiled
    flows = [(compiled.index[target], c) for (_, _, target), c in counts.items()]
    counted = [counts.get((a.source, a.label, a.target), 0.0) for a in model.arrows]
    lps, aps, uniform = _reversed(model, counted, flows, kind in ("mdp", "mdp-fixed"))
    reversed_arrows = [
        Arrow(a.target, a.label, a.source, a.label_prob if lp is None else ProbInterval(lp, lp), ProbInterval(p, p))
        for a, lp, p in zip(model.arrows, lps, aps)
    ]
    notes = ("uniform-inbound: " + " ".join(sorted(compiled.ids[j] for j in uniform)),) if uniform else ()
    return canonical(replace(model, kind=kind, arrows=reversed_arrows, meta=notes))


def _unit(p: float) -> float:
    """``p`` as ``ProbInterval(p, p)`` keeps it: drift within ``TOL`` of [0, 1] clamped, more refused."""
    return p if 0.0 <= p <= 1.0 else ProbInterval(p, p).lo


def _reversed(model: Model, counts: list, flows, decision: bool) -> tuple:
    """Per arrow, its reversed label and arrow probability as ``ProbInterval`` keeps them (the
    label's None, to keep the model's, unless ``decision``), and the state numbers of uniform inbound.

    Each reversed arrow gets its count over its target's inflow, the sum of the counts ``flows``
    pairs with it in their order, or one over the target's in-degree where nothing flows in.
    Decision kinds split that into a label probability, the sum over the label's reversed arrows,
    and the arrow's part of it.
    """
    dst = model.compiled.dst
    inflow, indegree = [0.0] * len(model.compiled.ids), [0] * len(model.compiled.ids)
    for j, c in flows:
        inflow[j] += c
    for j in dst:
        indegree[j] += 1
    inbound = [c / inflow[j] if inflow[j] > _EPS else 1.0 / indegree[j] for c, j in zip(counts, dst)]
    uniform = [j for j, (deg, flow) in enumerate(zip(indegree, inflow)) if deg and flow <= _EPS]
    if not decision:
        return [None] * len(inbound), list(map(_unit, inbound)), uniform
    groups = [(j, a.label) for j, a in zip(dst, model.arrows)]  # (reversed source, label)
    mass = dict.fromkeys(groups, 0.0)
    for g, p in zip(groups, inbound):
        mass[g] += p
    lps, aps = [], []
    for g, p in zip(groups, inbound):
        total = mass[g]
        lps.append(_unit(total))
        aps.append(_unit(p / total if total > _EPS else 1.0 / groups.count(g)))
    return lps, aps, uniform


def _invert_by_flow(model: Model, flow=_solved_flow) -> Model:
    """Reverse a point model by its solved journey flow, or by ``flow``'s; the inverse keeps its kind."""
    peak = find_white_peak(model)
    if peak:
        raise WhitePeakError(peak)
    return _reverse_from_counts(model, flow(model).arrow_counts, model.kind)


def invert_chain(model: Model) -> Model:
    """Analytic inversion of a single-label chain from its journey flow."""
    if not model.single_label:
        raise ModelError("invert_chain needs a single-label model; see invert_mdp_fixed")
    return _invert_by_flow(model)


# -- decision-process inversion -------------------------------------------------


def _model_policy(model: Model) -> Policy:
    compiled = model.compiled
    probs = {}
    for s, out in zip(compiled.ids, compiled.out):
        for label, ks in out.items():
            lp = model.arrows[ks[0]].label_prob
            if not lp.is_point:
                raise ModelError("model carries interval agent probabilities; supply an explicit policy")
            probs[(s, label)] = lp.mid
    return Policy(probs)


def invert_mdp_fixed(model: Model, policy: Optional[Policy] = None) -> Model:
    """Invert a decision process under a fixed policy; result is mdp-fixed."""
    if model.kind not in ACTION_KINDS:
        raise ModelError(f"invert_mdp_fixed does not apply to {model.kind} models")
    return _invert_by_flow(compose_policy(model, policy if policy is not None else _model_policy(model)))


def _clamped(x: float, box: ProbInterval) -> float:
    """``x`` moved onto ``box``, so a resolution lies inside its boxes."""
    return min(max(x, box.lo), box.hi)


def _simplex_box_vertices(bounds):
    """Vertices of {x in prod [lo,hi] : sum x = 1}, the boxes (one or more)
    given as intervals: each corner of all boxes but one, the free coordinate
    1 minus the rest clamped onto its box, kept where ``sum_fault`` admits
    it.  Corners equal to 12 decimals are one, the first kept unmoved, in
    the order of their rounded coordinates."""
    verts: dict = {}
    for free, box in enumerate(bounds):
        rest = bounds[:free] + bounds[free + 1 :]
        for bits in itertools.product((0, 1), repeat=len(rest)):
            x = [b.hi if bit else b.lo for b, bit in zip(rest, bits)]
            x.insert(free, _clamped(1.0 - math.fsum(x), box))
            if not sum_fault(x):
                verts.setdefault(tuple(round(v, 12) for v in x), tuple(x))
    return [verts[key] for key in sorted(verts)]


def _sample_simplex_box(bounds, rng):
    """Random point of {x in prod [lo,hi] : sum x = 1}, coordinate by
    coordinate, each clamped onto its box, or None where ``sum_fault``
    refuses the group."""
    if sum_fault([b.lo for b in bounds], [b.hi for b in bounds]):
        return None
    n = len(bounds)
    x = [0.0] * n
    done = 0.0
    for i in range(n - 1):
        lo = max(bounds[i].lo, 1.0 - done - ordered_sum(b.hi for b in bounds[i + 1 :]))
        hi = min(bounds[i].hi, 1.0 - done - ordered_sum(b.lo for b in bounds[i + 1 :]))
        x[i] = _clamped(lo + (hi - lo) * rng.random(), bounds[i])
        done += x[i]
    x[-1] = _clamped(1.0 - done, bounds[-1])
    return tuple(x)


def invert_mdp_plus(
    model: Model,
    mode: str = "vertex",
    budget: int = 10_000,
    seed: Optional[int] = None,
) -> Model:
    """Approximate interval inversion over a family of interval resolutions.

    Every resolution pins the agent and the world to points and is inverted
    as an MDP Fixed would be, on the model's own tables: its per-arrow
    products go through the same journey check, flow solve and reversal, and
    the reversed label and arrow probabilities are hulled per arrow.  A
    resolution with a white peak or a refused journey check is skipped.  The
    bounds are certified only over the explored family (an inner
    approximation of the true intervals).
    """
    budget = checked_int(budget, "interval inversion budget", 0)
    if model.kind not in ACTION_KINDS:
        raise ModelError(f"invert_mdp_plus does not apply to {model.kind} models")
    peak = find_white_peak(model)
    if peak:
        raise WhitePeakError(peak)

    compiled = model.compiled
    s0 = compiled.index[model.initial_state.id]
    # resolution groups, agents first: (which probability the points set, 0
    # label or 1 arrow; per point, the arrows it sets; the points' bounds)
    groups = []
    for out in compiled.out:
        labels = [l for l in model.labels if l in out]
        if labels:
            groups.append((0, [out[l] for l in labels], [model.arrows[out[l][0]].label_prob for l in labels]))
    world = sorted((sid, label, ks) for sid, out in zip(compiled.ids, compiled.out) for label, ks in out.items())
    for _, _, ks in world:
        groups.append((1, [[k] for k in ks], [model.arrows[k].arrow_prob for k in ks]))
    at = [[None, None] for _ in model.arrows]  # per arrow, where a resolution's points hold its label and arrow probability
    for n, (side, ks) in enumerate((side, ks) for side, targets, _ in groups for ks in targets):
        for k in ks:
            at[k][side] = n

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

    hull = [[b] * len(model.arrows) for b in (1.0, 0.0, 1.0, 0.0)]  # per arrow: its reversed lp's lo and hi, its ap's
    explored = valid = 0
    for combo in resolutions():
        explored += 1
        flat = [p for vec in combo for p in vec]
        points = [flat[i] * flat[j] for i, j in at]  # per arrow, its label times its arrow probability
        if not all(reached(compiled.adjacency(points), s0)):  # a white peak
            continue
        standing = reached(compiled.adjacency(points, backward=True), s0)
        try:
            _check_journeys(model, standing, points)
            counts = _flow(compiled, s0, standing, points)[1]
        except JourneyError:
            continue
        valid += 1
        lps, aps, _ = _reversed(model, counts, zip(compiled.dst, counts), True)
        hull = [list(map(f, h, v)) for f, h, v in zip((min, max, min, max), hull, (lps, lps, aps, aps))]

    if valid == 0:
        raise JourneyError(f"budget exhausted with zero valid resolutions (explored {explored})")

    arrows = tuple(
        Arrow(a.target, a.label, a.source, ProbInterval(lo, hi), ProbInterval(ap_lo, ap_hi))
        for a, lo, hi, ap_lo, ap_hi in zip(model.arrows, *hull)
    )
    meta = (f"approximate: bounds certified over {valid} explored resolutions",)
    return canonical(replace(model, kind="mdp-plus", arrows=arrows, meta=meta))


# -- the past and the minimal model ----------------------------------------------


def enumerate_past(model: Model, depth: int, cap: int = 200_000) -> FutureSet:
    """Developments of the past: the future of the inverse model, reversed
    into chronological order."""
    inverse = invert_chain(model)
    fs = sw.enumerate_future(inverse, depth, cap=cap)
    return FutureSet(depth, "past", {Development(reversed(word)): p for word, p in fs.entries.items()})


class MinimalModelResult(Value):
    """The joined minimal model plus its two oriented halves.

    ``forward_part`` predicts the future from the fresh initial state;
    ``backward_part`` is past-oriented: its future set reads as developments
    of the past, most recent step first.
    """

    _fields = ("joined", "forward_part", "backward_part")

    def __init__(self, joined: Model, forward_part: Model, backward_part: Model):
        self._set(joined, forward_part, backward_part)


def _fresh_initial(model: Model) -> Model:
    """Duplicate the initial state's exits, after the model's arrows, into a
    fresh initial state "now" that nothing points at.  The model is a
    determinized or minimized one, whose states are named ``q<i>`` or
    ``q<i>+q<j>...``, so "now" is never taken."""
    init = model.initial_state
    states = tuple(
        [State("now", initial=True, trace=init.trace)]
        + [replace(s, initial=False) for s in model.states]
    )
    arrows = model.arrows + tuple(
        replace(a, source="now") for a in model.arrows if a.source == init.id
    )
    return replace(model, states=states, arrows=arrows)


def minimal_model_parts(model: Model, depth: int) -> MinimalModelResult:
    """Three-step minimal model: forward-minimal part, backward-minimal part
    from the inverse, joined at a fresh initial state.

    The joined model renames the forward part's states to ``fut:``, its fresh
    one to "now", and the backward part's inverse to ``past:``, its arrows
    into its initial state entering "now".  The forward part is a black hole
    of the joined model and the backward part a white peak: once the walk
    leaves "now" it can never return.  The depth must be at least 1: the
    depth-0 determinization is one state without arrows, which has no
    inverse.
    """
    depth = checked_int(depth, "minimal model depth", 1)
    forward0, _ = sw.minimize_forward(sw.belief_determinize(model, depth))
    backward1, _ = sw.minimize_forward(sw.belief_determinize(invert_chain(model), depth))
    backflow = invert_chain(backward1)  # forward orientation of the past fabric

    forward_part = _fresh_initial(forward0)
    backward_part = _fresh_initial(backward1)

    fut = {s.id: "now" if s.id == "now" else f"fut:{s.id}" for s in forward_part.states}
    past = {s.id: f"past:{s.id}" for s in backflow.states}
    into_past = {**past, backflow.initial_state.id: "now"}
    forward = [replace(a, source=fut[a.source], target=fut[a.target]) for a in forward_part.arrows]
    exits = len(forward0.arrows)  # the joined model lists the exits of "now" first
    joined = Model(
        kind="hmm",
        obs=tuple(sorted(set(forward0.obs) | set(backflow.obs))),
        labels=forward0.labels,
        states=[replace(s, id=fut[s.id]) for s in forward_part.states]
        + [State(past[s.id], trace=s.trace) for s in backflow.states],
        arrows=forward[exits:]
        + forward[:exits]
        + [replace(a, source=past[a.source], target=into_past[a.target]) for a in backflow.arrows],
        name=model.name,
        meta=("minimal: forward part predicts the future, backward part the past",),
    )
    return MinimalModelResult(joined, forward_part, backward_part)


def minimal_model(model: Model, depth: int) -> Model:
    return minimal_model_parts(model, depth).joined
