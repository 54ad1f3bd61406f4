"""Model-to-model transformations.

Facts are state sets, events are arrow sets; the doubling constructions
turn an event into a fact of an equivalent model (one step delayed) or into
an even/odd occurrence counter.  Quotients collapse a generator onto an
event-driven model when the monitored events cover every class-crossing
arrow.  Belief determinization and bisimulation minimization are the
steps of the minimal-model pipeline, which ``inversion`` assembles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    POINT_ONE,
    TOL,
    Arrow,
    Model,
    Partition,
    ProbInterval,
    State,
    TraceSpec,
    Value,
    canonical,
    checked_int,
    dyadic,
    ordered_sum,
    replace,
    summed_prob,
)
from .errors import CapExceededError, CoverageError, ModelError


class EventSet(Value):
    """A named event: a set of arrows of its host model."""

    _fields = ("name", "arrows")

    def __init__(self, name: str, arrows: frozenset):
        self._set(name, arrows)

    def check(self, model: Model) -> None:
        host = set(model.arrows)
        for a in self.arrows:
            if a not in host:
                raise ModelError(f"event {self.name!r}: arrow {a.key} not in the model")

    def keys(self) -> frozenset:
        return frozenset(a.key for a in self.arrows)


class FactSet(Value):
    """A named fact: a set of states of its host model."""

    _fields = ("name", "states")

    def __init__(self, name: str, states: frozenset):
        self._set(name, states)

    def check(self, model: Model) -> None:
        known = set(model.by_id)
        unknown = self.states - known
        if unknown:
            raise ModelError(f"fact {self.name!r}: unknown states {sorted(unknown)}")


def fact_to_event(model: Model, fact: FactSet) -> EventSet:
    """The event "the fact is true now": all arrows leaving the fact's states."""
    fact.check(model)
    return EventSet(fact.name, frozenset(a for a in model.arrows if a.source in fact.states))


def _doubled_kind(kind: str) -> str:
    return "hmm" if kind == "fomm" else kind


def _double(model: Model, event: EventSet, parity: bool):
    """Shared doubling: copies s' and s'', arrows rerouted by event membership."""
    event.check(model)
    keys = event.keys()
    prime = {s.id: s.id + "'" for s in model.states}
    dprime = {s.id: s.id + "''" for s in model.states}
    s0 = model.initial_state.id
    states = []
    for s in model.states:
        states.append(State(prime[s.id], initial=(s.id == s0), trace=s.trace))
        states.append(State(dprime[s.id], initial=False, trace=s.trace))
    copies = (prime, dprime)
    arrows = []
    for a in model.arrows:
        hit = a.key in keys
        for side, source in enumerate(copies):
            # with parity an event arrow flips the class, without it lands in the double-primed one
            target = copies[side ^ hit if parity else hit]
            arrows.append(replace(a, source=source[a.source], target=target[a.target]))
    doubled = replace(
        model,
        kind=_doubled_kind(model.kind),
        states=tuple(states),
        arrows=tuple(arrows),
        meta=("doubled: initial state is the unprimed copy",),
    )
    return doubled, frozenset(dprime.values())


def event_to_fact(model: Model, event: EventSet):
    """Express an event as a fact of an equivalent doubled model.

    The fact (the double-primed copies) is true exactly one step after each
    occurrence of the event.  The new initial state is the unprimed copy of
    the old one; the construction leaves that choice open, so it is recorded
    in the model's metadata.
    """
    doubled, dprimed = _double(model, event, parity=False)
    return doubled, FactSet(event.name, dprimed)


def parity_model(model: Model, event: EventSet) -> Model:
    """Equivalent doubled model tracking whether the event occurred an even
    number of times: unprimed copies are the even class."""
    doubled, _ = _double(model, event, parity=True)
    return doubled


# -- quotient ---------------------------------------------------------------------


def _interval_sum(intervals) -> ProbInterval:
    lo = min(ordered_sum(i.lo for i in intervals), 1.0)
    hi = min(ordered_sum(i.hi for i in intervals), 1.0)
    return ProbInterval(lo, hi)


def quotient(model: Model, partition: Partition, monitored) -> Model:
    """Collapse the model onto its partition classes as an event-driven model.

    Requires the coverage condition: every arrow that crosses classes must
    belong to some monitored event.  Per-class event and transition
    probabilities, and class traces, are interval hulls over the members.
    The model must satisfy its kind; ``validate`` names the fault when it
    does not.
    """
    partition.check(model)
    monitored = list(monitored)
    names = [e.name for e in monitored]
    if len(set(names)) != len(names):
        raise ModelError("monitored events must have distinct names")
    for e in monitored:
        e.check(model)
    covered = set()
    for e in monitored:
        covered |= e.keys()
    uncovered = [
        a
        for a in model.arrows
        if a.effective().hi > 0.0
        and partition.class_of(a.source) != partition.class_of(a.target)
        and a.key not in covered
    ]
    if uncovered:
        raise CoverageError(sorted(uncovered, key=lambda a: a.key))

    def class_id(c: frozenset) -> str:
        return "+".join(sorted(c))

    s0_class = class_id(partition.class_of(model.initial_state.id))
    states = []
    for c in sorted(partition.classes, key=class_id):
        members = [model.by_id[m] for m in sorted(c)]
        probs: dict = {}
        if all(not m.trace.is_empty for m in members):
            for o in model.obs:
                hull = ProbInterval.hull(m.trace.prob(o) for m in members)
                if hull.hi > 0.0:
                    probs[o] = hull
        memory = any(m.trace.memory for m in members)
        phenomena = tuple(sorted({p for m in members for p in m.trace.phenomena}))
        states.append(
            State(class_id(c), initial=(class_id(c) == s0_class), trace=TraceSpec(probs, memory, phenomena))
        )

    compiled = model.compiled
    arrows = []
    for e in monitored:
        keys = e.keys()
        for c in partition.classes:
            fires = {}  # member -> interval probability the event fires there
            leads = {}  # member -> the classes its arrows that can fire lead to
            to_class: dict = {}  # target class -> member -> interval mass
            for m in sorted(c):
                out = compiled.out[compiled.index[m]]
                ordered = sorted(k for ks in out.values() for k in ks)  # model order, which fixes the sums below
                own = [model.arrows[k] for k in ordered if model.arrows[k].key in keys]
                if not own:
                    fires[m] = ProbInterval.point(0.0)
                    continue
                fires[m] = _interval_sum([a.effective() for a in own])
                leads[m] = {class_id(partition.class_of(a.target)) for a in own if a.effective().hi > 0.0}
                for a in own:
                    d = class_id(partition.class_of(a.target))
                    to_class.setdefault(d, {}).setdefault(m, []).append(a)
            lp = ProbInterval.hull(fires.values())
            if lp.hi <= 0.0:
                continue
            for d, per_member in sorted(to_class.items()):
                conds = []
                for m, q in fires.items():
                    if q.hi <= 0.0:
                        continue
                    own = per_member.get(m, [])
                    mass = _interval_sum([a.effective() for a in own]) if own else ProbInterval.point(0.0)
                    if q.is_point and q.lo > 0.0 and all(a.effective().is_point for a in own):
                        conds.append(ProbInterval.point(min(mass.lo / q.lo, 1.0)))
                    elif not own:
                        conds.append(ProbInterval.point(0.0))
                    elif leads[m] == {d}:  # every arrow that can fire leads to d
                        conds.append(ProbInterval.point(1.0))
                    else:
                        conds.append(ProbInterval(0.0, 1.0))
                arrows.append(Arrow(class_id(c), e.name, d, lp, ProbInterval.hull(conds)))

    return canonical(
        Model(
            kind="ed",
            obs=model.obs,
            labels=tuple(sorted(names)),
            states=tuple(states),
            arrows=tuple(arrows),
            name=model.name,
        )
    )


# -- belief determinization -------------------------------------------------------


def belief_determinize(model: Model, depth: int, cap: int = 4096) -> Model:
    """Expand the reachable beliefs up to `depth` steps into a deterministic
    model; equal beliefs are merged (exact comparison).

    Each step is the Bayes filter of ``step_belief``, exact: a belief is a
    tuple of (state id, int) with ints of gcd 1, a member's mass being its
    int's share of their sum, so equal beliefs have equal tuples.  Mass moves
    along each arrow of a label by lp * ap, ints from ``dyadic``.  The label
    probability out of the belief is the sum of mass * lp over the members that
    offer the label; a member without it contributes nothing, and a label of
    probability 0 gets no arrows.  The moved mass is grouped by the targets'
    observations, and each group becomes a successor belief, reached with arrow
    probability group total / label probability.  Both are int / int divisions.

    Arrows out of the deepest layer that would lead to unexplored beliefs
    are dropped and noted in the metadata, as is each belief that steps
    with probability in (0, 1) outside ed and smdp.  The model must satisfy
    its kind; ``validate`` names the fault when it does not.
    """
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
    lu, lps = dyadic(a.label_prob.lo for a in model.arrows)
    au, aps = dyadic(a.arrow_prob.lo for a in model.arrows)
    start = ((model.initial_state.id, 1),)
    names = {start: "q0"}  # in order of discovery
    arrows = []
    frontier = [start]
    short = []  # expanded beliefs whose label mass, the chance of a step, is below 1
    for _ in range(depth):
        if not frontier:
            break
        layer, frontier = frontier, []
        for belief in layer:
            rows = [(out[index[sid]], mass) for sid, mass in belief]
            whole = ordered_sum(mass for _, mass in belief) * lu  # a label probability's denominator
            label_mass = 0
            for label in model.labels:
                offered = [(row[label], mass) for row, mass in rows if label in row]
                lp = ordered_sum(mass * lps[ks[0]] for ks, mass in offered)
                label_mass += lp
                if not lp:
                    continue
                label_prob = ProbInterval.point(lp / whole)
                by_obs: dict = {}  # observation -> target -> moved mass
                for ks, mass in offered:
                    for k in ks:
                        w = mass * lps[k] * aps[k]
                        if w:
                            bucket = by_obs.setdefault(obs_of[dst[k]], {})
                            bucket[dst[k]] = bucket.get(dst[k], 0) + w
                for _, moved in sorted(by_obs.items()):
                    g = math.gcd(*moved.values())
                    successor = tuple(sorted((ids[j], w // g) for j, w in moved.items()))
                    if successor not in names:
                        if len(names) >= cap:
                            raise CapExceededError(f"belief expansion exceeds the cap of {cap} states")
                        names[successor] = f"q{len(names)}"
                        frontier.append(successor)
                    ap = ProbInterval.point(summed_prob(ordered_sum(moved.values()) / (lp * au)))
                    arrows.append(Arrow(names[belief], label, names[successor], label_prob, ap))
            label_mass = Fraction(label_mass, whole)
            if model.kind not in ("ed", "smdp") and 0 < label_mass < 1 - TOL:  # their labels need not sum to 1
                short.append(f"{names[belief]}:{label_mass}")

    states = tuple(
        State(names[b], initial=(b == start), trace=TraceSpec({obs_of[index[b[0][0]]]: POINT_ONE}))
        for b in names
    )
    totals = {b: ordered_sum(m for _, m in b) for b in names}
    meta = tuple(f"{names[b]} = " + " ".join(f"{sid}:{Fraction(m, totals[b])}" for sid, m in b) for b in names)
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


# -- minimization -----------------------------------------------------------------


def _coarsest_blocks(model: Model) -> list:
    """Coarsest stable partition by splitter-based lumping (Valmari and
    Franceschinis, TACAS 2010), as sets of state indices (some empty).

    Equivalent states have equal traces and label probabilities and, per
    label and class, equal exact weight into the class and an arrow there
    or not alike.  Popping a splitter block B regroups every block by its
    members' per-label weights into B.  Of a split block's parts, all but the
    largest go on the worklist: its weights follow from the others' by
    subtraction, so each arrow is rescanned O(log n) times, O(m log n) in
    all.  Presence does not subtract when an arrow of weight 0 enters the
    block, so such a block queues every part.
    """
    compiled = model.compiled
    labels = compiled.label_index
    preds: list = [[] for _ in model.states]  # target -> (source, label, weight)
    arrows = [k for k, a in enumerate(model.arrows) if a.label in labels]
    _, weights = dyadic(model.arrows[k].arrow_prob.lo for k in arrows)  # exact: equal sums compare equal
    for k, w in zip(arrows, weights):
        preds[compiled.dst[k]].append((compiled.src[k], labels[model.arrows[k].label], w))
    zero_in = [any(w == 0 for _, _, w in p) for p in preds]

    initial: dict = {}
    for i, (s, out) in enumerate(zip(model.states, compiled.out)):
        offered = tuple((l, model.arrows[out[l][0]].label_prob) for l in model.labels if l in out)
        initial.setdefault((frozenset(s.trace.probs.items()), s.trace.memory, offered), set()).add(i)
    members = list(initial.values())
    block_of = {i: b for b, m in enumerate(members) for i in m}
    zeros = [ordered_sum(zero_in[i] for i in m) for m in members]
    work = list(range(len(members)))
    queued = set(work)

    while work:
        b = work.pop()
        queued.discard(b)
        weight: dict = {}  # predecessor -> label -> weight into b
        for t in members[b]:
            for s, k, w in preds[t]:
                row = weight.setdefault(s, {})
                row[k] = row.get(k, 0) + w
        touched: dict = {}  # block -> weights -> members
        for s, row in weight.items():
            touched.setdefault(block_of[s], {}).setdefault(tuple(sorted(row.items())), []).append(s)
        for d, by_weight in touched.items():
            parts = list(by_weight.values())
            if len(parts) == 1 and len(parts[0]) == len(members[d]):
                continue
            queue_all = d in queued or zeros[d] > 0
            split = [d]
            for part in parts:
                split.append(len(members))
                members.append(set(part))
                members[d].difference_update(part)
                for s in part:
                    block_of[s] = split[-1]
                zeros.append(ordered_sum(zero_in[s] for s in part))
                zeros[d] -= zeros[-1]
            if not queue_all:
                split.remove(max(split, key=lambda x: len(members[x])))
            for x in split:
                if x not in queued:
                    queued.add(x)
                    work.append(x)
    return members


def minimize_forward(model: Model):
    """Bisimulation minimization: the coarsest partition refining the trace
    classes in which equivalent states have equal per-label successor
    distributions over the classes; quotient by it.  Always the exact
    fixpoint.  Returns (model, partition witness), classes ordered by their
    smallest state id.

    The model must satisfy its kind.  On one that does not, merging states
    can fail with a symptom (an outgoing sum of 1.25 surfaces as an invalid
    probability interval); ``validate`` names the fault.
    """
    if not model.has_point_probs():
        raise ModelError("minimization needs point probabilities")
    ids = [s.id for s in model.states]
    classes = sorted((frozenset(ids[i] for i in m) for m in _coarsest_blocks(model) if m), key=min)
    partition = Partition(tuple(classes))

    name = {c: "+".join(sorted(c)) for c in classes}
    id_of = {sid: name[c] for c in classes for sid in c}
    s0 = model.initial_state.id
    merged_any = len(classes) < len(ids)
    states = []
    arrows = []
    compiled = model.compiled
    for c in sorted(classes, key=name.__getitem__):
        rep = model.by_id[min(c)]
        out = compiled.out[compiled.index[rep.id]]
        members = [model.by_id[m] for m in c]
        memory = any(m.trace.memory for m in members)
        phenomena = tuple(sorted({p for m in members for p in m.trace.phenomena}))
        states.append(State(name[c], initial=(s0 in c), trace=TraceSpec(dict(rep.trace.probs), memory, phenomena)))
        for label in model.labels:
            outgoing = [model.arrows[k] for k in out.get(label, ())]
            if not outgoing:
                continue
            mass: dict = {}
            for a in outgoing:
                mass[id_of[a.target]] = mass.get(id_of[a.target], 0.0) + a.arrow_prob.lo
            for tgt, p in sorted(mass.items()):
                arrows.append(Arrow(name[c], label, tgt, outgoing[0].label_prob, ProbInterval.point(summed_prob(p))))

    kind = model.kind
    if kind == "fomm" and merged_any:
        kind = "hmm"
    reduced = Model(
        kind=kind,
        obs=model.obs,
        labels=model.labels,
        states=tuple(states),
        arrows=tuple(arrows),
        priorities=model.priorities,
        name=model.name,
    )
    return reduced, partition
