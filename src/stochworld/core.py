"""Domain types for stochastic world models.

A model is a labeled stochastic graph: states carry traces (what is
observable there), arrows carry a pair of probability intervals — the
probability that the labeled event/action is chosen at all, and the
probability of this particular arrow among same-label arrows.  All seven
model kinds share this one representation; ``validation.validate`` enforces
the kind-specific constraints.

Everything here is immutable after construction and safe to share across
threads; operations build new models instead of mutating.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, partial, reduce
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import InconsistentObservationError, ModelError, PolicyError

TOL = 1e-9
#: The slack of the one sum rule, ``sum_fault``: every probability group,
#: belief, policy, journey check and interval resolution is held to it.
SUM_TOL = 1e-6


def sum_fault(los: Iterable[float], his: Optional[Iterable[float]] = None) -> tuple:
    """The one sum rule of a probability group: its lower bounds ``los`` and
    upper bounds ``his`` (``los`` alone for points) admit a distribution when
    Σlo <= 1 <= Σhi within ``SUM_TOL``, each a ``math.fsum``, the same in any
    order.  ``()`` where they do, else (0, Σhi) for a shortfall or (1, Σlo)
    for an excess; as each lo <= hi, never both."""
    hi = math.fsum(los if his is None else his)
    if hi < 1.0 - SUM_TOL:
        return 0, hi
    lo = hi if his is None else math.fsum(los)
    return (1, lo) if lo > 1.0 + SUM_TOL else ()


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added left to right, on every Python the bits ``sum`` gives up to 3.11: from
    3.12, ``sum`` compensates its rounding, so its last bit may differ."""
    return reduce(operator.add, values, 0.0)


KINDS = ("fomm", "hmm", "mdp", "mdp-fixed", "smdp", "mdp-plus", "ed")
#: Kinds whose only label is the always-occurring event "true".
SINGLE_LABEL_KINDS = ("fomm", "hmm")
#: Kinds whose labels are agent actions.
ACTION_KINDS = ("mdp", "mdp-fixed", "smdp", "mdp-plus")
TRUE_LABEL = "true"


def checked_int(value, what: str, least: int) -> int:
    """``value`` as an int of at least ``least``, the rule of every count, cap,
    window, budget and seed; anything else (2.5, NaN, ±inf, a bool, which is
    not a count, or a smaller int) is a ``ModelError`` naming it."""
    try:
        if not isinstance(value, bool):
            n = operator.index(value)
            if n < least:
                raise ModelError(f"{what} must be {least} or more, got {n}")
            return n
    except TypeError:
        pass
    raise ModelError(f"{what} must be an integer, got {value!r}")


_setattr = object.__setattr__


class Value:
    """Base of the immutable value types.  A subclass lists its fields in
    ``_fields``, in the order of its ``__init__``'s parameters, which sets
    them through ``object.__setattr__`` or ``_set``.  When it is defined, it
    gets ``==`` and ``hash`` over an ``operator.attrgetter`` of the fields
    (of ``_compared``, where that names fewer): equal classes and fields, and
    the hash of their tuple.  A value reprs as ``Name(field=value, ...)``,
    pickles and copies through ``__init__``, and refuses attribute changes."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        names = vars(cls).get("_compared", cls._fields)
        get = operator.attrgetter(*names)
        key = get if len(names) > 1 else lambda obj: (get(obj),)

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        if "__eq__" not in vars(cls):  # a type compared in bulk writes both: attribute loads beat the attrgetter
            cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)


def replace(obj: Value, **changes) -> Value:
    """A copy of ``obj`` with ``changes`` to its fields, built and checked by its ``__init__`` again."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj._fields}, **changes})


def dyadic(values: Iterable[float]) -> tuple:
    """The doubles as exact ints at one unit, for every exact computation: each
    is n / d with d a power of two, so at the largest such d, ``unit``, it is
    the int n * (unit // d).  Returns (unit, ints), (1, []) for no values."""
    ratios = [v.as_integer_ratio() for v in values]
    unit = max((d for _, d in ratios), default=1)
    return unit, [n * (unit // d) for n, d in ratios]


class ProbInterval(Value):
    """Closed subinterval of [0, 1]; a point value p is stored as [p, p].  Every
    arrow has two, so ``__init__`` sets the slots through their descriptors."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        flo, fhi = float(lo), float(hi)
        if not 0.0 <= flo <= fhi <= 1.0:
            # forgive sub-tolerance float drift from products and hulls
            flo = min(max(flo, 0.0), 1.0) if -TOL <= flo <= 1.0 + TOL else flo
            fhi = min(max(fhi, 0.0), 1.0) if -TOL <= fhi <= 1.0 + TOL else fhi
            if not 0.0 <= flo <= fhi <= 1.0:
                raise ModelError(f"invalid probability interval [{lo}, {hi}]")
        _set_lo(self, flo)
        _set_hi(self, fhi)

    def __eq__(self, other):
        return (self.lo, self.hi) == (other.lo, other.hi) if other.__class__ is ProbInterval else NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    @classmethod
    def point(cls, p: float) -> "ProbInterval":
        return cls(p, p)

    @property
    def is_point(self) -> bool:
        return self.hi - self.lo <= TOL

    @property
    def mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    def times(self, other: "ProbInterval") -> "ProbInterval":
        """Interval product [lo*lo, hi*hi] (monotone on [0,1])."""
        return ProbInterval(self.lo * other.lo, self.hi * other.hi)

    def contains(self, p: float, tol: float = TOL) -> bool:
        return self.lo - tol <= p <= self.hi + tol

    @staticmethod
    def hull(intervals: Iterable["ProbInterval"]) -> "ProbInterval":
        items = list(intervals)
        if not items:
            raise ModelError("hull of no intervals")
        return ProbInterval(min(i.lo for i in items), max(i.hi for i in items))


_set_lo, _set_hi = (getattr(ProbInterval, f).__set__ for f in ProbInterval._fields)
POINT_ONE = ProbInterval(1.0, 1.0)
POINT_ZERO = ProbInterval(0.0, 0.0)
FULL = ProbInterval(0.0, 1.0)


class Arrow(Value):
    """Labeled transition with its dual probabilities.

    ``label_prob`` is the probability the labeled event/action is chosen in
    ``source`` at all; ``arrow_prob`` the probability of this arrow among
    same-label arrows out of ``source``.  Their product is the probability
    of the arrow actually being used.
    """

    __slots__ = _fields = ("source", "label", "target", "label_prob", "arrow_prob")

    def __init__(self, source: str, label: str, target: str, label_prob=POINT_ONE, arrow_prob=POINT_ONE):
        _set_source(self, source)
        _set_arrow_label(self, label)
        _set_target(self, target)
        _set_label_prob(self, label_prob)
        _set_arrow_prob(self, arrow_prob)

    def effective(self) -> ProbInterval:
        return self.label_prob.times(self.arrow_prob)

    @property
    def key(self) -> tuple:
        return (self.source, self.label, self.target)


_set_source, _set_arrow_label, _set_target, _set_label_prob, _set_arrow_prob = (
    getattr(Arrow, f).__set__ for f in Arrow._fields
)


class TraceSpec(Value):
    """What is observable in a state.

    Listed observations carry probability intervals; unlisted ones are
    implicitly impossible ([0, 0]).  An entirely empty trace means the state
    is untraced: nothing is known, every observation gets [0, 1].
    """

    _fields = ("probs", "memory", "phenomena")

    def __init__(self, probs: Optional[Mapping] = None, memory: bool = False, phenomena: tuple = ()):
        _setattr(self, "probs", {} if probs is None else probs)
        _setattr(self, "memory", memory)
        _setattr(self, "phenomena", phenomena)

    @property
    def is_empty(self) -> bool:
        return not self.probs

    def prob(self, obs: str) -> ProbInterval:
        if self.is_empty:
            return FULL
        return self.probs.get(obs, POINT_ZERO)

    def support(self) -> frozenset:
        return frozenset(o for o, p in self.probs.items() if p.hi > 0.0)

    @property
    def deterministic_obs(self) -> Optional[str]:
        """The single certain observation, or None if the trace is not that."""
        certain = [o for o, p in self.probs.items() if p.is_point and p.lo >= 1.0 - TOL]
        if len(certain) == 1 and len(self.support()) == 1:
            return certain[0]
        return None

    def colour(self):
        """Deterministic observation if there is one, else the support set."""
        det = self.deterministic_obs
        return det if det is not None else self.support()


class State(Value):
    _fields = ("id", "initial", "trace")

    def __init__(self, id: str, initial: bool = False, trace: Optional[TraceSpec] = None):
        _setattr(self, "id", id)
        _setattr(self, "initial", initial)
        _setattr(self, "trace", TraceSpec() if trace is None else trace)


class Model(Value):
    """Labeled stochastic graph covering all seven model kinds.  ``meta``,
    notes on how the model was made, is left out of ``==`` and ``hash``."""

    _fields = ("kind", "obs", "labels", "states", "arrows", "priorities", "name", "meta")
    _compared = _fields[:-1]

    def __init__(self, kind: str, obs, labels, states, arrows, priorities=None, name: str = "", meta: tuple = ()):
        priorities = {} if priorities is None else priorities
        self._set(kind, tuple(obs), tuple(labels), tuple(states), tuple(arrows), priorities, name, meta)

    @cached_property
    def by_id(self) -> Mapping[str, State]:
        return {s.id: s for s in self.states}

    @cached_property
    def initial_state(self) -> State:
        initials = [s for s in self.states if s.initial]
        if len(initials) != 1:
            raise ModelError(f"model must have exactly one initial state, found {len(initials)}")
        return initials[0]

    @property
    def single_label(self) -> bool:
        return len(self.labels) == 1

    def has_point_probs(self) -> bool:
        return all(a.label_prob.is_point and a.arrow_prob.is_point for a in self.arrows)

    @cached_property
    def compiled(self) -> "CompiledModel":
        """The model's numbered tables, built on first use (see CompiledModel)."""
        return CompiledModel(self)


class CompiledModel:
    """Numbered tables of one model, shared by the walks and solvers over it.

    States, observations and labels are numbered in the model's order
    (``index``, ``obs_index``, ``label_index``), arrows by their position in
    ``model.arrows``.  Per arrow ``k``: source and target ``src[k]`` and
    ``dst[k]``, and the bounds ``Arrow.effective()`` gives as ``hi[k]``,
    ``mid[k]`` and whether it is a point, ``point[k]``.  ``out[i]`` maps each
    label to its arrows out of state ``i``, in model order.  The other tables
    are built on first use: the belief filters' ``emissions``, ``shares``,
    ``allowed`` and ``event_order`` (the walk's collision order too); and the
    ``adjacency`` lists of ``hi``, ``forward`` and ``backward``.
    Each costs O(|S| + |arrows|) once per model (``allowed`` O(|S| *
    |observations|)); the view holds the model's tuples, not the model, and
    no exact weights: exact paths apply ``dyadic`` to the doubles they read.
    """

    def __init__(self, model: Model):
        self._states, self._arrows = model.states, model.arrows
        self._labels, self._priorities = model.labels, model.priorities
        self.ids = tuple(s.id for s in model.states)
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.obs_index = {o: i for i, o in enumerate(model.obs)}
        self.label_index = {l: i for i, l in enumerate(model.labels)}
        self.src, self.dst, self.hi, self.mid, self.point = [], [], [], [], []
        self.out = [{} for _ in self.ids]
        self.journeys = None  # set by inversion on the model's first journey solve
        for k, a in enumerate(model.arrows):
            i, j = self.index.get(a.source), self.index.get(a.target)
            if i is None or j is None:
                raise ModelError(f"arrow {a.source} {a.label} {a.target} joins an undeclared state")
            lp, ap = a.label_prob, a.arrow_prob
            lo, hi = lp.lo * ap.lo, lp.hi * ap.hi  # as Arrow.effective(), whose clamps are no-ops here
            self.src.append(i)
            self.dst.append(j)
            self.hi.append(hi)
            self.mid.append((lo + hi) / 2.0)
            self.point.append(hi - lo <= TOL)
            self.out[i].setdefault(a.label, []).append(k)

    def adjacency(self, weights: list, backward: bool = False) -> list:
        """Per state, the targets of its arrows whose weight is above 0 (``backward``: the sources of
        such arrows into it), for per-arrow weights such as ``hi`` or one resolution's points."""
        adj: list = [[] for _ in self.ids]
        for i, j, w in zip(*((self.dst, self.src) if backward else (self.src, self.dst)), weights):
            if w > 0.0:
                adj[i].append(j)
        return adj

    forward = cached_property(lambda self: self.adjacency(self.hi))
    backward = cached_property(lambda self: self.adjacency(self.hi, backward=True))

    @cached_property
    def emissions(self) -> list:
        """Per state: its trace as {observation: (midpoint, whether a point)}
        and the pair for an unlisted observation, as ``TraceSpec.prob``
        gives them."""
        table = []
        for s in self._states:
            unlisted = FULL if s.trace.is_empty else POINT_ZERO
            listed = {o: (p.mid, p.is_point) for o, p in s.trace.probs.items()}
            table.append((listed, (unlisted.mid, unlisted.is_point)))
        return table

    @cached_property
    def allowed(self) -> Mapping:
        """Observation -> ids of the states whose trace can show it (upper
        bound above 0), for the alphabet and every traced symbol.  Under None,
        the untraced states: they alone admit any other observation."""
        symbols = set(self.obs_index).union(*(s.trace.probs for s in self._states))
        return {o: frozenset(s.id for s in self._states if s.trace.prob(o).hi > 0.0) for o in (*symbols, None)}

    @cached_property
    def event_order(self) -> tuple:
        """The labels in collision order: by priority rank, unranked last,
        then by label."""
        return tuple(sorted(self._labels, key=lambda e: (self._priorities.get(e, math.inf), e)))

    @cached_property
    def shares(self) -> Mapping[tuple, tuple]:
        """(state id, label) -> the label's arrows of positive arrow
        probability out of the state as (target id, share of the midpoints'
        sum) in model order, and whether any midpoint is an interval's.
        Absent where the midpoints sum to 0."""
        ids, dst, arrows = self.ids, self.dst, self._arrows
        table = {}
        for i, row in enumerate(self.out):
            for label, ks in row.items():
                weights = [arrows[k].arrow_prob.mid for k in ks]
                total = sum(weights)
                if total > 0.0:
                    shares = tuple((ids[dst[k]], w / total) for k, w in zip(ks, weights) if w > 0.0)
                    table[(ids[i], label)] = (shares, any(not arrows[k].arrow_prob.is_point for k in ks))
        return table


def canonical(model: Model) -> Model:
    """Sort alphabets, states, arrows and priorities into canonical order."""
    return replace(
        model,
        obs=tuple(sorted(model.obs)),
        labels=tuple(sorted(model.labels)),
        states=tuple(sorted(model.states, key=lambda s: s.id)),
        arrows=tuple(sorted(model.arrows, key=lambda a: a.key)),
        priorities=dict(sorted(model.priorities.items())),
    )


class Belief(Value):
    """Probability distribution over model states; entries strictly positive."""

    _fields = ("probs", "approximate")

    def __init__(self, probs: Mapping[str, float], approximate: bool = False):
        probs = dict(probs)
        if any(p <= 0.0 for p in probs.values()):
            raise ModelError("belief entries must be strictly positive")
        total = sum(probs.values())
        if abs(total - 1.0) > TOL:  # a sum this far from 1 meets the rule, then is normalized
            fault = sum_fault(probs.values())
            if fault:
                raise ModelError(f"belief must sum to 1, got {fault[1]}")
            probs = {s: p / total for s, p in probs.items()}
        _setattr(self, "probs", probs)
        _setattr(self, "approximate", approximate)

    @classmethod
    def point(cls, state_id: str) -> "Belief":
        return cls({state_id: 1.0})

    def top(self) -> str:
        """State with maximal mass; ties broken by smallest id."""
        return min(self.probs, key=lambda s: (-self.probs[s], s))


class Development(tuple):
    """Finite word that begins a possible future or ends a possible past: the
    chronological tuple of its (label, observation) steps.  For the future
    the first step leaves the current state, for the past the last step
    arrives at it; the ``FutureSet`` holding it knows which.  It hashes,
    compares and sorts as the plain tuple, so a plain word looks it up."""

    __slots__ = ()

    def render(self, elide_label: bool = True) -> str:
        if not self:
            return "-"
        if elide_label and all(l == TRUE_LABEL for l, _ in self):
            return ",".join(o for _, o in self)
        return ",".join(f"{l}:{o}" for l, o in self)


class FutureSet(Value):
    """Truncated (quasi-)perfect description of the future or the past:
    ``entries`` maps each development word to its probability interval."""

    _fields = ("depth", "direction", "entries")

    def __init__(self, depth: int, direction: str, entries: Mapping[Development, ProbInterval]):
        self._set(depth, direction, dict(entries))


class Partition(Value):
    """Disjoint non-empty state classes covering all states."""

    _fields = ("classes",)

    def __init__(self, classes: tuple):
        _setattr(self, "classes", tuple(frozenset(c) for c in classes))

    def check(self, model: Model) -> None:
        seen: set = set()
        for c in self.classes:
            if not c:
                raise ModelError("empty partition class")
            if c & seen:
                raise ModelError("partition classes overlap")
            seen |= c
        ids = set(model.by_id)
        if seen != ids:
            missing = ids - seen
            extra = seen - ids
            raise ModelError(
                f"partition does not cover the states (missing {sorted(missing)}, unknown {sorted(extra)})"
            )

    @cached_property
    def _class_by_state(self) -> Mapping[str, frozenset]:
        return {sid: c for c in reversed(self.classes) for sid in c}  # the first class wins

    def class_of(self, state_id: str) -> frozenset:
        if state_id not in self._class_by_state:
            raise ModelError(f"state {state_id!r} not in partition")
        return self._class_by_state[state_id]


class Policy(Value):
    """Map (state, action) -> probability, one distribution per state."""

    _fields = ("probs", "adjusted")

    def __init__(self, probs: Mapping[tuple, float], adjusted: frozenset = frozenset()):
        self._set(dict(probs), adjusted)

    def of(self, state_id: str, action: str) -> float:
        return self.probs.get((state_id, action), 0.0)

    def check(self, model: Model) -> None:
        """Require per-state sums of 1 inside the model's agent intervals."""
        compiled = model.compiled
        per_state: dict = {}
        for (s, a), p in self.probs.items():
            per_state.setdefault(s, []).append((a, p))
        for s, pairs in per_state.items():
            fault = sum_fault(p for _, p in pairs)
            if fault:
                raise PolicyError(f"policy for state {s} sums to {fault[1]}")
            i = compiled.index.get(s)
            out = compiled.out[i] if i is not None else {}
            for a, p in pairs:
                if a not in out:
                    if p > TOL:
                        raise PolicyError(f"policy gives mass to missing action {a} in {s}")
                    continue
                iv = model.arrows[out[a][0]].label_prob
                if not iv.contains(p, tol=SUM_TOL):
                    raise PolicyError(
                        f"policy({s}, {a}) = {p} outside agent interval [{iv.lo}, {iv.hi}]"
                    )


def compose_policy(model: Model, policy: Policy) -> Model:
    """Fix the agent: replace label probabilities with the policy's points."""
    policy.check(model)
    arrows = tuple(
        replace(a, label_prob=ProbInterval.point(policy.of(a.source, a.label)))
        for a in model.arrows
    )
    return replace(model, kind="mdp-fixed", arrows=arrows)


class Preference(Value):
    """Per-state action ranking, most wanted first."""

    _fields = ("order",)

    def __init__(self, order: Mapping[str, tuple]):
        _setattr(self, "order", {s: tuple(v) for s, v in order.items()})

    def check(self, model: Model) -> None:
        compiled = model.compiled
        for s, ranked in self.order.items():
            if s not in compiled.index:
                raise ModelError(f"preference for unknown state {s!r}")
            out = compiled.out[compiled.index[s]]
            available = {l for l in model.labels if l in out}
            if set(ranked) != available or len(set(ranked)) != len(ranked):
                raise ModelError(
                    f"preference for {s} must rank exactly the available actions {sorted(available)}"
                )


class Trajectory(Value):
    """Recorded observation/action word with a designated current moment.

    ``obs`` holds the observation of each step and ``acts`` its action,
    None where none was taken.  Steps before ``t0`` are the past, steps at
    and after it the future.
    """

    _fields = ("obs", "acts", "t0")

    def __init__(self, obs: tuple, acts: tuple, t0: int):
        obs, acts = tuple(obs), tuple(acts)
        if len(acts) != len(obs):
            raise ModelError(f"a trajectory needs one action per observation, got {len(acts)} for {len(obs)}")
        if not 0 <= t0 <= len(obs):
            raise ModelError(f"t0 = {t0} outside [0, {len(obs)}]")
        self._set(obs, acts, t0)

    @classmethod
    def of(cls, pairs: Iterable, t0: Optional[int] = None) -> "Trajectory":
        """From (observation, action) pairs, the action None or left out where none was taken."""
        steps = [_step(*p) for p in pairs]
        return cls([o for o, _ in steps], [a for _, a in steps], len(steps) if t0 is None else t0)

    def __len__(self) -> int:
        return len(self.obs)

    def observations(self) -> tuple:
        return self.obs


def _step(obs: str, act: Optional[str] = None) -> tuple:
    return obs, act


class EventOccurrence(NamedTuple):
    """One detected event: when, what, how confident, and found how.

    A log holds thousands, so an occurrence is a record: a tuple with named
    fields, equal to the plain tuple of its fields."""

    time: int
    label: str
    confidence: ProbInterval
    provenance: str = "direct"  # direct | indirect | derived


#: ``_occurrence((time, label, confidence, provenance))``: an occurrence built
#: as a tuple, without the argument handling of ``EventOccurrence.__new__``
_occurrence = partial(tuple.__new__, EventOccurrence)


class EventStream(Value):
    _fields = ("occurrences",)

    def __init__(self, occurrences: tuple):
        occs = tuple(occurrences)
        last = -math.inf
        for occ in occs:  # the first fault in stream order is refused
            if type(occ) is not EventOccurrence:
                raise ModelError(f"event stream holds {occ!r}, not an EventOccurrence")
            time, label, confidence, _ = occ
            if time < last:
                raise ModelError("event stream times must be non-decreasing")
            if confidence.hi <= 0.0:
                raise ModelError(f"occurrence of {label!r} at {time} has confidence [0,0]")
            last = time
        _setattr(self, "occurrences", occs)

    def __len__(self) -> int:
        return len(self.occurrences)


def memory_bits(model: Model) -> int:
    """Dynamic-memory size: ceil(log2 of the largest same-colour state group).

    Colour is the state's deterministic observation where the trace has one,
    otherwise the trace's support set.
    """
    groups: dict = {}
    for s in model.states:
        colour = s.trace.colour()
        groups[colour] = groups.get(colour, 0) + 1
    m = max(groups.values(), default=1)
    return math.ceil(math.log2(m)) if m > 1 else 0


def step_belief(model: Model, belief: Belief, label: str, obs: str) -> Belief:
    """Bayes-filter one step: traverse label arrows, then condition on obs.

    Interval probabilities are collapsed to their midpoints and the result
    is flagged approximate.
    """
    compiled = model.compiled
    if obs not in compiled.obs_index:
        raise ModelError(f"observation {obs!r} not in the model's alphabet")
    if label not in compiled.label_index:
        raise ModelError(f"label {label!r} not in the model's alphabet")
    ids, dst, mid, point = compiled.ids, compiled.dst, compiled.mid, compiled.point
    emissions = compiled.emissions
    approx = belief.approximate
    posterior: dict = {}
    for src, mass in belief.probs.items():
        i = compiled.index.get(src)
        if i is None:
            raise ModelError(f"belief over unknown state {src!r}")
        for k in compiled.out[i].get(label, ()):
            j = dst[k]
            listed, unlisted = emissions[j]
            trace_mid, trace_point = listed.get(obs, unlisted)
            if not (point[k] and trace_point):
                approx = True
            w = mass * mid[k] * trace_mid
            if w > 0.0:
                posterior[ids[j]] = posterior.get(ids[j], 0.0) + w
    total = sum(posterior.values())
    if total <= 0.0:
        raise InconsistentObservationError(
            f"observation {obs!r} impossible under the current belief"
        )
    return Belief({s: p / total for s, p in posterior.items()}, approximate=approx)
