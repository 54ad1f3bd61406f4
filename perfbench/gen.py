"""Seeded input documents for the benchmark.

Every generator takes a ``random.Random`` and returns a ``Spec``: the model's
structure with probabilities in exact thousandths, its canonical text
document (written here, not by the library), and the facts the output checks
predict from the structure alone (reachability, development counts).  The
library only ever sees ``Spec.text`` and documents derived from it.

Probabilities are whole thousandths, so each prints as a short decimal that
the library's 12-significant-digit serializer reproduces byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

SCALE = 1000
FULL = (0, SCALE)
ONE = (SCALE, SCALE)
ACTION_KINDS = ("mdp", "mdp-fixed", "smdp", "mdp-plus")
CHAIN_KINDS = ("fomm", "hmm")
TINY_KINDS = ("fomm", "hmm", "mdp", "mdp-fixed", "smdp", "mdp-plus", "ed")
HMM_OBS = ("a", "b", "c", "d")
#: Least chain arrow probability, in thousandths: without near-absorbing
#: states, journey lengths (and the cost of sampling them) vary little by seed.
CHAIN_LEAST = 100
#: Observation no state of an event-log model can emit: a sensor glitch.
GLITCH = "glitch"


class St(NamedTuple):
    id: str
    initial: bool
    memory: bool
    trace: dict  # obs -> (lo, hi) in thousandths


class Ar(NamedTuple):
    src: str
    label: str
    tgt: str
    lp: tuple
    ap: tuple


def dec(k: int) -> str:
    """Thousandths as the shortest decimal text."""
    if k == SCALE:
        return "1"
    if k == 0:
        return "0"
    return ("0.%03d" % k).rstrip("0")


def prob_text(iv: tuple) -> str:
    lo, hi = iv
    return dec(lo) if lo == hi else f"[{dec(lo)},{dec(hi)}]"


def split(rng: random.Random, parts: int, total: int = SCALE, least: int = 1) -> list:
    """``parts`` integers of at least ``least`` summing to ``total``."""
    room = total - parts * (least - 1)
    cuts = sorted(rng.sample(range(1, room), parts - 1))
    return [b - a + least - 1 for a, b in zip([0] + cuts, cuts + [room])]


def widen(rng: random.Random, points: list, most: int = 200) -> list:
    """Intervals around a point split; their bounds still admit the split."""
    out = []
    for p in points:
        d = rng.randint(0, most)
        out.append((max(1, p - d), min(SCALE, p + d)))
    return out


@dataclass
class Spec:
    kind: str
    obs: tuple
    labels: tuple
    states: tuple
    arrows: tuple
    priorities: dict = field(default_factory=dict)
    name: str = ""

    @cached_property
    def text(self) -> str:
        """Canonical document: sorted alphabets, states and arrows."""
        lines = [f"model {self.kind} {self.name}".rstrip(), "obs " + " ".join(sorted(self.obs))]
        if self.kind == "ed":
            lines.append("event " + " ".join(sorted(self.labels)))
        elif self.kind in ACTION_KINDS:
            lines.append("act " + " ".join(sorted(self.labels)))
        for s in sorted(self.states, key=lambda s: s.id):
            parts = ["state", s.id]
            if s.initial:
                parts.append("initial")
            if s.memory:
                parts.append("memory")
            if s.trace:
                parts.append("trace")
                parts += [f"{o}={prob_text(s.trace[o])}" for o in sorted(s.trace)]
            lines.append(" ".join(parts))
        for a in sorted(self.arrows, key=lambda a: (a.src, a.label, a.tgt)):
            lines.append(f"arrow {a.src} {a.label} {a.tgt} lp={prob_text(a.lp)} ap={prob_text(a.ap)}")
        for e in sorted(self.priorities):
            lines.append(f"priority {e} {self.priorities[e]}")
        return "\n".join(lines) + "\n"

    @property
    def initial(self) -> str:
        return next(s.id for s in self.states if s.initial)

    @cached_property
    def trace_of(self) -> dict:
        return {s.id: s.trace for s in self.states}

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    @cached_property
    def edges(self) -> dict:
        """Arrows whose probability can be positive, as an adjacency map."""
        adj = {s.id: set() for s in self.states}
        for a in self.arrows:
            if a.lp[1] > 0 and a.ap[1] > 0:
                adj[a.src].add(a.tgt)
        return adj

    def _closure(self, adj: dict) -> set:
        seen, stack = {self.initial}, [self.initial]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    @cached_property
    def white_peak(self) -> frozenset:
        reach = self._closure(self.edges)
        return frozenset(s.id for s in self.states if s.id not in reach)

    @cached_property
    def black_hole(self) -> frozenset:
        rev = {s.id: set() for s in self.states}
        for src, tgts in self.edges.items():
            for t in tgts:
                rev[t].add(src)
        coreach = self._closure(rev)
        return frozenset(s.id for s in self.states if s.id not in coreach)

    @property
    def point_probs(self) -> bool:
        return all(a.lp[0] == a.lp[1] and a.ap[0] == a.ap[1] for a in self.arrows) and all(
            lo == hi for s in self.states for lo, hi in s.trace.values()
        )

    def layer_sizes(self, depth: int, reverse: bool = False) -> list:
        """Distinct (label, observation) words of each length 1..depth, by
        subset construction.  ``reverse`` walks arrows backwards, which is
        the inverse model of a strongly connected chain."""
        succ: dict = {}
        for a in self.arrows:
            if a.lp[1] == 0 or a.ap[1] == 0:
                continue
            src, tgt = (a.tgt, a.src) if reverse else (a.src, a.tgt)
            trace = self.trace_of[tgt]
            seen = [o for o, (_, hi) in trace.items() if hi > 0] if trace else list(self.obs)
            succ.setdefault(src, []).extend(((a.label, o), tgt) for o in seen)
        layer = {frozenset([self.initial]): 1}
        sizes = []
        for _ in range(depth):
            nxt: dict = {}
            for subset, count in layer.items():
                by_symbol: dict = {}
                for s in subset:
                    for symbol, t in succ.get(s, ()):
                        by_symbol.setdefault(symbol, set()).add(t)
                for targets in by_symbol.values():
                    key = frozenset(targets)
                    nxt[key] = nxt.get(key, 0) + count
            layer = nxt
            sizes.append(sum(nxt.values()))
        return sizes


# -- large models -----------------------------------------------------------------


def chain(rng: random.Random, n: int, kind: str) -> Spec:
    """Strongly connected chain: a random Hamiltonian ring plus two random
    extra arrows per state, so there are about three arrows per state."""
    ids = [f"s{i}" for i in range(n)]
    ring = ids[:]
    rng.shuffle(ring)
    nxt = {ring[i]: ring[(i + 1) % n] for i in range(n)}
    arrows = []
    for sid in ids:
        targets = [nxt[sid]]
        while len(targets) < min(3, n):
            t = rng.choice(ids)
            if t not in targets:
                targets.append(t)
        for t, k in zip(targets, split(rng, len(targets), least=CHAIN_LEAST)):
            arrows.append(Ar(sid, "true", t, ONE, (k, k)))
    if kind == "fomm":
        obs = tuple(ids)
        states = tuple(St(s, s == ids[0], False, {s: ONE}) for s in ids)
    else:
        obs = HMM_OBS
        states = tuple(St(s, s == ids[0], False, {rng.choice(HMM_OBS): ONE}) for s in ids)
    return Spec(kind, obs, ("true",), states, tuple(arrows))


def cycle(rng: random.Random, n: int) -> Spec:
    """n-cycle where one state observes ``b`` and all others ``a``: its
    minimal model keeps all n states."""
    ids = [f"c{i}" for i in range(n)]
    odd = rng.randrange(n)
    start = rng.randrange(n)
    states = tuple(
        St(ids[i], i == start, False, {("b" if i == odd else "a"): ONE}) for i in range(n)
    )
    arrows = tuple(Ar(ids[i], "true", ids[(i + 1) % n], ONE, ONE) for i in range(n))
    return Spec("hmm", ("a", "b"), ("true",), states, arrows)


# -- event-driven models ----------------------------------------------------------


def ed_model(rng: random.Random, n_states: int, n_events: int, n_obs: int) -> Spec:
    """Event-driven model with point traces over two shared observations per
    state (so beliefs stay ambiguous) and one deterministic arrow per
    (state, event), so the true state path follows from the fired events.
    Every event has a priority, so at most one fires per step.  The alphabet
    also holds the glitch, which no state emits."""
    ids = [f"q{i}" for i in range(n_states)]
    obs = [f"o{i}" for i in range(n_obs)]
    events = [f"e{i}" for i in range(n_events)]
    states = []
    for i, sid in enumerate(ids):
        seen = rng.sample(obs, min(2, n_obs))
        trace = {o: (k, k) for o, k in zip(seen, split(rng, len(seen)))}
        states.append(St(sid, i == 0, rng.random() < 0.3, trace))
    arrows = []
    for sid in ids:
        fired = [e for e in events if rng.random() < 0.75] or [rng.choice(events)]
        for e in fired:
            k = rng.randint(50, 300)
            arrows.append(Ar(sid, e, rng.choice(ids), (k, k), ONE))
    ranks = list(range(1, n_events + 1))
    rng.shuffle(ranks)
    return Spec("ed", tuple(obs) + (GLITCH,), tuple(events), tuple(states), tuple(arrows), dict(zip(events, ranks)), "plant")


def charfns(rng: random.Random, spec: Spec) -> tuple:
    """An obs-match, an action-match and a one-step pattern detector.

    Returns (document, [(name, kind, detail)]) with the detail the recount
    needs: the observation, the action, or the (past, future) symbol sets.
    """
    obs = [o for o in spec.obs if o != GLITCH]
    seen = rng.choice(obs)
    past = sorted(rng.sample(obs, max(1, len(obs) // 2)))
    future = sorted(o for o in obs if o not in past) or [obs[0]]
    action = rng.choice(spec.labels)
    lines = [
        f"charfn seen obs={seen}",
        f"charfn pressed action={action}",
        f"charfn shift pattern past={'|'.join(past)} future={'|'.join(future)} plen=1 flen=1",
    ]
    fns = [("seen", "obs-match", seen), ("pressed", "action-match", action), ("shift", "pattern", (set(past), set(future)))]
    return "\n".join(lines) + "\n", fns


# -- tiny models of every kind ------------------------------------------------------


def tiny(
    rng: random.Random, kind: str, n: int = 0, with_peak: bool | None = None, alphabet: int = 0
) -> Spec:
    """``n`` states (one to six when 0) of the given kind, valid by
    construction, with ``alphabet`` labels and observations (one to three
    when 0; fomm observes its states, fomm and hmm have one label).

    With ``with_peak`` (a quarter of the time when None) a model of two
    states or more carries a white peak: a state no arrow enters.  The
    non-peak core is strongly connected through a ring, except that decision
    processes may add an absorbing sink (a black hole).
    """
    n = n or rng.randint(1, 6)
    if with_peak is None:
        with_peak = rng.random() < 0.25
    ids = [f"n{i}" for i in range(n)]
    peak = ids[-1] if n >= 2 and with_peak else None
    core = [s for s in ids if s != peak]
    sink = None
    if kind in ACTION_KINDS and len(core) >= 2 and rng.random() < 0.25:
        sink = core[-1]
        core = core[:-1]

    if kind in CHAIN_KINDS:
        labels = ("true",)
    elif kind == "ed":
        labels = tuple(f"e{i}" for i in range(alphabet or rng.randint(1, 3)))
    else:
        labels = tuple(f"a{i}" for i in range(alphabet or rng.randint(1, 3)))
    if kind == "fomm":
        obs = tuple(ids)
    else:
        obs = ("x", "y", "z")[: alphabet or rng.randint(1, 3)]

    def targets(sid: str) -> list:
        pool = core if sid != sink else [sink]
        first = pool[(pool.index(sid) + 1) % len(pool)] if sid in pool else rng.choice(pool)
        out = [first]
        if sid != sink:
            if sink is not None and rng.random() < 0.5:
                out.append(sink)
            for _ in range(rng.randint(0, 1)):
                t = rng.choice(core)
                if t not in out:
                    out.append(t)
        return out

    states = []
    for sid in ids:
        if kind == "fomm":
            trace = {sid: ONE}
        elif kind == "hmm":
            trace = {rng.choice(obs): ONE}
        else:
            seen = rng.sample(obs, rng.randint(1, len(obs)))
            points = split(rng, len(seen))
            if kind == "mdp-plus":
                trace = dict(zip(seen, widen(rng, points)))
            else:
                trace = {o: (k, k) for o, k in zip(seen, points)}
        states.append(St(sid, sid == core[0], kind == "ed" and rng.random() < 0.3, trace))

    arrows = []
    priorities = {}
    for sid in ids:
        if kind in CHAIN_KINDS:
            tg = targets(sid)
            arrows += [Ar(sid, "true", t, ONE, (k, k)) for t, k in zip(tg, split(rng, len(tg), least=CHAIN_LEAST))]
            continue
        if kind == "ed":
            for e in labels:
                if rng.random() < 0.7 or e == labels[0]:
                    k = rng.randint(100, 500)
                    arrows.append(Ar(sid, e, rng.choice(targets(sid)), (k, k), ONE))
            continue
        acts = rng.sample(labels, rng.randint(1, len(labels)))
        lp_points = split(rng, len(acts))
        lp_ivs = widen(rng, lp_points)
        for j, act in enumerate(acts):
            tg = targets(sid)
            ap_points = split(rng, len(tg))
            if kind == "mdp":
                lp, aps = FULL, [(k, k) for k in ap_points]
            elif kind == "mdp-fixed":
                lp, aps = (lp_points[j],) * 2, [(k, k) for k in ap_points]
            elif kind == "smdp":
                lp, aps = FULL, [FULL] * len(tg)
            else:
                lp, aps = lp_ivs[j], widen(rng, ap_points)
            arrows += [Ar(sid, act, t, lp, ap) for t, ap in zip(tg, aps)]
    if kind == "ed":
        ranks = list(range(1, len(labels) + 1))
        rng.shuffle(ranks)
        priorities = dict(zip(labels, ranks))
    return Spec(kind, obs, labels, tuple(states), tuple(arrows), priorities)


def ring(rng: random.Random, k: int) -> tuple:
    """Event-driven ring r0 -> r1 -> ... -> r0 with one distinct observation
    per state, and the characteristic functions that detect each move
    exactly: event ``go<i>`` fires at t when w<i> is seen at t and w<i+1> at
    t+1.  Returns (spec, charfn document)."""
    ids = [f"r{i}" for i in range(k)]
    obs = [f"w{i}" for i in range(k)]
    events = [f"go{i}" for i in range(k)]
    states = tuple(St(ids[i], i == 0, False, {obs[i]: ONE}) for i in range(k))
    arrows = []
    for i in range(k):
        p = rng.randint(100, 500)
        arrows.append(Ar(ids[i], events[i], ids[(i + 1) % k], (p, p), ONE))
    doc = "".join(
        f"charfn {events[i]} pattern future={obs[i]},{obs[(i + 1) % k]} flen=2\n" for i in range(k)
    )
    return Spec("ed", tuple(obs), tuple(events), states, tuple(arrows), {}, "ring"), doc
