"""Seeded random model generator for format round-trip properties.

Probabilities are drawn with at most six decimal digits so that one pass of
12-significant-digit serialization reproduces them bit-exactly.
"""

from __future__ import annotations

import random

from stochworld import Arrow, Model, ProbInterval, State, TraceSpec
from stochworld.core import KINDS, SINGLE_LABEL_KINDS, TRUE_LABEL


def _prob(rng: random.Random) -> float:
    return rng.randint(0, 1_000_000) / 1_000_000


def _interval(rng: random.Random, point_only: bool) -> ProbInterval:
    if point_only or rng.random() < 0.5:
        return ProbInterval.point(_prob(rng))
    a, b = sorted((_prob(rng), _prob(rng)))
    return ProbInterval(a, b)


def random_model(rng: random.Random) -> Model:
    """Structurally sound random model; kind constraints are not a goal here,
    only what parse_model accepts."""
    kind = rng.choice(KINDS)
    n_obs = rng.randint(1, 4)
    obs = tuple(f"o{i}" for i in range(n_obs))
    if kind in SINGLE_LABEL_KINDS:
        labels = (TRUE_LABEL,)
    elif kind == "ed":
        labels = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    else:
        labels = tuple(f"a{i}" for i in range(rng.randint(1, 3)))
    n_states = rng.randint(1, 5)
    ids = [f"n{i}" for i in range(n_states)]
    point_only = kind in ("fomm", "hmm", "mdp", "mdp-fixed")
    states = []
    for i, sid in enumerate(ids):
        trace = {}
        for o in rng.sample(obs, rng.randint(0, len(obs))):
            trace[o] = _interval(rng, point_only)
        if kind == "fomm" and not trace:  # a fomm document gives an untraced state its own symbol
            trace = {obs[0]: ProbInterval.point(1.0)}
        states.append(
            State(
                sid,
                initial=(i == 0),
                trace=TraceSpec(trace, memory=rng.random() < 0.2, phenomena=()),
            )
        )
    keys = set()
    arrows = []
    for _ in range(rng.randint(0, 2 * n_states)):
        key = (rng.choice(ids), rng.choice(labels), rng.choice(ids))
        if key in keys:
            continue
        keys.add(key)
        arrows.append(
            Arrow(key[0], key[1], key[2], _interval(rng, point_only), _interval(rng, point_only))
        )
    priorities = {}
    if kind == "ed" and rng.random() < 0.5:
        priorities = {e: r for r, e in enumerate(labels, start=1)}
    name = rng.choice(("", "gen", "world1"))
    return Model(kind, obs, labels, tuple(states), tuple(arrows), priorities, name)
