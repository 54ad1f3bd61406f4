"""The toolkit's numpy code: Monte-Carlo journeys, vectorized over all journeys, whose per-arrow
counts estimate the journey statistics and give the sampled inverse, and the dense solve of what
``inversion``'s sparse reduction leaves of a flow system, reached as a package export."""

from __future__ import annotations

import itertools

import numpy as np

from .core import Model, checked_int
from .errors import JourneyError, ModelError
from .inversion import _SINGULAR, JourneyStatistics, _invert_by_flow, _propagating_states


def _dense_solve(n: int, rows: list, cols: list, vals: list, c: list) -> list:
    """x with A x = c by LAPACK, A's nonzero entries as (row, column, value) triples, each once."""
    a = np.zeros((n, n))
    a[rows, cols] = vals
    try:
        return np.linalg.solve(a, c).tolist()
    except np.linalg.LinAlgError as exc:
        raise JourneyError(_SINGULAR) from exc


def _walk(model: Model, journeys: int, seed: int) -> tuple:
    """``journeys`` random journeys, vectorized: the arrows out of the states they stand on, in key
    order; per arrow, its traversals per journey, 0.0 out of the other states; per state number,
    its arrivals, s0's being the returns; and the return flags of ``_propagating_states``."""
    compiled = model.compiled
    ids = compiled.ids
    standing, returns = _propagating_states(model)
    arrows = sorted((k for k, i in enumerate(compiled.src) if standing[i]), key=lambda k: model.arrows[k].key)
    per_state = {i: list(ks) for i, ks in itertools.groupby(arrows, compiled.src.__getitem__)}

    max_deg = max(map(len, per_state.values()))
    cum = np.ones((len(ids), max_deg))
    aid = np.zeros((len(ids), max_deg), dtype=np.int64)
    for si, ks in per_state.items():
        cum[si, : len(ks)] = np.cumsum([compiled.mid[k] for k in ks])
        cum[si, len(ks) - 1 :] = np.inf  # a draw above the rounded total takes the last arrow
        aid[si, : len(ks)] = ks
    tgt = np.array(compiled.dst, dtype=np.int64)

    rng = np.random.default_rng(None if seed is None else checked_int(seed, "journey simulation seed", 0))
    s0 = compiled.index[model.initial_state.id]
    ends = np.logical_not(returns)
    ends[s0] = True  # a journey ends on its return or its absorption

    cur = np.full(journeys, s0, dtype=np.int64)
    taken_counts = np.zeros(len(tgt), dtype=np.int64)
    for _ in range(1_000_000):
        if cur.size == 0:
            break
        u = rng.random(cur.size)
        taken = aid[cur, (u[:, None] > cum[cur]).sum(axis=1)]
        taken_counts += np.bincount(taken, minlength=len(tgt))
        nxt = tgt[taken]
        cur = nxt[~ends[nxt]]
    else:
        raise JourneyError("journeys do not terminate within the step cap")

    arrivals = np.bincount(tgt, weights=taken_counts, minlength=len(ids)).tolist()  # sums of integers, so exact
    return arrows, (taken_counts * (1.0 / journeys)).tolist(), arrivals, returns


def simulate_journeys(model: Model, journeys: int, seed: int) -> JourneyStatistics:
    """Empirical journey statistics from vectorized random walks."""
    journeys = checked_int(journeys, "journey count", 1)
    ids, s0 = model.compiled.ids, model.compiled.index[model.initial_state.id]
    arrows, counts, arrivals, returns = _walk(model, journeys, seed)
    scale = 1.0 / journeys
    back, arrivals[s0] = arrivals[s0] * scale, journeys  # each journey starts on s0, never in the black hole
    return JourneyStatistics(
        visit_counts={ids[i]: v * scale for i, v in enumerate(arrivals) if v and returns[i]},
        arrow_counts={model.arrows[k].key: counts[k] for k in arrows},
        return_count=back,
        absorption_counts={ids[i]: v * scale for i, v in enumerate(arrivals) if v and not returns[i]},
    )


def monte_carlo_invert(model: Model, journeys: int, seed: int) -> Model:
    """Like invert_chain but with empirical counts; deterministic given seed."""
    if not model.single_label:
        raise ModelError("monte_carlo_invert needs a single-label model")
    return _invert_by_flow(model, lambda m: _walk(m, checked_int(journeys, "journey count", 1), seed)[1])
