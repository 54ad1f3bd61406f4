"""The toolkit's numpy code: Monte-Carlo journeys, vectorized over all journeys, whose counts
estimate the journey statistics and give the sampled inverse, and the dense solve of what
``inversion``'s sparse reduction leaves of a flow system, reached as a package export."""

from __future__ import annotations

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


def simulate_journeys(model: Model, journeys: int, seed: int) -> JourneyStatistics:
    """Empirical journey statistics from vectorized random walks."""
    journeys = checked_int(journeys, "journey count", 1)
    compiled = model.compiled
    ids = compiled.ids
    standing, black = _propagating_states(model)
    # per standing state, in id order, its arrows in key order
    per_state = {}
    for i in sorted((i for i, stands in enumerate(standing) if stands), key=ids.__getitem__):
        out = compiled.out[i]
        per_state[i] = [k for label in sorted(out) for k in sorted(out[label], key=lambda j: ids[compiled.dst[j]])]
    arrows = [k for ks in per_state.values() for k in ks]

    max_deg = max(len(ks) for ks in per_state.values())
    cum = np.ones((len(ids), max_deg))
    aid = np.zeros((len(ids), max_deg), dtype=np.int64)
    tgt = np.array([compiled.dst[k] for k in arrows], dtype=np.int64)
    first = 0
    for si, ks in per_state.items():
        cum[si, : len(ks)] = np.cumsum([compiled.mid[k] for k in ks])
        cum[si, len(ks) - 1 :] = np.inf  # a draw above the rounded total takes the last arrow
        aid[si, : len(ks)] = np.arange(first, first + len(ks))
        first += len(ks)

    rng = np.random.default_rng(None if seed is None else checked_int(seed, "journey simulation seed", 0))
    s0 = compiled.index[model.initial_state.id]
    ends = np.array([sid in black for sid in ids], dtype=bool)
    ends[s0] = True  # a journey ends on its return or its absorption

    cur = np.full(journeys, s0, dtype=np.int64)
    arrow_counts = np.zeros(len(arrows), dtype=np.int64)
    for _ in range(1_000_000):
        if cur.size == 0:
            break
        u = rng.random(cur.size)
        taken = aid[cur, (u[:, None] > cum[cur]).sum(axis=1)]
        arrow_counts += np.bincount(taken, minlength=len(arrows))
        nxt = tgt[taken]
        cur = nxt[~ends[nxt]]
    else:
        raise JourneyError("journeys do not terminate within the step cap")

    # visits, returns and absorptions are the arrivals the arrow counts make;
    # their sums are of integers, so exact
    arrivals = np.bincount(tgt, weights=arrow_counts, minlength=len(ids)).tolist()
    returns = arrivals[s0]
    arrivals[s0] = journeys  # each journey visits s0 once, at its start; s0 is never in the black hole
    scale = 1.0 / journeys
    return JourneyStatistics(
        visit_counts={ids[i]: v * scale for i, v in enumerate(arrivals) if v and ids[i] not in black},
        arrow_counts={model.arrows[k].key: c * scale for k, c in zip(arrows, arrow_counts.tolist())},
        return_count=returns * scale,
        absorption_counts={ids[i]: v * scale for i, v in enumerate(arrivals) if v and ids[i] in black},
    )


def monte_carlo_invert(model: Model, journeys: int, seed: int) -> Model:
    """Like invert_chain but with empirical counts; deterministic given seed."""
    if not model.single_label:
        raise ModelError("monte_carlo_invert needs a single-label model")
    return _invert_by_flow(model, lambda m: simulate_journeys(m, journeys, seed))
