"""Output checks that share no code with the library under test.

Each check recomputes an answer, or a property the answer must have, from
the generator's structure (``gen.Spec``) or from the raw outputs, and raises
``Mismatch`` naming the layer whose output was wrong.  Floating-point
answers are compared with a tolerance; exact answers byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import gen

REL_TOL = 1e-6


class Mismatch(Exception):
    """A request returned a wrong answer; ``layer`` names who gave it."""

    def __init__(self, layer: str, detail: str):
        self.layer = layer
        super().__init__(f"{layer}: {detail}")


def require(ok: bool, layer: str, detail: str) -> None:
    if not ok:
        raise Mismatch(layer, detail)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def frac(k: int) -> Fraction:
    return Fraction(k, gen.SCALE)


# -- documents ----------------------------------------------------------------------


def trajectory_text(observations, t0: int) -> str:
    """The trajectory document for unacted steps, written independently."""
    return f"t0 {t0}\n" + "".join(f"{o} -\n" for o in observations)


def stream_text(occurrences) -> str:
    """Event stream document of certain, directly observed events."""
    return "".join(f"{t} {label} [1,1] direct\n" for t, label in occurrences)


def arrow_lines(text: str) -> dict:
    """(source, label, target) -> (lp, ap) as floats of interval bounds."""

    def interval(tok: str) -> tuple:
        if tok.startswith("["):
            lo, hi = tok[1:-1].split(",")
            return float(lo), float(hi)
        return float(tok), float(tok)

    out = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "arrow":
            fields = dict(t.split("=", 1) for t in tokens[4:])
            out[tuple(tokens[1:4])] = (interval(fields["lp"]), interval(fields["ap"]))
    return out


def state_lines(text: str) -> dict:
    """State id -> the tokens after it, from a model document."""
    return {t[1]: t[2:] for t in (line.split() for line in text.splitlines()) if t and t[0] == "state"}


# -- structure ----------------------------------------------------------------------


def structure(spec: gen.Spec, white_peak, black_hole) -> None:
    require(set(white_peak) == spec.white_peak, "analysis", f"white peak {sorted(white_peak)} != {sorted(spec.white_peak)}")
    require(set(black_hole) == spec.black_hole, "analysis", f"black hole {sorted(black_hole)} != {sorted(spec.black_hole)}")


def memory_bits(spec: gen.Spec) -> int:
    groups: Counter = Counter()
    for s in spec.states:
        certain = [o for o, iv in s.trace.items() if iv == gen.ONE]
        support = frozenset(o for o, (_, hi) in s.trace.items() if hi > 0)
        groups[certain[0] if certain and len(support) == 1 else support] += 1
    m = max(groups.values())
    return math.ceil(math.log2(m)) if m > 1 else 0


def stationary(spec: gen.Spec) -> dict:
    """Exact stationary distribution of a strongly connected chain."""
    ids = sorted(s.id for s in spec.states)
    pos = {s: i for i, s in enumerate(ids)}
    n = len(ids)
    # pi (P - I) = 0 with sum(pi) = 1: transpose, replace the last row by ones
    rows = [[Fraction(0)] * n + [Fraction(0)] for _ in range(n)]
    for a in spec.arrows:
        rows[pos[a.tgt]][pos[a.src]] += frac(a.ap[0]) * frac(a.lp[0])
    for i in range(n):
        rows[i][i] -= 1
    rows[n - 1] = [Fraction(1)] * n + [Fraction(1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return {s: rows[pos[s]][n] / rows[pos[s]][pos[s]] for s in ids}


def time_reversal(spec: gen.Spec, inverse_arrows: dict) -> None:
    """Inverse of a strongly connected chain: q(t -> s) = pi(s) p(s, t) / pi(t)."""
    pi = stationary(spec)
    want = {(a.tgt, a.label, a.src): pi[a.src] * frac(a.ap[0]) / pi[a.tgt] for a in spec.arrows}
    require(set(inverse_arrows) == set(want), "inversion", "inverse arrows are not the reversed arrows")
    for key, q in want.items():
        got = inverse_arrows[key][1][0]
        require(close(got, float(q), 1e-9), "inversion", f"inverse {key} = {got}, expected {float(q)}")


def reversed_keys(spec: gen.Spec, keys) -> None:
    want = {(a.tgt, a.label, a.src) for a in spec.arrows}
    require(set(keys) == want, "inversion", "inverse arrows are not the reversed arrows")


def out_sums(arrows: dict, layer: str) -> None:
    """Outgoing arrow probabilities of every state with arrows sum to 1."""
    sums: dict = {}
    for (src, _, _), (lp, ap) in arrows.items():
        sums[src] = sums.get(src, 0.0) + lp[0] * ap[0]
    for src, total in sums.items():
        require(close(total, 1.0), layer, f"outgoing probabilities of {src} sum to {total}")


def flow_balance(spec: gen.Spec, visits: dict, arrow_counts: dict, return_count: float) -> None:
    """Journey counts: each state's outflow equals its visits, and every
    state but the initial one is entered as often as it is visited."""
    s0 = spec.initial
    out_flow: dict = {}
    in_flow: dict = {}
    for (src, _, tgt), c in arrow_counts.items():
        out_flow[src] = out_flow.get(src, 0.0) + c
        in_flow[tgt] = in_flow.get(tgt, 0.0) + c
    for a in spec.arrows:
        want = visits[a.src] * a.ap[0] / gen.SCALE
        require(close(arrow_counts[(a.src, a.label, a.tgt)], want), "inversion", f"arrow count {a.src}->{a.tgt}")
    for sid, v in visits.items():
        require(close(out_flow.get(sid, 0.0), v), "inversion", f"outflow of {sid} != visits {v}")
        if sid != s0:
            require(close(in_flow.get(sid, 0.0), v), "inversion", f"inflow of {sid} != visits {v}")
    require(close(visits[s0], 1.0) and close(return_count, 1.0), "inversion", f"return count {return_count}")


# -- partitions ---------------------------------------------------------------------


def stable_partition(spec: gen.Spec, classes) -> None:
    """One signature round over the partition, with exact weights: every
    class's members share trace, label probability and per-class mass."""
    block = {}
    for i, c in enumerate(classes):
        for sid in c:
            require(sid not in block, "constructions", f"{sid} in two classes")
            block[sid] = i
    require(set(block) == {s.id for s in spec.states}, "constructions", "partition does not cover the states")
    mass: dict = {}
    for a in spec.arrows:
        key = (a.src, a.label, a.lp)
        per_block = mass.setdefault(key, {})
        per_block[block[a.tgt]] = per_block.get(block[a.tgt], Fraction(0)) + frac(a.ap[0])
    signature: dict = {s.id: [tuple(sorted(s.trace.items())), s.memory] for s in spec.states}
    for (src, label, lp), per_block in sorted(mass.items()):
        signature[src].append((label, lp, tuple(sorted(per_block.items()))))
    for c in classes:
        sigs = {repr(signature[sid]) for sid in c}
        require(len(sigs) == 1, "constructions", f"class {sorted(c)[:4]}... is not stable")


# -- trajectories and events --------------------------------------------------------


def walk(spec: gen.Spec, observations) -> None:
    """A simulated observation sequence follows the model's arrows."""
    if spec.kind == "fomm":
        allowed = {(a.src, a.tgt) for a in spec.arrows}
        require(observations[0] == spec.initial, "simulate", "walk does not start in the initial state")
        for pair in zip(observations, observations[1:]):
            require(pair in allowed, "simulate", f"walk takes the missing arrow {pair}")
    else:
        alphabet = {o for s in spec.states for o in s.trace}
        require(set(observations) <= alphabet, "simulate", "walk emits an observation no state has")


def cycle_walk(spec: gen.Spec, observations) -> None:
    """On the n-cycle the observation sequence is exactly periodic."""
    order = [s.id for s in sorted(spec.states, key=lambda s: int(s.id[1:]))]
    start = order.index(spec.initial)
    obs_of = {s.id: next(iter(s.trace)) for s in spec.states}
    n = len(order)
    for t, o in enumerate(observations):
        require(o == obs_of[order[(start + t) % n]], "simulate", f"cycle walk leaves the cycle at step {t}")


def estimate(observations, t0: int, arrows: dict, initial: str) -> None:
    """Recount of the standard chain: ap(i, j) = count(i, j) / count(i)."""
    pairs = Counter(zip(observations, observations[1:]))
    totals = Counter(observations[:-1])
    want = {(i, "true", j): c / totals[i] for (i, j), c in pairs.items()}
    require(set(arrows) == set(want), "simulate", "estimated arrows differ from the observed pairs")
    for key, p in want.items():
        require(close(arrows[key][1][0], p, 1e-11), "simulate", f"estimate {key} = {arrows[key][1][0]}, counted {p}")
    current = observations[t0] if t0 < len(observations) else observations[-1]
    require(initial == current, "simulate", f"estimate starts in {initial}, expected {current}")


def true_path(spec: gen.Spec, n_steps: int, fired) -> list:
    """States at steps 0..n of an event-driven walk with deterministic
    arrows and at most one event per step."""
    target = {(a.src, a.label): a.tgt for a in spec.arrows}
    at = {}
    for t, label in fired:
        require(t not in at, "simulate", f"two events fired at step {t}")
        at[t] = label
    path = [spec.initial]
    for t in range(n_steps):
        s = path[-1]
        if t in at:
            require((s, at[t]) in target, "simulate", f"event {at[t]} fired in {s}, which has no such arrow")
            s = target[(s, at[t])]
        path.append(s)
    return path


def observations_fit(spec: gen.Spec, fired, observations) -> None:
    path = true_path(spec, len(observations), fired)
    for t, o in enumerate(observations):
        require(o in spec.trace_of[path[t]], "simulate", f"step {t} observes {o} outside the trace of {path[t]}")


def tracked(spec: gen.Spec, fired, beliefs, final) -> None:
    """The true state stays inside every tracked belief."""
    path = true_path(spec, len(beliefs), fired)
    for t, belief in enumerate(beliefs):
        require(path[t] in belief.probs, "events", f"belief at step {t} lost the true state {path[t]}")
    require(path[-1] in final.probs, "events", "final belief lost the true state")


def direct_detections(fns, observations, found) -> None:
    """Recount of obs-match, action-match and one-step pattern detectors over
    an unacted trajectory (actions unknown, so action matchers never fire)."""
    n = len(observations)
    want = set()
    for name, kind, detail in fns:
        if kind == "obs-match":
            want |= {(t, name) for t in range(n) if observations[t] == detail}
        elif kind == "pattern":
            past, future = detail
            want |= {(t, name) for t in range(1, n) if observations[t - 1] in past and observations[t] in future}
    require(set(found) == want and len(found) == len(want), "events", f"{len(found)} detections, recounted {len(want)}")


def indirect_detections(observations, window: int, threshold: float, times, segments) -> None:
    """Segments tile the trajectory at the detected times, and each
    detected boundary separates windows more than ``threshold`` apart."""
    n = len(observations)
    cuts = [0] + list(times) + [n]
    require(list(segments) == list(zip(cuts, cuts[1:])), "events", "segments do not tile the trajectory")
    for t in times:
        before = Counter(observations[t - window : t])
        after = Counter(observations[t : t + window])
        tv = sum(abs(before[o] - after[o]) for o in set(before) | set(after)) / (2 * window)
        # distances are multiples of 1/window; one equal to the threshold may
        # round either way in floating point
        require(tv > threshold - 1e-9, "events", f"boundary {t} has distance {tv} < {threshold}")


def derived(spec: gen.Spec, beliefs, found, threshold: float) -> None:
    """Derived events: a state's mass rising above the threshold."""
    want = []
    for t in range(1, len(beliefs)):
        now, before = beliefs[t].probs, beliefs[t - 1].probs
        for s in spec.states:
            if now.get(s.id, 0.0) > threshold >= before.get(s.id, 0.0):
                want.append((t, f"{spec.name or 'ed'}.{s.id}"))
    got = [(o.time, o.label) for o in found]
    require(sorted(got) == sorted(want), "events", f"{len(got)} derived events, recounted {len(want)}")


def validity_spans(n: int, glitches, spans) -> None:
    """No state emits the glitch, so tracking fails exactly there and
    restarts after it; between glitches the true events keep it valid."""
    cuts = [-1] + list(glitches) + [n]
    want = [(a + 1, b, False) for a, b in zip(cuts, cuts[1:]) if b > a + 1]
    if not glitches:
        want = [(0, n, True)]
    require(list(spans) == want, "events", f"validity spans {list(spans)[:4]} != {want[:4]}")


def markov_symbols(observations, symbols, p_values) -> None:
    require(list(symbols) == sorted(set(observations)), "simulate", "Markov check does not test each symbol once")
    for p in p_values:
        require(p is None or 0.0 <= p <= 1.0, "simulate", f"p-value {p} outside [0, 1]")


# -- developments -------------------------------------------------------------------


def development_count(found: int, sizes, layer: str = "simulate") -> None:
    require(found == sizes[-1], layer, f"{found} developments, subset construction counts {sizes[-1]}")


def total_mass(total: float, layer: str = "simulate") -> None:
    require(close(total, 1.0, 1e-9), layer, f"development probabilities sum to {total}")


def deterministic(det_arrows, obs_of: dict) -> None:
    """A belief-determinized model has at most one arrow per (state, label,
    observation)."""
    seen = set()
    for (src, label, tgt) in det_arrows:
        key = (src, label, obs_of[tgt])
        require(key not in seen, "constructions", f"two {label} arrows from {src} observe {key[2]}")
        seen.add(key)

