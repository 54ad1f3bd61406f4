"""Reachability structure: white peaks, black holes, redundant states.

A black hole is a state set no path leaves; a white peak one no path
enters; both exclude the initial state.  Any qualifying set is contained in
the maximal one, so the maximal sets are what these functions return.  An
arrow counts as an edge whenever its effective probability can be positive
(upper bound > 0): possibly-zero intervals still connect.
"""

from __future__ import annotations

from .core import Model, Value, replace


def reached(adjacency: list, start: int) -> list:
    """Per state number, whether the closure of the adjacency from ``start`` holds it."""
    seen = [False] * len(adjacency)
    seen[start] = True
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return seen


def _unreached(model: Model, adjacency: list) -> frozenset:
    """The states the closure of the adjacency misses from the initial state."""
    compiled = model.compiled
    seen = reached(adjacency, compiled.index[model.initial_state.id])
    return frozenset(sid for sid, hit in zip(compiled.ids, seen) if not hit)


def find_white_peak(model: Model) -> frozenset:
    """Maximal white peak: states the initial state cannot reach."""
    return _unreached(model, model.compiled.forward)


def find_black_hole(model: Model) -> frozenset:
    """Maximal black hole: states that cannot reach the initial state."""
    return _unreached(model, model.compiled.backward)


class StructureReport(Value):
    _fields = ("white_peak", "black_hole")

    def __init__(self, white_peak: frozenset, black_hole: frozenset):
        self._set(white_peak, black_hole)

    @property
    def redundant(self) -> frozenset:
        return self.white_peak & self.black_hole


def analyze(model: Model) -> StructureReport:
    return StructureReport(find_white_peak(model), find_black_hole(model))


def remove_redundant(model: Model) -> Model:
    """Drop states that are both white peak and black hole, with their arrows.

    The resulting outgoing-probability deficits can only sit inside white
    peaks, where the validator downgrades them to warnings.
    """
    redundant = analyze(model).redundant
    if not redundant:
        return model
    obs = model.obs
    if model.kind == "fomm":  # states are the observations; keep the bijection
        obs = tuple(o for o in obs if o not in redundant)
    return replace(
        model,
        obs=obs,
        states=tuple(s for s in model.states if s.id not in redundant),
        arrows=tuple(
            a for a in model.arrows if a.source not in redundant and a.target not in redundant
        ),
    )
