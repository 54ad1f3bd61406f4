"""Per-kind model validation.

``validate`` is pure and idempotent.  It separates three severities:
structural problems (the graph itself is broken), kind violations (the
graph does not satisfy its declared kind), and warnings.  Every probability
group (a label's arrows out of a state, a state's agent, a trace) must admit
a distribution.  A shortfall of arrows or agent is a warning rather than a
violation inside a white peak, which is the one place removing redundant
states may legally leave the sums short of one.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from .analysis import find_white_peak
from .core import (
    FULL,
    KINDS,
    POINT_ONE,
    POINT_ZERO,
    SINGLE_LABEL_KINDS,
    TRUE_LABEL,
    Model,
    sum_fault,
)

_LO, _HI = attrgetter("lo"), attrgetter("hi")
_SMDP = (POINT_ZERO, FULL, POINT_ONE)  # the only intervals of an smdp arrow


class ValidationReport:
    def __init__(self, structural=(), violations=(), warnings=()):
        self.structural, self.violations, self.warnings = list(structural), list(violations), list(warnings)

    @property
    def ok(self) -> bool:
        return not self.structural and not self.violations


def validate(model: Model) -> ValidationReport:
    report = ValidationReport()
    _check_structure(model, report)
    if report.structural:
        return report
    _check_kind(model, report)
    return report


def structural_problems(model: Model) -> list:
    """The structural problems alone, without the kind checks: what a
    model document may not have."""
    report = ValidationReport()
    _check_structure(model, report)
    return report.structural


def _check_structure(model: Model, report: ValidationReport) -> None:
    out = report.structural
    if model.kind not in KINDS:
        out.append(f"unknown kind {model.kind!r}")
        return
    if not model.obs:
        out.append("empty observation alphabet")
    if not model.labels:
        out.append("empty label alphabet")
    ids = [s.id for s in model.states]
    if not ids:
        out.append("model has no states")
    dup = sorted(i for i, n in Counter(ids).items() if n > 1)
    if dup:
        out.append(f"duplicate state ids: {dup}")
    initials = [s.id for s in model.states if s.initial]
    if len(initials) != 1:
        out.append(f"expected exactly one initial state, found {len(initials)}")
    known = set(ids)
    labels = set(model.labels)
    seen_arrows = set()
    for a in model.arrows:
        if a.source not in known:
            out.append(f"arrow from undeclared state {a.source!r}")
        if a.target not in known:
            out.append(f"arrow to undeclared state {a.target!r}")
        if a.label not in labels:
            out.append(f"arrow label {a.label!r} not in the label alphabet")
        if a.key in seen_arrows:
            out.append(f"duplicate arrow {a.source} {a.label} {a.target}")
        seen_arrows.add(a.key)
    obs = set(model.obs)
    for s in model.states:
        for o in s.trace.probs:
            if o not in obs:
                out.append(f"state {s.id}: trace observation {o!r} not in the alphabet")
    if model.priorities and model.kind != "ed":
        report.violations.append("event priorities are only meaningful for ed models")
    for e in model.priorities:
        if e not in labels:
            out.append(f"priority for unknown event {e!r}")


def _check_kind(model: Model, report: ValidationReport) -> None:
    bad = report.violations
    kind = model.kind

    if kind in SINGLE_LABEL_KINDS and model.labels != (TRUE_LABEL,):
        bad.append(f'{kind} models have the single label "{TRUE_LABEL}"')

    if kind == "fomm":
        if set(model.obs) != {s.id for s in model.states}:
            bad.append("fomm states must coincide with the observation alphabet")
        for s in model.states:
            if s.trace.deterministic_obs != s.id:
                bad.append(f"fomm state {s.id} must observe exactly itself")

    if kind == "hmm":
        for s in model.states:
            if s.trace.deterministic_obs is None:
                bad.append(f"hmm state {s.id} needs one deterministic observation")

    if kind in ("mdp", "mdp-fixed"):
        for s in model.states:
            _check_point_trace(s, report)

    # label probabilities must agree across same-label arrows from a state
    compiled = model.compiled
    for src, out in zip(compiled.ids, compiled.out):
        for label, ks in out.items():
            first = model.arrows[ks[0]].label_prob
            if any(model.arrows[k].label_prob != first for k in ks[1:]):
                bad.append(f"inconsistent label probability for {label!r} out of {src}")

    point_lp = kind in ("fomm", "hmm", "mdp-fixed")
    point_ap = kind in ("fomm", "hmm", "mdp", "mdp-fixed")
    for a in model.arrows:
        if kind == "smdp":
            if a.label_prob not in _SMDP or a.arrow_prob not in _SMDP:
                bad.append(
                    f"smdp arrow {a.source} {a.label} {a.target}: intervals must be "
                    "[0,0], [0,1] or [1,1]"
                )
            continue
        if kind == "mdp" and a.label_prob != FULL:
            bad.append(f"mdp agent interval out of {a.source} must be [0,1]")
        if point_lp and not a.label_prob.is_point:
            bad.append(f"arrow {a.source} {a.label} {a.target}: label probability must be a point")
        if point_ap and not a.arrow_prob.is_point:
            bad.append(f"arrow {a.source} {a.label} {a.target}: arrow probability must be a point")
        if kind in SINGLE_LABEL_KINDS and a.label_prob != POINT_ONE:
            bad.append(f"arrow {a.source} {a.label} {a.target}: the event \"true\" has probability 1")

    if kind != "smdp":  # smdp intervals are structural: their sums constrain nothing
        _check_sums(model, report)
    if kind in ("smdp", "mdp-plus", "ed"):  # imperfect traces must admit a distribution too
        for s in model.states:
            if not s.trace.is_empty:
                _check_group(report, s.trace.probs.values(), f"state {s.id}", _TRACE, False)


def _check_point_trace(s, report: ValidationReport) -> None:
    """An mdp or mdp-fixed trace: points, a group that sums to 1."""
    if s.trace.is_empty:
        report.violations.append(f"state {s.id} needs a trace with point probabilities summing to 1")
        return
    for o, p in s.trace.probs.items():
        if not p.is_point:
            report.violations.append(f"state {s.id}: trace probability for {o!r} must be a point")
            return
    _check_group(report, s.trace.probs.values(), f"state {s.id}", _POINT_TRACE, False)


#: a group's texts, each formatted with (where, sum): (shortfall, excess)
_POINT_ARROWS = ("{}: outgoing probabilities sum to {:g}", "{}: outgoing probabilities sum to {:g}, above 1")
_INTERVAL_ARROWS = (
    "{}: interval sums exclude any world policy (sum of upper bounds {:g} below 1)",
    "{}: interval sums exclude any world policy (sum of lower bounds {:g} above 1)",
)
_AGENTS = {
    "mdp-fixed": ("{}: action probabilities sum to {:g}", "{}: action probabilities sum to {:g}, above 1"),
    "mdp-plus": (
        "{}: interval sums exclude any policy (upper bounds sum to {:g})",
        "{}: interval sums exclude any policy (lower bounds sum to {:g})",
    ),
}
_TRACE = ("{}: trace intervals exclude any observation distribution",) * 2
_POINT_TRACE = ("{}: trace probabilities sum to {:g}, expected 1",) * 2


def _check_group(report: ValidationReport, bounds, where: str, texts: tuple, white: bool) -> None:
    """A probability group must admit a distribution by ``sum_fault``'s rule;
    a shortfall inside a white peak is a warning."""
    fault = sum_fault(map(_LO, bounds), map(_HI, bounds))
    if fault:
        side, total = fault
        if white and side == 0:
            report.warnings.append(texts[0].format(where, total) + " (inside a white peak)")
        else:
            report.violations.append(texts[side].format(where, total))


def _check_sums(model: Model, report: ValidationReport) -> None:
    """Every label's arrows out of a state, then every state's agent."""
    white = find_white_peak(model)
    compiled = model.compiled
    texts = _POINT_ARROWS if model.kind in ("fomm", "hmm", "mdp", "mdp-fixed") else _INTERVAL_ARROWS
    single = len(model.labels) == 1
    for src, out in zip(compiled.ids, compiled.out):
        for label, ks in out.items():
            where = f"state {src}" if single else f"state {src}, {label!r}"
            _check_group(report, [model.arrows[k].arrow_prob for k in ks], where, texts, src in white)
    texts = _AGENTS.get(model.kind)
    if texts is None:
        return
    for src, out in zip(compiled.ids, compiled.out):
        agent = [model.arrows[out[l][0]].label_prob for l in model.labels if l in out]
        if agent:
            _check_group(report, agent, f"state {src}", texts, src in white)

