"""Spans around calls into the library, and the per-layer metrics they give.

The benchmark calls every library function through ``Tracer.call``.  With
tracing off that is a plain call.  With tracing on it records one span per
call (name, start, end, parent, request id, input size) in memory; the
request itself is the parent span.  Nothing inside the library is
instrumented, so a span's self time is its whole duration and the request
span's self time is the benchmark's own glue.

Layers are the library's modules.  The table below fixes which module each
function belongs to, so a later move of a function between modules does not
rename its metrics; calls always go through the top-level package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from speed import Timing

#: function -> (layer, unit of input size); "process" is one CLI child
FUNCTIONS = {
    "process": ("cli", "command"),
    "parse_model": ("format", "arrow"),
    "serialize_model": ("format", "arrow"),
    "parse_trajectory": ("format", "step"),
    "serialize_trajectory": ("format", "step"),
    "validate": ("validation", "arrow"),
    "analyze": ("analysis", "arrow"),
    "step_belief": ("core", "step"),
    "journey_statistics": ("inversion", "state"),
    "invert_chain": ("inversion", "state"),
    "monte_carlo_invert": ("inversion", "state"),
    "invert_mdp_plus": ("inversion", "arrow"),
    "minimize_forward": ("constructions", "state"),
    "belief_determinize": ("constructions", "state"),
    "minimal_model": ("constructions", "state"),
    "simulate": ("simulate", "step"),
    "simulate_events": ("simulate", "step"),
    "enumerate_future": ("simulate", "development"),
    "enumerate_past": ("simulate", "development"),
    "estimate_fomm": ("simulate", "step"),
    "check_markov": ("simulate", "step"),
    "parse_charfns": ("events", "charfn"),
    "detect_direct": ("events", "step"),
    "detect_indirect": ("events", "step"),
    "track": ("events", "step"),
    "derived_events": ("events", "step"),
    "phenomenon_validity": ("events", "step"),
    "parse_event_stream": ("events", "event"),
    "serialize_event_stream": ("events", "event"),
}
#: functions whose scaling exponent is fitted across requests
EXPONENTS = ("parse_model", "journey_statistics", "minimize_forward", "simulate", "phenomenon_validity")
LAYERS = tuple(sorted({layer for layer, _ in FUNCTIONS.values()}))
#: counts recorded at layer boundaries: name -> what the value is
COUNTS = {
    "events.phenomenon_validity.spans": "validity spans per call",
    "events.track.warnings": "tracker warnings per call",
    "events.detect_direct.hit_ratio": "detections per (step, detector)",
    "constructions.minimize_forward.state_ratio": "states kept per input state",
    "constructions.belief_determinize.truncated": "share of calls with a truncated frontier",
    "simulate.enumerate_future.developments": "developments per call",
}
CLI = ("cli.interp_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.import_scipy_ms", "cli.command_ms")


def span_name(fn: str) -> str:
    return f"{FUNCTIONS[fn][0]}.{fn}"


@dataclass
class Span:
    id: int
    request: int
    parent: int | None
    name: str
    start: float
    end: float
    size: float = 0.0
    family: str = ""


@dataclass
class Tracer:
    """Records spans when ``enabled``; a plain call-through otherwise."""

    enabled: bool
    spans: list = field(default_factory=list)
    #: count name -> [sum of values, number of values]
    counts: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    #: per-process import and command times of CLI or import children
    cli: list = field(default_factory=list)
    #: modules the control child imports (see ``speed.CHILD``), and its time
    bare_roots: frozenset = frozenset()
    interp_ms: float = 0.0
    #: input family of the current request; exponents are fitted within families
    family: str = ""
    raised_in: str = ""
    #: timing of the current request, and of every traced request by span id
    timing: Timing | None = None
    request_timing: dict = field(default_factory=dict)
    #: (timing, import log, whether it ran a command) of CLI or import children
    cli_logs: list = field(default_factory=list)
    _request: Span | None = None

    def call(self, fn_name: str, fn, *args, size: float = 0.0, **kwargs):
        """``fn(*args, **kwargs)``; remembers the layer of a call that raises."""
        start = time.perf_counter() if self.enabled else 0.0
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised_in = FUNCTIONS[fn_name][0]
            raise
        finally:
            if self.enabled:
                end = time.perf_counter()
                req = self._request
                self.spans.append(
                    Span(len(self.spans), req.request, req.id, span_name(fn_name), start, end, size, self.family)
                )

    def begin(self, request: int, timing: Timing | None = None) -> None:
        self.timing = timing
        if self.enabled:
            self._request = Span(len(self.spans), request, None, "bench.request", time.perf_counter(), 0.0)
            self.spans.append(self._request)
            self.request_timing[self._request.id] = timing

    def end(self) -> None:
        if self.enabled:
            self._request.end = time.perf_counter()

    def resize_last(self, size: float) -> None:
        """Set the input size of the latest span, for sizes known only
        from the output."""
        if self.enabled:
            self.spans[-1].size = size

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            total = self.counts.setdefault(name, [0.0, 0])
            total[0] += value
            total[1] += 1

    def cli_sample(self, importtime: str, timing: Timing | None = None, command: bool = True) -> None:
        """Keep one child's ``-X importtime`` log with the timing of the
        child (by default, of the current request) for ``rescale``."""
        self.cli_logs.append((timing or self.timing, importtime, command))

    def rescale(self) -> None:
        """Once the meter has finished: stretch every traced request's spans
        by its reference-speed share, and attribute each CLI child's time
        at reference speed from its import log."""
        scale = {rid: t.ref / t.wall if t is not None and t.wall > 0 else 1.0 for rid, t in self.request_timing.items()}
        requests = {s.id: s for s in self.spans if s.parent is None}
        for s in self.spans:
            r = requests[s.parent if s.parent is not None else s.id]
            f = scale[r.id]
            s.start, s.end = r.start + (s.start - r.start) * f, r.start + (s.end - r.start) * f
        for timing, importtime, command in self.cli_logs:
            f = timing.ref / timing.wall if timing.wall > 0 else 1.0
            times = {name: ms * f for name, ms in import_times(importtime, self.bare_roots).items()}
            rest = timing.ref * 1e3 - self.interp_ms - times["cli.import_ms"]
            times["cli.command_ms"] = max(rest, 0.0) if command else 0.0
            self.cli.append(times)
        self.cli_logs.clear()

    def fail(self, layer: str) -> None:
        self.failed[layer] = self.failed.get(layer, 0) + 1


def import_tree(importtime: str) -> list:
    """Root nodes (name, cumulative us, children) of a ``-X importtime`` log.

    The log lists a module after the modules it imported, two spaces deeper
    per level, so each entry adopts the deeper entries listed just before it.
    """
    pending: list = []  # (level, node)
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2][1:]
        level = (len(label) - len(label.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > level:
            children.append(pending.pop()[1])
        pending.append((level, (label.strip(), int(parts[1]), children[::-1])))
    return [node for _, node in pending]


def _under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _topmost(nodes, package: str, skip: str = "") -> float:
    """Cumulative time of the outermost imports of ``package``, not looking
    inside imports of ``skip``."""
    total = 0.0
    for name, cum, children in nodes:
        if _under(name, package):
            total += cum
        elif not (skip and _under(name, skip)):
            total += _topmost(children, package, skip)
    return total


def import_times(importtime: str, bare_roots: frozenset) -> dict:
    """Import milliseconds beyond the control child's own imports, and the parts spent importing scipy (with the numpy modules
    scipy pulls in) and numpy (outside scipy)."""
    roots = [node for node in import_tree(importtime) if node[0] not in bare_roots]
    return {
        "cli.import_ms": sum(cum for _, cum, _ in roots) / 1e3,
        "cli.import_numpy_ms": _topmost(roots, "numpy", skip="scipy") / 1e3,
        "cli.import_scipy_ms": _topmost(roots, "scipy") / 1e3,
    }


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def slope(points) -> float:
    """Least-squares slope of log(time) against log(size), pooled within
    input families (each family's means removed); 0 when no size varies.

    ``points`` are (family, size, ms) triples."""
    groups: dict = {}
    for family, s, t in points:
        if s > 0 and t > 0:
            groups.setdefault(family, []).append((math.log(s), math.log(t)))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx > 1e-12 else 0.0


def layer_metrics(tracer: Tracer) -> tuple:
    """Per-layer metrics of the traced requests, and whether every request's
    span self times sum to no more than its duration.

    Calls and self times are per request, so they sum (with
    ``bench.request.self_ms``) to the mean traced request duration and do
    not grow with the number of requests a run completes.
    """
    requests = [s for s in tracer.spans if s.parent is None]
    n_req = max(1, len(requests))
    per_fn: dict = {}
    child_ms: dict = {}
    for s in tracer.spans:
        if s.parent is None:
            continue
        ms = (s.end - s.start) * 1e3
        per_fn.setdefault(s.name, []).append((s.family, s.size, ms))
        child_ms[s.parent] = child_ms.get(s.parent, 0.0) + ms
    consistent = True
    glue_ms = 0.0
    for r in requests:
        total = (r.end - r.start) * 1e3
        own = total - child_ms.get(r.id, 0.0)
        consistent = consistent and own >= 0.0
        glue_ms += own
    out = {}
    for fn, (layer, unit) in FUNCTIONS.items():
        calls = per_fn.get(span_name(fn), [])
        self_ms = sum(ms for _, _, ms in calls)
        units = sum(size for _, size, _ in calls)
        out[f"{layer}.{fn}.calls"] = (len(calls) / n_req, "count")
        out[f"{layer}.{fn}.self_ms"] = (self_ms / n_req, "ms")
        out[f"{layer}.{fn}.us_per_unit"] = (self_ms * 1e3 / units if units else 0.0, f"us/{unit}")
        if fn in EXPONENTS:
            out[f"{layer}.{fn}.exponent"] = (slope(calls), "1")
    for layer in LAYERS:
        out[f"{layer}.failed"] = (tracer.failed.get(layer, 0), "count")
    for name in COUNTS:
        total, n = tracer.counts.get(name, (0.0, 0))
        out[name] = (total / n if n else 0.0, "1")
    out["bench.request.self_ms"] = (glue_ms / n_req, "ms")
    out["cli.interp_ms"] = (tracer.interp_ms, "ms")
    for name in CLI[1:]:
        out[name] = (median(sample[name] for sample in tracer.cli), "ms")
    return out, consistent


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, for BENCHMARK.json."""
    metrics, _ = layer_metrics(Tracer(True))
    units = {name: unit for name, (_, unit) in metrics.items()}
    units["bench.trace_overhead_pct"] = "%"
    return units
