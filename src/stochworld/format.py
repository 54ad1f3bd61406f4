"""Every line-oriented text format of the toolkit: models, trajectories,
event streams, characteristic functions and the smaller companions.

The model document::

    model <kind> [<name>]
    obs <sym> ...
    act <sym> ...            # action kinds; "event <sym> ..." for ed
    state <id> [initial] [memory] [trace <obs>=<p|[lo,hi]> ...] [phenomena <name> ...]
    arrow <from> <label> <to> [lp=<p|[lo,hi]>] [ap=<p|[lo,hi]>]
    priority <event> <rank>  # ed only
    # comments and blank lines are ignored

Numbers are decimal with up to 12 significant digits; point intervals print
without brackets.  Serialization is canonical (sorted alphabets, states and
arrows), so serialize . parse . serialize is byte-stable.  Symbols must read
back from a trajectory line, so ``obs``, ``act``, ``t0`` (its header words),
``-`` (no action) and anything starting with ``#`` (a comment) are refused.
"""

from __future__ import annotations

import re
from operator import itemgetter
from pathlib import Path
from typing import List, Optional

# EventSet and CharFn come through the package's exports, imported on first use
import stochworld as sw

from .core import (
    ACTION_KINDS,
    FULL,
    KINDS,
    POINT_ONE,
    SINGLE_LABEL_KINDS,
    TRUE_LABEL,
    Arrow,
    EventStream,
    Model,
    Partition,
    Policy,
    Preference,
    ProbInterval,
    State,
    TraceSpec,
    Trajectory,
    _occurrence,
    canonical,
)
from .errors import FormatError, ModelError
from .validation import structural_problems


def fmt_num(x: float) -> str:
    out = f"{x:.12g}"
    return "0" if out == "-0" else out


def fmt_interval(iv: ProbInterval) -> str:
    if iv.is_point:
        return fmt_num(iv.lo)
    return f"[{fmt_num(iv.lo)},{fmt_num(iv.hi)}]"


def parse_interval(token: str, line: Optional[int] = None) -> ProbInterval:
    """A point ``p`` or an interval ``[lo,hi]``, refused in the toolkit's words."""
    bounds = token[1:-1].split(",") if token.startswith("[") and token.endswith("]") else (token, token)
    fault = "expected [lo,hi]"
    try:
        if len(bounds) == 2:
            return ProbInterval(float(bounds[0]), float(bounds[1]))
    except ValueError:
        fault = "not a number"
    except ModelError as exc:
        fault = exc
    raise FormatError(f"bad probability {token!r} ({fault})", line)


def _interned_interval(token: str, line: int, interned: dict) -> ProbInterval:
    """``parse_interval`` once per distinct token of one document."""
    iv = interned.get(token)
    if iv is None:
        iv = interned[token] = parse_interval(token, line)
    return iv


#: Per kind, the lp of an arrow line without one; mdp-fixed and mdp-plus have none.
_DEFAULT_LP = {"fomm": POINT_ONE, "hmm": POINT_ONE, "mdp": FULL, "smdp": FULL, "ed": FULL}


RESERVED_SYMBOLS = frozenset(("obs", "act", "t0", "-"))


def _check_symbols(symbols, what: str, line: Optional[int] = None) -> None:
    """Refuse symbols that a trajectory line would not read back."""
    for sym in symbols:
        if sym in RESERVED_SYMBOLS or sym.startswith("#") or sym.split() != [sym]:
            raise FormatError(f"{what} {sym!r} is reserved: a trajectory line would not read it back", line)


def _lines(text: str):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield num, line.split()


def parse_model(text: str) -> Model:
    """Parse a model document; structural problems raise, kind violations do not."""
    kind = None
    name = ""
    obs: list = []
    labels: list = []
    states: list = []
    arrows: list = []
    priorities: dict = {}
    intervals: dict = {}  # token -> ProbInterval, shared by equal tokens

    for num, tokens in _lines(text):
        head = tokens[0]
        if head == "model":
            if kind is not None:
                raise FormatError("duplicate model line", num)
            if len(tokens) not in (2, 3):
                raise FormatError("expected: model <kind> [<name>]", num)
            kind = tokens[1]
            if kind not in KINDS:
                raise FormatError(f"unknown kind {kind!r}", num)
            if len(tokens) == 3:
                name = tokens[2]
            continue
        if kind is None:
            raise FormatError("the model line must come first", num)
        if head == "obs":
            _check_symbols(tokens[1:], "observation", num)
            obs.extend(tokens[1:])
        elif head in ("act", "event"):
            expected = "event" if kind == "ed" else "act"
            if kind in SINGLE_LABEL_KINDS:
                raise FormatError(f"{kind} models have no {head} alphabet", num)
            if head != expected:
                raise FormatError(f"{kind} models declare labels with {expected!r}", num)
            _check_symbols(tokens[1:], "label", num)
            labels.extend(tokens[1:])
        elif head == "state":
            states.append(_parse_state(tokens, num, kind, intervals))
        elif head == "arrow":
            arrows.append(_parse_arrow(tokens, num, kind, intervals))
        elif head == "priority":
            if len(tokens) != 3:
                raise FormatError("expected: priority <event> <rank>", num)
            try:
                priorities[tokens[1]] = int(tokens[2])
            except ValueError:
                raise FormatError(f"bad priority rank {tokens[2]!r}", num)
        else:
            raise FormatError(f"unknown directive {head!r}", num)

    if kind is None:
        raise FormatError("missing model line")
    if kind in SINGLE_LABEL_KINDS:
        labels = [TRUE_LABEL]
    elif not labels:
        raise FormatError("missing act/event alphabet")

    model = Model(
        kind=kind,
        obs=tuple(obs),
        labels=tuple(labels),
        states=tuple(states),
        arrows=tuple(arrows),
        priorities=priorities,
        name=name,
    )
    problems = structural_problems(model)
    if problems:
        raise FormatError("; ".join(problems))
    return model


def _parse_state(tokens: list, num: int, kind: str, intervals: dict) -> State:
    if len(tokens) < 2:
        raise FormatError("expected: state <id> ...", num)
    sid = tokens[1]
    initial = False
    memory = False
    probs: dict = {}
    phenomena: list = []
    i = 2
    while i < len(tokens):
        t = tokens[i]
        if t == "initial":
            initial = True
            i += 1
        elif t == "memory":
            memory = True
            i += 1
        elif t == "trace":
            i += 1
            while i < len(tokens) and "=" in tokens[i]:
                o, _, val = tokens[i].partition("=")
                if o in probs:
                    raise FormatError(f"duplicate trace entry for {o!r}", num)
                probs[o] = _interned_interval(val, num, intervals)
                i += 1
        elif t == "phenomena":
            phenomena = tokens[i + 1 :]
            i = len(tokens)
        else:
            raise FormatError(f"unexpected token {t!r} in state line", num)
    if kind == "fomm" and not probs:  # a fomm state observes its own symbol
        probs = {sid: POINT_ONE}
    return State(sid, initial, TraceSpec(probs, memory, tuple(phenomena)))


def _parse_arrow(tokens: list, num: int, kind: str, intervals: dict) -> Arrow:
    if len(tokens) < 4:
        raise FormatError("expected: arrow <from> <label> <to> ...", num)
    src, label, dst = tokens[1], tokens[2], tokens[3]
    lp = _DEFAULT_LP.get(kind)
    ap = FULL if kind == "smdp" else POINT_ONE
    for t in tokens[4:]:
        key, _, val = t.partition("=")
        if key == "lp":
            lp = _interned_interval(val, num, intervals)
        elif key == "ap":
            ap = _interned_interval(val, num, intervals)
        else:
            raise FormatError(f"unexpected token {t!r} in arrow line", num)
    if lp is None:
        raise FormatError(f"{kind} arrows must declare lp=<interval>", num)
    return Arrow(src, label, dst, lp, ap)


def serialize_model(model: Model) -> str:
    """Canonical text form; round-trips through parse_model."""
    m = canonical(model)
    texts: dict = {}  # (lo, hi) -> text; keyed on the bounds, which hash faster than the interval

    def text(iv: ProbInterval) -> str:
        key = (iv.lo, iv.hi)
        return texts.get(key) or texts.setdefault(key, fmt_interval(iv))

    lines = [f"model {m.kind} {m.name}".rstrip()]
    lines.append("obs " + " ".join(m.obs))
    if m.kind == "ed":
        lines.append("event " + " ".join(m.labels))
    elif m.kind in ACTION_KINDS:
        lines.append("act " + " ".join(m.labels))
    for s in m.states:
        parts = ["state", s.id]
        if s.initial:
            parts.append("initial")
        if s.trace.memory:
            parts.append("memory")
        if s.trace.probs:
            parts.append("trace")
            parts.extend(f"{o}={text(iv)}" for o, iv in sorted(s.trace.probs.items()))
        if s.trace.phenomena:
            parts.append("phenomena")
            parts.extend(sorted(s.trace.phenomena))
        lines.append(" ".join(parts))
    for a in m.arrows:
        lines.append(f"arrow {a.source} {a.label} {a.target} lp={text(a.label_prob)} ap={text(a.arrow_prob)}")
    for e, rank in m.priorities.items():
        lines.append(f"priority {e} {rank}")
    return "\n".join(lines) + "\n"


# -- trajectories ------------------------------------------------------------


def parse_trajectory(text: str, model: Optional[Model] = None) -> Trajectory:
    """Parse a trajectory document.

    Symbols are checked against the model (or inline obs/act headers) when
    either is given; bare documents declare their symbols by use.  A missing
    t0 header defaults to the end: all recorded data is past.  Headers come
    before the first step, so a step line means the same at every repeat:
    each distinct line is split and checked once.  A symbol that
    ``serialize_trajectory`` would refuse is refused here too.
    """
    obs: list = []
    acts: list = []
    seen: dict = {}  # raw step line -> (observation, action)
    t0 = None
    obs_alpha = set(model.obs) if model else None
    act_alpha = set(model.labels) if model else None

    for num, raw in enumerate(text.splitlines(), start=1):
        step = seen.get(raw)
        if step is not None:
            obs.append(step[0])
            acts.append(step[1])
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("t0", "obs", "act"):
            if obs:
                raise FormatError(f"{head} header after the first step", num)
            if head == "obs":
                obs_alpha = (obs_alpha or set()) | set(tokens[1:])
            elif head == "act":
                act_alpha = (act_alpha or set()) | set(tokens[1:])
            elif len(tokens) != 2:
                raise FormatError("expected: t0 <index>", num)
            else:
                try:
                    t0 = int(tokens[1])
                except ValueError:
                    raise FormatError(f"bad t0 {tokens[1]!r}", num)
            continue
        if len(tokens) > 2:
            raise FormatError("expected: <obs> [<act>|-]", num)
        a = tokens[1] if len(tokens) == 2 else "-"
        if obs_alpha is not None and head not in obs_alpha:
            raise FormatError(f"unknown observation {head!r}", num)
        act = None if a == "-" else a
        if act is not None and act_alpha is not None and act not in act_alpha:
            raise FormatError(f"unknown action {a!r}", num)
        _check_symbols((head,), "observation", num)
        _check_symbols({act} - {None}, "action", num)
        seen[raw] = (head, act)
        obs.append(head)
        acts.append(act)

    if t0 is None:
        t0 = len(obs)
    if not 0 <= t0 <= len(obs):
        raise FormatError(f"t0 = {t0} outside [0, {len(obs)}]")
    return Trajectory(obs, acts, t0)


def serialize_trajectory(trajectory: Trajectory) -> str:
    """Text form; refuses symbols that would not parse back."""
    _check_symbols(set(trajectory.obs), "observation")
    _check_symbols(set(trajectory.acts) - {None}, "action")
    lines = [f"t0 {trajectory.t0}"]
    for o, a in zip(trajectory.obs, trajectory.acts):
        lines.append(f"{o} {a if a is not None else '-'}")
    return "\n".join(lines) + "\n"


# -- graphviz ----------------------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(model: Model) -> str:
    """Render the model as a Graphviz digraph, one edge colour per label."""
    m = canonical(model)
    colour = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(m.labels)}
    initial = {s.id for s in m.states if s.initial}
    lines = ["digraph model {", "  rankdir=LR;"]
    for s in m.states:
        shape = ", peripheries=2" if s.id in initial else ""
        lines.append(f"  {_quote(s.id)} [shape=circle{shape}];")
    for a in m.arrows:
        text = f"{a.label} {fmt_interval(a.label_prob)} {fmt_interval(a.arrow_prob)}"
        lines.append(
            f"  {_quote(a.source)} -> {_quote(a.target)} "
            f"[label={_quote(text)}, color={_quote(colour[a.label])}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- companion file formats ----------------------------------------------------


def parse_partition(text: str, model: Optional[Model] = None) -> Partition:
    """One line per class, state ids whitespace-separated."""
    classes = [frozenset(tokens) for _, tokens in _lines(text)]
    partition = Partition(tuple(classes))
    if model is not None:
        partition.check(model)
    return partition


def serialize_partition(partition: Partition) -> str:
    lines = [" ".join(sorted(c)) for c in partition.classes]
    return "\n".join(sorted(lines)) + "\n"


def parse_preference(text: str) -> Preference:
    """Lines of the form: state <id>: a1 > a2 > a3"""
    order: dict = {}
    for num, tokens in _lines(text):
        head, colon, rest = " ".join(tokens).partition(":")
        words = head.split()
        if not colon or len(words) != 2 or words[0] != "state":
            raise FormatError("expected: state <id>: a1 > a2 > ...", num)
        sid = words[1]
        ranked = tuple(t.strip() for t in rest.split(">") if t.strip())
        if not ranked:
            raise FormatError(f"no actions ranked for state {sid}", num)
        order[sid] = ranked
    return Preference(order)


def parse_policy(text: str) -> Policy:
    """Lines of the form: <state> <action> <probability>"""
    probs: dict = {}
    for num, tokens in _lines(text):
        if len(tokens) != 3:
            raise FormatError("expected: <state> <action> <probability>", num)
        try:
            probs[(tokens[0], tokens[1])] = float(tokens[2])
        except ValueError:
            raise FormatError(f"bad probability {tokens[2]!r}", num)
    return Policy(probs)


def serialize_policy(policy: Policy) -> str:
    lines = [f"{s} {a} {fmt_num(p)}" for (s, a), p in sorted(policy.probs.items())]
    return "\n".join(lines) + "\n"


def parse_event_arrows(text: str, model: Model, name: str = "event") -> sw.EventSet:
    """Arrow triples `<from> <label> <to>`, resolved against the model."""
    by_key = {a.key: a for a in model.arrows}
    picked = []
    for num, tokens in _lines(text):
        if len(tokens) != 3:
            raise FormatError("expected: <from> <label> <to>", num)
        key = (tokens[0], tokens[1], tokens[2])
        if key not in by_key:
            raise FormatError(f"no arrow {' '.join(key)} in the model", num)
        picked.append(by_key[key])
    return sw.EventSet(name, frozenset(picked))


# -- event-runtime formats -------------------------------------------------------


def parse_charfns(text: str, base_dir=None) -> List[sw.CharFn]:
    """Characteristic function documents::

        charfn <name> action=<a>
        charfn <name> obs=<o>
        charfn <name> pattern [past=<regex>] [future=<regex>] [plen=<n>] [flen=<n>]
        charfn <name> table <file>
        charfn <name> table plen=<n> flen=<n>
        row <past-csv|-> <future-csv|-> <p|[lo,hi]>   # rows attach to the table above

    Pattern regexes match the comma-joined observation word of the window.
    Table rows live inline or in a referenced file of the same row syntax
    (resolved against ``base_dir``); window lengths default to the longest row.
    A window length must be an integer of 0 or more, and a regex must compile.
    """
    fns: list = []
    pending_table: Optional[dict] = None

    def length(token, value, num):
        try:
            n = int(value)
        except ValueError:
            n = -1
        if n < 0:
            raise FormatError(f"window length must be an integer of 0 or more: {token!r}", num)
        return n

    def regex(token, value, num):
        try:
            re.compile(value)
        except re.error:
            raise FormatError(f"bad regex {token!r}: does not compile", num)
        return value

    def parse_row(tokens, num):
        if len(tokens) != 3:
            raise FormatError("expected: <past-csv|-> <future-csv|-> <interval>", num)
        past = tuple(tokens[0].split(",")) if tokens[0] != "-" else ()
        future = tuple(tokens[1].split(",")) if tokens[1] != "-" else ()
        return (past, future), parse_interval(tokens[2], num)

    def flush():
        nonlocal pending_table
        if pending_table is not None:
            rows = pending_table["rows"]
            plen = pending_table["plen"] or max((len(p) for p, _ in rows), default=0)
            flen = pending_table["flen"] or max((len(f) for _, f in rows), default=0)
            fns.append(sw.CharFn(pending_table["name"], "table", plen, flen, table=rows))
            pending_table = None

    for num, tokens in _lines(text):
        if tokens[0] == "row":
            if pending_table is None:
                raise FormatError("row outside a table charfn", num)
            key, value = parse_row(tokens[1:], num)
            pending_table["rows"][key] = value
            continue
        flush()
        if tokens[0] != "charfn" or len(tokens) < 3:
            raise FormatError("expected: charfn <name> <spec>", num)
        name = tokens[1]
        spec = tokens[2]
        if spec.startswith("action="):
            fns.append(sw.CharFn(name, "action-match", 0, 1, action=spec[len("action=") :]))
        elif spec.startswith("obs="):
            fns.append(sw.CharFn(name, "obs-match", 0, 1, obs=spec[len("obs=") :]))
        elif spec == "pattern":
            past = future = None
            plen, flen = 0, 1
            for t in tokens[3:]:
                key, _, val = t.partition("=")
                if key == "past":
                    past = regex(t, val, num)
                elif key == "future":
                    future = regex(t, val, num)
                elif key == "plen":
                    plen = length(t, val, num)
                elif key == "flen":
                    flen = length(t, val, num)
                else:
                    raise FormatError(f"unexpected token {t!r}", num)
            if past is None and future is None:
                raise FormatError("pattern needs past= or future=", num)
            fns.append(sw.CharFn(name, "pattern", plen, flen, past_pattern=past, future_pattern=future))
        elif spec == "table":
            pending_table = {"name": name, "plen": 0, "flen": 0, "rows": {}}
            for t in tokens[3:]:
                key, _, val = t.partition("=")
                if key == "plen":
                    pending_table["plen"] = length(t, val, num)
                elif key == "flen":
                    pending_table["flen"] = length(t, val, num)
                elif not val:  # a bare token names the row file
                    path = Path(base_dir) / t if base_dir else Path(t)
                    for rnum, rtokens in _lines(path.read_text()):
                        rkey, rvalue = parse_row(rtokens, rnum)
                        pending_table["rows"][rkey] = rvalue
                else:
                    raise FormatError(f"unexpected token {t!r}", num)
        else:
            raise FormatError(f"unknown charfn spec {spec!r}", num)
    flush()
    return fns


def parse_event_stream(text: str) -> EventStream:
    """Lines of the form `<time> <label> <interval> [<provenance>]`.  Each
    distinct interval token is parsed once."""
    occurrences = []
    intervals: dict = {}
    for num, tokens in _lines(text):
        if len(tokens) not in (3, 4):
            raise FormatError("expected: <time> <label> <interval> [<provenance>]", num)
        try:
            time = int(tokens[0])
        except ValueError:
            raise FormatError(f"bad time {tokens[0]!r}", num)
        provenance = tokens[3] if len(tokens) == 4 else "direct"
        occurrences.append(_occurrence((time, tokens[1], _interned_interval(tokens[2], num, intervals), provenance)))
    occurrences.sort(key=itemgetter(0))
    return EventStream(tuple(occurrences))


def serialize_event_stream(stream: EventStream) -> str:
    """One line per occurrence; each distinct interval is formatted once."""
    lines = []
    intervals: dict = {}
    for o in stream.occurrences:
        iv = intervals.get(o.confidence)
        if iv is None:
            iv = intervals[o.confidence] = f"[{fmt_num(o.confidence.lo)},{fmt_num(o.confidence.hi)}]"
        lines.append(f"{o.time} {o.label} {iv} {o.provenance}")
    return "\n".join(lines) + "\n"
