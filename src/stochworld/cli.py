"""Command-line interface.

Every subcommand reads and writes the toolkit's text formats, so commands
compose through files or pipes: simulate feeds estimate and detect, detect
feeds track, invert feeds future.  Exit status 0 is success, 1 a
precondition or validation failure (with a machine-readable
``error: <code>: <detail>`` line on stderr), 2 a usage error.  Stochastic
commands never run without an explicit seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

# library calls go through the package's exports, which import a module on
# first use: each command loads only the modules it computes with, numpy too
import stochworld as sw

from . import format as fmt
from .core import ACTION_KINDS
from .errors import ModelError, ToolkitError


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_model(path: str):
    """Parse a model and refuse it unless it satisfies its kind."""
    model = fmt.parse_model(_read(path))
    violations = sw.validate(model).violations
    if violations:
        raise ModelError(violations[0])
    return model


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _at_least(low: int):
    """argparse type of an integer, a count or a seed, of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid count
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _render_future(fs) -> str:
    lines = []
    for dev in sorted(fs.entries):
        lines.append(f"{dev.render()} {fmt.fmt_interval(fs.entries[dev])}")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    model = fmt.parse_model(_read(args.model))
    report = sw.validate(model)
    for line in report.warnings:
        print(f"warning: {line}")
    if report.ok:
        print("ok")
        return 0
    for line in report.violations:
        print(f"violation: {line}")
    print("error: validation: model does not satisfy its kind", file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    model = _load_model(args.model)
    report = sw.analyze(model)
    print("white-peak:" + "".join(f" {s}" for s in sorted(report.white_peak)))
    print("black-hole:" + "".join(f" {s}" for s in sorted(report.black_hole)))
    print("redundant:" + "".join(f" {s}" for s in sorted(report.redundant)))
    print(f"memory-bits: {sw.memory_bits(model)}")
    return 0


def cmd_invert(args) -> int:
    model = _load_model(args.model)
    if args.mode in ("mc", "plus-mc") and args.seed is None:
        return _usage_error(f"--mode {args.mode} needs --seed")
    policy = fmt.parse_policy(_read(args.policy)) if args.policy else None
    if args.mode == "analytic":
        if model.single_label and model.kind not in ACTION_KINDS:
            inverse = sw.invert_chain(model)
        else:
            inverse = sw.invert_mdp_fixed(model, policy)
    elif args.mode == "mc":
        inverse = sw.monte_carlo_invert(model, args.journeys, args.seed)
    elif args.mode == "plus-vertex":
        inverse = sw.invert_mdp_plus(model, "vertex", args.budget)
    else:  # plus-mc
        inverse = sw.invert_mdp_plus(model, "monte-carlo", args.budget, args.seed)
    _write(fmt.serialize_model(inverse), args.output)
    return 0


def cmd_double(args) -> int:
    model = _load_model(args.model)
    event = fmt.parse_event_arrows(_read(args.arrows), model, args.event)
    if args.mode == "fact":
        doubled, fact = sw.event_to_fact(model, event)
        print(f"fact {fact.name}: " + " ".join(sorted(fact.states)), file=sys.stderr)
    else:
        doubled = sw.parity_model(model, event)
    _write(fmt.serialize_model(doubled), args.output)
    return 0


def cmd_quotient(args) -> int:
    model = _load_model(args.model)
    partition = fmt.parse_partition(_read(args.classes), model)
    monitored = []
    for label in args.monitor_label or ():
        arrows = frozenset(a for a in model.arrows if a.label == label)
        monitored.append(sw.EventSet(label, arrows))
    for spec in args.monitor or ():
        name, _, path = spec.partition("=")
        if not path:
            return _usage_error("--monitor needs <name>=<arrow-file>")
        monitored.append(fmt.parse_event_arrows(_read(path), model, name))
    reduced = sw.quotient(model, partition, monitored)
    _write(fmt.serialize_model(reduced), args.output)
    return 0


def cmd_minimize(args) -> int:
    model = _load_model(args.model)
    if args.determinize is not None:
        model = sw.belief_determinize(model, args.determinize)
    reduced, partition = sw.minimize_forward(model)
    if args.partition_out:
        _write(fmt.serialize_partition(partition), args.partition_out)
    _write(fmt.serialize_model(reduced), args.output)
    return 0


def cmd_minimal(args) -> int:
    model = _load_model(args.model)
    joined = sw.minimal_model(model, args.depth)
    _write(fmt.serialize_model(joined), args.output)
    return 0


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    policy = fmt.parse_policy(_read(args.policy)) if args.policy else None
    preference = fmt.parse_preference(_read(args.preference)) if args.preference else None
    config = sw.SimulationConfig(
        steps=args.steps,
        seed=args.seed,
        policy=policy,
        preference=preference,
        collision=args.collision,
    )
    trajectory = sw.simulate(model, config)
    _write(fmt.serialize_trajectory(trajectory), args.output)
    return 0


def cmd_future(args) -> int:
    model = _load_model(args.model)
    policy = fmt.parse_policy(_read(args.policy)) if args.policy else None
    fs = sw.enumerate_future(model, args.depth, policy)
    _write(_render_future(fs), args.output)
    return 0


def cmd_past(args) -> int:
    model = _load_model(args.model)
    fs = sw.enumerate_past(model, args.depth)
    _write(_render_future(fs), args.output)
    return 0


def cmd_estimate(args) -> int:
    trajectory = fmt.parse_trajectory(_read(args.trajectory))
    model = sw.estimate_fomm(trajectory)
    _write(fmt.serialize_model(model), args.output)
    return 0


def cmd_markov_check(args) -> int:
    trajectory = fmt.parse_trajectory(_read(args.trajectory))
    report = sw.check_markov(trajectory, args.order, args.significance, args.min_count)
    if report.inconclusive:
        print("inconclusive")
        return 0
    for t in report.tests:
        if t.p_value is None:
            print(f"symbol {t.symbol}: skipped ({t.contexts_skipped} thin contexts)")
        else:
            verdict = "improvable" if t.flagged else "ok"
            print(f"symbol {t.symbol}: p={t.p_value:.6g} {verdict}")
    return 0


def cmd_policy_from_preference(args) -> int:
    model = _load_model(args.model)
    preference = fmt.parse_preference(_read(args.preference))
    policy = sw.preference_to_policy(model, preference)
    if policy.adjusted:
        print("adjusted: " + " ".join(sorted(policy.adjusted)), file=sys.stderr)
    _write(fmt.serialize_policy(policy), args.output)
    return 0


def cmd_detect(args) -> int:
    trajectory = fmt.parse_trajectory(_read(args.trajectory))
    if args.direct is not None:
        base = None if args.direct == "-" else Path(args.direct).parent
        fns = fmt.parse_charfns(_read(args.direct), base_dir=base)
        stream = sw.detect_direct(trajectory, fns, args.threshold)
    else:
        stream, segments = sw.detect_indirect(trajectory, args.indirect, args.threshold)
        for start, end in segments:
            print(f"segment {start} {end}", file=sys.stderr)
    _write(fmt.serialize_event_stream(stream), args.output)
    return 0


def cmd_track(args) -> int:
    model = _load_model(args.model)
    trajectory = fmt.parse_trajectory(_read(args.trajectory))
    stream = fmt.parse_event_stream(_read(args.events))
    result = sw.track(model, trajectory, stream, collision=args.collision)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    lines = []
    final = result.final_belief
    for sid in sorted(final.probs):
        lines.append(f"belief {sid} {fmt.fmt_num(final.probs[sid])}")
    for sid in sorted(result.memory):
        lines.append(f"memory {sid} {result.memory[sid]}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_export_dot(args) -> int:
    model = _load_model(args.model)
    _write(fmt.export_dot(model), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochworld",
        description="World-model toolkit: validate, invert, transform, simulate and track stochastic state machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def out(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = add("validate", cmd_validate, help="check a model against its kind")
    p.add_argument("model")

    p = add("analyze", cmd_analyze, help="white peaks, black holes, redundant states")
    p.add_argument("model")

    p = add("invert", cmd_invert, help="build the inverse model that predicts the past")
    p.add_argument("model")
    p.add_argument("--mode", choices=("analytic", "mc", "plus-vertex", "plus-mc"), default="analytic")
    p.add_argument("--journeys", type=_at_least(1), default=100_000)
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--budget", type=_at_least(0), default=10_000)
    p.add_argument("--policy", default=None, help="policy file for decision processes")
    out(p)

    p = add("double", cmd_double, help="fact or parity doubling construction")
    p.add_argument("model")
    p.add_argument("--mode", choices=("fact", "parity"), required=True)
    p.add_argument("--event", required=True, help="name for the event")
    p.add_argument("--arrows", required=True, help="file of `<from> <label> <to>` lines")
    out(p)

    p = add("quotient", cmd_quotient, help="quotient the model into an event-driven one")
    p.add_argument("model")
    p.add_argument("--classes", required=True, help="partition file, one class per line")
    p.add_argument("--monitor-label", action="append", help="monitor all arrows with this label")
    p.add_argument("--monitor", action="append", help="<name>=<arrow-file> monitored event")
    out(p)

    p = add("minimize", cmd_minimize, help="merge states whose futures coincide")
    p.add_argument("model")
    p.add_argument("--determinize", type=_at_least(0), default=None, metavar="DEPTH",
                   help="belief-determinize first, to this depth")
    p.add_argument("--partition-out", default=None)
    out(p)

    p = add("minimal", cmd_minimal, help="joined forward/backward minimal model")
    p.add_argument("model")
    p.add_argument("--depth", type=_at_least(1), required=True)
    out(p)

    p = add("simulate", cmd_simulate, help="walk the generator and record a trajectory")
    p.add_argument("model")
    p.add_argument("--steps", type=_at_least(0), required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--policy", default=None)
    p.add_argument("--preference", default=None)
    p.add_argument("--collision", choices=("priority", "both-arrows"), default="priority")
    out(p)

    p = add("future", cmd_future, help="truncated description of the future")
    p.add_argument("model")
    p.add_argument("--depth", type=_at_least(0), required=True)
    p.add_argument("--policy", default=None)
    out(p)

    p = add("past", cmd_past, help="truncated description of the past (via the inverse)")
    p.add_argument("model")
    p.add_argument("--depth", type=_at_least(0), required=True)
    out(p)

    p = add("estimate", cmd_estimate, help="standard chain estimated from a trajectory")
    p.add_argument("trajectory")
    out(p)

    p = add("markov-check", cmd_markov_check, help="does longer history improve prediction?")
    p.add_argument("trajectory")
    p.add_argument("--order", type=_at_least(1), default=1)
    p.add_argument("--significance", type=float, default=0.01)
    p.add_argument("--min-count", type=_at_least(0), default=50)

    p = add("policy-from-preference", cmd_policy_from_preference, help="Royal preference policy")
    p.add_argument("model")
    p.add_argument("--preference", required=True)
    out(p)

    p = add("detect", cmd_detect, help="detect events directly or indirectly")
    p.add_argument("trajectory")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--direct", help="characteristic function file")
    how.add_argument("--indirect", type=_at_least(1), metavar="WINDOW", help="segment over windows of this many steps")
    p.add_argument("--threshold", type=float, default=0.5)
    out(p)

    p = add("track", cmd_track, help="track an event-driven model over a trajectory")
    p.add_argument("trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--collision", choices=("priority", "both-arrows"), default=None)
    out(p)

    p = add("export-dot", cmd_export_dot, help="Graphviz rendering of a model")
    p.add_argument("model")
    out(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc.code}: {exc.detail}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
