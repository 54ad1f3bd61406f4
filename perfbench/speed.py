"""Request time at the host's reference speed.

The benchmark's host is shared.  At random, for a fraction of a second or
for minutes, every process of this machine runs about twice as slow as at
other times, and the guest sees no steal time that would account for it.
Wall time then measures the neighbours as much as the program.

So the runner times a fixed piece of pure-Python work, the *reference
slice*, every ``EVERY_S`` seconds while a request runs and between
requests, and scales each stretch of request time between two slices by
``NOMINAL_S / (mean of the two slices)``.  That is the stretch's time on a
machine where the slice takes ``NOMINAL_S``: the time at reference speed.
The slice does not call the library, so no change to the program moves it,
and slices run outside every timed stretch, so they add nothing to a
request's time.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from pathlib import Path

#: Seconds between reference slices.
EVERY_S = 0.05
#: Seconds one reference slice takes at reference speed: the fast mode of
#: its times on a 2-core Xeon virtual machine.
NOMINAL_S = 0.0021


def reference_slice() -> float:
    """Small-dict updates, float arithmetic, tuple and string building: the
    kinds of work the library does per step.  Returns a value so the loop
    cannot be skipped."""
    counts: dict = {}
    belief = {f"q{i}": 1.0 / 6 for i in range(6)}
    recent: list = []
    acc = 0.0
    for i in range(2500):
        k = i % 97
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) / (k + 1)
        recent.append((k, f"o{k}"))
        if len(recent) > 64:
            recent.clear()
        if i % 10 == 0:
            new = {s: p * (0.5 if (i + len(s)) % 2 else 0.25) for s, p in belief.items()}
            z = sum(new.values())
            belief = {s: p / z for s, p in new.items()}
    return acc + belief["q0"]


@dataclass
class Timing:
    """Wall seconds and seconds at reference speed of one timed thing.

    ``inner`` is the (wall, ref, slices) a metered child measured inside
    itself, ``slices`` being the seconds its own reference slices took; the
    rest of the child's wall time is scaled by the slices around it."""

    wall: float = 0.0
    ref: float = 0.0
    inner: tuple | None = None


class Meter:
    """Times stretches of work into ``Timing``s, with reference slices
    between them.

    ``begin(timing)`` starts timing and ``end()`` stops it.  With
    ``sampled``, an interval timer also interrupts the timed work every
    ``EVERY_S`` seconds, and its handler closes the current stretch, runs a
    slice and opens the next; Python runs the handler between two bytecodes
    of the main thread, so slices land inside long library calls too.  After
    ``end()`` a slice runs when ``EVERY_S`` has passed since the last one.
    A stretch is scaled once the slice after it has run, so ``finish()``
    runs a last slice before the ``ref`` fields are read.
    """

    def __init__(self):
        self.slices: list = []
        self.pending: list = []  # (timing, wall seconds) awaiting the next slice
        self.timing: Timing | None = None
        self.sampled = False
        self.mark = 0.0
        self.last_slice = 0.0
        # the handler does nothing while a method below updates the state
        self.busy = False
        signal.signal(signal.SIGALRM, self._tick)
        self._slice()

    def _slice(self) -> None:
        start = time.perf_counter()
        reference_slice()
        spent = time.perf_counter() - start
        if self.pending:
            scale = NOMINAL_S / ((self.slices[-1] + spent) / 2)
            for timing, wall in self.pending:
                if timing.inner is not None:
                    inner_wall, inner_ref, inner_slices = timing.inner
                    timing.ref += inner_ref + max(0.0, wall - inner_wall - inner_slices) * scale
                    timing.inner = None
                else:
                    timing.ref += wall * scale
            self.pending.clear()
        self.slices.append(spent)
        self.last_slice = time.perf_counter()

    def _close(self, now: float) -> None:
        wall = now - self.mark
        self.timing.wall += wall
        self.pending.append((self.timing, wall))

    def _tick(self, signum, frame) -> None:
        if self.busy or self.timing is None:
            return
        self.busy = True
        self._close(time.perf_counter())
        self._slice()
        self.mark = time.perf_counter()
        self.busy = False

    def begin(self, timing: Timing, sampled: bool = False) -> None:
        self.busy = True
        self.timing, self.sampled = timing, sampled
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.mark = time.perf_counter()
        self.busy = False

    def end(self) -> None:
        self.busy = True
        now = time.perf_counter()
        if self.sampled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close(now)
        self.timing = None
        if time.perf_counter() - self.last_slice >= EVERY_S:
            self._slice()
        self.busy = False

    def finish(self) -> None:
        """Scales every closed stretch."""
        if self.pending:
            self._slice()


# -- metered children -----------------------------------------------------------------

#: Start of the line on which a metered child reports its own timing.
MARKER = "perfbench-speed:"
#: A child that meters itself: it imports this module, starts a sampled
#: meter, then imports a module (``import``) or runs it as ``__main__`` with
#: arguments (``run``, as ``python -m`` does), and reports at exit.
CHILD = r"""
import atexit, sys
sys.path.insert(0, sys.argv[1])
import speed
meter, timing = speed.Meter(), speed.Timing()
def report():
    meter.end()
    meter.finish()
    sys.stderr.write("%s %r %r %r\n" % (speed.MARKER, timing.wall, timing.ref, sum(meter.slices)))
atexit.register(report)
how, name, args = sys.argv[2], sys.argv[3], sys.argv[4:]
meter.begin(timing, sampled=True)
if how == "import":
    __import__(name)
else:
    import runpy
    sys.argv = [name] + args
    runpy.run_module(name, run_name="__main__", alter_sys=True)
"""


def child_argv(python: str, how: str, module: str, args=(), importtime: bool = False) -> list:
    """argv of a child that meters itself; see ``CHILD``."""
    flags = ["-X", "importtime"] if importtime else []
    here = str(Path(__file__).resolve().parent)
    return [python, *flags, "-c", CHILD, here, how, module, *args]


def child_report(stderr: str) -> tuple:
    """(the child's (wall, ref, slices) or None, its stderr without the
    report)."""
    inner, rest = None, []
    for line in stderr.splitlines(keepends=True):
        if line.startswith(MARKER):
            inner = tuple(float(x) for x in line.split()[1:])
        else:
            rest.append(line)
    return inner, "".join(rest)
