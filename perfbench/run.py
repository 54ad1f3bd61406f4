"""Benchmark runner for stochworld.

Run from the repository root:

    python3 perfbench/run.py --workload model-batch --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --write-goldens         # re-pin exact answers at the default seed

Each workload is a closed loop with one client.  Set-up (importing the
library in a fresh interpreter, generating the seeded inputs, one warm-up
request) is repeated and timed on its own.  The timed phase then repeats
whole rounds of requests for about ``--seconds``.  Every request's output
is checked after its clock stops; a wrong output or an unexpected error
counts as a failed request.  Times are reported at reference speed (see
``speed.py``); the wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics of the traced
rounds and the tracing overhead, and writes every span to
``.perfbench-out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads
from spans import Tracer, import_tree, layer_metrics, median
from speed import NOMINAL_S, Meter, Timing

HERE = Path(__file__).resolve().parent

WORKLOADS = ("cli-tiny", "event-log", "model-large", "model-batch")
#: Tail percentile per workload, fixed so that a faster program, which
#: completes more requests, is not read at a higher percentile.  With 20
#: requests or fewer no percentile above the median has ten beyond it, so
#: the tail is the nearest-rank median.  On model-batch p99 would have ten
#: to twenty requests beyond it, and its spread over seeds came from one-off
#: stalls of single 15-ms requests; p95 has about a hundred beyond it.
TAIL_PCT = {"cli-tiny": 50.0, "event-log": 50.0, "model-large": 50.0, "model-batch": 95.0}
SETUP_REPEATS = 3
DEFAULT_SEED = 1
GOLDENS = HERE / "goldens.json"
OUT_DIR = ".perfbench-out"
WORK_DIR = ".perfbench-work"


def cap_blas_threads() -> None:
    """Cap BLAS threads of this process and its children at the core count,
    before numpy is imported.  numpy's OpenBLAS would otherwise start one
    thread per core it was built for (up to 64)."""
    nproc = os.cpu_count() or 1
    threads = min(nproc, int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def timed_child(module: str, importtime: bool, env, meter: Meter, timing: Timing) -> str:
    """Imports ``module`` in a metered child, timed into ``timing``; the
    child's stderr."""
    argv = speed.child_argv(sys.executable, "import", module, importtime=importtime)
    meter.begin(timing)
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT)
    inner, log = speed.child_report(proc.stderr)
    timing.inner = inner
    meter.end()
    if proc.returncode != 0 or inner is None:
        raise RuntimeError(f"importing {module} in a child exited {proc.returncode}: {log[-300:]}")
    return log


class Run:
    """One workload at one seed: set-up, rounds, checks and metrics."""

    def __init__(self, name: str, seed: int, root: Path, trace: bool):
        import stochworld

        self.sw = stochworld
        self.name, self.seed, self.root, self.trace = name, seed, root, trace
        self.env = child_env(root)
        self.workdir = root / WORK_DIR / f"{name}-{os.getpid()}"
        if name == "cli-tiny":
            self.workload = workloads.CliTiny(root, self.workdir, self.env)
        else:
            self.workload = {"event-log": workloads.EventLog, "model-large": workloads.ModelLarge, "model-batch": workloads.ModelBatch}[name]()
        self.goldens = {}
        if seed == DEFAULT_SEED and GOLDENS.is_file():
            self.goldens = json.loads(GOLDENS.read_text()).get(name, {})
        self.meter = Meter()
        self.untraced = Tracer(False)
        self.tracer = Tracer(True)
        self.failures: list = []
        self.attempted = 0

    def remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:  # another run still uses it, or it was never made
            pass

    # -- one request ------------------------------------------------------------

    def request(self, tr: Tracer, index: int, item, rid: int) -> tuple:
        """(timing, work units, golden digest or None); failures are
        recorded, and a failed request does no work.  The timing's
        reference-speed figure is known once the meter has finished."""
        out = workloads.Outcome()
        tr.raised_in = ""
        timing = Timing()
        # every request starts with empty collector generations, so the
        # collections it triggers depend on its own allocations only
        gc.collect()
        tr.begin(rid, timing)
        # slices inside a traced request would count as its glue time
        self.meter.begin(timing, sampled=self.workload.in_process and not tr.enabled)
        error = None
        units = 0.0
        try:
            units = self.workload.request(tr, self.sw, item, out)
        except checks.Mismatch as exc:
            error = (exc.layer, str(exc))
        except Exception as exc:  # a library error fails the request, the run goes on
            error = (tr.raised_in or "bench", f"{type(exc).__name__}: {exc}")
        tr.end()
        self.meter.end()
        digest = None
        if error is None:
            try:
                for fn, args in out.checks:
                    fn(*args)
                if out.golden:
                    text = "\n".join(fn(*args) for fn, args in out.golden)
                    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                    want = self.goldens.get(str(index))
                    checks.require(want is None or want == digest, "bench", f"golden mismatch on request {index}")
            except checks.Mismatch as exc:
                error = (exc.layer, str(exc))
            except Exception as exc:  # a crashing check is a wrong answer too
                error = ("bench", f"check raised {type(exc).__name__}: {exc}")
        self.attempted += 1
        if error is not None:
            self.tracer.fail(error[0])
            self.failures.append(f"{self.name} seed {self.seed} request {index}: {error[1]}")
            units = 0.0
        return timing, units, digest

    # -- set-up -----------------------------------------------------------------

    def setup_once(self) -> tuple:
        """(items, timings of the set-up's parts)."""
        parts = []
        if self.workload.in_process:
            parts.append(Timing())
            log = timed_child("stochworld", self.trace, self.env, self.meter, parts[-1])
            if self.trace:
                self.tracer.cli_sample(log, parts[-1], command=False)
        parts.append(Timing())
        self.meter.begin(parts[-1])
        items = self.workload.round(self.seed)
        self.meter.end()
        parts.append(self.request(self.untraced, 0, items[0], -1)[0])
        return items, parts

    def setup(self) -> tuple:
        """(items, parts of each set-up, timings of bare interpreters)."""
        bare = []
        if self.trace:
            bare = [Timing() for _ in range(3)]
            # a metered child that imports nothing new: the control
            for timing in bare:
                timed_child("site", False, self.env, self.meter, timing)
            log = timed_child("site", True, self.env, self.meter, Timing())
            self.tracer.bare_roots = frozenset(name for name, _, _ in import_tree(log))
        setups = []
        for _ in range(SETUP_REPEATS):
            items, parts = self.setup_once()
            setups.append(parts)
        return items, setups, bare

    # -- timed phase ------------------------------------------------------------

    def rounds(self, items, seconds: float) -> dict:
        """Repeat whole rounds while the next is expected to end in time.
        Traced runs alternate untraced and traced rounds, in pairs."""
        start = time.perf_counter()
        deadline = start + seconds
        per_round = 2 if self.trace else 1
        lat = {False: [], True: []}
        units = {False: 0.0, True: 0.0}
        r = 0
        while True:
            # inputs and spans outlive the round: keep the collector from
            # rescanning them before every request
            gc.collect()
            gc.freeze()
            traced = self.trace and r % 2 == 1
            tr = self.tracer if traced else self.untraced
            for i, item in enumerate(items):
                timing, work, _ = self.request(tr, i, item, r * len(items) + i)
                lat[traced].append(timing)
                units[traced] += work
            r += 1
            now = time.perf_counter()
            if r % per_round == 0 and now + (now - start) / r * per_round > deadline:
                break
        return {"latencies": lat, "units": units, "rounds": r}

    def tail_rank(self, n: int) -> int:
        """Index of the nearest-rank tail percentile among n sorted latencies."""
        return max(0, math.ceil(TAIL_PCT[self.name] / 100 * n) - 1)

    def timed_figures(self, setups: list, timed: dict, clock: str) -> dict:
        """Set-up seconds, throughput and latencies of the untraced
        requests, on ``clock``: "ref" (reference speed) or "wall"."""
        lat = sorted(getattr(t, clock) for t in timed["latencies"][False])
        k = self.tail_rank(len(lat))
        return {
            "setup_s": median(sum(getattr(t, clock) for t in parts) for parts in setups),
            "throughput_per_s": timed["units"][False] / sum(lat),
            "latency_p50_ms": median(lat) * 1e3,
            "latency_tail_ms": lat[k] * 1e3,
        }

    def metrics(self, setups: list, timed: dict) -> tuple:
        """End-to-end metrics, and notes on the tail's sample count and on
        the wall-clock figures."""
        figures = self.timed_figures(setups, timed, "ref")
        wall = self.timed_figures(setups, timed, "wall")
        n = len(timed["latencies"][False])
        k = self.tail_rank(n)
        who = resource.RUSAGE_SELF if self.workload.in_process else resource.RUSAGE_CHILDREN
        units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
        metrics = {name: (value, units[name]) for name, value in figures.items()}
        metrics["success_ratio"] = ((self.attempted - len(self.failures)) / self.attempted, "1")
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MiB")
        slices = self.meter.slices
        notes = [
            f"tail: p{TAIL_PCT[self.name]:g} of {n} requests, {n - 1 - k} beyond it",
            "wall clock: " + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()),
            f"reference slices: {len(slices)}, median {median(slices) * 1e3:.3f} ms (reference speed: {NOMINAL_S * 1e3:g} ms)",
        ]
        return metrics, notes

    def trace_metrics(self, timed: dict) -> tuple:
        metrics, consistent = layer_metrics(self.tracer)
        plain = sum(t.ref for t in timed["latencies"][False])
        traced = sum(t.ref for t in timed["latencies"][True])
        metrics["bench.trace_overhead_pct"] = ((traced / plain - 1.0) * 100, "%")
        return metrics, consistent

    def write_spans(self) -> Path:
        out = self.root / OUT_DIR
        out.mkdir(exist_ok=True)
        path = out / f"{self.name}-seed{self.seed}-spans.json"
        doc = {
            "workload": self.name,
            "seed": self.seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "fields": ["id", "request", "parent", "name", "start", "end", "size", "family"],
            "spans": [[s.id, s.request, s.parent, s.name, s.start, s.end, s.size, s.family] for s in self.tracer.spans],
            "cli": self.tracer.cli,
            "failures": self.failures,
        }
        path.write_text(json.dumps(doc))
        return path

    def execute(self, seconds: float) -> dict:
        try:
            items, setups, bare = self.setup()
            timed = self.rounds(items, seconds)
        finally:
            self.remove_workdir()
        self.meter.finish()
        failed = len(self.failures)
        correct = failed == 0
        if self.trace:
            self.tracer.interp_ms = median(t.ref for t in bare) * 1e3
            self.tracer.rescale()
            metrics, consistent = self.trace_metrics(timed)
            if not consistent:
                correct = False
                self.failures.append("span self times exceed a request's duration")
            notes = [f"spans: {self.write_spans().relative_to(self.root)}"]
        else:
            metrics, notes = self.metrics(setups, timed)
        print(f"# {self.name} seed {self.seed}: {timed['rounds']} rounds of {len(items)} requests, "
              f"closed loop, 1 client, unit of work: {self.workload.unit}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
        for note in notes:
            print(f"# {note}")
        for name, (value, unit) in metrics.items():
            print(f"{self.name:12s} {name:52s} {value:14.6g} {unit}")
        for line in self.failures[:10]:
            print(f"failed: {line}", file=sys.stderr)
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def write_goldens(root: Path) -> None:
    """Digests of every request's exact answers at the default seed."""
    goldens = {}
    for name in WORKLOADS:
        run = Run(name, DEFAULT_SEED, root, False)
        run.goldens = {}
        try:
            items = run.workload.round(DEFAULT_SEED)
            digests = {str(i): run.request(run.untraced, i, item, i)[2] for i, item in enumerate(items)}
        finally:
            run.remove_workdir()
        if run.failures:
            raise SystemExit("refusing to pin goldens of failed requests:\n" + "\n".join(run.failures))
        goldens[name] = {i: d for i, d in digests.items() if d is not None}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, so imports and peak RSS do not mix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    cap_blas_threads()
    root = Path.cwd()
    if not (root / "src" / "stochworld" / "__init__.py").is_file():
        print("error: no stochworld sources at ./src/stochworld; run from the repository root", file=sys.stderr)
        return 2
    if not (root / "models").is_dir():
        print("error: no ./models directory; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.write_goldens:
        write_goldens(root)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = Run(args.workload, args.seed, root, bool(args.trace)).execute(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
