"""Run one bckalg benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: bckalg is imported from ``src/`` there,
and scratch files go to ``.perfbench/``. One closed-loop client runs whole
passes of the workload's seeded op deck until at least ``--seconds`` of
scaled op time (see Clock) has passed; the oracle checks each answer between
ops, outside the timed region. ``--trace 1`` then replays the same ops with every bckalg
function wrapped, and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import gen  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPS = 5
# A pass that overruns this many times --seconds of wall time is cut short.
HARD_STOP = 4

# The host's speed switches between states up to 1.7x apart, often several
# times within one op, and every pure-Python op slows with it. So timings are
# scaled by a fixed reference kernel (table lookups, like the axiom checks):
# it runs just before and just after each timed call, and inside the call
# every SAMPLE_EVERY_S of CPU time from a SIGPROF handler. A call's scaled
# time is its own time (handler time removed) * REF_NOMINAL_S / the mean
# kernel time. REF_NOMINAL_S is the kernel's time on the unloaded 2-vCPU host
# the first figures came from, so scaled times read as that host's seconds.
REF_TABLE = tuple(tuple(max(0, x - y) for y in range(24)) for x in range(24))
REF_ROUNDS = 5
REF_NOMINAL_S = 0.00014
SAMPLE_EVERY_S = 0.005


def _kernel_s() -> float:
    t, acc = REF_TABLE, 0
    t0 = perf_counter()
    for _ in range(REF_ROUNDS):
        for row in t:
            for y, v in enumerate(row):
                acc += t[v][y]
    return perf_counter() - t0


class Clock:
    """Times one call at a time and scales it to the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.t0 = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(_kernel_s())
        self.spent += perf_counter() - t0

    def _edge(self) -> None:
        # Median of three, so one preempted kernel run does not skew a short call.
        self.samples.append(statistics.median(_kernel_s() for _ in range(3)))

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._edge()
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """Seconds the call took, and the factor that scales them."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        seconds = perf_counter() - self.t0 - self.spent
        self._edge()
        return seconds, REF_NOMINAL_S * len(self.samples) / sum(self.samples)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside the op; a BaseException so no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Result:
    op: Op
    seconds: float  # as measured, less the time of in-call kernel samples
    scaled: float  # at the reference speed
    status: str  # ok, wrong, error or timeout
    reason: str | None = None


def import_bckalg():
    """A fresh import of bckalg (and its CLI) from this checkout's src/."""
    for name in [m for m in sys.modules if m == "bckalg" or m.startswith("bckalg.")]:
        del sys.modules[name]
    lib = importlib.import_module("bckalg")
    importlib.import_module("bckalg.cli")
    if Path(lib.__file__).resolve().parent != SRC / "bckalg":
        raise ImportError(f"bckalg was imported from {lib.__file__}, not from {SRC}")
    return lib


def run_op(op: Op, clock: Clock) -> Result:
    """Run op under its deadline and check the answer; the time is scaled,
    and a failed op counts as taking at least its whole deadline."""
    status, reason = "ok", None
    clock.start()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline)
            answer = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status, reason = "timeout", f"{op.label}: missed its deadline"
    except Exception as exc:
        status, reason = "error", f"{op.label}: {exc!r}"
    seconds, scale = clock.stop()
    if status == "ok":
        reason = op.check(answer)
        if reason is not None:
            status = "wrong"
    scaled = seconds * scale if status == "ok" else max(seconds * scale, op.deadline)
    return Result(op, seconds, scaled, status, reason)


def measure(plan, deck: gen.Deck, seconds: float, clock: Clock) -> list[Result]:
    """Run the once-ops, then whole deck passes until ``seconds`` of scaled op time."""
    results, busy, wall = [], 0.0, 0.0
    pending = list(plan.once)
    while busy < seconds and wall < HARD_STOP * seconds:
        pending.extend(deck.deal() for _ in range(len(deck)))
        for op in pending:
            r = run_op(op, clock)
            results.append(r)
            busy += r.scaled
            wall += r.seconds
            if wall >= HARD_STOP * seconds:
                break
        pending = []
    return results


def replay(ops: list[Op], clock: Clock, tracer: Tracer) -> list[Result]:
    results = []
    for i, op in enumerate(ops):
        sid = tracer.begin_op(i)
        results.append(run_op(op, clock))
        tracer.end_op(sid)
    return results


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(results: list[Result], setup_times: list[float]) -> dict:
    latencies = [r.scaled for r in results]
    ok = sum(r.status == "ok" for r in results)
    return {
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "success_rate": (ok / len(results), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def traced_replay(lib, clock: Clock, untraced: list[Result], trace_path: Path) -> tuple[dict, list[Result]]:
    tracer = Tracer()
    tracer.install(lib)
    try:
        results = replay([r.op for r in untraced], clock, tracer)
    finally:
        tracer.uninstall()
    speed = sum(r.scaled for r in results) / sum(r.seconds for r in results)
    metrics = tracer.metrics(len(results), speed)
    ratio = sum(r.scaled for r in results) / sum(r.scaled for r in untraced)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    tracer.write(trace_path)
    return metrics, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "bckalg" / "__init__.py").is_file():
        print(f"error: no bckalg sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clock, setup_times = Clock(), []
        for _ in range(SETUP_REPS):
            clock.start()
            lib = import_bckalg()
            plan = WORKLOADS[args.workload](lib, random.Random(f"inputs/{args.seed}"), workdir)
            elapsed, scale = clock.stop()
            setup_times.append(elapsed * scale)
        deck = gen.Deck(plan.cards, random.Random(f"deck/{args.seed}"))
        results = measure(plan, deck, args.seconds, clock)
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.csv.gz"
            metrics, traced = traced_replay(lib, clock, results, trace_path)
            results = results + traced
        else:
            metrics = end_to_end(results, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [r.reason for r in results if r.status in ("wrong", "error")]
    for reason in wrong[:10]:
        print(f"wrong: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
