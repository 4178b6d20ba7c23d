"""Helpers shared by the workloads: timing loops, percentiles, memory,
isolation between timed operations, the host's speed, and the workload
outcome record.

Times at reference speed.  The shared 2-CPU host the benchmark was
built on changes speed by up to 1.6x for minutes at a time: the same
``exchange_chase`` run gave a median chase of 415 ms in one run and
706 ms a few minutes later, and no choice of repeats within a 24 s run
held the spread between runs under a third.  A fixed pure-Python loop
(:func:`reference_loop`), timed just before each operation, slows with
the host in step: over 110 s in which the median chase drifted from
708 to 439 ms, each chase's time divided by the loop's time just
before it varied by 3% (sd/mean of 10 s window medians; 14% for the
chase alone).  So every end-to-end time is reported at reference
speed: each measured time is multiplied by ``REFERENCE_S`` over the
loop's time just before it (a rate is divided by the same factor).
The measured wall-clock figures are printed beside them (``wall_*``),
with the run's median factor in the run record.  A change to the
program moves the scaled figures like the wall-clock ones; the host's
speed moves only the latter.
"""

import gc
import math
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

#: Each workload's set-up is repeated and the median reported, so
#: that ``setup_s`` is not one noisy sample: at least
#: ``SETUP_REPEATS`` times, and again while the repeats have taken less
#: than ``SETUP_BUDGET_S`` in all (at most ``SETUP_MAX_REPEATS``
#: times).  Millisecond set-ups, whose single samples spread most, get
#: the most repeats.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 50


#: The reference loop's time at reference speed (about its median on
#: the 2-CPU x86 box the benchmark was tuned on, Python 3.11).
REFERENCE_S = 0.002
#: Loop iterations of :func:`reference_loop`.
REFERENCE_ITERATIONS = 30_000
#: The loop is timed ``REFERENCE_REPEATS`` times in a row, at most once
#: every ``REFERENCE_EVERY_S`` seconds, before a timed operation; the
#: fastest of the repeats gives the host's current speed.
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.05


def reference_loop() -> int:
    """Fixed pure-Python work, independent of the program measured."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """The host's speed during one run, from the reference loop's
    times."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.current = 1.0
        self._last: Optional[float] = None

    def sample(self, repeats: int = REFERENCE_REPEATS) -> None:
        """Time the reference loop ``repeats`` times, unless that was
        done less than ``REFERENCE_EVERY_S`` ago, and set ``current``:
        how much slower than reference speed the host runs now.  Call
        it outside timed sections, just before one."""
        now = time.perf_counter()
        if self._last is not None and now - self._last < REFERENCE_EVERY_S:
            return
        batch = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            batch.append(time.perf_counter() - start)
        self.samples += batch
        self.current = min(batch) / REFERENCE_S
        self._last = time.perf_counter()

    def pair(self, seconds: float) -> Tuple[float, float]:
        """(wall-clock seconds, seconds at reference speed) of a time
        measured since the last :meth:`sample`."""
        return seconds, seconds / self.current

    def factor(self) -> float:
        """The run's median loop time over ``REFERENCE_S``."""
        return median(self.samples) / REFERENCE_S


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` holds the benchmark's end-to-end (or, in a traced run,
    per-layer) metrics as ``name -> (value, unit)``; ``report`` holds
    the workload's own named figures for the human-readable summary.
    ``errors`` lists every wrong output, one line each; a wrong output
    also counts in ``failed``.  ``capped`` names operations cut by a
    benchmark-side cap: they count in ``failed`` but are not wrong.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    capped: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)

    def wrong(self, message: str) -> None:
        self.errors.append(message)


def isolate() -> None:
    """Start a timed operation from a collected heap.

    Callers drop their reference to the previous result first: keeping
    one 20k-fact result alive measurably slows the next chase."""
    gc.collect()


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100): the Harrell-Davis estimate, a
    Beta-weighted mean of all order statistics.

    The items of one workload are heterogeneous (constraint sets that
    take 4 ms and 6 ms with nothing in between, query shapes whose
    costs overlap), so a single order statistic jumps across such gaps
    whenever two items trade places; the weighted mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a = q / 100.0 * (n + 1)
    b = (1.0 - q / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Weight of order statistic i: the Beta(a, b) mass on
    # ((i-1)/n, i/n), by the midpoint rule.
    steps = 64
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def timed_setup(build: Callable[[], object], host: HostSpeed,
                discard: Optional[Callable[[object], None]] = None
                ) -> Tuple[object, Tuple[float, float]]:
    """Run ``build`` as often as ``SETUP_REPEATS`` and ``SETUP_BUDGET_S``
    say; return the last state and the median (wall-clock, reference
    speed) time.  Each earlier state is passed to ``discard`` (outside
    the timing) and dropped before the next build, so that repeats do
    not stack memory or processes."""
    times: List[Tuple[float, float]] = []
    state = None
    while len(times) < SETUP_REPEATS or (
            sum(wall for wall, _ in times) < SETUP_BUDGET_S
            and len(times) < SETUP_MAX_REPEATS):
        if state is not None and discard is not None:
            discard(state)
        state = None
        host.sample()
        isolate()
        start = time.perf_counter()
        state = build()
        times.append(host.pair(time.perf_counter() - start))
    return state, medians(times)


def medians(pairs: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Componentwise medians of (wall-clock, reference speed) pairs."""
    return (median(wall for wall, _ in pairs),
            median(scaled for _, scaled in pairs))


def run_for(seconds: float, operation: Callable[[int], None],
            minimum: int, host: HostSpeed) -> None:
    """Call ``operation(i)`` for i = 0, 1, ... while less than
    ``seconds`` have passed, and at least ``minimum`` times, sampling
    the host's speed between calls."""
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        host.sample()
        operation(index)
        index += 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is
    in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Outcome, host: HostSpeed,
               setup: Tuple[float, float],
               latencies: List[Tuple[float, float]],
               rate: Tuple[float, float]) -> None:
    """Set the end-to-end metrics from (wall-clock, reference speed)
    pairs: the set-up time, the operations' latencies in seconds and
    their rate per second.  The metrics are at reference speed (see the
    module docstring); the wall-clock figures go to the summary."""
    for index, prefix in ((1, ""), (0, "wall_")):
        values = [pair[index] for pair in latencies]
        outcome.report[prefix + "setup_s"] = (setup[index], "s")
        outcome.report[prefix + "op_p50_ms"] = (
            percentile(values, 50) * 1e3, "ms")
        outcome.report[prefix + "op_p90_ms"] = (
            percentile(values, 90) * 1e3, "ms")
        outcome.report[prefix + "ops_per_s"] = (rate[index], "1/s")
    for name in ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s"):
        outcome.metrics[name] = outcome.report.pop(name)
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.record["host_factor"] = round(host.factor(), 4)
    outcome.record["reference_samples"] = len(host.samples)


def item_metrics(outcome: Outcome, host: HostSpeed,
                 setup: Tuple[float, float],
                 times: Dict[object, List[Tuple[float, float]]]) -> None:
    """The end-to-end metrics of a closed-loop workload whose items (a
    scenario, a query, a constraint set) are each timed one or more
    times in a run, as (wall-clock, reference speed) pairs, the repeats
    of an item spread over the run.

    Each item counts once, at the median of its own times, the
    estimate that kept closest in step with the reference loop (an
    item's fastest time varied half again as much against the loop's
    fastest).  ``ops_per_s`` is items per second of item cost."""
    costs = [medians(values) for values in times.values()]
    rate = tuple(len(costs) / sum(cost[index] for cost in costs)
                 for index in (0, 1))
    end_to_end(outcome, host, setup, costs, rate)
    outcome.record["items"] = len(costs)
    outcome.record["timings"] = sum(len(values) for values in times.values())


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
