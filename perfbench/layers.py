"""The traced run: spans around each layer's public entry points.

Nothing under ``src/`` is touched.  :func:`instrument` replaces entry
points on the library's modules and classes with timing wrappers for
the duration of a ``with`` block and restores them afterwards; it also
turns the library's own metrics registry (:mod:`repro.obs`) on through
its public API, so the per-layer counts the library already keeps
(chase steps, trigger-index expansions, join-plan routing, ...) come
from the same pass.

Spans are aggregated as they close instead of being stored one by one
(one exchange chase opens a few hundred thousand): per span name the
inclusive time of the outermost calls and the number of calls, and per
layer the self time -- a span's duration minus the time its child
spans cover.  Generators (the join plans enumerate lazily) are timed
per ``next`` call, so time the consumer spends between two results is
charged to the consumer.  The stores' id-level ``scan``, through
which every join plan's tuple path reads its candidate rows, is
wrapped to count the rows drawn from it.
"""

import contextlib
import functools
import inspect
import time
from collections import defaultdict
from typing import Dict, List

from repro import obs
from repro.obs import metrics as obs_metrics

#: The library's layers (modules under ``src/repro``) that get a self
#: time in every traced run.
LAYERS = ("lang", "storage", "homomorphism", "chase", "cq", "kb",
          "termination", "service")


class Spans:
    """Running aggregate of nested spans."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.top_level = 0.0
        self._stack: List[list] = []         # [child time] per open span
        self._open: Dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> list:
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, name: str, layer: str, frame: list,
              duration: float) -> None:
        self._stack.pop()
        self._open[name] -= 1
        self.self_time[layer] += duration - frame[0]
        if self._open[name] == 0:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.top_level += duration

    def wrap(self, function, layer: str, name: str):
        """``function`` timed as span ``name`` of ``layer``; a returned
        generator is timed per ``next``."""
        spans = self
        is_generator = inspect.isgeneratorfunction(function)

        def timed_generator(generator):
            try:
                while True:
                    frame = spans._enter(name)
                    start = time.perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        spans._exit(name, layer, frame,
                                    time.perf_counter() - start)
                    yield item
            finally:
                generator.close()

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            spans.calls[name] += 1
            if is_generator:
                return timed_generator(function(*args, **kwargs))
            frame = spans._enter(name)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spans._exit(name, layer, frame, time.perf_counter() - start)

        return wrapper

    def counted(self, function, name: str):
        """``function`` with its calls counted but not timed (for entry
        points too hot for a span, such as term interning)."""
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def counted_rows(self, function, name: str):
        """``function``, which returns an iterator, with the items its
        callers draw from it counted (not timed)."""
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            for item in function(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper


def _entry_points():
    """(owner, attribute, layer, span name) for every wrapped entry
    point.  Module attributes are looked up at call time by their
    callers, so replacing them reaches the library's internal calls."""
    from repro.chase import runner, strategies
    from repro.chase.triggers import TriggerIndex
    from repro.cq.query import ConjunctiveQuery
    from repro.homomorphism.plan import JoinPlan
    from repro.kb import answering
    from repro.lang import parser
    from repro.storage.base import FactStore

    points = [
        (parser, "parse_constraints", "lang", "lang.parse"),
        (parser, "parse_instance", "lang", "lang.parse"),
        (parser, "parse_query", "lang", "lang.parse"),
        (runner, "chase", "chase", "chase.run"),
        (runner, "apply_step", "chase", "chase.apply"),
        (TriggerIndex, "fact_added", "chase", "chase.trigger_delta"),
        (TriggerIndex, "fact_removed", "chase", "chase.trigger_delta"),
        (FactStore, "add", "storage", "storage.add"),
        (FactStore, "substitute_term", "storage", "storage.substitute"),
        (JoinPlan, "execute", "homomorphism", "homomorphism.execute"),
        (JoinPlan, "execute_batch", "homomorphism", "homomorphism.batch"),
        (ConjunctiveQuery, "evaluate", "cq", "cq.evaluate"),
        (answering, "optimize_query", "cq", "cq.optimize"),
        (answering, "depth_bounded_chase", "kb", "kb.depth_bounded"),
    ]
    for cls in (strategies.Strategy, strategies.OrderedStrategy,
                strategies.RoundRobinStrategy, strategies.RandomStrategy,
                strategies.StratifiedStrategy):
        if "select" in vars(cls):
            points.append((cls, "select", "chase", "chase.select"))
    return points


@contextlib.contextmanager
def instrument(spans: Spans):
    """Wrap every entry point and enable the metrics registry; undo
    both on exit.  The registry is cleared on entry, so its snapshot
    afterwards covers exactly the block."""
    from repro.storage.column_store import ColumnStore
    from repro.storage.interning import TermTable
    from repro.storage.set_store import SetStore

    saved = []
    for owner, attribute, layer, name in _entry_points():
        original = vars(owner)[attribute]
        saved.append((owner, attribute, original))
        setattr(owner, attribute, spans.wrap(original, layer, name))
    original_intern = vars(TermTable)["intern"]
    saved.append((TermTable, "intern", original_intern))
    TermTable.intern = spans.counted(original_intern, "storage.intern")
    # Rows the join plans' tuple path reads (the batch path counts its
    # own in the registry as plan.batch.rows_scanned).
    for store in (SetStore, ColumnStore):
        original_scan = vars(store)["scan"]
        saved.append((store, "scan", original_scan))
        store.scan = spans.counted_rows(original_scan, "storage.scan_rows")
    was_enabled = obs.enabled()
    obs_metrics.reset()
    obs.enable(True)
    try:
        yield spans
    finally:
        obs.enable(was_enabled)
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_metrics(spans: Spans, wall_s: float) -> Dict[str, tuple]:
    """Every layer's self time and the share of ``wall_s`` that no
    span covers."""
    metrics = {f"layer.{layer}.self_s": (spans.self_time.get(layer, 0.0),
                                         "s")
               for layer in LAYERS}
    unattributed = max(0.0, wall_s - spans.top_level) / wall_s
    metrics["layer.unattributed_frac"] = (unattributed, "ratio")
    return metrics
