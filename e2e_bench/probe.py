"""Per-layer timing from outside the program, for the traced run only.

The untraced run uses :class:`Probe`, which hands every iterable back
unchanged and times nothing, so the end-to-end numbers carry no
instrumentation.  The traced run uses :class:`TraceProbe`:

* :meth:`TraceProbe.pulls` wraps an iterator and adds up the time spent
  inside its ``next()`` calls (a stream generator, ``heapq.merge``,
  ``windowed()``).  Nested wrappers let the caller split generation,
  merging and window cutting apart by subtraction.  These per-event timings
  are kept as sums, not spans: a span per event would be millions of records.
* :meth:`TraceProbe.interval` opens a ``bench.<key>`` span on the live
  :mod:`repro.obs` tracer around a call into a layer and adds up its time.
* :meth:`TraceProbe.patched` swaps a module attribute (a public function such
  as the pipeline's ``gpart``) for a timed wrapper and restores it on exit.

Spans that ``src`` already emits (``engine.settle``, ``optassign.greedy``,
...) are read back from the same tracer; see :func:`span_totals`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Iterable, Iterator

from repro import obs


class Probe:
    """The untraced probe: no wrapping, no timing."""

    traced = False

    def pulls(self, iterable: Iterable, key: str) -> Iterable:
        return iterable

    def interval(self, key: str, **attrs):
        return nullcontext()


class TraceProbe(Probe):
    """Collects per-layer busy time for one traced repetition."""

    traced = True

    def __init__(self) -> None:
        self.busy_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.interval_s: dict[str, float] = defaultdict(float)
        self.interval_calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)

    def pulls(self, iterable: Iterable, key: str) -> Iterator:
        return self._timed(iter(iterable), key)

    def _timed(self, iterator: Iterator, key: str) -> Iterator:
        clock = time.perf_counter
        pull = iterator.__next__
        busy = 0.0
        items = 0
        try:
            while True:
                started = clock()
                try:
                    item = pull()
                except StopIteration:
                    busy += clock() - started
                    return
                busy += clock() - started
                items += 1
                yield item
        finally:
            self.busy_s[key] += busy
            self.items[key] += items

    @contextmanager
    def interval(self, key: str, **attrs):
        with obs.get_tracer().span(f"bench.{key}", **attrs):
            started = time.perf_counter()
            try:
                yield
            finally:
                self.interval_s[key] += time.perf_counter() - started
                self.interval_calls[key] += 1

    @contextmanager
    def patched(self, module, attribute: str, key: str, on_result=None):
        """Time every call of ``module.attribute`` for the duration of the block."""
        original = getattr(module, attribute)

        def timed(*args, **kwargs):
            with self.interval(key):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attribute, timed)
        try:
            yield
        finally:
            setattr(module, attribute, original)


# Spans that only group other spans; they are not a layer's own work.
CONTAINER_SPANS = frozenset(
    {
        "bench.rep",
        "bench.pipeline.variant",
        "engine.window",
        "engine.epoch",
        "fleet.window",
        "fleet.epoch",
    }
)
# Outermost solve spans, whichever entry point the workload goes through.
SOLVE_SPANS = frozenset(
    {"engine.solve", "fleet.solve", "optassign.solve", "optassign.delta_solve"}
)


def span_totals(spans) -> dict[str, float]:
    """Total duration per span name (0.0 for a name that never ran)."""
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        totals[record.name] += record.duration_s
    return totals


def outermost_solve_s(spans) -> float:
    """Seconds in solve spans that are not nested inside another solve span."""
    by_id = {record.span_id: record for record in spans}

    def nested(record) -> bool:
        parent = by_id.get(record.parent_id)
        while parent is not None:
            if parent.name in SOLVE_SPANS:
                return True
            parent = by_id.get(parent.parent_id)
        return False

    return sum(
        record.duration_s
        for record in spans
        if record.name in SOLVE_SPANS and not nested(record)
    )


def covered_s(spans, aggregated_s: float) -> float:
    """Seconds of the repetition covered by any layer timing.

    ``aggregated_s`` is the per-event pull time, which by construction runs
    outside every span; the rest is the union of all non-container spans.
    """
    intervals = sorted(
        (record.start_s, record.start_s + record.duration_s)
        for record in spans
        if record.name not in CONTAINER_SPANS
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered + aggregated_s
