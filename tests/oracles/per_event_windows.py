"""The per-event event path, kept as the oracle for the block-cut one.

Window cutting, trigger bookkeeping, per-partition aggregation and billing
once handled one Python object per event.  The event path now moves numpy
:class:`repro.cloud.EventBlock`\\ s, and must reproduce this reference
exactly: the same windows, causes and events, the same drift scores, the
same aggregated counts in the same key order, and the same bills to the
bit.  The code below is that per-event implementation, unchanged except
for names: the triggers are standalone per-event classes,
:func:`windowed_per_event` is the driver, :func:`reads_by_partition_per_event`
the aggregation and :func:`step_per_event` the body of
``CompiledPlacement.step`` over an already compiled placement.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.cloud import CostBreakdown, SimulationResult, TimedEvent
from repro.engine import StreamWindow, TriggerWindow
from repro.engine.policies import drift_score

__all__ = [
    "CountTrigger",
    "TimeTrigger",
    "DriftTrigger",
    "AnyTrigger",
    "windowed_per_event",
    "reads_by_partition_per_event",
    "step_per_event",
]


class CountTrigger:
    """Close a window after ``max_events`` events (cause ``"count"``).

    Events sharing the closing event's exact timestamp stay in the same
    window (the driver defers a close that would make a zero-width window),
    so windows always advance the clock.
    """

    cause = "count"

    def __init__(self, max_events: int) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self._count = 0

    def open(self, start_month: float) -> None:
        self._count = 0

    def boundary_before(self, t: float) -> float | None:
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        self._count += 1
        if self._count >= self.max_events:
            return event.t
        return None


class TimeTrigger:
    """Close a window every ``width_months`` of virtual wall clock (``"time"``).

    Boundaries are laid end to end from the stream's start: quiet stretches
    emit empty windows, exactly like the dense monthly grid does.  With
    ``width_months=1.0`` from ``start_month=0.0`` the boundaries are the
    integers, and the windows reproduce dense epochs **bit-exactly** (adding
    1.0 to an integral float is exact, and dividing counts by a duration of
    exactly 1.0 is the identity).
    """

    cause = "time"

    def __init__(self, width_months: float) -> None:
        if width_months <= 0:
            raise ValueError("width_months must be positive")
        self.width_months = width_months
        self._deadline = 0.0

    def open(self, start_month: float) -> None:
        self._deadline = start_month + self.width_months

    def boundary_before(self, t: float) -> float | None:
        if t >= self._deadline:
            return self._deadline
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        return None


class DriftTrigger:
    """Close a window when the in-window access mix drifts from a baseline.

    Accumulates per-partition read counts as events arrive and, every
    ``check_every`` events once the window is at least ``min_width_months``
    wide, scores the observed **rates** (counts / elapsed months) against
    ``baseline`` with :func:`repro.engine.policies.drift_score`; at or above
    ``threshold`` the window closes (cause ``"drift"``) so the policy can
    react *now* instead of at the next grid point.

    The baseline is what the engine last *planned against*:
    :meth:`repro.engine.OnlineTieringEngine.run_stream` wires
    ``baseline_provider`` to return its most recently applied forecast.
    Without a baseline (e.g. before the first reoptimization) the trigger
    never fires — pair it with a :class:`TimeTrigger` or
    :class:`CountTrigger` via :class:`AnyTrigger` for a fallback cadence.
    """

    cause = "drift"

    def __init__(
        self,
        threshold: float,
        *,
        min_width_months: float = 0.25,
        check_every: int = 64,
        baseline_provider: "Callable[[], Mapping[str, float] | None] | None" = None,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if min_width_months <= 0:
            raise ValueError("min_width_months must be positive")
        if check_every <= 0:
            raise ValueError("check_every must be positive")
        self.threshold = threshold
        self.min_width_months = min_width_months
        self.check_every = check_every
        self.baseline_provider = baseline_provider
        self.last_score: float | None = None
        self._start = 0.0
        self._counts: dict[str, float] = {}
        self._since_check = 0

    def open(self, start_month: float) -> None:
        self._start = start_month
        self._counts = {}
        self._since_check = 0

    def boundary_before(self, t: float) -> float | None:
        return None

    def close_after(self, event: TimedEvent) -> float | None:
        self._counts[event.partition] = (
            self._counts.get(event.partition, 0.0) + event.reads
        )
        self._since_check += 1
        if self._since_check < self.check_every:
            return None
        self._since_check = 0
        elapsed = event.t - self._start
        if elapsed < self.min_width_months:
            return None
        baseline = self.baseline_provider() if self.baseline_provider else None
        if not baseline:
            return None
        observed = {name: count / elapsed for name, count in self._counts.items()}
        self.last_score = drift_score(baseline, observed)
        if self.last_score >= self.threshold:
            return event.t
        return None


class AnyTrigger:
    """Compose triggers: the first one to fire closes the window.

    Time boundaries take the earliest deadline across members;
    ``close_after`` asks members in construction order and adopts the firing
    member's ``cause``.
    """

    def __init__(self, *triggers: TriggerWindow) -> None:
        if not triggers:
            raise ValueError("at least one trigger is required")
        self.triggers = triggers
        self.cause = triggers[0].cause

    def open(self, start_month: float) -> None:
        for trigger in self.triggers:
            trigger.open(start_month)

    def boundary_before(self, t: float) -> float | None:
        best: float | None = None
        for trigger in self.triggers:
            boundary = trigger.boundary_before(t)
            if boundary is not None and (best is None or boundary < best):
                best = boundary
                self.cause = trigger.cause
        return best

    def close_after(self, event: TimedEvent) -> float | None:
        close: float | None = None
        for trigger in self.triggers:
            fired = trigger.close_after(event)
            if fired is not None and close is None:
                close = fired
                self.cause = trigger.cause
        return close


def windowed_per_event(
    events: Iterable[TimedEvent],
    trigger: TriggerWindow,
    *,
    start_month: float = 0.0,
    horizon_months: float | None = None,
) -> Iterator[StreamWindow]:
    """Cut a time-ordered stream of timed events into trigger windows, lazily.

    Yields consecutive, gap-free :class:`StreamWindow`\\ s covering
    ``[start_month, ...)``.  Only the currently open window is held in
    memory, so a million-event stream costs O(window) RAM.  Validates
    time-ordering (raises on a backwards event) and that events do not
    precede ``start_month``.

    With ``horizon_months`` set, events at or past the horizon are ignored,
    remaining time boundaries are drained (empty windows across the quiet
    tail) and a final window closes exactly at the horizon (cause
    ``"horizon"``).  Without it, a trailing partial window is flushed after
    the stream ends (cause ``"flush"``, closing at the last event's time).

    A close that would produce a zero-width window (e.g. a
    :class:`CountTrigger` firing on a timestamp tie at the window's start) is
    deferred until an event advances the clock — windows always advance
    virtual time, which keeps rates (counts / duration) well-defined.
    """
    index = 0
    start = start_month
    pending: list[TimedEvent] = []
    last_t = start_month
    end = None if horizon_months is None else start_month + horizon_months
    trigger.open(start)
    for event in events:
        if event.t < last_t:
            raise ValueError(
                f"events must be time-ordered: {event.t} after {last_t}"
            )
        last_t = event.t
        if end is not None and event.t >= end:
            break
        while True:
            boundary = trigger.boundary_before(event.t)
            if boundary is None:
                break
            yield StreamWindow(
                index=index,
                start_month=start,
                end_month=boundary,
                events=tuple(pending),
                cause=trigger.cause,
            )
            index += 1
            start = boundary
            pending = []
            trigger.open(start)
        pending.append(event)
        close = trigger.close_after(event)
        if close is not None and close > start:
            yield StreamWindow(
                index=index,
                start_month=start,
                end_month=close,
                events=tuple(pending),
                cause=trigger.cause,
            )
            index += 1
            start = close
            pending = []
            trigger.open(start)
    if end is not None:
        while True:
            boundary = trigger.boundary_before(end)
            if boundary is None or boundary >= end:
                break
            yield StreamWindow(
                index=index,
                start_month=start,
                end_month=boundary,
                events=tuple(pending),
                cause=trigger.cause,
            )
            index += 1
            start = boundary
            pending = []
            trigger.open(start)
        if pending or start < end:
            yield StreamWindow(
                index=index,
                start_month=start,
                end_month=end,
                events=tuple(pending),
                cause="horizon",
            )
    elif pending:
        yield StreamWindow(
            index=index,
            start_month=start,
            end_month=last_t,
            events=tuple(pending),
            cause="flush",
        )


def reads_by_partition_per_event(events) -> dict[str, float]:
    """Aggregated read counts per partition for this window."""
    totals: dict[str, float] = {}
    for event in events:
        totals[event.partition] = totals.get(event.partition, 0.0) + event.reads
    return totals


def step_per_event(
    self, access_events, storage_months: float = 1.0, include_per_partition=False
) -> SimulationResult:
    """``CompiledPlacement.step`` billing one event object at a time.

    ``self`` is a compiled placement; only its precomputed arrays are read.
    """
    if storage_months < 0:
        raise ValueError("storage_months must be non-negative")
    indices: list[int] = []
    reads: list[float] = []
    rounded: list[int] = []
    for event in access_events:
        try:
            index = self.arrays.index_of(event.partition)
        except KeyError:
            raise KeyError(
                f"access event references unknown partition {event.partition!r}"
            ) from None
        indices.append(index)
        reads.append(event.reads)
        rounded.append(int(round(event.reads)))

    storage_total = float(np.sum(self.storage_per_month) * storage_months)
    if indices:
        index_array = np.asarray(indices, dtype=np.int64)
        reads_array = np.asarray(reads, dtype=np.float64)
        rounds_array = np.asarray(rounded, dtype=np.int64)
        read_total = float(self.read_cost_per_read[index_array] @ reads_array)
        decompression_total = float(
            self.decompression_cost_per_read[index_array] @ reads_array
        )
        total_latency = float(self.latency_s[index_array] @ reads_array)
        access_count = int(rounds_array.sum())
        latency_violations = int(
            rounds_array[self.violates_sla[index_array]].sum()
        )
    else:
        read_total = decompression_total = total_latency = 0.0
        access_count = latency_violations = 0

    per_partition: dict[str, CostBreakdown] = {}
    if include_per_partition:
        reads_dense = np.zeros(len(self.arrays), dtype=np.float64)
        if indices:
            np.add.at(reads_dense, index_array, reads_array)
        storage_each = (self.storage_per_month * storage_months).tolist()
        read_each = (self.read_cost_per_read * reads_dense).tolist()
        decompression_each = (
            self.decompression_cost_per_read * reads_dense
        ).tolist()
        for i, name in enumerate(self.arrays.names):
            per_partition[name] = CostBreakdown(
                storage=storage_each[i],
                read=read_each[i],
                decompression=decompression_each[i],
            )

    mean_latency = total_latency / access_count if access_count else 0.0
    return SimulationResult(
        bill=CostBreakdown(
            storage=storage_total,
            read=read_total,
            decompression=decompression_total,
        ),
        early_deletion_penalty=0.0,
        latency_violations=latency_violations,
        access_count=access_count,
        mean_latency_s=mean_latency,
        per_partition=per_partition,
    )
