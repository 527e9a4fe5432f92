"""Event streams and the windows that cut them: the engine's clock.

The batch pipeline consumes a complete historical trace in one shot; the
online engine consumes events **window by window** and never looks ahead, so
any policy evaluated on a stream is causally honest.  There is one control
loop, over :class:`StreamWindow` batches; a dense stream of
:class:`EpochBatch` objects (one per billing month, strictly increasing
epochs) enters it through :meth:`EpochBatch.as_window` as the month-aligned
windows ``[epoch, epoch + 1)``.

Three dense epoch-batch sources are provided:

* :class:`ReplayStream` — replays a recorded flat trace (e.g. the one a batch
  simulation used), grouping events by month;
* :class:`SeriesStream` — synthesizes events from per-partition monthly read
  series, the output format of :mod:`repro.workloads.access_logs` (including
  the drifting series built with ``generate_drifting_reads``);
* :func:`stream_from_catalog` — wraps a :class:`repro.cloud.DatasetCatalog`'s
  recorded ``monthly_reads`` histories as a stream.

**Epoch-free triggering** cuts a continuous stream of
:class:`repro.cloud.TimedEvent` (from :mod:`repro.workloads.streams`) into
:class:`StreamWindow` batches with a pluggable **trigger** —

* :class:`CountTrigger` closes a window after a fixed number of events;
* :class:`TimeTrigger` closes on a virtual wall-clock width (month-aligned
  ``TimeTrigger(1.0)`` reproduces the dense-epoch grid bit-exactly — the
  oracle lock in ``tests/engine/test_windows.py``);
* :class:`DriftTrigger` closes when the observed access mix drifts past a
  score threshold against a baseline forecast;
* :class:`AnyTrigger` composes several (first to fire wins).

:func:`windowed` is the lazy driver (O(window) memory) and
:func:`monthly_batches` adapts a timed stream back onto the dense monthly
grid for oracle comparisons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from ..cloud import AccessEvent, DatasetCatalog, TimedEvent
from .policies import drift_score

__all__ = [
    "EpochBatch",
    "ReplayStream",
    "SeriesStream",
    "stream_from_catalog",
    "StreamWindow",
    "TriggerWindow",
    "CountTrigger",
    "TimeTrigger",
    "DriftTrigger",
    "AnyTrigger",
    "windowed",
    "monthly_batches",
]


@dataclass(frozen=True)
class EpochBatch:
    """All access events observed during one epoch (billing month)."""

    epoch: int
    events: tuple[AccessEvent, ...]

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")

    @property
    def total_reads(self) -> float:
        return self.as_window().total_reads

    def reads_by_partition(self) -> dict[str, float]:
        """Aggregated read counts per partition for this epoch."""
        return self.as_window().reads_by_partition()

    def as_window(self) -> "StreamWindow":
        """This epoch as the month-aligned window ``[epoch, epoch + 1)``.

        The events pass through unconverted: billing and aggregation read
        only their ``partition`` and ``reads``.
        """
        return StreamWindow(
            index=self.epoch,
            start_month=float(self.epoch),
            end_month=float(self.epoch + 1),
            events=self.events,
            cause="time",
        )


class ReplayStream:
    """Replay a recorded flat access trace epoch by epoch.

    Events are grouped by their ``month`` field; epochs with no events still
    yield an (empty) batch so storage keeps accruing and periodic policies
    keep ticking.  ``num_epochs`` extends (or truncates) the horizon; by
    default it runs through the last recorded event's month.  Truncating
    below the last recorded month drops the recorded events past the cutoff
    — that is sometimes intentional (evaluate a shorter horizon) but easy to
    hit by accident, so it raises a :class:`UserWarning` saying exactly how
    many events were cut.
    """

    def __init__(self, events: Iterable[AccessEvent], num_epochs: int | None = None):
        by_epoch: dict[int, list[AccessEvent]] = {}
        last = -1
        for event in events:
            by_epoch.setdefault(event.month, []).append(event)
            last = max(last, event.month)
        if num_epochs is None:
            num_epochs = last + 1
        if num_epochs <= 0:
            raise ValueError("the stream needs at least one epoch")
        if last >= num_epochs:
            dropped = sum(
                len(batch) for month, batch in by_epoch.items() if month >= num_epochs
            )
            warnings.warn(
                f"num_epochs={num_epochs} truncates the recorded trace: "
                f"{dropped} event(s) in months {num_epochs}..{last} will never "
                "be replayed",
                UserWarning,
                stacklevel=2,
            )
        self._by_epoch = by_epoch
        self.num_epochs = num_epochs

    def __iter__(self) -> Iterator[EpochBatch]:
        for epoch in range(self.num_epochs):
            yield EpochBatch(
                epoch=epoch, events=tuple(self._by_epoch.get(epoch, ()))
            )

    def __len__(self) -> int:
        return self.num_epochs


class SeriesStream:
    """Synthesize an event stream from per-partition monthly read series.

    ``series`` maps partition names to monthly read counts (index 0 = epoch
    0), the exact shape produced by
    :func:`repro.workloads.generate_monthly_reads` and
    :func:`repro.workloads.generate_drifting_reads`.  Zero-read months emit
    no event for that partition.  The horizon is the longest series unless
    ``num_epochs`` overrides it.
    """

    def __init__(
        self,
        series: Mapping[str, Sequence[float]],
        num_epochs: int | None = None,
    ):
        if not series:
            raise ValueError("at least one partition series is required")
        if num_epochs is None:
            num_epochs = max(len(values) for values in series.values())
        if num_epochs <= 0:
            raise ValueError("the stream needs at least one epoch")
        for name, values in series.items():
            if any(value < 0 for value in values):
                raise ValueError(f"negative read count in series for {name!r}")
        self._series = {name: list(values) for name, values in series.items()}
        self.num_epochs = num_epochs

    def __iter__(self) -> Iterator[EpochBatch]:
        for epoch in range(self.num_epochs):
            events = tuple(
                AccessEvent(month=epoch, partition=name, reads=float(values[epoch]))
                for name, values in self._series.items()
                if epoch < len(values) and values[epoch] > 0
            )
            yield EpochBatch(epoch=epoch, events=events)

    def __len__(self) -> int:
        return self.num_epochs


def stream_from_catalog(
    catalog: DatasetCatalog, num_epochs: int | None = None
) -> SeriesStream:
    """A stream replaying every dataset's recorded ``monthly_reads`` history."""
    return SeriesStream(
        {dataset.name: dataset.monthly_reads for dataset in catalog},
        num_epochs=num_epochs,
    )


# ---------------------------------------------------------------------------
# Epoch-free trigger windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamWindow:
    """A closed window: the access events in ``[start_month, end_month)``.

    The unit of the engine's control loop: ``index`` is the window's
    ordinal (windows are consecutive and gap-free), ``cause`` names the
    trigger that closed it (``"count"``, ``"time"``, ``"drift"``,
    ``"horizon"`` or ``"flush"``).  Storage is billed for
    ``duration_months``, reads for the events.  A dense epoch is the window
    ``[epoch, epoch + 1)`` of its :class:`repro.cloud.AccessEvent`\\ s
    (:meth:`EpochBatch.as_window`); trigger windows hold
    :class:`repro.cloud.TimedEvent`\\ s.
    """

    index: int
    start_month: float
    end_month: float
    events: tuple[TimedEvent | AccessEvent, ...]
    cause: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("window index must be non-negative")
        if self.end_month < self.start_month:
            raise ValueError("window must not end before it starts")

    @property
    def duration_months(self) -> float:
        return self.end_month - self.start_month

    @property
    def total_reads(self) -> float:
        return float(sum(event.reads for event in self.events))

    def reads_by_partition(self) -> dict[str, float]:
        """Aggregated read counts per partition for this window."""
        totals: dict[str, float] = {}
        for event in self.events:
            totals[event.partition] = totals.get(event.partition, 0.0) + event.reads
        return totals


class TriggerWindow(Protocol):
    """Decides where a continuous event stream is cut into windows.

    The :func:`windowed` driver calls ``open(start)`` when a window opens,
    then for every event first drains time boundaries **strictly before** the
    event (``boundary_before`` — lets a pure wall-clock trigger emit empty
    windows across quiet stretches), appends the event, and asks
    ``close_after`` whether the window ends **at** this event.  ``cause`` is
    read right after a trigger fires and names it in the resulting
    :class:`StreamWindow`.
    """

    cause: str

    def open(self, start_month: float) -> None:
        """A new window opens at ``start_month``; reset per-window state."""
        ...

    def boundary_before(self, t: float) -> float | None:
        """The earliest boundary ``<= t`` the window must close at, if any.

        Called before an event at time ``t`` joins the window (and once more
        at the horizon).  Returning a boundary closes the current window at
        that time — possibly empty — and re-opens from it.
        """
        ...

    def close_after(self, event: TimedEvent) -> float | None:
        """The close time if this just-appended event completes the window."""
        ...


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


def windowed(
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


def monthly_batches(
    events: Iterable[TimedEvent], num_epochs: int | None = None
) -> Iterator[EpochBatch]:
    """Adapt a timed stream onto the dense monthly grid, lazily.

    Each :class:`repro.cloud.TimedEvent` becomes one
    :class:`repro.cloud.AccessEvent` in ``floor(t)``'s batch, **preserving
    event order and without aggregating** — float summation order is exactly
    what the bit-exact window-vs-epoch oracle tests compare, so this adapter
    must not reassociate it.  Quiet months yield empty batches;
    ``num_epochs`` pads (or cuts) the horizon.
    """
    if num_epochs is not None and num_epochs <= 0:
        raise ValueError("the stream needs at least one epoch")
    current = 0
    pending: list[AccessEvent] = []
    last_t = 0.0
    saw_events = False
    for event in events:
        if event.t < last_t:
            raise ValueError(
                f"events must be time-ordered: {event.t} after {last_t}"
            )
        last_t = event.t
        month = event.month
        if num_epochs is not None and month >= num_epochs:
            break
        saw_events = True
        while month > current:
            yield EpochBatch(epoch=current, events=tuple(pending))
            pending = []
            current += 1
        pending.append(
            AccessEvent(month=month, partition=event.partition, reads=event.reads)
        )
    if num_epochs is None:
        if not saw_events:
            return
        num_epochs = current + 1
    while current < num_epochs:
        yield EpochBatch(epoch=current, events=tuple(pending))
        pending = []
        current += 1
