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

**Epoch-free triggering** cuts a continuous stream of timed events (from
:mod:`repro.workloads.streams`) into :class:`StreamWindow` batches with a
pluggable **trigger**.  The unit it cuts is the
:class:`repro.cloud.EventBlock` — numpy columns ``t``, ``pid`` and
``reads`` over a shared ``names`` tuple — never one Python object per
event: a source with native blocks hands them over as generated, and any
other iterable of :class:`repro.cloud.TimedEvent` passes the edge adapter
(:meth:`repro.cloud.EventBlock.gather`) first.  Triggers find their next
decision with array operations (``searchsorted`` for time, arithmetic on
counts, ``check_every`` cadences for drift) and are asked event by event
only where they may act —

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
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from ..cloud import AccessEvent, DatasetCatalog, EventBlock, TimedEvent
from ..cloud.events import NameRows
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
    ``duration_months``, reads for the events.  Trigger windows hold an
    :class:`repro.cloud.EventBlock`; a dense epoch is the window
    ``[epoch, epoch + 1)`` of its tuple of
    :class:`repro.cloud.AccessEvent`\\ s (:meth:`EpochBatch.as_window`), and
    callers may build windows over any tuple of event objects.
    :attr:`block` is the columnar form either way.
    """

    index: int
    start_month: float
    end_month: float
    events: EventBlock | tuple[TimedEvent | AccessEvent, ...]
    cause: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("window index must be non-negative")
        if self.end_month < self.start_month:
            raise ValueError("window must not end before it starts")

    @cached_property
    def block(self) -> EventBlock:
        """The window's events as one :class:`repro.cloud.EventBlock`."""
        events = self.events
        if isinstance(events, EventBlock):
            return events
        return EventBlock.from_events(events)

    @property
    def duration_months(self) -> float:
        return self.end_month - self.start_month

    @property
    def total_reads(self) -> float:
        return self.block.total_reads

    def reads_by_partition(self) -> dict[str, float]:
        """Aggregated read counts per partition, in order of first appearance."""
        return self.block.reads_by_partition()


class TriggerWindow(Protocol):
    """Decides where a continuous event stream is cut into windows.

    :func:`windowed` calls ``open(start)`` when a window opens and walks each
    :class:`repro.cloud.EventBlock` from one decision point to the next:
    ``next_decision`` names the first event the trigger may act on, the
    events before it are folded in with ``advance``, time boundaries
    **strictly before** the decision event are drained (``boundary_before``
    — lets a pure wall-clock trigger emit empty windows across quiet
    stretches), and ``close_at`` says whether the window ends **at** that
    event.  ``cause`` is read right after a trigger fires and names it in
    the resulting :class:`StreamWindow`.
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

    def next_decision(self, block: EventBlock, lo: int, hi: int) -> int:
        """The first position in ``[lo, hi)`` the trigger may act on, or ``hi``.

        Acting means a boundary before that event or a close after it.
        """
        ...

    def advance(self, block: EventBlock, lo: int, hi: int) -> None:
        """Fold the events ``[lo, hi)``, cleared by ``next_decision``, in."""
        ...

    def close_at(self, block: EventBlock, position: int) -> float | None:
        """Append the event at ``position``; the close time if it ends the window."""
        ...


class CountTrigger:
    """Close a window after ``max_events`` events (cause ``"count"``).

    A close that would make a zero-width window (the count is reached on a
    timestamp tie at the window's start) is deferred by the driver: the
    window then ends at the first event that advances the clock, so windows
    always advance it.
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

    def next_decision(self, block: EventBlock, lo: int, hi: int) -> int:
        return min(hi, lo + max(0, self.max_events - self._count - 1))

    def advance(self, block: EventBlock, lo: int, hi: int) -> None:
        self._count += hi - lo

    def close_at(self, block: EventBlock, position: int) -> float | None:
        self._count += 1
        if self._count >= self.max_events:
            return float(block.t[position])
        return None


class TimeTrigger:
    """Close a window every ``width_months`` of virtual wall clock (``"time"``).

    Boundaries are laid end to end from the stream's start: quiet stretches
    emit empty windows, exactly like the dense monthly grid does.  With
    ``width_months=1.0`` from ``start_month=0.0`` the boundaries are the
    integers, and the windows reproduce dense epochs **bit-exactly** (adding
    1.0 to an integral float is exact, and dividing counts by a duration of
    exactly 1.0 is the identity).  On a block the next boundary is one
    ``searchsorted`` away.
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

    def next_decision(self, block: EventBlock, lo: int, hi: int) -> int:
        return lo + int(np.searchsorted(block.t[lo:hi], self._deadline, side="left"))

    def advance(self, block: EventBlock, lo: int, hi: int) -> None:
        pass

    def close_at(self, block: EventBlock, position: int) -> float | None:
        return None


class DriftTrigger:
    """Close a window when the in-window access mix drifts from a baseline.

    Accumulates per-partition read counts as events arrive and, every
    ``check_every`` events once the window is at least ``min_width_months``
    wide, scores the observed **rates** (counts / elapsed months) against
    ``baseline`` with :func:`repro.engine.policies.drift_score`; at or above
    ``threshold`` the window closes (cause ``"drift"``) so the policy can
    react *now* instead of at the next grid point.  Counts accumulate in
    event order on a running array (``np.add.at``), and the observed rates
    are keyed in order of first appearance, so a block-cut window scores
    exactly as an event-by-event one.

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
        self._since_check = 0
        # Rows are assigned to names as they first appear and kept across
        # windows; only the counts and the appearance order are per window.
        self._rows = NameRows({}, grow=True)
        self._names: list[str] = []
        self._running = np.zeros(0, dtype=np.float64)
        self._seen = np.zeros(0, dtype=bool)
        self._order: list[int] = []

    def open(self, start_month: float) -> None:
        self._start = start_month
        self._since_check = 0
        self._running = np.zeros(len(self._names), dtype=np.float64)
        self._seen = np.zeros(len(self._names), dtype=bool)
        self._order = []

    def boundary_before(self, t: float) -> float | None:
        return None

    def next_decision(self, block: EventBlock, lo: int, hi: int) -> int:
        return min(hi, lo + self.check_every - self._since_check - 1)

    def advance(self, block: EventBlock, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        rows = self._rows.rows(block.names)[block.pid[lo:hi]]
        if len(self._rows.index) > len(self._names):
            self._names = list(self._rows.index)
            grow = len(self._names) - len(self._running)
            self._running = np.concatenate((self._running, np.zeros(grow)))
            self._seen = np.concatenate((self._seen, np.zeros(grow, dtype=bool)))
        np.add.at(self._running, rows, block.reads[lo:hi])
        fresh = rows[~self._seen[rows]]
        if fresh.size:
            present, first = np.unique(fresh, return_index=True)
            appeared = present[np.argsort(first)]
            self._seen[appeared] = True
            self._order.extend(appeared.tolist())
        self._since_check += hi - lo

    def close_at(self, block: EventBlock, position: int) -> float | None:
        self.advance(block, position, position + 1)
        if self._since_check < self.check_every:
            return None
        self._since_check = 0
        t = float(block.t[position])
        elapsed = t - self._start
        if elapsed < self.min_width_months:
            return None
        baseline = self.baseline_provider() if self.baseline_provider else None
        if not baseline:
            return None
        rates = (self._running[self._order] / elapsed).tolist()
        names = self._names
        observed = dict(zip([names[row] for row in self._order], rates))
        self.last_score = drift_score(baseline, observed)
        if self.last_score >= self.threshold:
            return t
        return None


class AnyTrigger:
    """Compose triggers: the first one to fire closes the window.

    Time boundaries take the earliest deadline across members; the next
    decision is the earliest member's; ``close_at`` asks every member in
    construction order and adopts the first firing member's ``cause``.
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

    def next_decision(self, block: EventBlock, lo: int, hi: int) -> int:
        return min(trigger.next_decision(block, lo, hi) for trigger in self.triggers)

    def advance(self, block: EventBlock, lo: int, hi: int) -> None:
        for trigger in self.triggers:
            trigger.advance(block, lo, hi)

    def close_at(self, block: EventBlock, position: int) -> float | None:
        close: float | None = None
        for trigger in self.triggers:
            fired = trigger.close_at(block, position)
            if fired is not None and close is None:
                close = fired
                self.cause = trigger.cause
        return close


def _blocks(events: Iterable[TimedEvent]) -> Iterable[EventBlock]:
    """A source's native blocks, or its events gathered into blocks."""
    if isinstance(events, EventBlock):
        return (events,)
    blocks = getattr(events, "blocks", None)
    if callable(blocks):
        return blocks()
    return EventBlock.gather(events)


def _usable(t: np.ndarray, last_t: float, end: float | None):
    """How many leading events of a block the driver may cut.

    Returns ``(stop, error)``: events from ``stop`` on are past the horizon
    or, when ``error`` is set, start with one that goes back in time.
    """
    if not len(t):
        return 0, None
    previous = np.empty_like(t)
    previous[0] = last_t
    previous[1:] = t[:-1]
    backwards = t < previous
    halts = backwards if end is None else backwards | (t >= end)
    hits = np.flatnonzero(halts)
    if not hits.size:
        return len(t), None
    at = int(hits[0])
    if backwards[at]:
        return at, ValueError(
            f"events must be time-ordered: {float(t[at])} after {float(previous[at])}"
        )
    return at, None


def windowed(
    events: Iterable[TimedEvent],
    trigger: TriggerWindow,
    *,
    start_month: float = 0.0,
    horizon_months: float | None = None,
) -> Iterator[StreamWindow]:
    """Cut a time-ordered stream of timed events into trigger windows, lazily.

    Yields consecutive, gap-free :class:`StreamWindow`\\ s covering
    ``[start_month, ...)``, each holding its events as one
    :class:`repro.cloud.EventBlock`.  ``events`` is a source with native
    blocks (a ``blocks()`` method, like
    :class:`repro.workloads.PoissonZipfStream`), a single block, or any
    iterable of :class:`repro.cloud.TimedEvent`, gathered into blocks by
    :meth:`repro.cloud.EventBlock.gather`; either way the same driver cuts
    them.  Only the open window and the current block are held in memory,
    so a million-event stream costs O(window) RAM.  Validates time-ordering
    (raises on a backwards event, after yielding the windows that closed
    before it) and that events do not precede ``start_month``.

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
    pending: list[EventBlock] = []
    # An empty window holds an empty slice of the current block.
    blank = EventBlock.empty()
    last_t = start_month
    end = None if horizon_months is None else start_month + horizon_months

    def close(end_month: float, cause: str, tail: EventBlock | None) -> StreamWindow:
        nonlocal index, start, pending
        pieces = pending + [tail] if tail is not None and len(tail) else pending
        window = StreamWindow(
            index=index,
            start_month=start,
            end_month=end_month,
            events=EventBlock.concat(pieces) if pieces else blank,
            cause=cause,
        )
        index += 1
        start = end_month
        pending = []
        return window

    trigger.open(start)
    for block in _blocks(events):
        blank = block[:0]
        t = block.t
        stop, error = _usable(t, last_t, end)
        if stop:
            last_t = float(t[stop - 1])
        # ``first`` is the open window's first event in this block; between
        # decisions the driver advances over whole runs of events.
        first = position = 0
        while position < stop:
            decision = trigger.next_decision(block, position, stop)
            trigger.advance(block, position, decision)
            if decision >= stop:
                break
            at = float(t[decision])
            while True:
                boundary = trigger.boundary_before(at)
                if boundary is None:
                    break
                yield close(boundary, trigger.cause, block[first:decision])
                first = decision
                trigger.open(start)
            closed = trigger.close_at(block, decision)
            position = decision + 1
            if closed is not None and closed > start:
                yield close(closed, trigger.cause, block[first:position])
                first = position
                trigger.open(start)
        if first < stop:
            pending.append(block[first:stop])
        if error is not None:
            raise error
        if stop < len(t):
            break
    if end is not None:
        while True:
            boundary = trigger.boundary_before(end)
            if boundary is None or boundary >= end:
                break
            yield close(boundary, trigger.cause, None)
            trigger.open(start)
        if pending or start < end:
            yield close(end, "horizon", None)
    elif pending:
        yield close(last_t, "flush", None)


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
