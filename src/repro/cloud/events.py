"""Access events: the per-event records and the columnar block they travel in.

:class:`AccessEvent` (a read count in a billing month) and
:class:`TimedEvent` (one access at a fractional-month time) are the
per-event records callers build and consume.  Inside the event path —
stream generation, window cutting, billing, feature ingest — events move as
:class:`EventBlock`\\ s: numpy columns ``t``, ``pid`` and ``reads`` plus a
shared ``names`` tuple the ``pid``\\ s index, so per-window work is a few
vectorized passes instead of one Python object per event.
:meth:`EventBlock.gather` and :meth:`EventBlock.from_events` are the edge
adapter from any iterable of event objects; iterating a block yields event
objects again (the originals, for a gathered block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["AccessEvent", "TimedEvent", "EventBlock", "NameRows"]


@dataclass(frozen=True)
class AccessEvent:
    """A single (aggregated) access to a partition during one month.

    ``reads`` is the number of read operations issued in ``month`` against
    ``partition``; each read touches ``partition.read_gb_per_access`` GB of
    uncompressed data.
    """

    month: int
    partition: str
    reads: float = 1.0

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so they reject non-finite
        # values at the cost of one extra comparison per event.
        if not 0 <= self.month:
            raise ValueError(f"month must be non-negative, got {self.month!r}")
        if not 0.0 <= self.reads < math.inf:
            raise ValueError(
                f"reads must be finite and non-negative, got {self.reads!r}"
            )


@dataclass(frozen=True)
class TimedEvent:
    """:class:`AccessEvent`'s continuous-time sibling: one access at time ``t``.

    ``t`` is a virtual wall clock measured in (fractional) months, the same
    unit every price in the catalog is quoted against; ``t = 2.5`` is the
    middle of billing month 2.  Continuous workload generators
    (:mod:`repro.workloads.streams`) produce :class:`EventBlock`\\ s of
    these and yield them one by one when iterated; the epoch-free trigger
    windows (:mod:`repro.engine.events`) group them into billable batches
    without ever materializing a schedule.

    ``tenant`` optionally attributes the event to a fleet tenant; merged
    multi-tenant streams use it to split shared trigger windows back into
    per-tenant batches.
    """

    t: float
    partition: str
    reads: float = 1.0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.t < math.inf:
            raise ValueError(
                f"event time t must be finite and non-negative, got {self.t!r}"
            )
        if not 0.0 <= self.reads < math.inf:
            raise ValueError(
                f"reads must be finite and non-negative, got {self.reads!r}"
            )

    @property
    def month(self) -> int:
        """The billing month this event falls into (``floor(t)``)."""
        return int(self.t)


def _check_finite(column: np.ndarray, field: str) -> None:
    """Reject negative or non-finite values, naming the field and position."""
    bad = np.flatnonzero(~((column >= 0.0) & (column < math.inf)))
    if bad.size:
        at = int(bad[0])
        raise ValueError(
            f"event {at}: {field} must be finite and non-negative, "
            f"got {float(column[at])!r}"
        )


# Events per block the edge adapter gathers at a time.
_GATHER_SIZE = 4096


class EventBlock:
    """A run of access events as columns: the unit of the event path.

    ``t`` (float64 months), ``pid`` (int32 index into ``names``) and
    ``reads`` (float64) hold one entry per event, in stream order.
    ``names`` is shared by every block of one stream, so a consumer caches
    whatever it derives from it (a :class:`NameRows` translation) once per
    stream rather than once per event.  ``tenant`` is the tag every event
    of a generated block carries; gathered blocks carry ``None`` and keep
    each event's own tag on the original objects.

    A block supports ``len``, integer indexing (one event object), slicing
    (a block sharing the columns) and iteration, which yields
    :class:`TimedEvent`\\ s — or, for a block gathered from event objects
    (:meth:`gather`, :meth:`from_events`), the original objects.
    """

    __slots__ = ("t", "pid", "reads", "names", "tenant", "_events")

    def __init__(
        self,
        t: Sequence[float] | np.ndarray,
        pid: Sequence[int] | np.ndarray,
        reads: Sequence[float] | np.ndarray,
        names: Sequence[str],
        tenant: str | None = None,
    ) -> None:
        t = np.asarray(t, dtype=np.float64)
        pid = np.asarray(pid, dtype=np.int32)
        reads = np.asarray(reads, dtype=np.float64)
        if not t.ndim == pid.ndim == reads.ndim == 1:
            raise ValueError("event columns must be one-dimensional")
        if not len(t) == len(pid) == len(reads):
            raise ValueError(
                f"event columns differ in length: t {len(t)}, pid {len(pid)}, "
                f"reads {len(reads)}"
            )
        names = tuple(names)
        bad = np.flatnonzero((pid < 0) | (pid >= len(names)))
        if bad.size:
            at = int(bad[0])
            raise ValueError(
                f"event {at}: pid {int(pid[at])} is not an index into "
                f"{len(names)} names"
            )
        _check_finite(t, "time t")
        _check_finite(reads, "reads")
        self._assign(t, pid, reads, names, tenant, None)

    def _assign(self, t, pid, reads, names, tenant, events) -> None:
        self.t = t
        self.pid = pid
        self.reads = reads
        self.names = names
        self.tenant = tenant
        self._events = events

    @classmethod
    def _make(cls, t, pid, reads, names, tenant=None, events=None):
        """A block from parts the caller already validated."""
        block = cls.__new__(cls)
        block._assign(t, pid, reads, names, tenant, events)
        return block

    @classmethod
    def empty(cls) -> "EventBlock":
        return cls._make(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float64),
            (),
        )

    # -- the edge adapter ----------------------------------------------------------
    @classmethod
    def gather(cls, events: Iterable) -> Iterator["EventBlock"]:
        """Cut any iterable of event objects into blocks of up to 4096 events.

        The edge adapter for sources without native blocks (trace replay,
        heap-merged tenant streams, generator wrappers).  The blocks of one
        pass share a growing names tuple: a block's ``names`` extends the
        ones before it, and is the same tuple while no name is new.  If the
        source raises, the events it yielded first still arrive as a block
        before the error does.
        """
        iterator = iter(events)
        index: dict[str, int] = {}
        names: tuple[str, ...] = ()
        while True:
            chunk: list = []
            try:
                chunk.extend(islice(iterator, _GATHER_SIZE))
            except Exception:
                if chunk:
                    yield cls._of_events(tuple(chunk), index, names)
                raise
            if not chunk:
                return
            block = cls._of_events(tuple(chunk), index, names)
            names = block.names
            yield block

    @classmethod
    def from_events(cls, events: Iterable) -> "EventBlock":
        """One block holding ``events`` (:class:`TimedEvent` or :class:`AccessEvent`).

        An :class:`AccessEvent` has no time of its own; its block time is
        its ``month``.
        """
        return cls._of_events(tuple(events), {}, ())

    @classmethod
    def _of_events(
        cls, events: tuple, index: dict[str, int], names: tuple[str, ...]
    ) -> "EventBlock":
        """A block over event objects; ``index`` assigns (and keeps) the pids.

        ``names`` is the previous block's tuple, reused while no name is new.
        """
        try:
            times = [event.t for event in events]
        except AttributeError:
            times = [float(event.month) for event in events]
        t = np.array(times, dtype=np.float64)
        pid = np.array(
            [index.setdefault(event.partition, len(index)) for event in events],
            dtype=np.int32,
        )
        reads = np.array([event.reads for event in events], dtype=np.float64)
        _check_finite(t, "time t")
        _check_finite(reads, "reads")
        if len(names) != len(index):
            names = tuple(index)
        return cls._make(t, pid, reads, names, None, events)

    @classmethod
    def concat(cls, blocks: Sequence["EventBlock"]) -> "EventBlock":
        """The blocks' events, in order, as one block.

        Blocks of one stream share (or extend) one names tuple; blocks over
        unrelated names tuples are re-indexed onto the union of their names.
        Gathered blocks keep their event objects.
        """
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls.empty()
        tenants = {block.tenant for block in blocks}
        tenant = tenants.pop() if len(tenants) == 1 else None
        names = max((block.names for block in blocks), key=len)
        if all(
            block.names is names or names[: len(block.names)] == block.names
            for block in blocks
        ):
            pid = np.concatenate([block.pid for block in blocks])
        else:
            index: dict[str, int] = {}
            parts = []
            for block in blocks:
                rows = np.array(
                    [index.setdefault(name, len(index)) for name in block.names],
                    dtype=np.int32,
                )
                parts.append(rows[block.pid])
            names = tuple(index)
            pid = np.concatenate(parts)
        events = None
        if all(block._events is not None for block in blocks):
            events = tuple(chain.from_iterable(block._events for block in blocks))
        return cls._make(
            np.concatenate([block.t for block in blocks]),
            pid,
            np.concatenate([block.reads for block in blocks]),
            names,
            tenant,
            events,
        )

    # -- sequence protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._make(
                self.t[key],
                self.pid[key],
                self.reads[key],
                self.names,
                self.tenant,
                None if self._events is None else self._events[key],
            )
        if self._events is not None:
            return self._events[key]
        return TimedEvent(
            t=float(self.t[key]),
            partition=self.names[int(self.pid[key])],
            reads=float(self.reads[key]),
            tenant=self.tenant,
        )

    def __iter__(self) -> Iterator:
        if self._events is not None:
            return iter(self._events)
        return map(
            TimedEvent,
            self.t.tolist(),
            map(self.names.__getitem__, self.pid.tolist()),
            self.reads.tolist(),
            repeat(self.tenant),
        )

    def __repr__(self) -> str:
        return f"EventBlock({len(self)} events)"

    # -- aggregation ----------------------------------------------------------------
    @property
    def total_reads(self) -> float:
        """Sum of ``reads`` in event order (left to right, like ``sum``)."""
        if not len(self):
            return 0.0
        zeros = np.zeros(len(self), dtype=np.intp)
        return float(np.bincount(zeros, weights=self.reads)[0])

    def reads_by_partition(self) -> dict[str, float]:
        """Read counts per partition, keyed in order of first appearance.

        ``np.bincount`` adds each bin's weights in event order from 0.0, the
        same float operations as a running per-name dict.
        """
        if not len(self):
            return {}
        pid = self.pid
        present, first = np.unique(pid, return_index=True)
        order = present[np.argsort(first)]
        totals = np.bincount(pid, weights=self.reads)[order]
        names = self.names
        return dict(zip([names[p] for p in order.tolist()], totals.tolist()))


class NameRows:
    """Translates blocks' ``pid``\\ s onto a fixed row space, cached.

    ``index`` maps names to rows.  :meth:`rows` returns an int64 array ``r``
    with ``r[pid]`` the row of ``names[pid]``: ``-1`` for a name ``index``
    lacks, unless ``grow`` appends it as the next row.  The last translation
    is cached, and a names tuple that extends it (a gathered stream's growing
    tuple) is translated for its new tail only.
    """

    def __init__(self, index: Mapping[str, int], *, grow: bool = False) -> None:
        self.index = index
        self.grow = grow
        # One (names, rows) pair, replaced whole so a concurrent reader never
        # sees the rows of another names tuple.
        self._cache: tuple[tuple[str, ...], np.ndarray] = (
            (),
            np.empty(0, dtype=np.int64),
        )

    def rows(self, names: tuple[str, ...]) -> np.ndarray:
        cached_names, cached_rows = self._cache
        if names is cached_names:
            return cached_rows
        done = len(cached_names)
        if not (len(names) >= done and names[:done] == cached_names):
            done = 0
        index = self.index
        if self.grow:
            tail = [index.setdefault(name, len(index)) for name in names[done:]]
        else:
            tail = [index.get(name, -1) for name in names[done:]]
        rows = np.concatenate((cached_rows[:done], np.array(tail, dtype=np.int64)))
        self._cache = (names, rows)
        return rows
