"""Block-cut event path vs the per-event oracle, on random streams.

The event path moves :class:`repro.cloud.EventBlock`\\ s: streams yield
blocks, :func:`repro.engine.windowed` cuts them with array operations, and
billing and aggregation read their columns.  ``tests/oracles`` keeps the
per-event implementation it replaced.  On random streams — timestamp ties
at boundaries, quiet stretches, non-integer reads, blocks of one event and
more, native and gathered — the block-aware triggers through the block
driver and the oracle's per-event triggers through its per-event driver must
cut the same windows with the same causes and events, aggregate the same
counts in the same key order, score drift identically, and bill every window
to the bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import per_event_windows as oracle
from repro import engine
from repro.cloud import events as cloud_events
from repro.cloud import (
    AccessEvent,
    CloudStorageSimulator,
    CompressionProfile,
    DataPartition,
    EventBlock,
    PartitionArrays,
    PlacementDecision,
    TimedEvent,
    azure_tier_catalog,
)
from repro.engine import StreamWindow, windowed
from repro.workloads import PoissonZipfStream, diurnal_modulation

NAMES = ("a", "b", "c", "d", "e")
BASELINE = {"a": 40.0, "b": 10.0, "c": 5.0}


# -- random streams ----------------------------------------------------------------

@st.composite
def streams(draw):
    """Time-ordered timed events; hypothesis picks the mix, a seed the draws.

    Gaps are timestamp ties, steps of 0.25/0.5/1.0 that land exactly on
    boundaries, short steps, or quiet stretches of 1-3 months; reads are
    half-integers (which round to even) or arbitrary non-negative floats.
    """
    count = draw(st.integers(min_value=0, max_value=120))
    ties = draw(st.sampled_from([0.0, 0.3, 0.8]))
    quiet = draw(st.sampled_from([0.0, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = draw(st.sampled_from([0.0, 0.5, 0.9]))
    kinds = rng.choice(
        4, size=count, p=[ties, 0.2 * (1 - ties), (0.8 - quiet) * (1 - ties), quiet * (1 - ties)]
    )
    events = []
    for kind in kinds.tolist():
        if kind == 1:
            t += float(rng.choice([0.25, 0.5, 1.0]))
        elif kind == 2:
            t += float(rng.uniform(1e-3, 0.3))
        elif kind == 3:
            t += float(rng.uniform(1.0, 3.0))
        if rng.random() < 0.5:
            reads = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.5, 3.0]))
        else:
            reads = float(rng.uniform(0.0, 7.0))
        partition = NAMES[int(rng.choice(len(NAMES), p=[0.4, 0.25, 0.15, 0.1, 0.1]))]
        events.append(TimedEvent(t=t, partition=partition, reads=reads))
    return events


def trigger_pair(kind: str, params: dict):
    """The same trigger twice: block-aware and per-event oracle."""

    def build(module):
        def drift():
            trigger = module.DriftTrigger(
                params["threshold"],
                min_width_months=params["min_width"],
                check_every=params["check_every"],
            )
            # The baseline is fetched right before each score, so the
            # provider sees every score but the last one.
            trigger.scores = []

            def baseline():
                trigger.scores.append(trigger.last_score)
                return BASELINE

            trigger.baseline_provider = baseline
            return trigger

        return {
            "count": lambda: module.CountTrigger(params["count"]),
            "time": lambda: module.TimeTrigger(params["width"]),
            "drift": drift,
            "any_time_count": lambda: module.AnyTrigger(
                module.TimeTrigger(params["width"]), module.CountTrigger(params["count"])
            ),
            "any_count_drift": lambda: module.AnyTrigger(
                module.CountTrigger(params["count"]), drift()
            ),
            "any_time_drift": lambda: module.AnyTrigger(
                drift(), module.TimeTrigger(params["width"])
            ),
        }[kind]()

    return build(engine), build(oracle)


triggers = st.tuples(
    st.sampled_from(
        ["count", "time", "drift", "any_time_count", "any_count_drift", "any_time_drift"]
    ),
    st.fixed_dictionaries(
        {
            "count": st.integers(min_value=1, max_value=9),
            "width": st.sampled_from([0.25, 0.5, 1.0, 1.7]),
            "threshold": st.sampled_from([0.05, 0.3, 0.6, 0.99]),
            "min_width": st.sampled_from([0.01, 0.2, 0.5]),
            "check_every": st.sampled_from([1, 2, 3, 5, 8, 16]),
        }
    ),
)


class NativeBlocks:
    """A source with native blocks of the given sizes over one names tuple."""

    def __init__(self, events, sizes):
        self.events = events
        self.sizes = sizes

    def blocks(self):
        start = 0
        for size in self.sizes:
            chunk = self.events[start : start + size]
            start += size
            if chunk:
                yield EventBlock(
                    [event.t for event in chunk],
                    [NAMES.index(event.partition) for event in chunk],
                    [event.reads for event in chunk],
                    NAMES,
                )
        if start < len(self.events):
            yield from NativeBlocks(self.events[start:], [len(self.events)]).blocks()


def gather_size(size):
    """The edge adapter gathering ``size`` events per block while active."""
    return mock.patch.object(cloud_events, "_GATHER_SIZE", size)


def drift_members(trigger):
    return [
        member
        for member in [trigger, *getattr(trigger, "triggers", ())]
        if hasattr(member, "last_score")
    ]


def cut(lazy_windows, trigger):
    """The windows with ``trigger``'s drift scores as seen at each yield.

    A backwards event ends the run with its error, after the windows that
    closed before it.
    """
    windows, scores = [], []
    try:
        for window in lazy_windows:
            windows.append(window)
            scores.append([member.last_score for member in drift_members(trigger)])
    except ValueError as error:
        return windows, scores, str(error)
    return windows, scores, None


def as_tuples(events):
    return [(event.t, event.partition, event.reads) for event in events]


# -- billing -------------------------------------------------------------------------


def compiled_placement():
    partitions = [
        DataPartition(
            name=name,
            size_gb=10.0 + 7.5 * i,
            predicted_accesses=1.0,
            read_fraction=0.1 * (i + 1),
            latency_threshold_s=[3600.0, 0.05, 1.0, 7200.0, 0.001][i],
        )
        for i, name in enumerate(NAMES)
    ]
    tiers = azure_tier_catalog(include_archive=True)
    placement = {
        name: PlacementDecision(
            tier_index=i % len(tiers),
            profile=CompressionProfile(
                scheme=f"codec{i}", ratio=1.0 + 0.7 * i, decompression_s_per_gb=0.3 * i
            ),
        )
        for i, name in enumerate(NAMES)
    }
    return CloudStorageSimulator(tiers).compile_placement(
        PartitionArrays.from_partitions(partitions), placement
    )


COMPILED = compiled_placement()


def billed(result):
    return (
        result.bill.storage,
        result.bill.read,
        result.bill.decompression,
        result.access_count,
        result.latency_violations,
        result.mean_latency_s,
        {name: vars(cost) for name, cost in result.per_partition.items()},
    )


# -- the battery --------------------------------------------------------------------


class TestBlocksMatchPerEventOracle:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        events=streams(),
        trigger=triggers,
        horizon=st.one_of(st.none(), st.sampled_from([0.5, 2.0, 3.3, 8.0])),
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
        form=st.sampled_from(["native", "gathered", "events"]),
        backwards_at=st.one_of(st.none(), st.integers(min_value=0, max_value=119)),
    )
    def test_windows_counts_scores_and_bills(
        self, events, trigger, horizon, sizes, form, backwards_at
    ):
        if backwards_at is not None and 0 < backwards_at < len(events):
            previous = events[backwards_at - 1]
            if previous.t > 0.0:
                events = list(events)
                events.insert(
                    backwards_at,
                    TimedEvent(t=previous.t / 2.0, partition="a", reads=1.0),
                )
        start = min(events[0].t, 0.5) if events else 0.0
        mine_trigger, oracle_trigger = trigger_pair(*trigger)
        # "gathered" and "events" both pass the edge adapter, in blocks of
        # 1-40 events or of its own size.
        source = NativeBlocks(events, sizes) if form == "native" else iter(events)
        size = sizes[0] if form == "gathered" else cloud_events._GATHER_SIZE
        with gather_size(size):
            mine, mine_scores, mine_error = cut(
                windowed(
                    source, mine_trigger, start_month=start, horizon_months=horizon
                ),
                mine_trigger,
            )
        expected, expected_scores, expected_error = cut(
            oracle.windowed_per_event(
                iter(events), oracle_trigger, start_month=start, horizon_months=horizon
            ),
            oracle_trigger,
        )

        assert mine_error == expected_error
        assert [
            (w.index, w.start_month, w.end_month, w.cause) for w in mine
        ] == [(w.index, w.start_month, w.end_month, w.cause) for w in expected]
        assert mine_scores == expected_scores
        assert [m.scores for m in drift_members(mine_trigger)] == [
            m.scores for m in drift_members(oracle_trigger)
        ]
        for got, want in zip(mine, expected):
            assert isinstance(got.events, EventBlock)
            assert len(got.events) == len(want.events)
            assert as_tuples(got.events) == as_tuples(want.events)
            want_counts = oracle.reads_by_partition_per_event(want.events)
            assert list(got.reads_by_partition().items()) == list(want_counts.items())
            assert got.total_reads == float(sum(e.reads for e in want.events))
            for months, per_partition in ((got.duration_months, False), (1.0, True)):
                from_block = COMPILED.step(got.events, months, per_partition)
                from_tuple = COMPILED.step(tuple(want.events), months, per_partition)
                reference = oracle.step_per_event(
                    COMPILED, want.events, months, per_partition
                )
                assert billed(from_block) == billed(from_tuple) == billed(reference)


    @pytest.mark.parametrize("check_every", [3, 7, 64])
    def test_drift_scores_accumulate_in_event_order(self, check_every):
        # One long window of arbitrary reads scored thousands of times: a
        # per-slice sum would reassociate the counts and move the scores.
        rng = np.random.default_rng(check_every)
        times = np.cumsum(rng.uniform(1e-3, 0.01, size=3000))
        events = [
            TimedEvent(t=float(t), partition=NAMES[int(p)], reads=float(r))
            for t, p, r in zip(
                times, rng.integers(0, len(NAMES), 3000), rng.uniform(0.0, 7.0, 3000)
            )
        ]
        params = {"threshold": 0.99, "min_width": 0.01, "check_every": check_every}
        mine, reference = trigger_pair("drift", params)
        list(windowed(NativeBlocks(events, [500] * 6), mine, horizon_months=40.0))
        list(oracle.windowed_per_event(iter(events), reference, horizon_months=40.0))
        assert len(mine.scores) > 40
        assert mine.scores == reference.scores
        assert mine.last_score == reference.last_score


    def test_source_error_arrives_after_the_windows_before_it(self):
        def source():
            for i in range(10):
                yield TimedEvent(t=0.3 * i, partition="a")
            raise RuntimeError("source broke")

        for driver, count in (
            (windowed, engine.CountTrigger),
            (oracle.windowed_per_event, oracle.CountTrigger),
        ):
            seen = []
            with pytest.raises(RuntimeError, match="source broke"):
                for window in driver(source(), count(3)):
                    seen.append(len(window.events))
            assert seen == [3, 3, 3]


class TestEventBlock:
    def test_iteration_yields_gathered_objects_unchanged(self):
        events = [
            TimedEvent(t=0.1, partition="a", tenant="x"),
            TimedEvent(t=0.2, partition="b", reads=2.0, tenant="y"),
        ]
        (block,) = EventBlock.gather(events)
        assert all(got is want for got, want in zip(block, events))
        assert block[1] is events[1]
        assert [event.tenant for event in block[1:]] == ["y"]

    def test_native_iteration_builds_timed_events(self):
        block = EventBlock([0.5, 1.5], [1, 0], [2.0, 1.0], ("p", "q"), tenant="acme")
        assert list(block) == [
            TimedEvent(t=0.5, partition="q", reads=2.0, tenant="acme"),
            TimedEvent(t=1.5, partition="p", reads=1.0, tenant="acme"),
        ]
        assert block[-1] == TimedEvent(t=1.5, partition="p", reads=1.0, tenant="acme")

    def test_gathered_names_grow_as_one_prefix_chain(self):
        events = [TimedEvent(t=0.1 * i, partition=p) for i, p in enumerate("abacbda")]
        with gather_size(2):
            blocks = list(EventBlock.gather(events))
        assert [block.names for block in blocks] == [
            ("a", "b"),
            ("a", "b", "c"),
            ("a", "b", "c", "d"),
            ("a", "b", "c", "d"),
        ]
        # A block with no new name reuses the tuple, so per-names caches hit.
        assert blocks[3].names is blocks[2].names
        whole = EventBlock.concat(blocks)
        assert [whole.names[pid] for pid in whole.pid.tolist()] == list("abacbda")
        assert all(got is want for got, want in zip(whole, events))

    def test_concat_reindexes_unrelated_names(self):
        first = EventBlock([0.1], [0], [1.0], ("x",))
        second = EventBlock([0.2, 0.3], [1, 0], [2.0, 3.0], ("y", "x"))
        whole = EventBlock.concat([first, second])
        assert whole.reads_by_partition() == {"x": 3.0, "y": 3.0}
        assert [e.partition for e in whole] == ["x", "x", "y"]

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([math.nan], [0], [1.0], ("a",)), "time t"),
            (([0.0], [0], [math.inf], ("a",)), "reads"),
            (([0.0], [1], [1.0], ("a",)), "pid 1"),
            (([0.0, 1.0], [0], [1.0], ("a",)), "differ in length"),
        ],
    )
    def test_constructor_rejects_bad_columns(self, columns, message):
        with pytest.raises(ValueError, match=message):
            EventBlock(*columns)

    def test_access_events_bill_like_their_timed_twins(self):
        accesses = (AccessEvent(month=2, partition="c", reads=2.5),
                    AccessEvent(month=2, partition="a", reads=0.5))
        timed = tuple(
            TimedEvent(t=2.0, partition=e.partition, reads=e.reads) for e in accesses
        )
        assert billed(COMPILED.step(accesses)) == billed(COMPILED.step(timed))

    def test_unknown_referenced_partition_is_named(self):
        # "zz" is in the names tuple but unreferenced; "b?" is referenced.
        block = EventBlock([0.1, 0.2], [0, 2], [1.0, 1.0], ("a", "zz", "b?"))
        with pytest.raises(KeyError, match=r"'b\?'"):
            COMPILED.step(block)
        assert COMPILED.step(block[:1]).access_count == 1

    def test_window_block_is_shared_by_billing_and_counts(self):
        window = StreamWindow(
            index=0,
            start_month=0.0,
            end_month=1.0,
            events=(TimedEvent(t=0.5, partition="a"),),
            cause="time",
        )
        assert window.block is window.block
        assert window.reads_by_partition() == {"a": 1.0}


class TestStreamBlocks:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"modulation": diurnal_modulation(0.8), "tenant": "acme", "chunk_size": 64},
            {"reads_per_event": 2.5, "zipf_exponent": 0.0, "start_month": 1.25},
        ],
    )
    def test_iteration_is_the_concatenated_blocks(self, kwargs):
        stream = PoissonZipfStream(
            [f"p{i}" for i in range(30)],
            rate_per_month=900.0,
            horizon_months=3.0,
            seed=11,
            **kwargs,
        )
        blocks = list(stream.blocks())
        assert all(block.names is stream.partitions for block in blocks)
        from_blocks = [event for block in blocks for event in block]
        assert list(stream) == from_blocks
        assert all(event.tenant == kwargs.get("tenant") for event in from_blocks)
        whole = EventBlock.concat(blocks)
        assert np.array_equal(whole.t, [event.t for event in from_blocks])
        # Re-iterable: a second pass regenerates the identical blocks.
        again = EventBlock.concat(list(stream.blocks()))
        assert np.array_equal(again.t, whole.t) and np.array_equal(again.pid, whole.pid)
