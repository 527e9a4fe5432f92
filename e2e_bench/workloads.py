"""The three benchmark workloads: inputs from a seed, one timed run, oracles.

Every workload is a closed loop over virtual time in one process: the
program pulls its inputs as fast as it can and nothing waits on a wall-clock
schedule.  Each exposes

* ``setup(seed)`` -> a fresh case (inputs generated from the seed plus the
  objects under test); timed as ``setup_s``;
* ``run(case, probe, clock, corrupt)`` -> :class:`Outcome`; timed as
  ``run_s``; it splits ``clock`` (a :class:`harness.SpeedClock`) after
  every window, so window ``i``'s latency lies in the clock's segment
  ``i`` of the run;
* ``reference(seed)`` -> :class:`Reference`, the untimed oracles every
  repetition is checked against;
* ``layers(outcome, probe, spans)`` -> the per-layer metrics of a traced
  repetition (the runner reports layers a workload does not exercise as 0);
* ``traced_patches(probe)`` -> context managers that time public functions
  for a traced repetition only.

An operation is one window (streaming workloads) or one variant
(``scope_batch``).  The runner compares each repetition's ``Outcome.ops``
with ``Reference.ops`` exactly and adds the workload's own per-operation
(``op_errors``) and per-repetition (``rep_errors``) findings.

``corrupt=True`` drops one event (or one query) from a copy of the inputs of
that repetition; the self-test uses it to show that the checks catch it.
"""

from __future__ import annotations

import heapq
import importlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.cloud import (
    CapacityPool,
    CloudStorageSimulator,
    DataPartition,
    PartitionArrays,
    PlacementDecision,
    PoolSet,
    azure_tier_catalog,
    multi_cloud_catalog,
)
from repro.core.pipeline import ScopeConfig, ScopePipeline, paper_variant_suite
from repro.engine import (
    EngineConfig,
    OnlineTieringEngine,
    PeriodicReoptimize,
    StaticOnce,
    StreamWindow,
    TimeTrigger,
    monthly_batches,
    windowed,
)
from repro.fleet import FleetConfig, FleetScheduler, TenantSpec
from repro.workloads import (
    PoissonZipfStream,
    QueryWorkload,
    TpchConfig,
    compose_modulations,
    diurnal_modulation,
    flash_crowd,
    generate_fleet_workload,
    generate_tpch,
    generate_tpch_queries,
    tenant_rate_skew,
)

from probe import Probe, outermost_solve_s, span_totals

# Pool usage may exceed its capacity by float round-off only: the same
# absolute slack the fleet's own window tests allow.
POOL_SLACK_GB = 1e-6


@dataclass
class Outcome:
    """What one repetition produced."""

    bill: float
    events: float
    window_latency_s: list[float]  # one sample per window
    ops: list  # per-operation output, compared with Reference.ops
    op_errors: list = field(default_factory=list)  # None or a reason, per op
    rep_errors: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # dropped once layers are read


@dataclass
class Reference:
    """Untimed oracle outputs for one invocation."""

    ops: list
    default_bill: float
    errors: list[str] = field(default_factory=list)


def _record_key(record) -> tuple:
    """Everything a settled window or epoch billed, for bit-exact comparison."""
    return (
        record.storage_cost,
        record.read_cost,
        record.decompression_cost,
        record.migration_cost,
        record.early_deletion_penalty,
        record.num_moved,
        record.moved_gb,
        record.access_count,
        record.reoptimized,
    )


def _default_placement(partitions, tiers):
    """Every partition uncompressed on the catalog's first tier, never moved.

    The paper's "Default (store on premium)" baseline, billed by the same
    simulator over the same events; ``savings_pct`` is measured against it.
    """
    placement = {
        partition.name: PlacementDecision(tier_index=0) for partition in partitions
    }
    return CloudStorageSimulator(tiers).compile_placement(
        PartitionArrays.from_partitions(partitions), placement
    )


def _counted_batches(batches, counts: list, reads: list, default=None, default_bills=None):
    """Pass dense epoch batches through, noting their event and read counts
    (and, given a ``default`` placement, what it would have billed)."""
    for batch in batches:
        counts.append(len(batch.events))
        reads.append(sum(round(event.reads) for event in batch.events))
        if default is not None:
            default_bills.append(default.step(batch.events).total_cost)
        yield batch


def _streaming_layers(spans, probe, records, upstream: str) -> dict[str, float]:
    """Per-layer metrics the two streaming workloads share.

    ``upstream`` names the pull wrapper directly under ``windowed()``: its
    time is subtracted so ``events.window_s`` is window cutting alone.
    """
    totals = span_totals(spans)
    changed = pinned = 0
    for record in spans:
        if record.name == "optassign.delta_solve":
            changed += record.attrs.get("num_changed", 0)
            pinned += record.attrs.get("num_pinned", 0)
    return {
        "workloads.generate_s": probe.busy_s["generate"],
        "workloads.events": float(probe.items["generate"]),
        "events.window_s": probe.busy_s["windowed"] - probe.busy_s[upstream],
        "events.windows": float(probe.items["windowed"]),
        "engine.policy_s": totals["engine.policy_decision"],
        "engine.build_problem_s": totals["engine.build_problem"],
        "engine.settle_s": totals["engine.settle"],
        "engine.reoptimizations": float(sum(record.reoptimized for record in records)),
        "features.observe_s": totals["engine.feature_store"],
        "simulator.ingest_s": totals["engine.ingest"],
        "simulator.events_billed": float(
            sum(
                record.attrs.get("events", 0)
                for record in spans
                if record.name == "engine.ingest"
            )
        ),
        "optassign.solve_s": outermost_solve_s(spans),
        "optassign.batch_tensors_s": totals["optassign.batch_tensors"],
        "optassign.greedy_s": totals["optassign.greedy"],
        "optassign.repair_pools_s": totals["optassign.repair_pools"],
        "optassign.rows": float(
            sum(
                record.attrs.get("partitions", 0)
                for record in spans
                if record.name == "optassign.batch_tensors"
            )
        ),
        "optassign.delta_pinned_ratio": (
            pinned / (changed + pinned) if changed + pinned else 0.0
        ),
        "executor.apply_s": totals["engine.migrate"],
        "executor.moves": float(sum(record.num_moved for record in records)),
        "executor.moved_gb": float(sum(record.moved_gb for record in records)),
    }


# ---------------------------------------------------------------------------
# engine_stream
# ---------------------------------------------------------------------------


class EngineStream:
    """One online engine over one high-volume Poisson/Zipf access stream."""

    name = "engine_stream"
    # Setup + run + calibration at the reference host speed (2-core x86 VM).
    nominal_rep_s = 2.1

    def __init__(self, quick: bool = False):
        self.partitions = 500 if quick else 5_000
        self.rate_per_month = 6_000.0 if quick else 60_000.0
        self.months = 3 if quick else 6

    def sizes(self) -> str:
        return (
            f"{self.partitions} partitions, Zipf 1.1, {self.rate_per_month:.0f} "
            f"events/month x {self.months} months with diurnal + flash-crowd "
            "modulation, Azure hot/cool/archive, PeriodicReoptimize(1), "
            "delta re-solve, TimeTrigger(1.0)"
        )

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # Every partition starts on hot with the same prior (the mean monthly
        # rate): only the stream tells the engine which data is warm.  Random
        # priors would make the bootstrap placement, and so the bill and the
        # saving, swing from seed to seed.
        prior = self.rate_per_month / self.partitions
        partitions = [
            DataPartition(
                name=f"p{index:05d}",
                size_gb=float(rng.lognormal(3.0, 0.5)),
                predicted_accesses=prior,
                latency_threshold_s=7200.0,
                current_tier=0,
            )
            for index in range(self.partitions)
        ]
        stream = PoissonZipfStream(
            [partition.name for partition in partitions],
            rate_per_month=self.rate_per_month,
            horizon_months=float(self.months),
            zipf_exponent=1.1,
            seed=seed,
            modulation=compose_modulations(
                diurnal_modulation(amplitude=0.5),
                flash_crowd(
                    start_month=0.7 * self.months, magnitude=6.0, duration_months=0.3
                ),
            ),
        )
        tiers = azure_tier_catalog(include_premium=False, include_archive=True)
        return {
            "partitions": partitions,
            "stream": stream,
            "tiers": tiers,
            "engine": self._engine(partitions, tiers),
        }

    @staticmethod
    def _engine(partitions, tiers) -> OnlineTieringEngine:
        return OnlineTieringEngine(
            partitions,
            tiers,
            PeriodicReoptimize(1),
            EngineConfig(window_months=4, reopt_mode="delta"),
        )

    def run(
        self, case: dict, probe: Probe, clock=None, corrupt: bool = False
    ) -> Outcome:
        engine = case["engine"]
        # windowed + step_window is what OnlineTieringEngine.run_stream does;
        # composing it here lets each window be timed from the outside.
        windows = probe.pulls(
            windowed(
                probe.pulls(case["stream"], "generate"),
                TimeTrigger(1.0),
                horizon_months=float(self.months),
            ),
            "windowed",
        )
        records, latency, ops = [], [], []
        for window in windows:
            generated = len(window.events)
            if corrupt and window.index == 1:
                window = replace(window, events=window.events[1:])
            started = time.perf_counter()
            record = engine.step_window(window)
            latency.append(time.perf_counter() - started)
            if clock is not None:
                clock.split()
            records.append(record)
            ops.append((_record_key(record), generated))
        return Outcome(
            bill=float(sum(record.bill_total for record in records)),
            events=float(sum(count for _, count in ops)),
            window_latency_s=latency,
            ops=ops,
            extra={"records": records},
        )

    def reference(self, seed: int) -> Reference:
        case = self.setup(seed)
        partitions, stream, tiers = case["partitions"], case["stream"], case["tiers"]
        library = self._engine(partitions, tiers).run_stream(
            stream, TimeTrigger(1.0), horizon_months=float(self.months)
        )
        counts: list[int] = []
        reads: list[int] = []
        default_bills: list[float] = []
        dense = self._engine(partitions, tiers).run(
            _counted_batches(
                monthly_batches(stream, num_epochs=self.months),
                counts,
                reads,
                _default_placement(partitions, tiers),
                default_bills,
            )
        )
        library_keys = [_record_key(record) for record in library.records]
        dense_keys = [_record_key(record) for record in dense.records]
        errors = []
        if library_keys != dense_keys:
            errors.append("library run_stream does not bill like the dense run")
        if [key[7] for key in dense_keys] != reads:
            errors.append("the dense run settled other reads than were generated")
        return Reference(
            ops=list(zip(library_keys, counts)),
            default_bill=float(sum(default_bills)),
            errors=errors,
        )

    def layers(self, outcome: Outcome, probe, spans) -> dict[str, float]:
        return _streaming_layers(
            spans, probe, outcome.extra["records"], upstream="generate"
        )

    def traced_patches(self, probe) -> list:
        return []


# ---------------------------------------------------------------------------
# fleet_pool
# ---------------------------------------------------------------------------


class FleetPool:
    """A multi-tenant fleet whose shared performance pool demand keeps full."""

    name = "fleet_pool"
    nominal_rep_s = 2.8

    def __init__(self, quick: bool = False):
        self.tenants = 3 if quick else 8
        self.partitions = 200 if quick else 1_000
        self.rate_per_month = 3_000.0 if quick else 20_000.0
        self.months = 3 if quick else 6
        self.pool_fraction = 0.02

    def sizes(self) -> str:
        return (
            f"{self.tenants} tenants x {self.partitions} partitions, multi-cloud "
            "catalog, SLO caps + provider affinity + codec profiles, "
            f"'performance' pool (azure premium+hot) at {self.pool_fraction:.0%} "
            f"of fleet GB, {self.rate_per_month:.0f} events/month x {self.months} "
            "months split by tenant_rate_skew(exponent=0.5), Zipf 0.6 over non-archive "
            "partitions at 300 reads/event, "
            "PeriodicReoptimize(1), full re-solve, TimeTrigger(1.0)"
        )

    def setup(self, seed: int) -> dict:
        fleet = generate_fleet_workload(
            self.tenants,
            self.partitions,
            self.months,
            seed=seed,
            residency_providers=("aws_s3", "azure_blob"),
            residency_fraction=0.2,
        )
        rates = tenant_rate_skew(
            self.rate_per_month, [tenant.name for tenant in fleet], exponent=0.5
        )
        # Archive-class data (0-0.2 reads/month in the SLO mix) is never read,
        # and popularity is only mildly skewed: with 300 reads per event, a
        # multi-TB partition drawn as a tenant's Zipf-1.1 favourite would
        # decide the whole bill, and the bill would swing with the seed.
        streams = {
            tenant.name: PoissonZipfStream(
                [
                    partition.name
                    for partition in tenant.partitions
                    if tenant.workload.class_of[partition.name] != "archive"
                ],
                rate_per_month=rates[tenant.name],
                horizon_months=float(self.months),
                zipf_exponent=0.6,
                seed=seed * 1000 + index,
                reads_per_event=300.0,
                tenant=tenant.name,
            )
            for index, tenant in enumerate(fleet)
        }
        return {
            "fleet": fleet,
            "streams": streams,
            "scheduler": self._scheduler(fleet),
        }

    def _scheduler(
        self, fleet, dense_streams=None, policy=lambda: PeriodicReoptimize(1)
    ) -> FleetScheduler:
        tiers = multi_cloud_catalog()
        pools = PoolSet(
            tiers,
            [
                CapacityPool(
                    "performance",
                    ("azure_blob/premium", "azure_blob/hot"),
                    self.pool_fraction * sum(tenant.total_gb for tenant in fleet),
                )
            ],
        )
        config = EngineConfig()
        specs = [
            TenantSpec(
                name=tenant.name,
                partitions=tenant.partitions,
                policy=policy(),
                stream=dense_streams[tenant.name] if dense_streams else iter(()),
                profiles=tenant.profiles,
                config=config,
                latency_slo_s=tenant.workload.latency_slo_s,
                provider_affinity=tenant.workload.provider_affinity,
            )
            for tenant in fleet
        ]
        return FleetScheduler(
            specs,
            tiers,
            pools=pools,
            config=FleetConfig(engine=config, max_workers=None, shards=None),
        )

    def run(
        self, case: dict, probe: Probe, clock=None, corrupt: bool = False
    ) -> Outcome:
        scheduler = case["scheduler"]
        streams = case["streams"]
        names = list(streams)

        def tagged(name: str, stream: Iterable):
            for event in stream:
                yield event if event.tenant == name else replace(event, tenant=name)

        # The merge -> shared trigger -> per-tenant split of
        # FleetScheduler.run_streams, composed here so each window is timed.
        merged = probe.pulls(
            heapq.merge(
                *(tagged(name, probe.pulls(streams[name], "generate")) for name in names),
                key=lambda event: event.t,
            ),
            "merged",
        )
        windows = probe.pulls(
            windowed(merged, TimeTrigger(1.0), horizon_months=float(self.months)),
            "windowed",
        )
        latency, generated = [], []
        for window in windows:
            started = time.perf_counter()
            with probe.interval("fleet.split"):
                per_tenant: dict[str, list] = {}
                for event in window.events:
                    per_tenant.setdefault(event.tenant, []).append(event)
                tenant_windows = {
                    name: StreamWindow(
                        index=window.index,
                        start_month=window.start_month,
                        end_month=window.end_month,
                        events=tuple(per_tenant.get(name, ())),
                        cause=window.cause,
                    )
                    for name in names
                }
            generated.append(len(window.events))
            if corrupt and window.index == 1:
                victim = max(names, key=lambda name: len(tenant_windows[name].events))
                tenant_windows[victim] = replace(
                    tenant_windows[victim], events=tenant_windows[victim].events[1:]
                )
            with probe.interval("fleet.step_window"):
                scheduler.step_window(tenant_windows)
            latency.append(time.perf_counter() - started)
            if clock is not None:
                clock.split()
        report = scheduler.report()
        ops, op_errors = _fleet_ops(report, names, generated)
        return Outcome(
            bill=report.total_bill,
            events=float(sum(generated)),
            window_latency_s=latency,
            ops=ops,
            op_errors=op_errors,
            extra={"report": report},
        )

    def reference(self, seed: int) -> Reference:
        case = self.setup(seed)
        fleet, streams = case["fleet"], case["streams"]
        names = list(streams)
        library = self._scheduler(fleet).run_streams(
            streams, TimeTrigger(1.0), horizon_months=float(self.months)
        )
        counts = {name: [] for name in names}
        reads = {name: [] for name in names}
        dense_streams = {
            name: _counted_batches(
                monthly_batches(streams[name], num_epochs=self.months),
                counts[name],
                reads[name],
            )
            for name in names
        }
        dense = self._scheduler(fleet, dense_streams).run(num_epochs=self.months)
        # Without a pool-feasible Default placement, the baseline is the same
        # pool-arbitrated solve made once at the first window and never revisited.
        static = self._scheduler(fleet, policy=StaticOnce).run_streams(
            streams, TimeTrigger(1.0), horizon_months=float(self.months)
        )
        errors = []
        for name in names:
            library_keys = [
                _record_key(record) for record in library.tenant_reports[name].records
            ]
            dense_keys = [
                _record_key(record) for record in dense.tenant_reports[name].records
            ]
            if library_keys != dense_keys:
                errors.append(f"{name}: run_streams does not bill like the dense run")
            if [key[7] for key in dense_keys] != reads[name]:
                errors.append(f"{name}: the dense run settled other reads than generated")
        window_counts = [
            sum(counts[name][index] for name in names) for index in range(self.months)
        ]
        ops, op_errors = _fleet_ops(library, names, window_counts)
        errors.extend(error for error in op_errors if error)
        return Reference(
            ops=ops,
            default_bill=static.total_bill,
            errors=errors,
        )

    def layers(self, outcome: Outcome, probe, spans) -> dict[str, float]:
        report = outcome.extra["report"]
        records = [
            record
            for tenant_report in report.tenant_reports.values()
            for record in tenant_report.records
        ]
        totals = span_totals(spans)
        fills = [
            used / row.capacity_gb[pool]
            for row in report.pool_usage
            for pool, used in row.used_gb.items()
        ]
        metrics = _streaming_layers(spans, probe, records, upstream="merged")
        metrics.update(
            {
                "fleet.merge_split_s": probe.busy_s["merged"]
                - probe.busy_s["generate"]
                + probe.interval_s["fleet.split"],
                "fleet.step_window_s": probe.interval_s["fleet.step_window"],
                "fleet.build_problem_s": totals["fleet.build_problem"],
                "fleet.stack_s": totals["fleet.stack"],
                "fleet.pool_fill": min(fills),
            }
        )
        return metrics

    def traced_patches(self, probe) -> list:
        return []


def _fleet_ops(report, names, generated) -> tuple[list, list]:
    """Per window: every tenant's billed record, the pool usage and the event
    count; plus a finding wherever a pool ended the window over capacity."""
    ops, errors = [], []
    for index, count in enumerate(generated):
        row = report.pool_usage[index]
        keys = tuple(
            _record_key(report.tenant_reports[name].records[index]) for name in names
        )
        ops.append((keys, tuple(sorted(row.used_gb.items())), count))
        over = [
            f"{pool} {used!r} GB > {row.capacity_gb[pool]!r} GB"
            for pool, used in row.used_gb.items()
            if used > row.capacity_gb[pool] + POOL_SLACK_GB
        ]
        errors.append(f"window {index}: pool over capacity: {over}" if over else None)
    return ops, errors


# ---------------------------------------------------------------------------
# scope_batch
# ---------------------------------------------------------------------------

# Each ordering follows from how the variants are built: SCOPe (No capacity
# constraint) searches a superset of the left-hand variants' choices, and
# tiering alone or compression alone can only improve on Default.
ORDERINGS = (
    ("SCOPe (No capacity constraint)", "Partitioning + Tiering"),
    ("SCOPe (No capacity constraint)", "Partitioning + Compression"),
    ("SCOPe (No capacity constraint)", "Partition & store on premium"),
    ("SCOPe (No capacity constraint)", "SCOPe (Total cost focused)"),
    ("Multi-Tiering", "Default (store on premium)"),
    ("Compress & store on premium", "Default (store on premium)"),
)
HEADLINE = "SCOPe (Total cost focused)"
DEFAULT = "Default (store on premium)"
# The summed Default and SCOPe (Total cost focused) totals of the default
# seed's lake at full size, pinned at the relative tolerance of
# tests/pipeline/test_golden_scope.py.
PINNED_SEED = 1
PINNED_RTOL = 1e-6
PINNED_TOTALS = {
    DEFAULT: 67021.38892243509,
    HEADLINE: 11325.40209193418,
}


class ScopeBatch:
    """The paper's batch pipeline over a lake of small TPC-H databases.

    Each database has its own query log and its own pipeline (file splits,
    query families, G-PART, codec measurement, the 11 paper variants); one
    database's batch is one window.  A lake of several databases rather than
    one large one gives the window latencies enough samples for a tail, and
    averages the bill over several query logs instead of letting one log's
    skew decide it.
    """

    name = "scope_batch"
    nominal_rep_s = 5.0

    def __init__(self, quick: bool = False):
        self.quick = quick
        self.databases = 2 if quick else 8
        self.scale = 0.04
        self.config = ScopeConfig(
            rows_per_file=150,
            target_total_gb=100.0,
            schemes=("snappy", "lz4"),
            fixed_decompression_s_per_gb={"snappy": 0.15, "lz4": 0.1},
        )

    def sizes(self) -> str:
        return (
            f"{self.databases} TPC-H databases at scale {self.scale}, each with 2 "
            f"queries/template, 800 accesses, {self.config.rows_per_file} "
            "rows/file and a 100 GB target; pure-Python snappy + lz4 at fixed "
            "decompression speeds, 11 paper variants, cold profile cache per "
            "repetition"
        )

    def setup(self, seed: int) -> dict:
        lake = []
        for database_seed in np.random.SeedSequence(seed).generate_state(self.databases):
            database = generate_tpch(TpchConfig(scale=self.scale, seed=int(database_seed)))
            workload = generate_tpch_queries(
                database,
                queries_per_template=2,
                total_accesses=800.0,
                skew_exponent=1.1,
                seed=int(database_seed) + 1,
            )
            lake.append((workload, ScopePipeline(database.tables, workload, self.config)))
        return {"lake": lake}

    def run(
        self, case: dict, probe: Probe, clock=None, corrupt: bool = False
    ) -> Outcome:
        rows, latency, ops, errors, pipelines = [], [], [], [], []
        bill = default_bill = events = 0.0
        for position, (workload, pipeline) in enumerate(case["lake"]):
            if corrupt and position == 0:
                workload = QueryWorkload(
                    queries=list(workload.queries[1:]),
                    frequencies=list(workload.frequencies[1:]),
                )
                pipeline = ScopePipeline(pipeline.tables, workload, pipeline.config)
            started = time.perf_counter()
            with probe.interval("pipeline.prepare"):
                pipeline.prepare()
            database_rows = []
            for variant in paper_variant_suite():
                with probe.interval("pipeline.variant"):
                    database_rows.append(pipeline.run_variant(variant))
            latency.append(time.perf_counter() - started)
            if clock is not None:
                clock.split()
            cost = {row.variant: row.total_cost for row in database_rows}
            bill += cost[HEADLINE]
            default_bill += cost[DEFAULT]
            events += workload.total_accesses
            errors.extend(
                f"database {position}: {low} ({cost[low]!r}) > {high} ({cost[high]!r})"
                for low, high in ORDERINGS
                if not cost[low] <= cost[high]
            )
            rows.extend(database_rows)
            ops.extend((position, *_row_key(row)) for row in database_rows)
            pipelines.append(pipeline)
        return Outcome(
            bill=bill,
            events=events,
            window_latency_s=latency,
            ops=ops,
            rep_errors=errors,
            extra={"rows": rows, "pipelines": pipelines, "default_bill": default_bill},
        )

    def reference(self, seed: int) -> Reference:
        outcome = self.run(self.setup(seed), Probe())
        errors = list(outcome.rep_errors)
        if seed == PINNED_SEED and not self.quick:
            got = {HEADLINE: outcome.bill, DEFAULT: outcome.extra["default_bill"]}
            for variant, pinned in PINNED_TOTALS.items():
                if not math.isclose(got[variant], pinned, rel_tol=PINNED_RTOL):
                    errors.append(
                        f"{variant}: lake total {got[variant]!r} differs from "
                        f"the pinned {pinned!r}"
                    )
        return Reference(
            ops=outcome.ops,
            default_bill=outcome.extra["default_bill"],
            errors=errors,
        )

    def layers(self, outcome: Outcome, probe, spans) -> dict[str, float]:
        totals = span_totals(spans)
        rows = outcome.extra["rows"]
        requests = sum(
            row.num_partitions * len(self.config.schemes)
            for row in rows
            if row.uses_compression
        )
        measured = probe.interval_calls["compression.measure"]
        return {
            "optassign.solve_s": outermost_solve_s(spans),
            "optassign.batch_tensors_s": totals["optassign.batch_tensors"],
            "optassign.greedy_s": totals["optassign.greedy"],
            "optassign.repair_pools_s": totals["optassign.repair_pools"],
            "optassign.rows": float(sum(row.num_partitions for row in rows)),
            "pipeline.prepare_s": probe.interval_s["pipeline.prepare"],
            "datapart.gpart_s": probe.interval_s["datapart.gpart"],
            "datapart.merges": float(
                sum(len(pipeline.gpart_result.merges) for pipeline in outcome.extra["pipelines"])
            ),
            "compression.measure_s": probe.interval_s["compression.measure"],
            "compression.mb_measured": probe.amounts["compression.mb"],
            "compression.profile_reuse_ratio": (
                1.0 - measured / requests if requests else 0.0
            ),
        }

    def traced_patches(self, probe) -> list:
        """Time G-PART and codec measurement where the pipeline calls them."""
        scope = importlib.import_module("repro.core.pipeline.scope")

        def note(measurement) -> None:
            probe.amounts["compression.mb"] += measurement.uncompressed_bytes / 1e6

        return [
            probe.patched(scope, "gpart", "datapart.gpart"),
            probe.patched(scope, "measure_table", "compression.measure", on_result=note),
        ]


def _row_key(row) -> tuple:
    return (
        row.variant,
        row.total_cost,
        row.storage_cost,
        row.read_cost,
        row.decompression_cost,
        tuple(row.tier_counts),
        row.num_partitions,
    )


WORKLOADS = {
    workload.name: workload for workload in (EngineStream, FleetPool, ScopeBatch)
}
