"""Tests for the cloud storage simulator and its agreement with the cost model."""

import pytest

from repro.cloud import (
    AccessEvent,
    CloudStorageSimulator,
    CompressionProfile,
    CostModel,
    DataPartition,
    PlacementDecision,
    azure_tier_catalog,
    percent_cost_benefit,
)


@pytest.fixture
def simulator():
    return CloudStorageSimulator(azure_tier_catalog(), compute_cost_per_s=0.001)


@pytest.fixture
def partitions():
    return [
        DataPartition("a", size_gb=100.0, predicted_accesses=10.0, latency_threshold_s=1.0),
        DataPartition("b", size_gb=10.0, predicted_accesses=0.0, latency_threshold_s=7200.0),
    ]


class TestSimulator:
    def test_default_placement_puts_everything_in_one_tier(self, simulator, partitions):
        placement = simulator.default_placement(partitions, tier_index=1)
        assert all(decision.tier_index == 1 for decision in placement.values())

    def test_storage_costs_accrue_without_accesses(self, simulator, partitions):
        placement = simulator.default_placement(partitions, tier_index=1)
        result = simulator.simulate(partitions, placement, [], duration_months=2.0)
        hot = simulator.tiers[1]
        expected = hot.storage_cost_for(110.0, 2.0) + hot.write_cost_for(110.0)
        assert result.bill.total == pytest.approx(expected)
        assert result.access_count == 0

    def test_reads_are_billed_per_event(self, simulator, partitions):
        placement = simulator.default_placement(partitions, tier_index=1)
        trace = [AccessEvent(month=0, partition="a", reads=3.0)]
        result = simulator.simulate(partitions, placement, trace, duration_months=1.0)
        assert result.bill.read == pytest.approx(simulator.tiers[1].read_cost_for(100.0, 3.0))
        assert result.access_count == 3

    def test_simulated_bill_matches_cost_model_prediction(self, simulator, partitions):
        """The optimizer's predicted cost equals the simulator's bill on the same trace."""
        placement = {
            "a": PlacementDecision(tier_index=0),
            "b": PlacementDecision(tier_index=2),
        }
        trace = [AccessEvent(month=0, partition="a", reads=10.0)]
        result = simulator.simulate(partitions, placement, trace, duration_months=6.0)
        model = CostModel(simulator.tiers, compute_cost_per_s=0.001, duration_months=6.0)
        predicted = model.assignment_breakdown(
            partitions,
            {
                "a": (0, placement["a"].profile),
                "b": (2, placement["b"].profile),
            },
        )
        assert result.bill.approx_equals(predicted, tolerance=1e-6)

    def test_compression_profile_affects_bill(self, simulator, partitions):
        profile = CompressionProfile("gzip", ratio=4.0, decompression_s_per_gb=2.0)
        placement = {
            "a": PlacementDecision(tier_index=1, profile=profile),
            "b": PlacementDecision(tier_index=1),
        }
        trace = [AccessEvent(month=0, partition="a", reads=2.0)]
        result = simulator.simulate(partitions, placement, trace, duration_months=1.0)
        assert result.bill.decompression == pytest.approx(0.001 * 2.0 * 100.0 * 2.0)
        # Stored size of "a" shrinks to 25 GB.
        assert result.per_partition["a"].storage == pytest.approx(
            simulator.tiers[1].storage_cost_for(25.0, 1.0)
        )

    def test_latency_violations_counted(self, simulator, partitions):
        archive = simulator.tiers.index_of("archive")
        placement = {
            "a": PlacementDecision(tier_index=archive),
            "b": PlacementDecision(tier_index=0),
        }
        trace = [AccessEvent(month=0, partition="a", reads=2.0)]
        result = simulator.simulate(partitions, placement, trace, duration_months=1.0)
        assert result.latency_violations == 2
        assert result.mean_latency_s >= simulator.tiers[archive].latency_s

    def test_early_deletion_penalty_applied(self, simulator):
        archive = simulator.tiers.index_of("archive")
        partition = DataPartition(
            "a", size_gb=50.0, predicted_accesses=0.0, current_tier=archive
        )
        placement = {"a": PlacementDecision(tier_index=0)}
        result = simulator.simulate(
            [partition],
            placement,
            [],
            duration_months=1.0,
            months_in_current_tier={"a": 2.0},
        )
        # 4 months of the 6-month archive minimum remain.
        expected = simulator.tiers[archive].storage_cost_for(50.0, 4.0)
        assert result.early_deletion_penalty == pytest.approx(expected)
        assert result.total_cost > result.bill.total

    def test_no_penalty_after_minimum_residency(self, simulator):
        archive = simulator.tiers.index_of("archive")
        partition = DataPartition(
            "a", size_gb=50.0, predicted_accesses=0.0, current_tier=archive
        )
        placement = {"a": PlacementDecision(tier_index=0)}
        result = simulator.simulate(
            [partition], placement, [], duration_months=1.0,
            months_in_current_tier={"a": 7.0},
        )
        assert result.early_deletion_penalty == 0.0

    def test_missing_placement_raises(self, simulator, partitions):
        with pytest.raises(KeyError):
            simulator.simulate(partitions, {}, [], duration_months=1.0)

    def test_event_outside_horizon_raises(self, simulator, partitions):
        placement = simulator.default_placement(partitions)
        with pytest.raises(ValueError):
            simulator.simulate(
                partitions, placement, [AccessEvent(month=5, partition="a")], duration_months=2.0
            )

    def test_invalid_duration_rejected(self, simulator, partitions):
        with pytest.raises(ValueError):
            simulator.simulate(partitions, simulator.default_placement(partitions), [], 0.0)


class TestPercentCostBenefit:
    def test_benefit_of_halving_cost_is_fifty_percent(self):
        assert percent_cost_benefit(200.0, 100.0) == pytest.approx(50.0)

    def test_zero_baseline_gives_zero(self):
        assert percent_cost_benefit(0.0, 0.0) == 0.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            percent_cost_benefit(-1.0, 0.0)

    def test_optimizing_enterprise_account_beats_all_hot(self, simulator):
        """Cheaper tiers for cold data yield a positive benefit, as in Table II."""
        partitions = [
            DataPartition("cold", size_gb=1000.0, predicted_accesses=0.0, latency_threshold_s=7200.0),
            DataPartition("hot", size_gb=10.0, predicted_accesses=500.0, latency_threshold_s=1.0),
        ]
        all_hot = simulator.default_placement(partitions, tier_index=1)
        tiered = {
            "cold": PlacementDecision(tier_index=simulator.tiers.index_of("archive")),
            "hot": PlacementDecision(tier_index=1),
        }
        trace = [AccessEvent(month=0, partition="hot", reads=500.0)]
        base = simulator.simulate(partitions, all_hot, trace, duration_months=6.0)
        optimized = simulator.simulate(partitions, tiered, trace, duration_months=6.0)
        assert percent_cost_benefit(base.total_cost, optimized.total_cost) > 30.0


class TestAccessEvent:
    @pytest.mark.parametrize("reads", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_reads_rejected(self, reads):
        with pytest.raises(ValueError, match="reads must be finite"):
            AccessEvent(month=0, partition="a", reads=reads)

    @pytest.mark.parametrize("month", [-1, float("nan")])
    def test_negative_or_nan_month_rejected(self, month):
        with pytest.raises(ValueError, match="month"):
            AccessEvent(month=month, partition="a")
