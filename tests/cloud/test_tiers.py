"""Tests for storage tiers, the tier catalog and the Azure presets."""

import math

import pytest

from repro.cloud import (
    NEW_DATA_TIER,
    StorageTier,
    TierCatalog,
    azure_table1_tiers,
    azure_table12_tiers,
    azure_tier_catalog,
)


def make_tier(name="hot", storage=2.0, read=0.01, write=0.01, latency=0.06, **kwargs):
    return StorageTier(
        name=name,
        storage_cost=storage,
        read_cost=read,
        write_cost=write,
        latency_s=latency,
        **kwargs,
    )


class TestStorageTier:
    def test_storage_cost_scales_with_size_and_months(self):
        tier = make_tier(storage=2.0)
        assert tier.storage_cost_for(10.0, 3.0) == pytest.approx(60.0)

    def test_read_cost_scales_with_accesses(self):
        tier = make_tier(read=0.5)
        assert tier.read_cost_for(4.0, accesses=3.0) == pytest.approx(6.0)

    def test_write_cost(self):
        tier = make_tier(write=0.2)
        assert tier.write_cost_for(5.0) == pytest.approx(1.0)

    def test_default_capacity_is_unbounded(self):
        assert math.isinf(make_tier().capacity_gb)

    def test_with_capacity_returns_new_tier(self):
        tier = make_tier()
        bounded = tier.with_capacity(100.0)
        assert bounded.capacity_gb == 100.0
        assert math.isinf(tier.capacity_gb)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            make_tier(storage=-1.0)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("storage_cost", {"storage": math.nan}),
            ("read_cost", {"read": math.nan}),
            ("write_cost", {"write": math.inf}),
            ("latency_s", {"latency": math.nan}),
            ("early_deletion_months", {"early_deletion_months": math.inf}),
            ("slo_latency_s", {"slo_latency_s": math.nan}),
            ("capacity_gb", {"capacity_gb": math.nan}),
        ],
    )
    def test_non_finite_fields_rejected_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            make_tier(**kwargs)

    def test_unbounded_capacity_and_missing_slo_still_accepted(self):
        tier = make_tier(capacity_gb=math.inf, slo_latency_s=None)
        assert math.isinf(tier.capacity_gb)
        assert tier.effective_slo_s == tier.latency_s

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_tier().storage_cost_for(-1.0, 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            make_tier(name="")


class TestTierCatalog:
    def build(self):
        return TierCatalog(
            [
                make_tier("premium", storage=15.0, read=0.005, write=0.005, latency=0.005),
                make_tier("hot", storage=2.0, read=0.013, write=0.013, latency=0.06),
                make_tier("cool", storage=1.5, read=0.033, write=0.013, latency=0.06),
                make_tier("archive", storage=0.1, read=16.0, write=0.03, latency=3600.0),
            ]
        )

    def test_length_and_iteration(self):
        catalog = self.build()
        assert len(catalog) == 4
        assert [tier.name for tier in catalog] == ["premium", "hot", "cool", "archive"]

    def test_lookup_by_name_and_index(self):
        catalog = self.build()
        assert catalog.index_of("cool") == 2
        assert catalog.by_name("hot").storage_cost == 2.0
        assert catalog[0].name == "premium"
        assert "hot" in catalog and "glacier" not in catalog

    def test_archive_index_is_last(self):
        assert self.build().archive_index == 3

    def test_requires_latency_ordering(self):
        with pytest.raises(ValueError):
            TierCatalog([make_tier("slow", latency=10.0), make_tier("fast", latency=1.0)])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            TierCatalog([make_tier("hot"), make_tier("hot")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TierCatalog([])

    def test_tier_change_cost_new_data_pays_destination_write(self):
        catalog = self.build()
        assert catalog.tier_change_cost(NEW_DATA_TIER, 1) == pytest.approx(0.013)

    def test_tier_change_cost_same_tier_is_free(self):
        assert self.build().tier_change_cost(1, 1) == 0.0

    def test_tier_change_cost_is_source_read_plus_destination_write(self):
        catalog = self.build()
        expected = catalog[0].read_cost + catalog[2].write_cost
        assert catalog.tier_change_cost(0, 2) == pytest.approx(expected)

    def test_tier_change_cost_rejects_bad_destination(self):
        with pytest.raises(IndexError):
            self.build().tier_change_cost(0, 9)

    def test_with_capacities(self):
        catalog = self.build().with_capacities([10.0, 20.0, 30.0, math.inf])
        assert catalog[0].capacity_gb == 10.0
        assert math.isinf(catalog[3].capacity_gb)

    def test_with_capacities_length_mismatch(self):
        with pytest.raises(ValueError):
            self.build().with_capacities([1.0, 2.0])

    def test_subset_preserves_order(self):
        catalog = self.build().subset(["cool", "premium"])
        assert catalog.names == ("premium", "cool")

    def test_subset_unknown_name(self):
        with pytest.raises(KeyError):
            self.build().subset(["premium", "glacier"])


class TestAzurePresets:
    def test_table1_has_four_tiers_in_latency_order(self):
        tiers = azure_table1_tiers()
        assert [tier.name for tier in tiers] == ["premium", "hot", "cool", "archive"]
        latencies = [tier.latency_s for tier in tiers]
        assert latencies == sorted(latencies)

    def test_table1_storage_prices_match_paper(self):
        prices = {tier.name: tier.storage_cost for tier in azure_table1_tiers()}
        assert prices == {
            "premium": 15.0,
            "hot": 2.08,
            "cool": 1.52,
            "archive": 0.099,
        }

    def test_table12_read_costs_match_paper(self):
        prices = {tier.name: tier.read_cost for tier in azure_table12_tiers()}
        assert prices["premium"] == pytest.approx(0.004659)
        assert prices["hot"] == pytest.approx(0.01331)
        assert prices["cool"] == pytest.approx(0.0333)
        assert prices["archive"] == pytest.approx(16.64)

    def test_storage_gets_cheaper_and_reads_dearer_towards_archive(self):
        tiers = azure_table12_tiers()
        storage = [tier.storage_cost for tier in tiers]
        reads = [tier.read_cost for tier in tiers]
        assert storage == sorted(storage, reverse=True)
        assert reads == sorted(reads)

    def test_catalog_factory_drops_tiers(self):
        catalog = azure_tier_catalog(include_archive=False, include_premium=False)
        assert catalog.names == ("hot", "cool")

    def test_catalog_factory_capacities(self):
        catalog = azure_tier_catalog(capacities=[1.0, 2.0, 3.0, math.inf])
        assert catalog[0].capacity_gb == 1.0

    def test_catalog_factory_rejects_unknown_table(self):
        with pytest.raises(ValueError):
            azure_tier_catalog(table="V")

    def test_archive_has_early_deletion_period(self):
        catalog = azure_tier_catalog()
        assert catalog.by_name("archive").early_deletion_months == 6.0
