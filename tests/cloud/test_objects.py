"""Tests for data-lake objects: partitions, datasets and catalogs."""

import math

import pytest

from repro.cloud import (
    DataPartition,
    Dataset,
    DatasetCatalog,
    FileBlock,
    NEW_DATA_TIER,
    PartitionCatalog,
)


class TestFileBlock:
    def test_valid_block(self):
        block = FileBlock("t.f0", num_records=100, size_gb=0.5)
        assert block.num_records == 100

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            FileBlock("t.f0", num_records=-1, size_gb=0.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileBlock("t.f0", num_records=1, size_gb=-0.5)


class TestDataPartition:
    def test_defaults(self):
        partition = DataPartition("p", size_gb=10.0, predicted_accesses=3.0)
        assert partition.is_new
        assert partition.current_tier == NEW_DATA_TIER
        assert partition.latency_threshold_s == float("inf")

    def test_effective_accesses_with_pushdown(self):
        partition = DataPartition(
            "p", size_gb=10.0, predicted_accesses=10.0, pushdown_fraction=0.4
        )
        assert partition.effective_accesses == pytest.approx(6.0)

    def test_read_gb_per_access_uses_read_fraction(self):
        partition = DataPartition(
            "p", size_gb=10.0, predicted_accesses=1.0, read_fraction=0.25
        )
        assert partition.read_gb_per_access == pytest.approx(2.5)

    def test_existing_partition_is_not_new(self):
        partition = DataPartition("p", size_gb=1.0, predicted_accesses=0.0, current_tier=1)
        assert not partition.is_new

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_gb": -1.0, "predicted_accesses": 1.0},
            {"size_gb": 1.0, "predicted_accesses": -1.0},
            {"size_gb": 1.0, "predicted_accesses": 1.0, "read_fraction": 1.5},
            {"size_gb": 1.0, "predicted_accesses": 1.0, "pushdown_fraction": -0.1},
            {"size_gb": 1.0, "predicted_accesses": 1.0, "latency_threshold_s": -1.0},
            {"size_gb": math.nan, "predicted_accesses": 1.0},
            {"size_gb": math.inf, "predicted_accesses": 1.0},
            {"size_gb": 1.0, "predicted_accesses": math.nan},
            {"size_gb": 1.0, "predicted_accesses": math.inf},
            {"size_gb": 1.0, "predicted_accesses": 1.0, "latency_threshold_s": math.nan},
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DataPartition("p", **kwargs)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DataPartition("", size_gb=1.0, predicted_accesses=1.0)

    def test_file_ids_coerced_to_frozenset(self):
        partition = DataPartition(
            "p", size_gb=1.0, predicted_accesses=1.0, file_ids={"a", "b"}
        )
        assert isinstance(partition.file_ids, frozenset)


class TestDataset:
    def make(self, reads=(5, 3, 0, 1), writes=None):
        reads = list(reads)
        writes = list(writes) if writes is not None else [1.0] * len(reads)
        return Dataset(
            name="d", size_gb=100.0, created_month=0, monthly_reads=reads, monthly_writes=writes
        )

    def test_age_is_history_length(self):
        assert self.make().age_months == 4

    def test_reads_in_window(self):
        dataset = self.make(reads=(5, 3, 0, 1))
        assert dataset.reads_in_window(2) == pytest.approx(1.0)
        assert dataset.reads_in_window(4) == pytest.approx(9.0)
        assert dataset.reads_in_window(0) == 0.0

    def test_accessed_within(self):
        dataset = self.make(reads=(5, 0, 0, 0))
        assert not dataset.accessed_within(2)
        assert dataset.accessed_within(4)

    def test_mismatched_history_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset("d", 1.0, 0, monthly_reads=[1.0], monthly_writes=[1.0, 2.0])

    def test_negative_reads_rejected(self):
        with pytest.raises(ValueError):
            self.make(reads=(-1, 0, 0, 0))

    def test_to_partition_copies_size_and_tier(self):
        dataset = self.make()
        dataset.current_tier = 1
        partition = dataset.to_partition(predicted_accesses=7.0)
        assert partition.size_gb == dataset.size_gb
        assert partition.current_tier == 1
        assert partition.predicted_accesses == 7.0


class TestCatalogs:
    def test_partition_catalog_lookup(self):
        partitions = [
            DataPartition("a", size_gb=1.0, predicted_accesses=0.0),
            DataPartition("b", size_gb=2.0, predicted_accesses=0.0),
        ]
        catalog = PartitionCatalog(partitions)
        assert len(catalog) == 2
        assert catalog["b"].size_gb == 2.0
        assert catalog.total_size_gb == pytest.approx(3.0)
        assert "a" in catalog

    def test_partition_catalog_rejects_duplicates(self):
        partition = DataPartition("a", size_gb=1.0, predicted_accesses=0.0)
        with pytest.raises(ValueError):
            PartitionCatalog([partition, partition])

    def test_dataset_catalog_to_partitions(self):
        datasets = [
            Dataset("x", 10.0, 0, [1.0], [0.0]),
            Dataset("y", 20.0, 0, [2.0], [0.0]),
        ]
        catalog = DatasetCatalog(datasets)
        partitions = catalog.to_partitions({"x": 5.0}, default_accesses=1.0)
        assert partitions["x"].predicted_accesses == 5.0
        assert partitions["y"].predicted_accesses == 1.0
        assert partitions.total_size_gb == pytest.approx(30.0)

    def test_enterprise_fixture_catalog_is_consistent(self, enterprise_catalog):
        catalog, patterns = enterprise_catalog
        assert len(catalog) == 80
        assert set(patterns) == set(catalog.names)
        for dataset in catalog:
            assert dataset.age_months >= 1
            assert dataset.size_gb > 0
