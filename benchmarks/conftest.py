"""Shared fixtures and helpers for the benchmark harness.

Every ``bench_*`` file regenerates one table or figure of the paper: it builds
the relevant workload, runs the module(s) under study, *prints* the rows or
series the paper reports (so ``pytest benchmarks/ --benchmark-only -s`` shows
them), and wraps the core computation in ``benchmark()`` so pytest-benchmark
records its runtime.  Absolute numbers differ from the paper (the substrate is
a laptop-scale simulator), but the comparisons — who wins, by roughly what
factor — are asserted where the paper makes a qualitative claim.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the benchmarks without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.workloads import (  # noqa: E402  (path setup must come first)
    EnterpriseCatalogConfig,
    TpchConfig,
    generate_enterprise_catalog,
    generate_tpch,
    generate_tpch_queries,
)

#: Scale factors for the TPC-H analogues.  Row counts stay laptop-sized; the
#: pipeline's ``target_total_gb`` stretches byte sizes to the paper's volumes.
TPCH_SMALL_SCALE = 0.05   # stands in for TPC-H 1 GB
TPCH_MEDIUM_SCALE = 0.12  # stands in for TPC-H 100 GB
TPCH_LARGE_SCALE = 0.2    # stands in for TPC-H 1 TB


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(scope="session")
def tpch_small():
    return generate_tpch(TpchConfig(scale=TPCH_SMALL_SCALE, seed=7))


@pytest.fixture(scope="session")
def tpch_small_skewed():
    return generate_tpch(TpchConfig(scale=TPCH_SMALL_SCALE, skew=3.0, seed=7))


@pytest.fixture(scope="session")
def tpch_medium():
    return generate_tpch(TpchConfig(scale=TPCH_MEDIUM_SCALE, seed=11))


@pytest.fixture(scope="session")
def tpch_large():
    return generate_tpch(TpchConfig(scale=TPCH_LARGE_SCALE, seed=13))


@pytest.fixture(scope="session")
def tpch_small_workload(tpch_small):
    return generate_tpch_queries(
        tpch_small, queries_per_template=3, total_accesses=1_000.0,
        skew_exponent=1.1, seed=17,
    )


@pytest.fixture(scope="session")
def tpch_medium_workload(tpch_medium):
    return generate_tpch_queries(
        tpch_medium, queries_per_template=3, total_accesses=2_000.0,
        skew_exponent=1.1, seed=19,
    )


@pytest.fixture(scope="session")
def tpch_large_workload(tpch_large):
    return generate_tpch_queries(
        tpch_large, queries_per_template=3, total_accesses=4_000.0,
        skew_exponent=1.1, seed=23,
    )


@pytest.fixture(scope="session")
def enterprise_account():
    """The storage-account analogue used by Tables III & IV (760 datasets in the paper)."""
    config = EnterpriseCatalogConfig(
        num_datasets=300,
        total_size_gb=700_000.0,   # ~700 TB, as in the paper's account
        history_months=14,
        seed=41,
        total_monthly_accesses=150_000.0,
    )
    return generate_enterprise_catalog(config)


@pytest.fixture(scope="session")
def customer_accounts():
    """Four customer-account analogues sized after Table II."""
    from repro.workloads import CUSTOMER_ACCOUNT_PRESETS

    accounts = {}
    for index, (name, petabytes, num_datasets) in enumerate(CUSTOMER_ACCOUNT_PRESETS):
        config = EnterpriseCatalogConfig(
            num_datasets=min(num_datasets, 200),
            total_size_gb=petabytes * 1_000_000.0,
            history_months=14,
            seed=100 + index,
            total_monthly_accesses=20_000.0,
        )
        accounts[name] = generate_enterprise_catalog(config)
    return accounts
