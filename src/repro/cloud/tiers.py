"""Cloud storage tier definitions and the Azure price sheet used by the paper.

The paper (Tables I and XII) models a cloud object store as an ordered list of
*tiers*.  Tier 0 is the lowest-latency, most expensive tier (Premium) and the
last tier is the archival tier with hour-scale time-to-first-byte.  Every tier
is described by four numbers: a monthly storage price, a per-GB read price, a
per-GB write price and a read latency (time to first byte).  Optionally a tier
carries a reserved capacity and an early-deletion period.

All prices are expressed in **cents**, sizes in **GB**, latencies in
**seconds** and durations in **months**, matching the conventions of the
paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "StorageTier",
    "TierCatalog",
    "azure_table1_tiers",
    "azure_table12_tiers",
    "azure_tier_catalog",
    "NEW_DATA_TIER",
]

#: Sentinel tier index used for newly ingested data that has no current tier.
#: The paper writes ``L(P_i) = -1`` for such partitions.
NEW_DATA_TIER: int = -1


@dataclass(frozen=True)
class StorageTier:
    """A single cloud storage tier.

    Parameters
    ----------
    name:
        Human readable tier name (e.g. ``"hot"``).
    storage_cost:
        Storage price in cents per GB per month (``C^s_l`` in the paper).
    read_cost:
        Read price in cents per GB (``C^r_l``).
    write_cost:
        Write price in cents per GB (``C^w_l``); this is also the cost of
        moving *new* data into the tier, ``Delta_{-1,l}``.
    latency_s:
        Read latency (time to first byte) in seconds (``B_l``).
    capacity_gb:
        Reserved capacity ``S_l`` in GB.  ``math.inf`` means unbounded, which
        is the common pay-per-use case.
    early_deletion_months:
        Minimum residency before data can leave the tier without penalty.
        Azure's archive tier uses 6 months; premium/hot/cool use 0.
    slo_latency_s:
        The provider's *published* read-latency SLO for the tier (the
        guaranteed time to first byte), used by the SLO-constrained OPTASSIGN
        variants.  ``None`` means the provider publishes no SLO; SLO
        constraints then fall back to the expected latency ``latency_s`` (see
        :attr:`effective_slo_s`).
    """

    name: str
    storage_cost: float
    read_cost: float
    write_cost: float
    latency_s: float
    capacity_gb: float = math.inf
    early_deletion_months: float = 0.0
    slo_latency_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        # Chained comparisons are False for NaN, so they reject it too.
        finite = [
            ("storage_cost", self.storage_cost),
            ("read_cost", self.read_cost),
            ("write_cost", self.write_cost),
            ("latency_s", self.latency_s),
            ("early_deletion_months", self.early_deletion_months),
        ]
        if self.slo_latency_s is not None:
            finite.append(("slo_latency_s", self.slo_latency_s))
        for label, value in finite:
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{label} must be finite and non-negative, got {value!r}"
                )
        if not 0.0 <= self.capacity_gb <= math.inf:
            raise ValueError(
                "capacity_gb must be non-negative (math.inf for unbounded), "
                f"got {self.capacity_gb!r}"
            )

    @property
    def effective_slo_s(self) -> float:
        """The SLO latency bound: the published SLO, or ``latency_s`` if none."""
        return self.latency_s if self.slo_latency_s is None else self.slo_latency_s

    def with_capacity(self, capacity_gb: float) -> "StorageTier":
        """Return a copy of this tier with a different reserved capacity."""
        return replace(self, capacity_gb=capacity_gb)

    def storage_cost_for(self, size_gb: float, months: float) -> float:
        """Cost in cents of storing ``size_gb`` in this tier for ``months``."""
        if size_gb < 0 or months < 0:
            raise ValueError("size and duration must be non-negative")
        return self.storage_cost * size_gb * months

    def read_cost_for(self, size_gb: float, accesses: float = 1.0) -> float:
        """Cost in cents of reading ``size_gb`` from this tier ``accesses`` times."""
        if size_gb < 0 or accesses < 0:
            raise ValueError("size and accesses must be non-negative")
        return self.read_cost * size_gb * accesses

    def write_cost_for(self, size_gb: float) -> float:
        """Cost in cents of writing ``size_gb`` into this tier once."""
        if size_gb < 0:
            raise ValueError("size must be non-negative")
        return self.write_cost * size_gb


class TierCatalog:
    """An ordered collection of :class:`StorageTier` objects.

    Tiers are ordered from the lowest-latency tier (index 0) to the archival
    tier (last index).  The catalog provides lookups by name or index and the
    tier-change cost ``Delta_{u,v}`` used by the OPTASSIGN objective.
    """

    def __init__(self, tiers: Sequence[StorageTier]):
        if not tiers:
            raise ValueError("a tier catalog needs at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        latencies = [t.latency_s for t in tiers]
        if latencies != sorted(latencies):
            raise ValueError(
                "tiers must be ordered by non-decreasing latency "
                f"(got latencies {latencies})"
            )
        self._tiers: tuple[StorageTier, ...] = tuple(tiers)
        self._by_name = {tier.name: index for index, tier in enumerate(self._tiers)}
        self._cost_arrays: dict[str, np.ndarray] | None = None
        self._change_matrix: np.ndarray | None = None
        #: Monotonic counter bumped by every in-place :meth:`reprice`.  Caches
        #: keyed on catalog identity (``id(catalog)``) must also key on this
        #: version, or an in-place re-pricing would go unnoticed (see
        #: ``DeltaSolver._pricing_signature``).
        self.pricing_version: int = 0

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tiers)

    def __iter__(self) -> Iterator[StorageTier]:
        return iter(self._tiers)

    def __getitem__(self, index: int) -> StorageTier:
        return self._tiers[index]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        names = ", ".join(tier.name for tier in self._tiers)
        return f"TierCatalog([{names}])"

    # -- lookups ------------------------------------------------------------
    @property
    def tiers(self) -> tuple[StorageTier, ...]:
        return self._tiers

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(tier.name for tier in self._tiers)

    def index_of(self, name: str) -> int:
        """Index of the tier called ``name``; raises ``KeyError`` if unknown."""
        return self._by_name[name]

    def by_name(self, name: str) -> StorageTier:
        """The tier called ``name``; raises ``KeyError`` if unknown."""
        return self._tiers[self._by_name[name]]

    @property
    def archive_index(self) -> int:
        """Index of the highest-latency tier."""
        return len(self._tiers) - 1

    # -- provider identity ----------------------------------------------------
    #: Name every tier of a single-provider catalog belongs to.  Provider
    #: affinity constraints validate against :attr:`provider_names`, so a
    #: plain catalog accepts only affinities naming ``"default"`` — the
    #: multi-provider subclass (:class:`repro.cloud.MultiProviderCatalog`)
    #: overrides all three hooks below.
    DEFAULT_PROVIDER: str = "default"

    @property
    def provider_names(self) -> tuple[str, ...]:
        """Names of the cloud providers backing this catalog."""
        return (self.DEFAULT_PROVIDER,)

    def _check_tier_index(self, tier_index: int, role: str) -> None:
        """Explicit bounds check — negative indices must not wrap around."""
        if tier_index < 0 or tier_index >= len(self._tiers):
            raise IndexError(f"{role} tier {tier_index} out of range")

    def provider_of(self, tier_index: int) -> str:
        """Name of the provider hosting the tier at ``tier_index``."""
        self._check_tier_index(tier_index, "requested")
        return self.DEFAULT_PROVIDER

    def egress_cost_per_gb(self, from_tier: int, to_tier: int) -> float:
        """Per-GB egress fee for moving data between the two tiers.

        A single-provider catalog never pays egress; the multi-provider
        catalog charges the *source* provider's egress fee whenever the move
        crosses a provider boundary.  :data:`NEW_DATA_TIER` ingests pay none.
        """
        self._check_tier_index(to_tier, "destination")
        if from_tier != NEW_DATA_TIER:
            self._check_tier_index(from_tier, "source")
        return 0.0

    # -- derived quantities ---------------------------------------------------
    def tier_change_cost(self, from_tier: int, to_tier: int) -> float:
        """Per-GB cost ``Delta_{u,v}`` of moving data from ``from_tier`` to ``to_tier``.

        ``from_tier`` may be :data:`NEW_DATA_TIER` (-1) for newly ingested
        data, in which case only the write cost of the destination is paid.
        Moving data to the tier it already occupies is free.
        """
        if to_tier < 0 or to_tier >= len(self._tiers):
            raise IndexError(f"destination tier {to_tier} out of range")
        if from_tier == NEW_DATA_TIER:
            return self._tiers[to_tier].write_cost
        if from_tier < 0 or from_tier >= len(self._tiers):
            raise IndexError(f"source tier {from_tier} out of range")
        if from_tier == to_tier:
            return 0.0
        source = self._tiers[from_tier]
        destination = self._tiers[to_tier]
        return source.read_cost + destination.write_cost

    def cost_arrays(self) -> dict[str, np.ndarray]:
        """Per-tier price columns as float64 vectors (cached; do not mutate).

        Keys: ``storage_cost``, ``read_cost``, ``write_cost``, ``latency_s``,
        ``capacity_gb``, ``effective_slo_s`` — one entry per tier, in catalog
        order.  This is the columnar counterpart of iterating the catalog,
        used by the vectorized cost paths.
        """
        if self._cost_arrays is None:
            self._cost_arrays = {
                key: np.array(
                    [getattr(tier, key) for tier in self._tiers], dtype=np.float64
                )
                for key in (
                    "storage_cost",
                    "read_cost",
                    "write_cost",
                    "latency_s",
                    "capacity_gb",
                    "effective_slo_s",
                )
            }
        return self._cost_arrays

    def change_cost_matrix(self) -> np.ndarray:
        """``Delta_{u,v}`` for every (source, destination) pair, vectorized.

        Returns a ``(T + 1, T)`` matrix whose row ``u`` (for ``u < T``) is the
        per-GB cost of moving data from tier ``u`` to each destination, and
        whose *last* row is the :data:`NEW_DATA_TIER` case (only the
        destination's write cost).  Index it with
        ``matrix[np.where(current < 0, T, current)]`` to resolve per-partition
        rows.  Entries agree exactly with :meth:`tier_change_cost`.
        """
        if self._change_matrix is None:
            costs = self.cost_arrays()
            matrix = costs["read_cost"][:, None] + costs["write_cost"][None, :]
            np.fill_diagonal(matrix, 0.0)
            self._change_matrix = np.concatenate(
                [matrix, costs["write_cost"][None, :]]
            )
        return self._change_matrix

    def reprice(
        self,
        tier_names: Iterable[str] | None = None,
        *,
        storage_factor: float = 1.0,
        read_factor: float = 1.0,
        write_factor: float = 1.0,
    ) -> tuple[int, ...]:
        """Re-price tiers **in place**, preserving catalog identity.

        Live systems (the chaos subsystem's ``PriceShock`` in particular)
        re-price mid-run while engines, pool sets and stacked solvers all hold
        references to *this* catalog object — so the mutation happens in
        place: tier names, ordering and latencies are untouched (tier indices
        stay valid), the cached cost arrays and change matrix are dropped, and
        :attr:`pricing_version` is bumped so price-keyed caches can detect the
        change.  Returns the affected tier indices.

        ``tier_names`` limits the re-pricing to those tiers (default: all).
        Factors multiply the current prices and must be positive.
        """
        for label, factor in (
            ("storage_factor", storage_factor),
            ("read_factor", read_factor),
            ("write_factor", write_factor),
        ):
            if not factor > 0:
                raise ValueError(f"{label} must be positive, got {factor!r}")
        if tier_names is None:
            affected = set(range(len(self._tiers)))
        else:
            affected = {self.index_of(name) for name in tier_names}  # KeyError
        if not affected:
            raise ValueError("reprice needs at least one tier")
        self._tiers = tuple(
            replace(
                tier,
                storage_cost=tier.storage_cost * storage_factor,
                read_cost=tier.read_cost * read_factor,
                write_cost=tier.write_cost * write_factor,
            )
            if index in affected
            else tier
            for index, tier in enumerate(self._tiers)
        )
        self._cost_arrays = None
        self._change_matrix = None
        self.pricing_version += 1
        return tuple(sorted(affected))

    def with_capacities(self, capacities: Sequence[float]) -> "TierCatalog":
        """Return a new catalog with per-tier reserved capacities (in GB)."""
        if len(capacities) != len(self._tiers):
            raise ValueError(
                f"expected {len(self._tiers)} capacities, got {len(capacities)}"
            )
        return TierCatalog(
            [tier.with_capacity(cap) for tier, cap in zip(self._tiers, capacities)]
        )

    def subset(self, names: Iterable[str]) -> "TierCatalog":
        """Return a catalog restricted to ``names`` (keeping original order)."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise KeyError(f"unknown tier names: {sorted(unknown)}")
        return TierCatalog([tier for tier in self._tiers if tier.name in wanted])


# ---------------------------------------------------------------------------
# Azure presets
# ---------------------------------------------------------------------------

def azure_table1_tiers() -> list[StorageTier]:
    """Azure ADLS Gen2 tiers with the prices of the paper's Table I.

    Table I quotes storage prices in cents/GB/month, read prices in cents per
    10k operations of 650 MB each (converted here to cents/GB), and the time
    to first byte per tier.
    """

    def per_gb(cents_per_10k_ops: float, mb_per_op: float = 650.0) -> float:
        # 10k operations move 10_000 * mb_per_op MB; price per GB follows.
        gb_moved = 10_000.0 * mb_per_op / 1024.0
        return cents_per_10k_ops / gb_moved

    return [
        StorageTier(
            name="premium",
            storage_cost=15.0,
            read_cost=per_gb(0.182),
            write_cost=per_gb(0.182),
            latency_s=0.003,
        ),
        StorageTier(
            name="hot",
            storage_cost=2.08,
            read_cost=per_gb(0.52),
            write_cost=per_gb(0.52),
            latency_s=0.010,
        ),
        StorageTier(
            name="cool",
            storage_cost=1.52,
            read_cost=per_gb(1.3),
            write_cost=per_gb(1.3),
            latency_s=0.010,
        ),
        StorageTier(
            name="archive",
            storage_cost=0.099,
            read_cost=per_gb(650.0),
            write_cost=per_gb(1.3),
            latency_s=3600.0,
            early_deletion_months=6.0,
        ),
    ]


def azure_table12_tiers() -> list[StorageTier]:
    """Azure tiers with the exact per-GB parameters of the paper's Table XII.

    Table XII is the parameter set the authors feed to the ILP in the unified
    pipeline experiments (Tables IX-XI), so benchmarks reproducing those
    tables use this preset.
    """
    return [
        StorageTier(
            name="premium",
            storage_cost=15.0,
            read_cost=0.004659,
            write_cost=0.004659,
            latency_s=0.0053,
        ),
        StorageTier(
            name="hot",
            storage_cost=2.08,
            read_cost=0.01331,
            write_cost=0.01331,
            latency_s=0.0614,
        ),
        StorageTier(
            name="cool",
            storage_cost=1.52,
            read_cost=0.0333,
            write_cost=0.01331,
            latency_s=0.0614,
        ),
        StorageTier(
            name="archive",
            storage_cost=0.099,
            read_cost=16.64,
            write_cost=0.0333,
            latency_s=3600.0,
            early_deletion_months=6.0,
        ),
    ]


def azure_tier_catalog(
    include_archive: bool = True,
    include_premium: bool = True,
    capacities: Sequence[float] | None = None,
    table: str = "XII",
) -> TierCatalog:
    """Build a :class:`TierCatalog` with Azure parameters.

    Parameters
    ----------
    include_archive, include_premium:
        Drop the archive and/or premium tiers.  The enterprise tiering
        experiments (Tables II-IV) use hot/cool(/archive) only, while the
        pipeline experiments (Tables IX-XI) use premium/hot/cool.
    capacities:
        Optional reserved capacities (GB), one per retained tier.
    table:
        ``"I"`` or ``"XII"`` — which of the paper's parameter tables to use.
    """
    if table == "I":
        tiers = azure_table1_tiers()
    elif table == "XII":
        tiers = azure_table12_tiers()
    else:
        raise ValueError(f"table must be 'I' or 'XII', got {table!r}")
    if not include_premium:
        tiers = [tier for tier in tiers if tier.name != "premium"]
    if not include_archive:
        tiers = [tier for tier in tiers if tier.name != "archive"]
    catalog = TierCatalog(tiers)
    if capacities is not None:
        catalog = catalog.with_capacities(capacities)
    return catalog
