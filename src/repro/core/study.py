"""End-to-end study orchestration.

:class:`CellularDNSStudy` reproduces the paper's pipeline: build the
simulated Internet, run the measurement campaign, and derive every table
and figure.  Each ``table*``/``fig*`` method returns structured data;
``render_*`` wrappers produce the printable form the benchmark harness
emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.cache import CacheComparison, cache_comparison
from repro.analysis.consistency import (
    LdnsPairRow,
    ResolverCountRow,
    ResolverTimeline,
    ldns_pair_table,
    resolver_timeline,
    unique_resolver_counts,
)
from repro.analysis.egress import (
    EgressCount,
    count_egress_points,
    world_ownership_oracle,
)
from repro.analysis.latency import (
    public_resolver_pings,
    resolution_times,
    resolution_times_by_kind,
    resolution_times_by_technology,
    resolver_ping_latencies,
)
from repro.analysis.localization import (
    PublicReplicaComparison,
    ReplicaDifferentials,
    public_replica_comparison,
    replica_differentials,
)
from repro.analysis.reachability import (
    ReachabilityRow,
    probe_external_reachability,
)
from repro.analysis.report import format_cdfs, format_table
from repro.analysis.similarity import SimilarityStudy, similarity_study
from repro.analysis.stats import ECDF
from repro.cdn.catalog import MEASURED_DOMAINS, domain_names
from repro.core.world import World, WorldConfig, build_world
from repro.measure.campaign import (
    Campaign,
    CampaignConfig,
    ShardedCampaign,
    select_executor,
)
from repro.measure.records import Dataset

US_CARRIERS = ("att", "sprint", "tmobile", "verizon")
SK_CARRIERS = ("skt", "lgu")


@dataclass
class StudyConfig:
    """Scale knobs for a full study run.

    The defaults trade fidelity for runtime: a laptop-scale campaign that
    still produces every artifact with stable shapes.  ``paper_scale()``
    returns the full Table 1 population at hourly cadence.
    """

    seed: int = 2014
    device_scale: float = 0.15
    min_devices: int = 1
    duration_days: float = 120.0
    interval_hours: float = 12.0
    duty_cycle: float = 0.9
    #: Campaign worker processes: 0 lets the executor decide, N > 0
    #: sizes the pool when a multiprocess path runs (same output
    #: either way — see repro.measure.campaign).
    workers: int = 0
    #: Sub-carrier shard tasks for the ``sharded`` executor: 0 uses one
    #: task per device range; N groups ranges into N tasks.  Output is
    #: bit-identical at any value.
    shards: int = 0
    #: Devices per sub-carrier range (the cache-scope partition
    #: granularity — see CampaignConfig.range_size).
    range_size: int = 32
    #: Execution strategy: ``auto`` (serial on one core, sub-carrier
    #: ``sharded`` otherwise), ``serial`` or ``sharded``.  Output is
    #: bit-identical across all of them.
    executor: str = "auto"
    world: WorldConfig = field(default_factory=WorldConfig)

    @classmethod
    def paper_scale(cls) -> "StudyConfig":
        """The original study's scale (slow: ~570k experiments)."""
        return cls(
            device_scale=1.0, duration_days=153.0, interval_hours=1.0
        )

    @classmethod
    def smoke_scale(cls) -> "StudyConfig":
        """Tiny scale for tests and quick demos."""
        return cls(
            device_scale=0.05,
            min_devices=1,
            duration_days=20.0,
            interval_hours=24.0,
        )

    def campaign_config(self) -> CampaignConfig:
        """The campaign configuration this study scale implies."""
        return CampaignConfig(
            device_scale=self.device_scale,
            min_devices=self.min_devices,
            duration_days=self.duration_days,
            interval_hours=self.interval_hours,
            duty_cycle=self.duty_cycle,
            range_size=self.range_size,
        )


class CellularDNSStudy:
    """The paper, as an object: world + campaign + per-artifact methods."""

    def __init__(self, config: Optional[StudyConfig] = None) -> None:
        self.config = config or StudyConfig()
        world_config = self.config.world
        world_config.seed = self.config.seed
        self.world: World = build_world(world_config)
        campaign_config = self.config.campaign_config()
        carrier_keys = list(self.world.operators)
        #: The full executor decision: why the strategy was chosen and
        #: the bootstrap/simulate estimates it weighed (``auto`` sizes
        #: against the *device-range* count — sub-carrier shards — and
        #: the estimated campaign size).
        self.executor_decision = select_executor(
            self.config.executor,
            shard_count=len(campaign_config.device_ranges(carrier_keys)),
            experiments=campaign_config.estimated_experiments(carrier_keys),
        )
        #: The resolved execution strategy ("serial" or "sharded"), as
        #: a string-comparable value.
        self.executor: str = self.executor_decision
        if self.executor == "sharded":
            self.campaign: Campaign = ShardedCampaign(
                self.world,
                campaign_config,
                workers=self.config.workers or None,
                shards=self.config.shards or None,
            )
        else:
            self.campaign = Campaign(self.world, campaign_config)
        self._dataset: Optional[Dataset] = None

    @property
    def dataset(self) -> Dataset:
        """The campaign dataset (runs the campaign on first use)."""
        if self._dataset is None:
            self._dataset = self.campaign.run()
        return self._dataset

    def use_dataset(self, dataset: Dataset) -> None:
        """Inject a pre-collected dataset (e.g. loaded from JSONL)."""
        self._dataset = dataset

    # -- tables ---------------------------------------------------------------

    def table1_clients(self) -> List[tuple]:
        """Table 1: measurement clients per operator."""
        counts: Dict[str, int] = {}
        for device in self.campaign.devices:
            counts[device.carrier_key] = counts.get(device.carrier_key, 0) + 1
        rows = []
        for key in (*US_CARRIERS, *SK_CARRIERS):
            operator = self.world.operators[key]
            rows.append(
                (
                    operator.display_name,
                    counts.get(key, 0),
                    operator.country.value,
                )
            )
        return rows

    def table2_domains(self) -> List[tuple]:
        """Table 2: measured domains and their CNAME targets."""
        return [
            (spec.name, spec.cdn_key, spec.edge_name, spec.a_ttl)
            for spec in MEASURED_DOMAINS
        ]

    def table3_ldns_pairs(self) -> List[LdnsPairRow]:
        """Table 3: LDNS pairs and pairing consistency."""
        return ldns_pair_table(self.dataset)

    def table4_reachability(self) -> List[ReachabilityRow]:
        """Table 4: external reachability of cellular resolvers."""
        return probe_external_reachability(self.world, self.dataset)

    def table5_resolver_counts(self) -> List[ResolverCountRow]:
        """Table 5: unique resolver IPs and /24s per provider and kind."""
        return unique_resolver_counts(self.dataset)

    # -- figures ----------------------------------------------------------------

    def fig2_replica_differentials(
        self, carrier: str, domain: Optional[str] = None
    ) -> ReplicaDifferentials:
        """Fig 2: replica latency increase over each user's best replica."""
        return replica_differentials(self.dataset, carrier, domain=domain)

    def fig3_resolution_by_technology(self, carrier: str) -> Dict[str, ECDF]:
        """Fig 3: resolution-time CDFs per radio technology."""
        return resolution_times_by_technology(self.dataset, carrier)

    def fig4_resolver_distance(self, carrier: str) -> Dict[str, ECDF]:
        """Fig 4: pings to client-facing vs external-facing resolvers."""
        return resolver_ping_latencies(self.dataset, carrier)

    def fig5_us_resolution(self) -> Dict[str, ECDF]:
        """Fig 5: local resolution-time CDFs, US carriers."""
        return {
            carrier: resolution_times(self.dataset, carrier)
            for carrier in US_CARRIERS
        }

    def fig6_sk_resolution(self) -> Dict[str, ECDF]:
        """Fig 6: local resolution-time CDFs, SK carriers."""
        return {
            carrier: resolution_times(self.dataset, carrier)
            for carrier in SK_CARRIERS
        }

    def fig7_cache(self) -> CacheComparison:
        """Fig 7: first vs second lookup across the US carriers."""
        return cache_comparison(self.dataset, carriers=list(US_CARRIERS))

    def fig8_resolver_churn(self, device_id: str) -> ResolverTimeline:
        """Fig 8: one device's external-resolver timeline."""
        return resolver_timeline(self.dataset, device_id)

    def fig9_static_timeline(self, device_id: str) -> ResolverTimeline:
        """Fig 9: the same, filtered to the device's home cluster."""
        from repro.analysis.consistency import device_location_centroid

        records = self.dataset.by_device().get(device_id, [])
        centroid = device_location_centroid(records)
        return resolver_timeline(
            self.dataset, device_id, within_km_of=centroid, radius_km=10.0
        )

    def fig10_similarity(
        self, carrier: str, domain: str = "www.buzzfeed.com"
    ) -> SimilarityStudy:
        """Fig 10: replica-set cosine similarity, same vs different /24."""
        return similarity_study(self.dataset, domain, carrier)

    def fig11_public_distance(self, carrier: str) -> Dict[str, ECDF]:
        """Fig 11: pings to cellular LDNS vs public resolvers."""
        return public_resolver_pings(self.dataset, carrier)

    def fig12_google_churn(self, device_id: str) -> ResolverTimeline:
        """Fig 12: Google resolver timeline for one device."""
        return resolver_timeline(self.dataset, device_id, resolver_kind="google")

    def fig13_public_resolution(self, carrier: str) -> Dict[str, ECDF]:
        """Fig 13: resolution times, local vs Google vs OpenDNS."""
        return resolution_times_by_kind(self.dataset, carrier)

    def fig14_public_replicas(
        self, carrier: str, public_kind: str = "google"
    ) -> PublicReplicaComparison:
        """Fig 14: relative replica latency, public vs cellular DNS."""
        return public_replica_comparison(self.dataset, carrier, public_kind)

    def egress_point_counts(self) -> Dict[str, EgressCount]:
        """Sec 5.2: egress points per carrier from traceroutes."""
        return count_egress_points(
            self.dataset, world_ownership_oracle(self.world)
        )

    # -- rendering ------------------------------------------------------------

    def regenerate_report(self, cache=None, reference: bool = False):
        """Every table and figure as one text document (the fast path).

        Delegates to :func:`repro.analysis.suite.regenerate_report`:
        one fused engine scan feeds all artifacts, ``cache`` (an
        :class:`~repro.analysis.result_cache.AnalysisResultCache`)
        replays unchanged datasets, and ``reference=True`` renders the
        byte-identical oracle via the original per-function walks.
        """
        from repro.analysis.suite import regenerate_report

        return regenerate_report(self, reference=reference, cache_store=cache)

    def render_table1(self) -> str:
        """Printable Table 1."""
        return format_table(
            ["Carrier", "# Clients", "Country"],
            self.table1_clients(),
            title="Table 1: measurement clients per operator",
        )

    def render_table3(self) -> str:
        """Printable Table 3."""
        rows = [
            (
                self.world.operators[row.carrier].display_name,
                row.client_addresses,
                row.external_addresses,
                row.pairs,
                f"{row.consistency_pct:.1f}",
            )
            for row in self.table3_ldns_pairs()
        ]
        return format_table(
            ["Provider", "Client", "External", "Pairs", "Consistency %"],
            rows,
            title="Table 3: LDNS pairs seen by mobile clients",
        )

    def render_fig5(self) -> str:
        """Printable Fig 5."""
        return format_cdfs(
            self.fig5_us_resolution(),
            title="Fig 5: DNS resolution time, US carriers",
        )

    def domain_list(self) -> List[str]:
        """The nine measured hostnames."""
        return domain_names()
