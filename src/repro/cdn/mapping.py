"""CDN replica-selection policy: resolver /24 -> replica cluster.

Section 5.1 infers that CDNs group LDNS resolvers by /24 prefix and map
each group to a replica cluster using network measurements toward the
resolver.  Two properties of cellular networks break the scheme:

* **Opaqueness** — the CDN cannot traceroute or ping into the operator
  (Sec 4.4), so its position estimate for a cellular resolver /24 is
  noisy or outright wrong; it only sees the operator's egress.
* **Churn** — clients hop between resolver /24s (Sec 4.5), so they hop
  between whatever clusters those /24s were mapped to.

The :class:`MappingPolicy` here reproduces both: per-/24 location
estimates with market-calibrated error (small for public DNS clusters
the CDN can measure freely, large for cellular resolvers), refreshed on
a slow epoch, then nearest-cluster selection on the *estimate*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.addressing import prefix24
from repro.core.clock import SECONDS_PER_DAY
from repro.core.rng import stable_fraction_uncached, stable_index_uncached
from repro.geo.coordinates import GeoPoint

#: Looks an IP up and reports (location, is_cellular); the study builder
#: wires this to the virtual Internet's registries.
ResolverLocator = Callable[[str], Optional[Tuple[GeoPoint, bool]]]


@dataclass
class MappingPolicy:
    """Per-/24 cluster mapping with imperfect localisation."""

    locator: ResolverLocator
    cluster_locations: List[GeoPoint]
    seed: int
    #: Estimate error (km, uniform radius) for measurable /24s.
    wired_error_km: float = 60.0
    #: Estimate error for cellular /24s the CDN cannot probe: it only
    #: sees the operator's egress region, so estimates are city-scale
    #: wrong but usually not continent-scale wrong.
    cellular_error_km: float = 160.0
    #: Probability a cellular /24's estimate is essentially arbitrary
    #: (mapped behind a distant divergence point).
    cellular_blunder_prob: float = 0.08
    #: How often the CDN refreshes its estimates.
    remap_epoch_s: float = 30 * SECONDS_PER_DAY
    #: Cache of decided mappings, keyed by (/24, epoch).
    _decisions: Dict[Tuple[str, int], int] = field(default_factory=dict)

    #: Estimate error for ECS client subnets: the CDN ties performance
    #: feedback (actual client connections) to the prefix directly, so
    #: accuracy approaches the wired case even inside cellular space.
    ecs_error_km: float = 80.0

    #: Canonicalises a resolver address to its /24's representative
    #: member before localisation.  The CDN measures a resolver block
    #: *once* — its estimate is a property of the /24, not of whichever
    #: member happened to query first — so without this a block housing
    #: resolvers in different cities would be pinned by query order,
    #: breaking the shard-isolation contract (device ranges executed in
    #: any order, on any worker, must observe identical mappings).
    anchor_canon: Optional[Callable[[str], str]] = None

    def cluster_for(
        self, resolver_ip: str, now: float, is_client_subnet: bool = False
    ) -> int:
        """Index of the cluster serving this resolver's /24 at ``now``."""
        block = prefix24(resolver_ip)
        epoch = int(now // self.remap_epoch_s)
        key = (block, epoch)
        cached = self._decisions.get(key)
        if cached is not None:
            return cached
        decision = self._decide(block, epoch, resolver_ip, is_client_subnet)
        self._decisions[key] = decision
        return decision

    def _decide(
        self, block: str, epoch: int, anchor_ip: str, is_client_subnet: bool
    ) -> int:
        if not is_client_subnet and self.anchor_canon is not None:
            # Client-subnet anchors are already block-pure (a client /24
            # NATs through one egress region); resolver anchors must be
            # canonicalised so the decision is order-independent.
            anchor_ip = self.anchor_canon(anchor_ip)
        located = self.locator(anchor_ip)
        if located is None:
            # Unknown space: arbitrary but stable assignment.
            return stable_index_uncached(
                self.seed, "unknown", block, epoch, modulo=len(self.cluster_locations)
            )
        location, is_cellular = located
        if is_client_subnet:
            error_km = self.ecs_error_km
        elif is_cellular:
            if (
                stable_fraction_uncached(self.seed, "blunder", block, epoch)
                < self.cellular_blunder_prob
            ):
                return stable_index_uncached(
                    self.seed, "blunder-pick", block, epoch,
                    modulo=len(self.cluster_locations),
                )
            error_km = self.cellular_error_km
        else:
            error_km = self.wired_error_km
        estimate = self._perturb(location, block, epoch, error_km)
        return min(
            range(len(self.cluster_locations)),
            key=lambda index: self.cluster_locations[index].distance_km(estimate),
        )

    def _perturb(
        self, location: GeoPoint, block: str, epoch: int, error_km: float
    ) -> GeoPoint:
        north = (
            stable_fraction_uncached(self.seed, "err-n", block, epoch) - 0.5
        ) * 2.0 * error_km
        east = (
            stable_fraction_uncached(self.seed, "err-e", block, epoch) - 0.5
        ) * 2.0 * error_km
        return location.offset_km(north, east)

    def mapped_blocks(self) -> List[str]:
        """All /24s the policy has decided so far (diagnostics)."""
        return sorted({block for block, _ in self._decisions})
