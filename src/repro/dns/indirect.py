"""Indirect LDNS resolution structures.

Section 4 of the paper finds that *every* profiled carrier separates the
resolver clients are configured with (client-facing) from the resolver
the rest of the Internet sees (external-facing), in one of three shapes:

* **Anycast** (AT&T, T-Mobile): one configured address served from many
  sites; the external address follows the serving site.
* **LDNS pools** (Sprint, SK Telecom, LG U+): a client-facing front
  load-balances across a pool of external resolvers.
* **Tiered** (Verizon): fixed client/external pairs, here in different
  autonomous systems (6167 client-facing, 22394 external-facing).

This module provides the building blocks: resolver sites, external
resolvers (host + recursive engine), client-facing addresses, and the
pairing policies that decide — per device, per instant — which external
resolver a query exits through.  Policies are *pure functions of time*
(epoch-keyed hashes), so churn is reproducible no matter the order in
which measurements happen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ConfigError
from repro.core.node import Host
from repro.core.rng import (
    stable_fraction,
    stable_fraction_uncached,
    stable_index,
    stable_index_uncached,
)
from repro.dns.recursive import RecursiveEngine
from repro.geo.regions import City


class DeploymentKind(str, enum.Enum):
    """Shape of a carrier's indirect DNS deployment."""

    ANYCAST = "anycast"
    POOL = "pool"
    TIERED = "tiered"


@dataclass
class ResolverSite:
    """A physical location hosting resolver machines.

    Resolver sites sit at (or near) network egress points — the
    clustering Xu et al. [25] observed and the paper leans on when
    arguing that resolver churn re-localizes clients.
    """

    index: int
    city: City

    @property
    def location(self):
        """Geographic placement of the site."""
        return self.city.location


@dataclass
class ExternalResolver:
    """An external-facing resolver: public host plus recursive engine."""

    host: Host
    engine: RecursiveEngine
    site: ResolverSite

    @property
    def ip(self) -> str:
        """The resolver's public address (what authorities see)."""
        return self.host.ip


@dataclass
class ClientFacingAddress:
    """An address configured on devices as "the" DNS server.

    For anycast deployments one address is served from every site; for
    pools and tiers the address belongs to a specific front machine.
    """

    ip: str
    host: Optional[Host] = None
    anycast: bool = False
    #: Index of the site hosting the front (non-anycast only).
    site_index: Optional[int] = None


class PairingPolicy:
    """Decides which external resolver serves a query.

    ``device_key`` identifies the querying device, ``egress_index`` its
    current attachment's egress point, ``now`` the virtual time.
    """

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        raise NotImplementedError


@dataclass
class TieredPairing(PairingPolicy):
    """Fixed 1:1 client/external pairs (Verizon): 100% consistency."""

    pair_of: Dict[str, ExternalResolver]

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        try:
            return self.pair_of[client_address.ip]
        except KeyError as exc:
            raise ConfigError(
                f"no external pair for client resolver {client_address.ip}"
            ) from exc


@dataclass
class StickyPoolPairing(PairingPolicy):
    """A front load-balances over a pool, with configurable stickiness.

    The pool has a "primary" member that migrates every
    ``rehome_period_s`` (epoch-keyed hash).  A query goes to the primary
    with probability ``stickiness``, otherwise to a random pool member.
    ``stickiness=0.5`` over a two-member pool reproduces the paper's
    example of a 50%-consistent resolver.  ``shared_home=False`` makes
    the primary per-device instead (SK-style spray pools).
    """

    pools: Dict[str, List[ExternalResolver]]
    stickiness: float
    rehome_period_s: float
    seed: int
    shared_home: bool = True

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        pool = self.pools.get(client_address.ip)
        if not pool:
            raise ConfigError(f"no pool behind {client_address.ip}")
        epoch = int(now // self.rehome_period_s)
        draw = stable_fraction_uncached(
            self.seed, "sticky", client_address.ip, device_key, now
        )
        if draw < self.stickiness:
            home_key = "" if self.shared_home else device_key
            home = stable_index(
                self.seed,
                "home",
                client_address.ip,
                home_key,
                epoch,
                modulo=len(pool),
            )
            return pool[home]
        pick = stable_index_uncached(
            self.seed,
            "balance",
            client_address.ip,
            device_key,
            now,
            modulo=len(pool),
        )
        return pool[pick]


@dataclass
class AnycastPairing(PairingPolicy):
    """Anycast fronts: the serving site follows the device's egress.

    The externals behind the anycast address are grouped by site; the
    device's egress picks the site (nearest resolver infrastructure), and
    within the site a hash spreads devices across machines.  Egress churn
    therefore translates directly into external-resolver churn across
    /24s — the paper's Fig 8 behaviour for AT&T and T-Mobile.
    """

    by_site: Dict[int, List[ExternalResolver]]
    seed: int
    #: Probability that routing wobbles to a random other site even
    #: without an egress change (tunnelling-induced instability).
    site_flutter: float = 0.0
    #: When set, the machine choice within a site re-rolls every epoch
    #: (T-Mobile-style balancing: same site, rapidly changing machine —
    #: and with one /24 per machine, rapidly changing prefix too).
    machine_epoch_s: Optional[float] = None

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        if not self.by_site:
            raise ConfigError("anycast deployment has no sites")
        site_keys = sorted(self.by_site)
        if egress_index in self.by_site:
            site_key = egress_index
        else:
            site_key = site_keys[egress_index % len(site_keys)]
        if self.site_flutter > 0:
            # Hour-keyed so one experiment's queries wobble coherently.
            hour = int(now // 3600.0)
            draw = stable_fraction(self.seed, "flutter", device_key, hour)
            if draw < self.site_flutter:
                shift = stable_index(
                    self.seed, "flutter-site", device_key, hour, modulo=len(site_keys)
                )
                site_key = site_keys[shift]
        machines = self.by_site[site_key]
        if self.machine_epoch_s:
            epoch = int(now // self.machine_epoch_s)
            pick = stable_index(
                self.seed, "machine", device_key, site_key, epoch,
                modulo=len(machines),
            )
        else:
            pick = stable_index(
                self.seed, "machine", device_key, site_key, modulo=len(machines)
            )
        return machines[pick]


@dataclass
class LoadBalancedPairing(PairingPolicy):
    """Near-uniform balancing across all externals (T-Mobile-style).

    A small stickiness term keeps back-to-back queries on one machine
    *sometimes*, but most measurements see a fresh resolver, frequently
    in a different /24.
    """

    externals: List[ExternalResolver] = field(default_factory=list)
    seed: int = 0
    coherence_s: float = 600.0

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        if not self.externals:
            raise ConfigError("load-balanced deployment has no externals")
        epoch = int(now // self.coherence_s)
        pick = stable_index(
            self.seed, "lb", device_key, epoch, modulo=len(self.externals)
        )
        return self.externals[pick]


@dataclass
class DnsDeployment:
    """A carrier's complete indirect-resolution deployment."""

    kind: DeploymentKind
    client_addresses: List[ClientFacingAddress]
    externals: List[ExternalResolver]
    sites: List[ResolverSite]
    pairing: PairingPolicy
    #: Extra RTT between the client-facing front and the external tier
    #: (zero when co-located, as with SK Telecom; positive for deep
    #: hierarchies, Fig 4).
    tier_gap_ms: float = 0.0
    #: Memo of DHCP front candidates per anchor point (fronts and sites
    #: are fixed after construction, anchors recur per city).
    _dhcp_memo: Dict[object, List[ClientFacingAddress]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not self.client_addresses:
            raise ConfigError("deployment needs at least one client address")
        if not self.externals:
            raise ConfigError("deployment needs at least one external resolver")

    def client_address_for(
        self, device_key: str, seed: int, near=None
    ) -> ClientFacingAddress:
        """Which configured resolver address a device receives via DHCP.

        When ``near`` (a GeoPoint) is given and the fronts are fixed
        machines, DHCP hands out one of the two closest fronts — real
        operators regionalise resolver assignment.  Anycast fronts are
        location-free, so any address does.
        """
        candidates = self.client_addresses
        if near is not None and not candidates[0].anycast and len(candidates) > 1:
            cached = self._dhcp_memo.get(near)
            if cached is None:
                ranked = sorted(
                    candidates,
                    key=lambda address: self.sites[
                        (address.site_index or 0) % len(self.sites)
                    ].location.distance_km(near),
                )
                cached = ranked[: min(2, len(ranked))]
                self._dhcp_memo[near] = cached
            candidates = cached
        index = stable_index(
            seed, "client-addr", device_key, modulo=len(candidates)
        )
        return candidates[index]

    def external_for(
        self,
        client_address: ClientFacingAddress,
        device_key: str,
        egress_index: int,
        now: float,
    ) -> ExternalResolver:
        """Resolve the pairing for one query."""
        return self.pairing.external_for(
            client_address, device_key, egress_index, now
        )

    def serving_site(
        self, client_address: ClientFacingAddress, egress_index: int
    ) -> ResolverSite:
        """The site answering the *client-facing* address for a device.

        Anycast fronts are served from the site the egress routes to;
        fixed fronts are served where they live.
        """
        if client_address.anycast or client_address.site_index is None:
            return self.sites[egress_index % len(self.sites)]
        return self.sites[client_address.site_index % len(self.sites)]

    def external_by_ip(self, ip: str) -> Optional[ExternalResolver]:
        """Look an external resolver up by address."""
        for resolver in self.externals:
            if resolver.ip == ip:
                return resolver
        return None

    def external_ips(self) -> List[str]:
        """All external resolver addresses."""
        return [resolver.ip for resolver in self.externals]

    def client_ips(self) -> List[str]:
        """All configured client-facing addresses."""
        return [address.ip for address in self.client_addresses]


def group_by_site(
    externals: Sequence[ExternalResolver],
) -> Dict[int, List[ExternalResolver]]:
    """Index external resolvers by their site (anycast pairing input)."""
    by_site: Dict[int, List[ExternalResolver]] = {}
    for resolver in externals:
        by_site.setdefault(resolver.site.index, []).append(resolver)
    return by_site
