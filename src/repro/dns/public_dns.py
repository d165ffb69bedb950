"""Public anycast DNS services (Google Public DNS, OpenDNS).

Section 6 of the paper benchmarks cellular LDNS against the two big
public resolvers.  Both are anycast: one well-known address
(``8.8.8.8``, ``208.67.222.222``) routes to the nearest of a set of
geographically distributed resolver clusters, each cluster occupying its
own /24 (Google documents 30 such /24 sites; Table 5 and Fig 12 lean on
that structure).

Anycast routing from cellular networks is wobbly — the paper observes
devices being sent to *different* Google /24 clusters over time even
from a fixed location (Fig 12), plausibly because of operator tunnelling.
``route_instability`` models that wobble.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.addressing import Prefix
from repro.core.asn import ASKind, AutonomousSystem, FirewallPolicy
from repro.core.internet import VirtualInternet
from repro.core.node import Host, ProbeOrigin
from repro.core.rng import (
    RandomStream,
    stable_fraction_uncached,
    stable_index,
    stable_index_uncached,
)
from repro.core.transport import Transport
from repro.dns.cache import DnsCache
from repro.dns.message import RRType
from repro.dns.recursive import RecursiveEngine, RecursiveResult
from repro.dns.zone import ZoneDirectory
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import City


@dataclass
class PublicDnsCluster:
    """One anycast site: a /24 with several resolver machines."""

    index: int
    city: City
    prefix: Prefix
    hosts: List[Host]
    engine: RecursiveEngine
    #: Machine pick per (device, balancing epoch) — pure in its key, so
    #: the memo is invisible to determinism.
    _machine_memo: dict = field(default_factory=dict)

    @property
    def location(self) -> GeoPoint:
        """Where the cluster lives."""
        return self.city.location

    def machine_for(self, device_key: str, seed: int, now: float = 0.0) -> Host:
        """Which machine in the cluster answers a given device.

        Re-rolled every few hours: anycast services balance queries over
        the machines of a site, which is why clients observe many more
        public resolver *addresses* than /24s (Table 5).
        """
        epoch = int(now // (6 * 3600.0))
        key = (device_key, epoch)
        machine = self._machine_memo.get(key)
        if machine is None:
            pick = stable_index(
                seed, "machine", self.index, device_key, epoch,
                modulo=len(self.hosts),
            )
            machine = self.hosts[pick]
            self._machine_memo[key] = machine
        return machine


@dataclass(slots=True)
class PublicResolution:
    """Outcome of one resolution through a public DNS service."""

    result: RecursiveResult
    total_ms: float
    #: Address the authorities saw (a cluster-machine IP, not the anycast
    #: address).
    external_ip: str
    cluster_index: int


@dataclass
class PublicDnsService:
    """An anycast public resolver service."""

    name: str
    anycast_ip: str
    system: AutonomousSystem
    clusters: List[PublicDnsCluster] = field(default_factory=list)
    seed: int = 0
    #: Extra RTT paid crossing from the operator's egress into the
    #: service's network (peering detours).  Resolution requests "would
    #: have to leave the cellular network to complete" (Sec 6.1) — this
    #: is the cost of that exit, on top of geography.
    peering_penalty_ms: float = 14.0
    #: Probability that a query routes to a non-nearest cluster.
    route_instability: float = 0.15
    #: Forward EDNS Client Subnet options to authorities (Google shipped
    #: ECS in this era; the paper-baseline configuration keeps it off so
    #: the comparison matches what the authors measured).
    ecs_enabled: bool = False
    #: The delivery layer queries and pings cross.  Services built by
    #: the world share its transport; directly constructed ones get a
    #: private fault-free layer on first use.
    transport: Optional[Transport] = None
    #: When unstable, how many nearest clusters the wobble spreads over.
    wobble_breadth: int = 4
    #: How long one wobble decision persists (routing epochs).
    wobble_epoch_s: float = 3 * 3600.0
    #: Memo of distance rankings keyed by rounded egress position.
    _ranking_memo: dict = field(default_factory=dict)
    #: Rounded ranking key per egress GeoPoint (a pure projection; the
    #: few egress points recur for every probe).
    _anchor_key_memo: dict = field(default_factory=dict)
    #: Serving-cluster pick per (rounded egress, device, wobble epoch) —
    #: every input is quantised, so caching cannot change any draw.
    _serving_memo: dict = field(default_factory=dict)
    #: (cluster, machine) per (rounded egress, device, wobble epoch,
    #: balancing epoch): the hot-path fusion of ``serving_cluster`` +
    #: ``machine_for`` into one dictionary probe.
    _serve_memo: dict = field(default_factory=dict)
    #: Memo of routing facts keyed by (origin ASN, machine ip) — the
    #: route verdict depends only on the origin's AS (see
    #: VirtualInternet.route_view), not on the per-probe origin sample.
    _route_memo: dict = field(default_factory=dict)

    # -- anycast routing ----------------------------------------------------

    def serving_cluster(
        self, origin: ProbeOrigin, device_key: str, now: float
    ) -> PublicDnsCluster:
        """The cluster an origin's packets reach at virtual ``now``."""
        return self._serving_cluster_at(origin.egress_location, device_key, now)

    def _serving_cluster_at(
        self, anchor, device_key: str, now: float
    ) -> PublicDnsCluster:
        """:meth:`serving_cluster` keyed directly by the egress anchor.

        Anycast routing depends on the origin only through its egress
        position, so callers that have not built a ``ProbeOrigin`` (the
        fused probe paths) pass the attachment's egress location.
        """
        if not self.clusters:
            raise ValueError(f"{self.name} has no clusters")
        ranking_key = self._anchor_key_memo.get(anchor)
        if ranking_key is None:
            ranking_key = (round(anchor.latitude, 1), round(anchor.longitude, 1))
            self._anchor_key_memo[anchor] = ranking_key
        epoch = int(now // self.wobble_epoch_s)
        memo_key = (ranking_key, device_key, epoch)
        cluster = self._serving_memo.get(memo_key)
        if cluster is None:
            ranked = self._ranking_memo.get(ranking_key)
            if ranked is None:
                ranked = sorted(
                    self.clusters,
                    key=lambda candidate: candidate.location.distance_km(
                        anchor
                    ),
                )
                self._ranking_memo[ranking_key] = ranked
            draw = stable_fraction_uncached(self.seed, "route", device_key, epoch)
            if draw >= self.route_instability or len(ranked) == 1:
                cluster = ranked[0]
            else:
                breadth = min(self.wobble_breadth, len(ranked) - 1)
                shift = stable_index_uncached(
                    self.seed, "wobble", device_key, epoch, modulo=breadth
                )
                cluster = ranked[1 + shift]
            self._serving_memo[memo_key] = cluster
        return cluster

    def _serve(
        self, origin: ProbeOrigin, device_key: str, now: float
    ) -> tuple:
        """(cluster, machine) answering ``origin`` at ``now``.

        Equivalent to :meth:`serving_cluster` + ``machine_for`` — both
        pure in quantised inputs — memoised under one key so resolve and
        ping pay a single lookup.
        """
        return self._serve_at(origin.egress_location, device_key, now)

    def _serve_at(self, anchor, device_key: str, now: float) -> tuple:
        """:meth:`_serve` keyed directly by the egress anchor."""
        ranking_key = self._anchor_key_memo.get(anchor)
        if ranking_key is None:
            ranking_key = (round(anchor.latitude, 1), round(anchor.longitude, 1))
            self._anchor_key_memo[anchor] = ranking_key
        key = (
            ranking_key,
            device_key,
            int(now // self.wobble_epoch_s),
            int(now // (6 * 3600.0)),
        )
        pair = self._serve_memo.get(key)
        if pair is None:
            cluster = self._serving_cluster_at(anchor, device_key, now)
            machine = cluster.machine_for(device_key, self.seed, now)
            pair = (cluster, machine)
            self._serve_memo[key] = pair
        return pair

    # -- client operations ---------------------------------------------------

    def resolve(
        self,
        origin: ProbeOrigin,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        device_key: str = "",
        cache_scope: Optional[str] = None,
    ) -> Optional[PublicResolution]:
        """Resolve a name via the anycast address from ``origin``.

        Returns None when the service is unreachable (never the case for
        outbound cellular flows, but kept symmetric with other probes).
        """
        cluster, machine = self._serve(origin, device_key, now)
        internet = cluster.engine.internet
        route_key = (origin.asys.asn, machine.ip)
        route = self._route_memo.get(route_key)
        if route is None:
            route = internet.route_view(origin, machine.ip)
            self._route_memo[route_key] = route
        delivery = self._delivery_layer(internet).flow(
            origin, machine.ip, stream, route=route
        )
        if not delivery.delivered:
            return None
        rtt = delivery.rtt_ms
        client_subnet = None
        if self.ecs_enabled:
            from repro.core.addressing import prefix24

            client_subnet = prefix24(origin.source_ip)
        result = cluster.engine.resolve(
            qname,
            qtype,
            now,
            stream,
            client_subnet=client_subnet,
            # Clusters serve every carrier whose egress routes to them;
            # the cache is partitioned by the caller's scope — a
            # device-range label for campaign devices (its operator-key
            # prefix keeps carriers independent), falling back to the
            # per-operator scope (the original shard isolation contract
            # — see RecursiveEngine.resolve) for everything else.
            cache_scope=(
                cache_scope
                if cache_scope is not None
                else origin.asys.operator_key
            ),
        )
        return PublicResolution(
            result=result,
            total_ms=rtt + self.peering_penalty_ms + result.upstream_ms,
            external_ip=machine.ip,
            cluster_index=cluster.index,
        )

    def ping(
        self,
        origin: ProbeOrigin,
        now: float,
        stream: RandomStream,
        device_key: str = "",
    ) -> Optional[float]:
        """Ping the anycast address: lands on the serving cluster."""
        cluster, machine = self._serve(origin, device_key, now)
        internet = cluster.engine.internet
        route_key = (origin.asys.asn, machine.ip)
        route = self._route_memo.get(route_key)
        if route is None:
            route = internet.route_view(origin, machine.ip)
            self._route_memo[route_key] = route
        delivery = self._delivery_layer(internet).ping(
            origin, machine.ip, stream, route=route
        )
        if not delivery.delivered:
            return None
        return delivery.rtt_ms + self.peering_penalty_ms

    def _delivery_layer(self, internet: VirtualInternet) -> Transport:
        """The service's transport (a private fault-free one on demand)."""
        transport = self.transport
        if transport is None:
            transport = Transport(internet)
            self.transport = transport
        return transport

    def cluster_prefixes(self) -> List[str]:
        """The /24 prefixes of all clusters (Table 5 denominators)."""
        return [str(cluster.prefix) for cluster in self.clusters]


def build_public_dns(
    internet: VirtualInternet,
    directory: ZoneDirectory,
    name: str,
    anycast_ip: str,
    asn: int,
    cities: Sequence[City],
    allocator,
    seed: int,
    machines_per_cluster: int = 4,
    background_warm_prob: float = 0.85,
    background_interval_s: float = 5.0,
    route_instability: float = 0.15,
    transport: Optional[Transport] = None,
) -> PublicDnsService:
    """Create, register and wire up a public DNS service.

    One cluster is placed in each given city; each cluster gets its own
    /24 (so Table 5's "many IPs, few /24s" shape emerges naturally), a
    handful of machines, and a shared warm cache.
    """
    system = AutonomousSystem(
        asn=asn,
        name=name,
        kind=ASKind.PUBLIC_DNS,
        firewall=FirewallPolicy(blocks_inbound=False),
    )
    internet.register_system(system)
    service = PublicDnsService(
        name=name,
        anycast_ip=anycast_ip,
        system=system,
        seed=seed,
        route_instability=route_instability,
        transport=transport,
    )
    for index, city in enumerate(cities):
        prefix = allocator.allocate24()
        system.add_prefix(prefix)
        hosts = []
        for machine in range(machines_per_cluster):
            host = Host(
                ip=prefix.host(machine + 1),
                name=f"{name.lower()}.{city.name.lower().replace(' ', '-')}.{machine}",
                asys=system,
                location=city.location,
                stack_latency_ms=0.3,
            )
            internet.register_host(host)
            hosts.append(host)
        engine = RecursiveEngine(
            host=hosts[0],
            directory=directory,
            internet=internet,
            cache=DnsCache(name=f"{name}:{city.name}"),
            background_warm_prob=background_warm_prob,
            # A public service aggregates vastly more clients per site
            # than one carrier's LDNS; entries are re-fetched sooner and
            # the cache stays warmer (the shorter tails of Fig 13).
            background_interval_s=background_interval_s,
            transport=transport,
        )
        service.clusters.append(
            PublicDnsCluster(
                index=index, city=city, prefix=prefix, hosts=hosts, engine=engine
            )
        )
    return service
