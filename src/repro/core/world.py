"""World assembly: every substrate instantiated and wired together.

:func:`build_world` produces the complete simulated Internet the
measurement campaign runs against: transit backbone, university vantage,
origin + CDN + resolver-echo authorities, Google/OpenDNS anycast
services, and the six carrier networks.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cdn.mapping import ResolverLocator
from repro.cdn.provider import (
    CDN_FOOTPRINTS,
    CDNProvider,
    build_cdn,
    build_origin_authorities,
)
from repro.cellnet.operator import CellularOperator
from repro.cellnet.presets import CarrierConfig, build_operator, default_carrier_configs
from repro.core.addressing import PrefixAllocator
from repro.core.asn import ASKind
from repro.core.backbone import ExternalVantage, TransitBackbone
from repro.core.faults import FaultScenario
from repro.core.internet import VirtualInternet
from repro.core.node import Host
from repro.core.rng import RngRegistry
from repro.core.transport import Transport
from repro.dns.authoritative import ResolverEchoAuthority, StaticAuthority
from repro.dns.public_dns import PublicDnsService, build_public_dns
from repro.dns.zone import ZoneDirectory
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import (
    ASIA_PACIFIC_CITIES,
    US_CITIES,
    city_named,
)

#: The controlled zone used for resolver identification (Sec 3.2), a
#: stand-in for the subdomain of the authors' research group site.
WHOAMI_ZONE = "whoami.aqualab-repro.net"

#: Anycast service addresses.
GOOGLE_DNS_IP = "8.8.8.8"
OPENDNS_IP = "208.67.222.222"

#: Google Public DNS operated ~30 distributed /24 resolver sites [9].
GOOGLE_CLUSTER_CITIES = [city.name for city in US_CITIES[:25]] + [
    "Tokyo",
    "Osaka",
    "Taipei",
    "Hong Kong",
    "Singapore",
]

#: OpenDNS ran a smaller footprint.
OPENDNS_CLUSTER_CITIES = [city.name for city in US_CITIES[:16]] + [
    "Tokyo",
    "Singapore",
]


@dataclass
class WorldConfig:
    """Knobs for world construction."""

    seed: int = 2014
    carriers: List[CarrierConfig] = field(default_factory=default_carrier_configs)
    google_instability: float = 0.18
    opendns_instability: float = 0.12
    public_warm_prob: float = 0.95
    #: Enable EDNS Client Subnet end-to-end (resolvers forward client
    #: /24s, CDNs map on them).  Off by default: the paper predates wide
    #: ECS deployment, and the baseline must match what it measured.
    ecs_enabled: bool = False
    #: Overrides forwarded to every CDN's MappingPolicy.
    cdn_mapping_overrides: Dict[str, object] = field(default_factory=dict)
    #: Force one A TTL on every CDN answer (cache ablations); None keeps
    #: the per-domain catalogue TTLs.
    cdn_a_ttl_override: Optional[int] = None
    #: Fault scenario the world's transport layer enforces.  None (and
    #: the bundled ``baseline``) mean fault-free: the campaign must then
    #: hash byte-identically to the pre-transport engine.  Scenarios are
    #: plain frozen dataclasses, so they survive the WorldConfig pickling
    #: that sharded campaign workers rebuild their worlds from.
    scenario: Optional[FaultScenario] = None

    def content_hash(self) -> str:
        """Stable digest of the configuration's content.

        Keys the world-snapshot cache: two configs with equal content
        hash build byte-identical worlds, so their workers can share one
        serialized snapshot.  Dataclass ``repr`` is deterministic over
        the field types a config holds (scalars, lists/dicts of frozen
        dataclasses), which keeps the key readable in debuggers.
        """
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()


@dataclass
class World:
    """Handles to everything the measurement layer needs."""

    config: WorldConfig
    rng: RngRegistry
    internet: VirtualInternet
    directory: ZoneDirectory
    backbone: TransitBackbone
    vantage: ExternalVantage
    operators: Dict[str, CellularOperator]
    cdns: Dict[str, CDNProvider]
    origin_authorities: List[StaticAuthority]
    echo_authority: ResolverEchoAuthority
    google_dns: PublicDnsService
    opendns: PublicDnsService
    #: The delivery layer every simulated packet crosses.
    transport: Transport
    #: The address allocator, kept so extensions (operator CDNs, extra
    #: vantage points) can claim further prefixes after construction.
    allocator: Optional[PrefixAllocator] = None
    #: Memoised /24 -> representative member address (see
    #: :meth:`canonical_resolver_anchor`); pure over the static host
    #: registry, so the memo can never make two lookups disagree.
    _block_anchors: Dict[str, str] = field(default_factory=dict, repr=False)

    def operator(self, key: str) -> CellularOperator:
        """Look a carrier up by key."""
        return self.operators[key]

    def public_service(self, kind: str) -> PublicDnsService:
        """The public DNS service behind a resolver kind label."""
        if kind == "google":
            return self.google_dns
        if kind == "opendns":
            return self.opendns
        raise KeyError(f"unknown public resolver kind {kind!r}")

    def replica_owner(self, ip: str) -> Optional[CDNProvider]:
        """Which CDN owns a replica address."""
        for provider in self.cdns.values():
            if provider.replica_by_ip(ip) is not None:
                return provider
        return None

    def locate_ip(self, ip: str) -> Optional[Tuple[GeoPoint, bool]]:
        """(location, is_cellular) of an address — the CDN's view.

        This is what stands in for the measurement infrastructure real
        CDNs run; the is_cellular bit is what degrades their estimate.
        Client-pool addresses (which only ever reach a CDN via EDNS
        Client Subnet) resolve to the egress region their /24 slice NATs
        through.
        """
        host = self.internet.host(ip)
        if host is not None:
            return host.location, host.asys.kind is ASKind.CELLULAR
        for operator in self.operators.values():
            location = operator.locate_client_ip(ip)
            if location is not None:
                return location, True
        return None

    def canonical_resolver_anchor(self, ip: str) -> str:
        """The /24's representative member — the CDN's measurement unit.

        CDN mapping policies group resolvers by /24 and measure each
        block once (Sec 5.1), so the block's location estimate must be a
        property of the block itself, never of whichever member queried
        first.  The representative is the numerically lowest registered
        host inside the /24 (deterministic over the static registry);
        addresses with no registered blockmates canonicalise to
        themselves.
        """
        from repro.core.addressing import ip_to_int, prefix24

        block = prefix24(ip)
        anchors = self._block_anchors
        representative = anchors.get(block)
        if representative is None:
            members = [
                host.ip
                for host in self.internet.hosts()
                if prefix24(host.ip) == block
            ]
            representative = min(members, key=ip_to_int) if members else ip
            anchors[block] = representative
        return representative


def _echo_authority(
    internet: VirtualInternet,
    directory: ZoneDirectory,
    allocator: PrefixAllocator,
) -> ResolverEchoAuthority:
    """The research group's ADNS serving the whoami zone."""
    from repro.core.asn import AutonomousSystem, FirewallPolicy

    system = AutonomousSystem(
        asn=104,
        name="Aqualab Research ADNS",
        kind=ASKind.UNIVERSITY,
        firewall=FirewallPolicy(blocks_inbound=False),
    )
    internet.register_system(system)
    prefix = allocator.allocate24()
    system.add_prefix(prefix)
    host = Host(
        ip=prefix.host(53),
        name="adns.aqualab-repro.net",
        asys=system,
        location=city_named("Chicago").location,
        stack_latency_ms=0.4,
    )
    internet.register_host(host)
    authority = ResolverEchoAuthority(host=host, zone_apex=WHOAMI_ZONE)
    directory.register(WHOAMI_ZONE, authority)
    return authority


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Assemble the full simulated Internet."""
    config = config or WorldConfig()
    rng = RngRegistry(config.seed)
    internet = VirtualInternet()
    transport = Transport(internet, scenario=config.scenario)
    directory = ZoneDirectory()
    allocator = PrefixAllocator.parse("16.0.0.0/6")

    backbone = TransitBackbone.build(
        internet,
        US_CITIES + ASIA_PACIFIC_CITIES,
        allocator,
    )
    vantage = ExternalVantage.build(internet, allocator)
    origin_authorities = build_origin_authorities(internet, directory, allocator)
    echo_authority = _echo_authority(internet, directory, allocator)

    world = World(
        config=config,
        rng=rng,
        internet=internet,
        directory=directory,
        backbone=backbone,
        vantage=vantage,
        operators={},
        cdns={},
        origin_authorities=origin_authorities,
        echo_authority=echo_authority,
        google_dns=None,  # type: ignore[arg-type]  # filled below
        opendns=None,  # type: ignore[arg-type]
        transport=transport,
        allocator=allocator,
    )

    locator: ResolverLocator = world.locate_ip
    for key in CDN_FOOTPRINTS:
        world.cdns[key] = build_cdn(
            internet,
            directory,
            key,
            allocator,
            locator,
            seed=rng.stream("cdn", key).randint(0, 2**31),
            mapping_overrides=dict(config.cdn_mapping_overrides),
            a_ttl_override=config.cdn_a_ttl_override,
            anchor_canon=world.canonical_resolver_anchor,
        )

    world.google_dns = build_public_dns(
        internet,
        directory,
        name="GoogleDNS",
        anycast_ip=GOOGLE_DNS_IP,
        asn=15169 + 100000,  # distinct from the CDN AS of the same company
        cities=[city_named(name) for name in GOOGLE_CLUSTER_CITIES],
        allocator=allocator,
        seed=rng.stream("public", "google").randint(0, 2**31),
        background_warm_prob=config.public_warm_prob,
        route_instability=config.google_instability,
        transport=transport,
    )
    world.opendns = build_public_dns(
        internet,
        directory,
        name="OpenDNS",
        anycast_ip=OPENDNS_IP,
        asn=36692,
        cities=[city_named(name) for name in OPENDNS_CLUSTER_CITIES],
        allocator=allocator,
        seed=rng.stream("public", "opendns").randint(0, 2**31),
        background_warm_prob=config.public_warm_prob,
        route_instability=config.opendns_instability,
        transport=transport,
    )

    for carrier in config.carriers:
        operator = build_operator(
            internet,
            directory,
            carrier,
            allocator,
            seed=rng.stream("carrier", carrier.key).randint(0, 2**31),
            transport=transport,
        )
        operator.ecs_enabled = config.ecs_enabled
        world.operators[carrier.key] = operator
    if config.ecs_enabled:
        world.google_dns.ecs_enabled = True
        world.opendns.ecs_enabled = True
    return world


# -- world snapshots ---------------------------------------------------------
#
# Multiprocess campaign workers used to re-run :func:`build_world` per
# worker process.  A *snapshot* amortizes that: the parent serializes a
# pristine world once, ships the bytes to pool initializers, and each
# worker materialises its world with one ``pickle.loads`` — several
# times cheaper than a rebuild, and (under fork contexts) inherited
# copy-on-write instead of being re-shipped.  Snapshots only exist for
# *pristine* worlds: once resolution runs, lazy memo caches hold
# compiled closures that cannot (and should not) be serialized, and
# :func:`snapshot_world` returns None — callers then fall back to
# shipping the config and rebuilding, exactly the old behaviour.

#: Serialized pristine worlds per :meth:`WorldConfig.content_hash`.
_SNAPSHOT_CACHE: Dict[str, bytes] = {}

#: Most recent measured bootstrap costs in seconds, fed to
#: ``select_executor``'s amortization estimate: ``snapshot_boot_s`` is
#: one ``pickle.loads`` of a world snapshot, ``rebuild_boot_s`` one
#: ``build_world`` — whichever a worker would actually pay.
SNAPSHOT_TIMINGS: Dict[str, float] = {}

#: RNG stream prefixes :func:`build_world` itself creates.  Any other
#: kept stream on the registry means someone has drawn from the world
#: since it was built — it is no longer the pristine state a snapshot
#: must capture.
_BUILD_STREAM_PREFIXES = ("cdn.", "public.", "carrier.")


def _is_pristine(world: World) -> bool:
    """True while nothing has drawn from the world since build.

    Keyed off the RNG registry: every consumer opens streams outside
    the build-time namespaces — kept ones (population build, analysis,
    benches) or lent ones (each experiment) — so a registry that has
    lent nothing and keeps only build-time streams is an exact
    pristineness witness.
    """
    rng = world.rng
    return rng.lent == 0 and all(
        name.startswith(_BUILD_STREAM_PREFIXES) for name in rng._streams
    )


def snapshot_world(world: World) -> Optional[bytes]:
    """Serialize a pristine world, or None when it cannot be.

    The result is cached per config content hash, so every campaign
    (and every benchmark pool) over the same config shares one
    serialization.  Used worlds are refused outright — a snapshot must
    reproduce first-run state, and a world that has served draws is
    past it (heavily-used worlds also hold unpicklable
    compiled-sampler closures, which would fail the dump anyway) — and
    the caller ships the config instead, exactly the old behaviour.
    """
    key = world.config.content_hash()
    cached = _SNAPSHOT_CACHE.get(key)
    if cached is not None:
        return cached
    if not _is_pristine(world):
        return None
    try:
        started = time.perf_counter()
        data = pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL)
        SNAPSHOT_TIMINGS["serialize_s"] = time.perf_counter() - started
    except Exception:
        return None
    _SNAPSHOT_CACHE[key] = data
    return data


def boot_world(
    snapshot: Optional[bytes], config: WorldConfig
) -> Tuple[World, str]:
    """Materialise a worker's world: snapshot if possible, else rebuild.

    Returns ``(world, mode)`` with ``mode`` one of ``"snapshot"`` /
    ``"rebuild"``.  Both paths produce byte-identical campaign output
    (asserted by the worker-pool test suite); the snapshot path is just
    cheaper.  Timings land in :data:`SNAPSHOT_TIMINGS` so executor
    selection can reason about *measured* bootstrap cost.
    """
    if snapshot is not None:
        try:
            started = time.perf_counter()
            world = pickle.loads(snapshot)
            SNAPSHOT_TIMINGS["snapshot_boot_s"] = time.perf_counter() - started
            return world, "snapshot"
        except Exception:
            pass
    started = time.perf_counter()
    world = build_world(config)
    SNAPSHOT_TIMINGS["rebuild_boot_s"] = time.perf_counter() - started
    return world, "rebuild"


def measured_bootstrap_s() -> Optional[float]:
    """Best current estimate of one worker's world-bootstrap seconds.

    Prefers the snapshot-boot measurement (what a warm pool actually
    pays per run) and falls back to the rebuild measurement; None until
    either has been observed in this process.
    """
    timings = SNAPSHOT_TIMINGS
    return timings.get("snapshot_boot_s", timings.get("rebuild_boot_s"))
