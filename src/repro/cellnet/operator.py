"""Cellular operators: attachment, egress, addressing and local DNS.

The operator ties the substrates together for one carrier:

* it attaches devices — assigning an ephemeral client IP, an egress
  point and a configured DNS address (all epoch-keyed pure functions, so
  churn is reproducible);
* it builds :class:`~repro.core.node.ProbeOrigin` objects that carry the
  sampled radio + core latency of one probe;
* it answers local DNS queries through its indirect resolver deployment,
  accounting time for each leg (device -> client-facing front ->
  external resolver -> authorities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.cellnet.architecture import (
    architecture_of,
    core_log_params,
    interior_hops_for,
)
from repro.cellnet.device import MobileDevice
from repro.cellnet.radio import (
    RadioProfile,
    RadioTechnology,
    access_log_params,
    promotion_cost_ms,
)
from repro.core.addressing import Prefix
from repro.core.asn import AutonomousSystem
from repro.core.internet import VirtualInternet
from repro.core.node import Host, ProbeOrigin
from repro.core.rng import RandomStream, stable_index, stable_index_uncached
from repro.core.transport import Transport
from repro.dns.indirect import DnsDeployment, ExternalResolver
from repro.dns.message import ResourceRecord, RRType
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import Country

#: Per-technology origin-latency parameters: ``(ln(access median),
#: access sigma, ln(core median), core sigma, interior hops)``.  Every
#: probe draws access-then-core; one lookup here replaces the
#: architecture mapping plus two latency-table hops, with draws
#: bit-identical to ``access_rtt_ms`` + ``core_rtt_ms``.
_ORIGIN_PARAMS = {
    technology: (
        *access_log_params(technology),
        *core_log_params(architecture_of(technology)),
        interior_hops_for(architecture_of(technology)),
    )
    for technology in RadioTechnology
}


@dataclass
class Attachment:
    """A device's point of attachment at one instant."""

    device_id: str
    client_ip: str
    egress: Host
    egress_index: int
    client_dns_ip: str
    at: float


class LocalResolution:
    """Outcome of one resolution through the operator's own DNS.

    A lazy view over the engine's result: ``records`` and ``addresses``
    materialise on first read.  Most probe flows consume only the
    addresses (and those come straight off the cached record templates),
    so warm cache hits allocate nothing per call.
    """

    __slots__ = (
        "qname",
        "total_ms",
        "cache_hit",
        "client_facing_ip",
        "external_ip",
        "_result",
        "_records",
        "_addresses",
    )

    def __init__(
        self,
        qname: str,
        total_ms: float,
        cache_hit: bool,
        client_facing_ip: str,
        external_ip: str,
        records: Optional[List[ResourceRecord]] = None,
        addresses: Optional[List[str]] = None,
        result=None,
    ) -> None:
        self.qname = qname
        self.total_ms = total_ms
        self.cache_hit = cache_hit
        self.client_facing_ip = client_facing_ip
        self.external_ip = external_ip
        self._result = result
        self._records = records
        self._addresses = addresses

    @property
    def records(self) -> List[ResourceRecord]:
        """The answer records (TTLs aged to the lookup instant)."""
        records = self._records
        if records is None:
            records = self._result.records
            self._records = records
        return records

    @property
    def addresses(self) -> List[str]:
        """What the answer's A records contain."""
        addresses = self._addresses
        if addresses is None:
            addresses = (
                self._result.addresses()
                if self._result is not None
                else [r.data for r in self.records if r.rtype is RRType.A]
            )
            self._addresses = addresses
        return addresses

    def cname_chain(self) -> List[str]:
        """CNAME targets in the answer, in chain order."""
        if self._result is not None:
            return self._result.cname_chain()
        return [r.data for r in self.records if r.rtype is RRType.CNAME]


@dataclass
class ChurnModel:
    """Epoch lengths controlling how sticky assignments are."""

    #: How often the device's NAT address rolls.
    ip_epoch_s: float = 6 * 3600.0
    #: How often the egress assignment re-rolls.
    egress_epoch_s: float = 24 * 3600.0
    #: How many nearest egress points the assignment spreads over.
    egress_breadth: int = 3
    #: How often DHCP hands the device a (possibly) new resolver address.
    dhcp_epoch_s: float = 20 * 24 * 3600.0


class CellularOperator:
    """One carrier's network."""

    def __init__(
        self,
        key: str,
        display_name: str,
        country: Country,
        system: AutonomousSystem,
        internet: VirtualInternet,
        egress_points: List[Host],
        deployment: DnsDeployment,
        radio_profile: RadioProfile,
        client_pool_prefix: Prefix,
        seed: int,
        churn: Optional[ChurnModel] = None,
        front_stack_ms: float = 0.4,
        ecs_enabled: bool = False,
        transport: Optional[Transport] = None,
    ) -> None:
        self.key = key
        self.display_name = display_name
        self.country = country
        self.system = system
        self.internet = internet
        self.egress_points = egress_points
        self.deployment = deployment
        self.radio_profile = radio_profile
        self.client_pool_prefix = client_pool_prefix
        self.seed = seed
        self.churn = churn or ChurnModel()
        self.front_stack_ms = front_stack_ms
        #: Whether the operator's resolvers attach EDNS Client Subnet
        #: options to upstream queries (the paper-era baseline is off).
        self.ecs_enabled = ecs_enabled
        #: The world's delivery layer; consulted for egress-failover
        #: windows.  None (direct construction) behaves fault-free.
        self.transport = transport
        if not egress_points:
            raise ValueError(f"{key}: operator needs egress points")
        #: Memo of egress rankings keyed by anchor city (the ranking only
        #: depends on coarse position, and computing it per probe is the
        #: campaign's hottest path).
        self._egress_ranking_memo: dict = {}
        #: Memo of the resolver site nearest each egress point.
        self._site_for_egress: dict = {}
        #: Memo of deployment client-address objects by their IP.
        self._client_address_memo: dict = {}
        #: Lazily collected prefixes across the operator's sibling ASes.
        self._owned_prefixes = None

    def _nearest_site_index(self, egress: Host) -> int:
        """The resolver site closest to an egress point.

        Resolver infrastructure clusters at egress points (Xu et al.
        [25]); queries from an egress are served by the site nearest it.
        """
        cached = self._site_for_egress.get(egress.ip)
        if cached is not None:
            return cached
        sites = self.deployment.sites
        best = min(
            range(len(sites)),
            key=lambda index: sites[index].location.distance_km(egress.location),
        )
        self._site_for_egress[egress.ip] = best
        return best

    # -- attachment -------------------------------------------------------

    def attachment(self, device: MobileDevice, now: float) -> Attachment:
        """The device's attachment at ``now`` (pure in device and time)."""
        egress_index = self._egress_index(device, now)
        return Attachment(
            device_id=device.device_id,
            client_ip=self._client_ip(device, now),
            egress=self.egress_points[egress_index],
            egress_index=egress_index,
            client_dns_ip=self._client_dns_ip(device, now),
            at=now,
        )

    def attachment_epoch_key(self, device: MobileDevice, now: float) -> tuple:
        """The epochs an attachment is a pure function of.

        Two instants with equal keys yield structurally identical
        attachments (up to the informational ``at`` stamp): every input
        to :meth:`attachment` — egress pick, NAT lease, DHCP resolver,
        and the mobility anchor feeding the egress ranking — is keyed by
        one of these quantised epochs.  Probe sessions use the key to
        reuse one attachment across a whole experiment instead of
        re-deriving it per probe.
        """
        key = (
            int(now // self.churn.egress_epoch_s),
            int(now // self.churn.ip_epoch_s),
            int(now // self.churn.dhcp_epoch_s),
            int(now // device.mobility.travel_epoch_s),
        )
        transport = self.transport
        if transport is not None and transport.faults is not None:
            # Fault windows (egress failover) cut across the churn
            # epochs; folding the active-window phase into the key keeps
            # cached attachments from straddling a failover boundary.
            key += (transport.faults.phase(now),)
        return key

    def _egress_index(self, device: MobileDevice, now: float) -> int:
        """Egress assignment: near the device, re-rolled per epoch.

        Ranked by distance from the device's location; the epoch hash
        spreads assignments over the nearest ``egress_breadth`` points.
        Devices are thus *usually* near their egress, but reassignment
        moves them between metros — the root cause of resolver churn for
        anycast deployments (Sec 4.5).
        """
        anchor = device.mobility.anchor_city(now)
        ranked = self._egress_ranking_memo.get(anchor.name)
        if ranked is None:
            ranked = sorted(
                range(len(self.egress_points)),
                key=lambda index: self.egress_points[index].location.distance_km(
                    anchor.location
                ),
            )
            self._egress_ranking_memo[anchor.name] = ranked
        breadth = min(self.churn.egress_breadth, len(ranked))
        epoch = int(now // self.churn.egress_epoch_s)
        pick = stable_index(
            self.seed, "egress", device.device_id, epoch, modulo=breadth
        )
        transport = self.transport
        if transport is not None and transport.faults is not None:
            failed = transport.faults.failed_egress(self.key, now)
            if failed is not None and pick == failed and len(ranked) > 1:
                # Failover: the device's preference slot is dark, so it
                # re-homes to the next-nearest egress for the window's
                # duration (deterministic in device + time).
                return ranked[(pick + 1) % len(ranked)]
        return ranked[pick]

    def _client_ip(self, device: MobileDevice, now: float) -> str:
        """Ephemeral NAT address, re-leased every ip_epoch.

        Pools are regionalised: each egress point owns a /24-aligned
        slice of the operator's client block, so a client address's /24
        identifies the egress it NATs through.  Addresses still churn
        within (and, on egress reassignment, across) those slices —
        Balakrishnan et al.'s ephemeral-IP behaviour [3].
        """
        egress_index = self._egress_index(device, now)
        epoch = int(now // self.churn.ip_epoch_s)
        slice_count = max(self.client_pool_prefix.size // 256, 1)
        base = (egress_index % slice_count) * 256
        offset = stable_index_uncached(
            self.seed, "client-ip", device.device_id, epoch, modulo=254
        )
        return self.client_pool_prefix.host(base + offset + 1)

    def locate_client_ip(self, address: str):
        """Egress location a client address NATs through, if it is ours.

        This is the knowledge EDNS Client Subnet unlocks for CDNs: a
        client /24 pins the egress region even though individual
        addresses churn.  Returns None for foreign addresses.
        """
        if not self.client_pool_prefix.contains(address):
            return None
        from repro.core.addressing import ip_to_int

        offset = ip_to_int(address) - self.client_pool_prefix.network
        egress_index = (offset // 256) % len(self.egress_points)
        return self.egress_points[egress_index].location

    def _client_dns_ip(self, device: MobileDevice, now: float) -> str:
        """The resolver address DHCP configured on the device."""
        epoch = int(now // self.churn.dhcp_epoch_s)
        anchor = device.mobility.anchor_city(now)
        address = self.deployment.client_address_for(
            f"{device.device_id}:{epoch}", self.seed, near=anchor.location
        )
        return address.ip

    # -- probe origins ----------------------------------------------------------

    def probe_origin(
        self,
        device: MobileDevice,
        now: float,
        stream: RandomStream,
        technology: Optional[RadioTechnology] = None,
        pay_promotion: bool = False,
        attachment: Optional[Attachment] = None,
    ) -> ProbeOrigin:
        """Build the origin for one probe, sampling radio + core latency.

        ``attachment`` lets callers that already derived the device's
        attachment for this instant (probe sessions cache it per epoch
        key) skip the re-derivation; it must equal what
        :meth:`attachment` would return for ``(device, now)``.
        """
        if technology is None:
            technology = device.active_technology or self.radio_profile.draw(stream)
        if attachment is None:
            attachment = self.attachment(device, now)
        log_access, sigma_access, log_core, sigma_core, hops = _ORIGIN_PARAMS[
            technology
        ]
        # lognormal_from_log inlined around the pooled Gaussian source
        # (same expression, bit-identical draws); one block fetch covers
        # both the radio and the core leg.
        z_access, z_core = stream.gauss_block(2)
        access = math.exp(log_access + sigma_access * z_access)
        access += math.exp(log_core + sigma_core * z_core)
        if pay_promotion:
            access += promotion_cost_ms(technology, device.rrc, now)
        else:
            device.rrc.touch(now)
        return ProbeOrigin(
            attachment.client_ip,
            self.system,
            device.location(now),
            access,
            attachment.egress,
            hops,
            device.device_id,
        )

    # -- local DNS ---------------------------------------------------------------

    def resolve_local(
        self,
        device: MobileDevice,
        origin: ProbeOrigin,
        attachment: Attachment,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
    ) -> LocalResolution:
        """Resolve a name through the operator's configured DNS."""
        client_address = self._client_address_of(attachment)
        site_hint = self._nearest_site_index(attachment.egress)
        site = self.deployment.serving_site(client_address, site_hint)
        front_rtt = (
            origin.access_rtt_ms
            + self._intra_rtt(origin.location, site.location, stream)
            + self.front_stack_ms
        )
        external = self.deployment.external_for(
            client_address, device.device_id, site_hint, now
        )
        gap_ms = self._tier_gap_ms(site, external, stream)
        client_subnet = None
        if self.ecs_enabled:
            from repro.core.addressing import prefix24

            client_subnet = prefix24(attachment.client_ip)
        result = external.engine.resolve(
            qname,
            qtype,
            now,
            stream,
            client_subnet=client_subnet,
            # Range-scoped cache partition (None for non-campaign
            # devices) — the sub-carrier shard isolation contract.
            cache_scope=device.cache_scope,
        )
        total = front_rtt + gap_ms + result.upstream_ms
        return LocalResolution(
            qname=result.qname,
            total_ms=total,
            cache_hit=result.cache_hit,
            client_facing_ip=client_address.ip,
            external_ip=external.ip,
            result=result,
        )

    def _client_address_of(self, attachment: Attachment):
        cached = self._client_address_memo.get(attachment.client_dns_ip)
        if cached is not None:
            return cached
        found = None
        for address in self.deployment.client_addresses:
            if address.ip == attachment.client_dns_ip:
                found = address
                break
        if found is None:
            # DHCP epoch rolled between attachment and use; fall back to first.
            found = self.deployment.client_addresses[0]
        self._client_address_memo[attachment.client_dns_ip] = found
        return found

    def _intra_rtt(
        self, src: GeoPoint, dst: GeoPoint, stream: RandomStream
    ) -> float:
        """One operator-interior leg draw, inlined from the memoised
        ``(base, ln(base))`` parameters (same draw as ``rtt_ms``)."""
        intra = self.internet.intra_model
        base, log_base = intra.leg_params(src, dst)
        sigma = intra.jitter_sigma
        if sigma <= 0:
            return base
        return math.exp(log_base + sigma * stream.std_gauss())

    def _tier_gap_ms(
        self, site, external: ExternalResolver, stream: RandomStream
    ) -> float:
        """RTT between the client-facing front and the external tier."""
        if external.site.index == site.index:
            return self.deployment.tier_gap_ms
        return self.deployment.tier_gap_ms + self._intra_rtt(
            site.location, external.site.location, stream
        )

    # -- resolver probing -------------------------------------------------------

    def ping_client_resolver(
        self,
        origin: ProbeOrigin,
        attachment: Attachment,
        stream: RandomStream,
    ) -> Optional[float]:
        """Ping the configured (client-facing) resolver from a device.

        Anycast fronts answer from the serving site; fixed fronts from
        where they live.  All carriers' client-facing resolvers answered
        client pings in the study (Fig 4).
        """
        client_address = self._client_address_of(attachment)
        site_hint = self._nearest_site_index(attachment.egress)
        site = self.deployment.serving_site(client_address, site_hint)
        rtt = self._intra_rtt(origin.location, site.location, stream)
        return origin.access_rtt_ms + rtt + self.front_stack_ms

    def external_resolver_for(
        self, device: MobileDevice, attachment: Attachment, now: float
    ) -> ExternalResolver:
        """Which external resolver currently serves the device."""
        client_address = self._client_address_of(attachment)
        site_hint = self._nearest_site_index(attachment.egress)
        return self.deployment.external_for(
            client_address, device.device_id, site_hint, now
        )

    # -- structure accessors ------------------------------------------------------

    def egress_ips(self) -> List[str]:
        """Public addresses of all egress routers."""
        return [host.ip for host in self.egress_points]

    def owns_ip(self, address: str) -> bool:
        """True when the address sits in any prefix of this operator.

        Spans sibling ASes (Verizon's split resolver ASes share the
        operator even though the ASNs differ).
        """
        if self._owned_prefixes is None:
            prefixes = list(self.system.prefixes)
            seen_asns = {self.system.asn}
            for resolver in self.deployment.externals:
                asys = resolver.host.asys
                if asys.operator_key == self.key and asys.asn not in seen_asns:
                    seen_asns.add(asys.asn)
                    prefixes.extend(asys.prefixes)
            self._owned_prefixes = prefixes
        return any(prefix.contains(address) for prefix in self._owned_prefixes)

    def __str__(self) -> str:
        return f"{self.display_name} ({self.key})"
