"""Client-side probe primitives.

A :class:`DeviceProbeSession` is the measurement library running on one
device for one experiment: it holds the device's current attachment and
issues the probes of Sec 3.2 (DNS resolutions through the local and
public resolvers, pings, traceroutes, HTTP GETs, and the resolver
identification trick).  Every probe samples fresh radio latency, because
each real packet did.

Each probe has one attempt body, run alike with and without a fault
scenario: it takes its whole stochastic shape (stability uniform, origin
pair, leg and service Gaussians) as one contiguous pooled block, and a
loaded scenario adds only its own checks — the DNS gate, the RAT
override, the loss-rule draw and the timeouts.  One retry driver
re-sends what a fault hit.

The session also owns the experiment's *derivation caches*: attachment
(per churn-epoch key), routing facts per target address, and replica
ownership per replica address.  Everything cached is a pure function of
static topology or epoch-quantised time — never of a random draw — and
each cache lives and dies with one experiment, so a session-cached run
is bit-identical to an uncached one (asserted via
``Dataset.content_hash`` in the determinism tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import math

from repro.cellnet.device import MobileDevice
from repro.cellnet.operator import _ORIGIN_PARAMS, Attachment, CellularOperator
from repro.cellnet.radio import RadioTechnology, promotion_cost_ms
from repro.core.addressing import prefix24
from repro.core.internet import RouteView
from repro.core.node import ProbeOrigin
from repro.core.rng import RandomStream
from repro.core.transport import LOST, TIMED_OUT
from repro.core.world import WHOAMI_ZONE, World
from repro.dns.message import RRType
from repro.measure.records import (
    HttpRecord,
    PingRecord,
    ResolutionRecord,
    ResolverIdRecord,
    TracerouteRecord,
)


def _access_ms(technology: RadioTechnology, zs: List[float]) -> float:
    """A probe origin's radio + core latency from its two Gaussians."""
    log_access, sigma_access, log_core, sigma_core, _ = _ORIGIN_PARAMS[technology]
    access = math.exp(log_access + sigma_access * zs[0])
    access += math.exp(log_core + sigma_core * zs[1])
    return access


def _path_ms(value: float, path: tuple, zs: List[float], index: int) -> float:
    """``value`` plus one traversal of a :meth:`~DeviceProbeSession._target_legs`
    path, its jittered legs reading ``zs`` from ``index`` on.

    Left-associated term by term (legs, penalty, stack), as the
    substrate's ``flow_rtt``/``measure_rtt`` sum them.
    """
    legs, _, penalty, stack = path
    for leg_value, sigma in legs:
        if sigma > 0:
            value += math.exp(leg_value + sigma * zs[index])
            index += 1
        else:
            value += leg_value
    value += penalty
    return value + stack


def _dns_failure(
    qname: str, kind: str, attempt: int, outcome: str, retries: int
) -> ResolutionRecord:
    """A resolution a fault ate: no answer, and the fault's outcome."""
    return ResolutionRecord(
        domain=qname,
        resolver_kind=kind,
        resolution_ms=float("nan"),
        attempt=attempt,
        rcode="TIMEOUT",
        outcome=outcome,
        retries=retries,
    )


@dataclass
class DeviceProbeSession:
    """One device's measurement context during one experiment."""

    world: World
    operator: CellularOperator
    device: MobileDevice
    technology: RadioTechnology
    attachment: Attachment
    stream: RandomStream
    #: Attachment per churn-epoch key: probes inside one experiment
    #: almost always share every epoch, so the derivation runs once.
    _attachment_memo: Dict[tuple, Attachment] = field(
        default_factory=dict, repr=False
    )
    #: Routing facts per target IP (origin AS is fixed for the session).
    _route_memo: Dict[str, RouteView] = field(default_factory=dict, repr=False)
    #: Last attachment plus the time window over which every epoch in
    #: its key is constant — probes inside one experiment land seconds
    #: apart, so the window check replaces the key derivation entirely.
    _att_cached: Optional[Attachment] = field(default=None, repr=False)
    _att_since: float = field(default=0.0, repr=False)
    _att_until: float = field(default=-1.0, repr=False)
    #: Replica-server lookup per replica IP (ping → HTTP share it).
    _replica_memo: Dict[str, object] = field(default_factory=dict, repr=False)
    #: Per-target leg programs for the probe bodies, keyed (ip, device
    #: location, egress ip) — everything the leg decomposition depends
    #: on.  Session-local like the other memos: repeats happen inside
    #: one experiment (ping then HTTP to a replica, the resolver
    #: probes), while a world-level memo measured zero hits across
    #: experiments, because the hourly wander moves the device's
    #: location between them.
    _leg_memo: Dict[tuple, tuple] = field(default_factory=dict, repr=False)

    @classmethod
    def begin(
        cls,
        world: World,
        device: MobileDevice,
        now: float,
        stream: RandomStream,
    ) -> "DeviceProbeSession":
        """Open a session: draw the active radio and attach the device."""
        operator = world.operators[device.carrier_key]
        technology = operator.radio_profile.draw(stream)
        faults = world.transport.faults
        if faults is not None:
            # Degraded-RAT windows override the drawn technology *after*
            # the draw, so the stream stays aligned with fault-free runs.
            override = faults.rat_override(operator.key, now)
            if override is not None:
                technology = override
        device.active_technology = technology
        session = cls(
            world=world,
            operator=operator,
            device=device,
            technology=technology,
            attachment=operator.attachment(device, now),
            stream=stream,
        )
        session._attachment_memo[
            operator.attachment_epoch_key(device, now)
        ] = session.attachment
        return session

    # -- session caches ----------------------------------------------------

    def attachment_at(self, now: float) -> Attachment:
        """The device's attachment at ``now``, cached per epoch key.

        A cache hit returns the attachment derived earlier in this
        experiment; its ``at`` stamp keeps the first derivation time,
        which no probe consumes.
        """
        if self._att_since <= now < self._att_until:
            return self._att_cached
        key = self.operator.attachment_epoch_key(self.device, now)
        cached = self._attachment_memo.get(key)
        if cached is None:
            cached = self.operator.attachment(self.device, now)
            self._attachment_memo[key] = cached
        churn = self.operator.churn
        since = 0.0
        until = float("inf")
        for epoch_s in (
            churn.egress_epoch_s,
            churn.ip_epoch_s,
            churn.dhcp_epoch_s,
            self.device.mobility.travel_epoch_s,
        ):
            start = (now // epoch_s) * epoch_s
            if start > since:
                since = start
            end = start + epoch_s
            if end < until:
                until = end
        faults = self.world.transport.faults
        if faults is not None:
            # Fault windows (egress failover) also bound how long the
            # cached attachment stays valid.
            lower, upper = faults.span(now)
            if lower > since:
                since = lower
            if upper < until:
                until = upper
        self._att_cached = cached
        self._att_since = since
        self._att_until = until
        return cached

    def _route(self, ip: str) -> RouteView:
        """Routing facts for one target, computed once per experiment."""
        route = self._route_memo.get(ip)
        if route is None:
            route = self.world.internet.route_view_for(self.operator.system, ip)
            self._route_memo[ip] = route
        return route

    def route_to(self, origin: ProbeOrigin, ip: str) -> RouteView:
        """:meth:`_route` for one of this session's origins (a view
        depends on its origin only through the AS, the operator's)."""
        return self._route(ip)

    def _replica_at(self, replica_ip: str):
        """The replica server owning an address, cached per session."""
        if replica_ip in self._replica_memo:
            return self._replica_memo[replica_ip]
        provider = self.world.replica_owner(replica_ip)
        replica = provider.replica_by_ip(replica_ip) if provider else None
        self._replica_memo[replica_ip] = replica
        return replica

    # -- origins -----------------------------------------------------------

    def _technology_at(self, now: float) -> RadioTechnology:
        """The radio one probe rides.

        Occasionally the radio hands off mid-experiment (the profile's
        ``stability`` knob); the affected probe rides the new
        technology, as real in-context measurements do (Gember et al.
        [8]).  A degraded-RAT fault window overrides the result *after*
        the draws, so the stream stays aligned with fault-free runs.
        """
        technology = self.technology
        profile = self.operator.radio_profile
        # stream.bernoulli, inlined (same single pooled uniform draw).
        if self.stream.random() >= profile.stability:
            technology = profile.draw(self.stream)
        faults = self.world.transport.faults
        if faults is not None:
            override = faults.rat_override(self.operator.key, now)
            if override is not None:
                technology = override
        return technology

    def origin(self, now: float, pay_promotion: bool = False) -> ProbeOrigin:
        """A fresh probe origin (new radio latency sample)."""
        return self.operator.probe_origin(
            self.device,
            now,
            self.stream,
            technology=self._technology_at(now),
            pay_promotion=pay_promotion,
            attachment=self.attachment_at(now),
        )

    def _target_legs(self, ip: str, route, location, egress) -> tuple:
        """``(legs, jitter_draws, penalty, stack)`` for one delivered
        target, memoised per (ip, location, egress)."""
        egress_location = egress.location if egress is not None else location
        key = (ip, location, egress.ip if egress is not None else None)
        cached = self._leg_memo.get(key)
        if cached is None:
            internet = self.world.internet
            intra = internet.intra_model
            destination = route.destination
            # Inlined leg_program: (base, ln(base)) comes straight from
            # leg_params and the jitter count is explicit arithmetic, so
            # a miss costs two memo probes instead of four frames and a
            # generator.
            intra_sigma = intra.jitter_sigma
            if route.same_operator:
                base, log_base = intra.leg_params(location, destination.location)
                if intra_sigma > 0:
                    legs = ((log_base, intra_sigma),)
                    draws = 1
                else:
                    legs = ((base, 0.0),)
                    draws = 0
            else:
                wan = internet.wan_model
                wan_sigma = wan.jitter_sigma
                base, log_base = intra.leg_params(location, egress_location)
                wbase, wlog = wan.leg_params(egress_location, destination.location)
                first = (log_base, intra_sigma) if intra_sigma > 0 else (base, 0.0)
                second = (wlog, wan_sigma) if wan_sigma > 0 else (wbase, 0.0)
                legs = (first, second)
                draws = (1 if intra_sigma > 0 else 0) + (1 if wan_sigma > 0 else 0)
            penalty = destination.interior_penalty_ms
            cached = (legs, draws, penalty, destination.stack_latency_ms)
            self._leg_memo[key] = cached
        return cached

    # -- probes ----------------------------------------------------------------
    #
    # Every probe crosses ``world.transport`` and has one attempt body,
    # ``_*_once(now, retries, ...)``.  A body's whole stochastic shape
    # is known before any Gaussian is drawn: the stability uniform, then
    # the origin pair and the delivered path's leg/service Gaussians,
    # taken as one contiguous ``gauss_block`` (DESIGN.md's fusion
    # identity) and summed left to right, term by term, as the
    # substrate's ``probe_origin`` + ``measure_rtt``/``flow_rtt`` would.
    # Under a loaded fault scenario a body adds only the scenario's
    # checks: the DNS gate before any draw, the RAT override after the
    # stability draw, the loss-rule uniform between the origin pair and
    # the leg draws (ping and HTTP split their block there), and the
    # DNS/HTTP timeouts.
    #
    # Only a fault-induced failure carries an ``outcome``, so fault-free
    # campaigns keep the legacy wire shape byte for byte, and a
    # fault-free probe is one attempt call.  :meth:`_retry` re-sends a
    # faulted probe within the scenario's :class:`ProbePolicy` budget,
    # after a backoff and from a fresh origin (each real retransmission
    # rode fresh radio conditions).  Topology-determined failures are
    # final.

    def _retry(self, record, budget: int, attempt_once, now: float, *args):
        """Re-send a probe a fault hit, within the scenario's budget.

        ``record`` is the first attempt's; ``attempt_once(now, retries,
        *args)`` sends one more after each backoff.
        """
        transport = self.world.transport
        retries = 0
        while record.outcome is not None and retries < budget:
            retries += 1
            transport.note_retry()
            now += transport.policy.backoff_s
            record = attempt_once(now, retries, *args)
        return record

    def bootstrap_ping(self, now: float) -> PingRecord:
        """The radio wake-up ping that opens every experiment (Sec 3.2)."""
        target = self.world.backbone.routers[0]
        return self._ping_probe(target.ip, "bootstrap", now, pay_promotion=True)

    def dns_local(self, qname: str, now: float, attempt: int = 1) -> ResolutionRecord:
        """Resolve through the operator-configured resolver."""
        record = self._dns_local_once(now, 0, qname, attempt)
        if record.outcome is None:
            return record
        budget = self.world.transport.policy.dns_retries
        return self._retry(record, budget, self._dns_local_once, now, qname, attempt)

    def dns_public(
        self, kind: str, qname: str, now: float, attempt: int = 1
    ) -> ResolutionRecord:
        """Resolve through Google DNS or OpenDNS."""
        service = self.world.public_service(kind)
        record = self._dns_public_once(now, 0, service, kind, qname, attempt)
        if record.outcome is None:
            return record
        budget = self.world.transport.policy.dns_retries
        return self._retry(
            record, budget, self._dns_public_once, now, service, kind, qname, attempt
        )

    def _dns_local_once(
        self, now: float, retries: int, qname: str, attempt: int
    ) -> ResolutionRecord:
        """One local resolution with the resolver front drawn as one block.

        Serving site, external resolver and the tier-gap condition are
        all pure in (attachment, time), so the two origin draws, the
        device->front intra leg and the optional front->external leg
        fuse into one ``gauss_block``.  The engine then consumes its own
        (compiled-plan) block.
        """
        stream = self.stream
        device = self.device
        operator = self.operator
        transport = self.world.transport
        faults = transport.faults
        if faults is None:
            transport.counters.delivered += 1
            attachment = self.attachment_at(now)
        else:
            verdict = transport.dns_gate(operator.key, "local", now, stream)
            if not verdict.delivered:
                return _dns_failure(qname, "local", attempt, verdict.outcome, retries)
            # Session-start attachment under faults: LOSSY_4D_GOLDEN pins it (ROADMAP 3(b)).
            attachment = self.attachment
        technology = self._technology_at(now)
        client_address = operator._client_address_of(attachment)
        site_hint = operator._nearest_site_index(attachment.egress)
        deployment = operator.deployment
        site = deployment.serving_site(client_address, site_hint)
        external = deployment.external_for(
            client_address, device.device_id, site_hint, now
        )
        intra = operator.internet.intra_model
        sigma_intra = intra.jitter_sigma
        front_base, front_log = intra.leg_params(device.location(now), site.location)
        gap_leg = external.site.index != site.index
        zs = stream.gauss_block((4 if gap_leg else 3) if sigma_intra > 0 else 2)
        access = _access_ms(technology, zs)
        device.rrc.touch(now)
        front_leg = math.exp(front_log + sigma_intra * zs[2]) if sigma_intra > 0 else front_base
        front_rtt = access + front_leg + operator.front_stack_ms
        gap_ms = deployment.tier_gap_ms
        if gap_leg:
            gap_base, gap_log = intra.leg_params(site.location, external.site.location)
            gap_ms += math.exp(gap_log + sigma_intra * zs[3]) if sigma_intra > 0 else gap_base
        client_subnet = None
        if operator.ecs_enabled:
            client_subnet = prefix24(attachment.client_ip)
        result = external.engine.resolve(
            qname,
            RRType.A,
            now,
            stream,
            client_subnet=client_subnet,
            # Range-scoped cache partition (None for non-campaign
            # devices): the sub-carrier shard isolation contract — see
            # RecursiveEngine.resolve and repro.measure.campaign.
            cache_scope=device.cache_scope,
        )
        resolution_ms = front_rtt + gap_ms + result.upstream_ms
        if faults is not None and transport.dns_timed_out(resolution_ms):
            return _dns_failure(qname, "local", attempt, TIMED_OUT, retries)
        return ResolutionRecord(
            domain=qname,
            resolver_kind="local",
            resolution_ms=resolution_ms,
            addresses=result.addresses(),
            cname_chain=result.cname_chain(),
            attempt=attempt,
            retries=retries,
        )

    def _dns_public_once(
        self, now: float, retries: int, service, kind: str, qname: str, attempt: int
    ) -> ResolutionRecord:
        """One public resolution with origin + flow draws fused.

        Anycast cluster choice and the route verdict are pure in the
        attachment, so the two origin draws and the flow's leg draws
        (device->egress intra, egress->cluster WAN) collapse into one
        ``gauss_block`` before the engine consumes its own block.
        """
        stream = self.stream
        transport = self.world.transport
        faults = transport.faults
        if faults is None:
            transport.counters.delivered += 1
        else:
            verdict = transport.dns_gate(self.operator.key, kind, now, stream)
            if not verdict.delivered:
                return _dns_failure(qname, kind, attempt, verdict.outcome, retries)
        technology = self._technology_at(now)
        attachment = self.attachment_at(now)
        device = self.device
        cluster, machine = service._serve_at(
            attachment.egress.location, device.device_id, now
        )
        internet = cluster.engine.internet
        asys = self.operator.system
        route_key = (asys.asn, machine.ip)
        route = service._route_memo.get(route_key)
        if route is None:
            route = internet.route_view_for(asys, machine.ip)
            service._route_memo[route_key] = route
        counters = service._delivery_layer(internet).counters
        destination = route.destination
        if destination is None or not route.admits:
            stream.gauss_block(2)
            device.rrc.touch(now)
            if destination is None:
                counters.lost += 1
            else:
                counters.filtered += 1
            return ResolutionRecord(
                domain=qname,
                resolver_kind=kind,
                resolution_ms=float("nan"),
                rcode="UNREACHABLE",
                attempt=attempt,
                retries=retries,
            )
        path = self._target_legs(
            machine.ip, route, device.location(now), attachment.egress
        )
        zs = stream.gauss_block(2 + path[1])
        access = _access_ms(technology, zs)
        device.rrc.touch(now)
        value = _path_ms(access, path, zs, 2)
        counters.delivered += 1
        client_subnet = None
        if service.ecs_enabled:
            client_subnet = prefix24(attachment.client_ip)
        result = cluster.engine.resolve(
            qname,
            RRType.A,
            now,
            stream,
            client_subnet=client_subnet,
            # Device-range scope when campaign-built (operator key is
            # its prefix, so carriers stay isolated); legacy
            # per-operator scope otherwise.
            cache_scope=device.cache_scope or asys.operator_key,
        )
        resolution_ms = value + service.peering_penalty_ms + result.upstream_ms
        if faults is not None and transport.dns_timed_out(resolution_ms):
            return _dns_failure(qname, kind, attempt, TIMED_OUT, retries)
        return ResolutionRecord(
            domain=qname,
            resolver_kind=kind,
            resolution_ms=resolution_ms,
            addresses=result.addresses(),
            cname_chain=result.cname_chain(),
            attempt=attempt,
            retries=retries,
        )

    def _ping_probe(
        self, ip: str, kind: str, now: float, pay_promotion: bool = False
    ) -> PingRecord:
        """One ping train: send, retry fault drops, record the verdict."""
        record = self._ping_once(now, 0, ip, kind, pay_promotion)
        if record.outcome is None:
            return record
        budget = self.world.transport.policy.ping_retries
        return self._retry(record, budget, self._ping_once, now, ip, kind, pay_promotion)

    def _ping_once(
        self, now: float, retries: int, ip: str, kind: str, pay_promotion: bool
    ) -> PingRecord:
        """One ping with the attempt's draws fused into one block."""
        stream = self.stream
        technology = self._technology_at(now)
        device = self.device
        route = self._route(ip)
        transport = self.world.transport
        faults = transport.faults
        counters = transport.counters
        destination = route.destination
        answered = destination is not None and route.answers_ping
        if answered:
            path = self._target_legs(
                ip, route, device.location(now), self.attachment_at(now).egress
            )
            zs = stream.gauss_block(2 + path[1] if faults is None else 2)
        else:
            zs = stream.gauss_block(2)
        value = _access_ms(technology, zs)
        if pay_promotion:
            value += promotion_cost_ms(technology, device.rrc, now)
        else:
            device.rrc.touch(now)
        if not answered:
            if destination is None:
                counters.lost += 1
            elif not route.admits:
                counters.filtered += 1
            else:
                counters.timed_out += 1
            return PingRecord(ip, kind, retries=retries)
        if faults is not None:
            if faults.drop(self.operator.key, "ping", now, stream):
                counters.lost += 1
                return PingRecord(ip, kind, outcome=LOST, retries=retries)
            zs += stream.gauss_block(path[1])
        counters.delivered += 1
        return PingRecord(ip, kind, rtt_ms=_path_ms(value, path, zs, 2), retries=retries)

    def ping_ip(self, ip: str, kind: str, now: float) -> PingRecord:
        """Ping an arbitrary address from the device."""
        return self._ping_probe(ip, kind, now)

    def ping_configured_resolver(self, now: float) -> PingRecord:
        """Ping the resolver address configured on the device.

        Answered at the serving site (anycast-aware), so this measures
        the *client-facing* resolver distance of Fig 4.  The substrate
        composes the latency itself; the transport gate only decides
        whether the exchange completes.
        """
        return self._resolver_ping(now, None)

    def ping_public_resolver(self, kind: str, now: float) -> PingRecord:
        """Ping a public service's anycast address."""
        return self._resolver_ping(now, kind)

    def _resolver_ping(self, now: float, kind: Optional[str]) -> PingRecord:
        """A resolver ping train (``kind`` None: the configured resolver)."""
        record = self._resolver_ping_once(now, 0, kind)
        if record.outcome is None:
            return record
        budget = self.world.transport.policy.ping_retries
        return self._retry(record, budget, self._resolver_ping_once, now, kind)

    def _resolver_ping_once(
        self, now: float, retries: int, kind: Optional[str]
    ) -> PingRecord:
        """One resolver ping: a fresh origin, the transport gate, the RTT."""
        origin = self.origin(now)
        verdict = self.world.transport.gate(self.operator.key, "ping", now, self.stream)
        if kind is None:
            target_ip, target_kind = self.attachment.client_dns_ip, "resolver-client-facing"
        else:
            service = self.world.public_service(kind)
            target_ip, target_kind = service.anycast_ip, f"resolver-public-{kind}"
        if not verdict.delivered:
            return PingRecord(target_ip, target_kind, outcome=verdict.outcome, retries=retries)
        if kind is None:
            rtt = self.operator.ping_client_resolver(origin, self.attachment, self.stream)
        else:
            rtt = service.ping(origin, now, self.stream, device_key=self.device.device_id)
        return PingRecord(target_ip, target_kind, rtt_ms=rtt, retries=retries)

    def traceroute_ip(self, ip: str, kind: str, now: float) -> TracerouteRecord:
        """Traceroute to an arbitrary address from the device."""
        origin = self.origin(now)
        result, delivery = self.world.transport.traceroute(
            origin,
            ip,
            self.stream,
            route=self.route_to(origin, ip),
            carrier=self.operator.key,
            now=now,
            probe="traceroute",
        )
        return TracerouteRecord(
            target_ip=ip,
            target_kind=kind,
            hops=[[hop.ttl, hop.ip, hop.rtt_ms] for hop in result.hops],
            reached=result.reached,
            outcome=delivery.outcome if delivery.fault_induced else None,
        )

    def http_get(
        self, replica_ip: str, domain: str, resolver_kind: str, now: float
    ) -> HttpRecord:
        """HTTP GET (TTFB) against one replica address."""
        record = self._http_once(now, 0, replica_ip, domain, resolver_kind)
        if record.outcome is None:
            return record
        budget = self.world.transport.policy.http_retries
        return self._retry(
            record, budget, self._http_once, now, replica_ip, domain, resolver_kind
        )

    def _http_once(
        self, now: float, retries: int, replica_ip: str, domain: str, resolver_kind: str
    ) -> HttpRecord:
        """One HTTP GET with handshake/request/service draws fused."""
        stream = self.stream
        technology = self._technology_at(now)
        device = self.device
        replica = self._replica_at(replica_ip)
        transport = self.world.transport
        faults = transport.faults
        counters = transport.counters
        route = None if replica is None else self._route(replica_ip)
        if route is None or route.destination is None or not route.admits:
            stream.gauss_block(2)
            device.rrc.touch(now)
            # An address no replica owns sends nothing to count.
            if route is not None:
                if route.destination is None:
                    counters.lost += 1
                else:
                    counters.filtered += 1
            return HttpRecord(replica_ip, domain, resolver_kind, retries=retries)
        path = self._target_legs(
            replica_ip, route, device.location(now), self.attachment_at(now).egress
        )
        draws = 3 + 2 * path[1]
        zs = stream.gauss_block(draws if faults is None else 2)
        access = _access_ms(technology, zs)
        device.rrc.touch(now)
        if faults is not None:
            if faults.drop(self.operator.key, "http", now, stream):
                counters.lost += 1
                return HttpRecord(
                    replica_ip, domain, resolver_kind, outcome=LOST, retries=retries
                )
            zs += stream.gauss_block(draws - 2)
        # Handshake RTT, then request RTT, then the replica's service time.
        ttfb = _path_ms(access, path, zs, 2) + _path_ms(access, path, zs, 2 + path[1])
        ttfb += math.exp(replica.log_service_ms + 0.5 * zs[draws - 1])
        if faults is not None and ttfb > transport.policy.http_timeout_ms:
            counters.timed_out += 1
            return HttpRecord(
                replica_ip, domain, resolver_kind, outcome=TIMED_OUT, retries=retries
            )
        counters.delivered += 1
        return HttpRecord(replica_ip, domain, resolver_kind, ttfb_ms=ttfb, retries=retries)

    def identify_resolver(
        self, kind: str, now: float, token: str
    ) -> ResolverIdRecord:
        """The Mao et al. probe: learn the external resolver's address.

        A unique name under the controlled zone forces a cache miss; the
        echo authority answers with the address it saw the query from.
        """
        qname = f"{token}.{kind}.{WHOAMI_ZONE}"
        if kind == "local":
            record = self.dns_local(qname, now)
            configured = self.attachment.client_dns_ip
        else:
            record = self.dns_public(kind, qname, now)
            configured = self.world.public_service(kind).anycast_ip
        observed: Optional[str] = (
            record.addresses[0] if record.addresses else None
        )
        return ResolverIdRecord(
            resolver_kind=kind,
            configured_ip=configured,
            observed_external_ip=observed,
            resolution_ms=record.resolution_ms,
        )

    def replica_addresses(self, records: List[ResolutionRecord]) -> List[str]:
        """Distinct replica addresses across resolutions, order-stable."""
        seen: List[str] = []
        for record in records:
            for address in record.addresses:
                if address not in seen:
                    seen.append(address)
        return seen
