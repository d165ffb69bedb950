"""Client-side probe primitives.

A :class:`DeviceProbeSession` is the measurement library running on one
device for one experiment: it holds the device's current attachment and
issues the probes of Sec 3.2 (DNS resolutions through the local and
public resolvers, pings, traceroutes, HTTP GETs, and the resolver
identification trick).  Every probe samples fresh radio latency, because
each real packet did.

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
from repro.core.transport import TIMED_OUT, Delivery
from repro.core.world import WHOAMI_ZONE, World
from repro.dns.message import RRType
from repro.measure.records import (
    HttpRecord,
    PingRecord,
    ResolutionRecord,
    ResolverIdRecord,
    TracerouteRecord,
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
    #: Per-target leg programs for the fused fault-free probe paths,
    #: keyed (ip, device location, egress ip) — everything the leg
    #: decomposition depends on.  Session-local like the other memos:
    #: repeats happen inside one experiment (ping then HTTP to a replica,
    #: the resolver probes), while a world-level memo measured zero hits
    #: across experiments, because the hourly wander moves the device's
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

    def route_to(self, origin: ProbeOrigin, ip: str) -> RouteView:
        """Routing facts for one target, computed once per experiment."""
        route = self._route_memo.get(ip)
        if route is None:
            route = self.world.internet.route_view(origin, ip)
            self._route_memo[ip] = route
        return route

    def _replica_at(self, replica_ip: str):
        """The replica server owning an address, cached per session."""
        if replica_ip in self._replica_memo:
            return self._replica_memo[replica_ip]
        provider = self.world.replica_owner(replica_ip)
        replica = provider.replica_by_ip(replica_ip) if provider else None
        self._replica_memo[replica_ip] = replica
        return replica

    # -- origins -----------------------------------------------------------

    def origin(self, now: float, pay_promotion: bool = False) -> ProbeOrigin:
        """A fresh probe origin (new radio latency sample).

        Occasionally the radio hands off mid-experiment (the profile's
        ``stability`` knob); the affected probe rides the new technology,
        as real in-context measurements do (Gember et al. [8]).
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
        return self.operator.probe_origin(
            self.device,
            now,
            self.stream,
            technology=technology,
            pay_promotion=pay_promotion,
            attachment=self.attachment_at(now),
        )

    # -- probes ----------------------------------------------------------------
    #
    # Every probe crosses ``world.transport`` and acts on the returned
    # :class:`Delivery`.  Fault-induced failures are retried within the
    # scenario's :class:`ProbePolicy` budget (a fresh origin per attempt
    # — each real retransmission rode fresh radio conditions — and a
    # backoff between attempts); topology-determined failures are final.
    # ``outcome`` is recorded only for fault-induced verdicts, so
    # fault-free campaigns keep the legacy wire shape byte for byte.

    def bootstrap_ping(self, now: float) -> PingRecord:
        """The radio wake-up ping that opens every experiment (Sec 3.2)."""
        target = self.world.backbone.routers[0]
        return self._ping_probe(target.ip, "bootstrap", now, pay_promotion=True)

    def dns_local(self, qname: str, now: float, attempt: int = 1) -> ResolutionRecord:
        """Resolve through the operator-configured resolver."""
        transport = self.world.transport
        if transport.faults is None:
            return self._fast_dns_local(qname, now, attempt)
        policy = transport.policy
        retries = 0
        while True:
            verdict = transport.dns_gate(self.operator.key, "local", now, self.stream)
            if verdict.delivered:
                origin = self.origin(now)
                result = self.operator.resolve_local(
                    self.device, origin, self.attachment, qname, RRType.A, now, self.stream
                )
                if not transport.dns_timed_out(result.total_ms):
                    return ResolutionRecord(
                        domain=qname,
                        resolver_kind="local",
                        resolution_ms=result.total_ms,
                        addresses=result.addresses,
                        cname_chain=result.cname_chain(),
                        attempt=attempt,
                        retries=retries,
                    )
                verdict = Delivery(TIMED_OUT, fault_induced=True)
            if retries >= policy.dns_retries or not verdict.retryable:
                return ResolutionRecord(
                    domain=qname,
                    resolver_kind="local",
                    resolution_ms=float("nan"),
                    attempt=attempt,
                    rcode="TIMEOUT",
                    outcome=verdict.outcome,
                    retries=retries,
                )
            retries += 1
            transport.note_retry()
            now += policy.backoff_s

    def dns_public(
        self, kind: str, qname: str, now: float, attempt: int = 1
    ) -> ResolutionRecord:
        """Resolve through Google DNS or OpenDNS."""
        transport = self.world.transport
        service = self.world.public_service(kind)
        if transport.faults is None:
            return self._fast_dns_public(service, kind, qname, now, attempt)
        policy = transport.policy
        retries = 0
        while True:
            verdict = transport.dns_gate(self.operator.key, kind, now, self.stream)
            if verdict.delivered:
                origin = self.origin(now)
                outcome = service.resolve(
                    origin,
                    qname,
                    RRType.A,
                    now,
                    self.stream,
                    device_key=self.device.device_id,
                    cache_scope=self.device.cache_scope,
                )
                if outcome is None:
                    return ResolutionRecord(
                        domain=qname,
                        resolver_kind=kind,
                        resolution_ms=float("nan"),
                        rcode="UNREACHABLE",
                        attempt=attempt,
                        retries=retries,
                    )
                if not transport.dns_timed_out(outcome.total_ms):
                    return ResolutionRecord(
                        domain=qname,
                        resolver_kind=kind,
                        resolution_ms=outcome.total_ms,
                        addresses=outcome.result.addresses(),
                        cname_chain=outcome.result.cname_chain(),
                        attempt=attempt,
                        retries=retries,
                    )
                verdict = Delivery(TIMED_OUT, fault_induced=True)
            if retries >= policy.dns_retries or not verdict.retryable:
                return ResolutionRecord(
                    domain=qname,
                    resolver_kind=kind,
                    resolution_ms=float("nan"),
                    attempt=attempt,
                    rcode="TIMEOUT",
                    outcome=verdict.outcome,
                    retries=retries,
                )
            retries += 1
            transport.note_retry()
            now += policy.backoff_s

    # -- fused fault-free fast paths ---------------------------------------
    #
    # With no fault scenario active, a probe's whole stochastic body is
    # known up front: one stability uniform, two origin Gaussians, then
    # the delivered path's leg/service Gaussians.  The fast paths below
    # draw that set as one contiguous ``gauss_block`` slice and apply
    # the transform arithmetic inline — the same draws, in the same
    # order, with the same float association as the layered path, so
    # the dataset hash cannot move (asserted by the tier-1 goldens).
    # Fault scenarios take the layered path, whose per-attempt retries
    # interleave draws dynamically.

    # The stability draw + optional handoff re-draw of the probe origin
    # is inlined at each fast path (one uniform, then ``profile.draw``
    # on the rare handoff), matching the layered path's draw order.

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
            cached = (
                legs,
                draws,
                destination.interior_penalty_ms,
                destination.stack_latency_ms,
            )
            self._leg_memo[key] = cached
        return cached

    def _fast_dns_local(
        self, qname: str, now: float, attempt: int
    ) -> ResolutionRecord:
        """Fault-free local resolution with the front drawn as one block.

        The resolver front's whole stochastic shape is known before any
        Gaussian is drawn: serving site, external resolver and the
        tier-gap condition are all pure in (attachment, time), so the
        two origin draws, the device->front intra leg and the optional
        front->external leg fuse into one ``gauss_block``.  The engine
        then consumes its own (compiled-plan) block as usual — same
        draws, same order, same float association as the layered path.
        """
        stream = self.stream
        technology = self.technology
        profile = self.operator.radio_profile
        if stream.random() >= profile.stability:
            technology = profile.draw(stream)
        attachment = self.attachment_at(now)
        device = self.device
        operator = self.operator
        location = device.location(now)
        self.world.transport.counters.delivered += 1
        client_address = operator._client_address_of(attachment)
        site_hint = operator._nearest_site_index(attachment.egress)
        deployment = operator.deployment
        site = deployment.serving_site(client_address, site_hint)
        external = deployment.external_for(
            client_address, device.device_id, site_hint, now
        )
        intra = operator.internet.intra_model
        sigma_intra = intra.jitter_sigma
        front_base, front_log = intra.leg_params(location, site.location)
        gap_leg = external.site.index != site.index
        log_access, sigma_access, log_core, sigma_core, _ = _ORIGIN_PARAMS[
            technology
        ]
        if sigma_intra > 0:
            zs = stream.gauss_block(4 if gap_leg else 3)
        else:
            zs = stream.gauss_block(2)
        access = math.exp(log_access + sigma_access * zs[0])
        access += math.exp(log_core + sigma_core * zs[1])
        device.rrc.touch(now)
        if sigma_intra > 0:
            front_leg = math.exp(front_log + sigma_intra * zs[2])
        else:
            front_leg = front_base
        front_rtt = access + front_leg + operator.front_stack_ms
        gap_ms = deployment.tier_gap_ms
        if gap_leg:
            gap_base, gap_log = intra.leg_params(
                site.location, external.site.location
            )
            if sigma_intra > 0:
                gap_ms += math.exp(gap_log + sigma_intra * zs[3])
            else:
                gap_ms += gap_base
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
        return ResolutionRecord(
            domain=qname,
            resolver_kind="local",
            resolution_ms=front_rtt + gap_ms + result.upstream_ms,
            addresses=result.addresses(),
            cname_chain=result.cname_chain(),
            attempt=attempt,
            retries=0,
        )

    def _fast_dns_public(
        self, service, kind: str, qname: str, now: float, attempt: int
    ) -> ResolutionRecord:
        """Fault-free public resolution with origin + flow draws fused.

        Anycast cluster choice and the route verdict are pure in the
        attachment, so the two origin draws and the flow's leg draws
        (device->egress intra, egress->cluster WAN) collapse into one
        ``gauss_block`` before the engine consumes its own block —
        exactly the layered ``origin()`` + ``transport.flow`` sequence.
        """
        stream = self.stream
        technology = self.technology
        profile = self.operator.radio_profile
        if stream.random() >= profile.stability:
            technology = profile.draw(stream)
        attachment = self.attachment_at(now)
        device = self.device
        location = device.location(now)
        self.world.transport.counters.delivered += 1
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
        log_access, sigma_access, log_core, sigma_core, _ = _ORIGIN_PARAMS[
            technology
        ]
        counters = service._delivery_layer(internet).counters
        destination = route.destination
        if destination is not None and route.admits:
            legs, jitter_draws, penalty, stack = self._target_legs(
                machine.ip, route, location, attachment.egress
            )
            zs = stream.gauss_block(2 + jitter_draws)
            value = math.exp(log_access + sigma_access * zs[0])
            value += math.exp(log_core + sigma_core * zs[1])
            device.rrc.touch(now)
            index = 2
            for leg_value, sigma in legs:
                if sigma > 0:
                    value += math.exp(leg_value + sigma * zs[index])
                    index += 1
                else:
                    value += leg_value
            value += penalty
            value += stack
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
                # Device-range scope when campaign-built (operator key
                # is its prefix, so carriers stay isolated); legacy
                # per-operator scope otherwise.
                cache_scope=device.cache_scope or asys.operator_key,
            )
            return ResolutionRecord(
                domain=qname,
                resolver_kind=kind,
                resolution_ms=value + service.peering_penalty_ms + result.upstream_ms,
                addresses=result.addresses(),
                cname_chain=result.cname_chain(),
                attempt=attempt,
                retries=0,
            )
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
            retries=0,
        )

    def _fast_ping(
        self, ip: str, kind: str, now: float, pay_promotion: bool = False
    ) -> PingRecord:
        """Fault-free ping with the attempt's draws fused into one block."""
        stream = self.stream
        technology = self.technology
        profile = self.operator.radio_profile
        if stream.random() >= profile.stability:
            technology = profile.draw(stream)
        attachment = self.attachment_at(now)
        device = self.device
        location = device.location(now)
        route = self._route_memo.get(ip)
        if route is None:
            route = self.world.internet.route_view_for(self.operator.system, ip)
            self._route_memo[ip] = route
        log_access, sigma_access, log_core, sigma_core, _ = _ORIGIN_PARAMS[
            technology
        ]
        counters = self.world.transport.counters
        destination = route.destination
        rtt: Optional[float] = None
        if destination is not None and route.answers_ping:
            legs, jitter_draws, penalty, stack = self._target_legs(
                ip, route, location, attachment.egress
            )
            zs = stream.gauss_block(2 + jitter_draws)
            value = math.exp(log_access + sigma_access * zs[0])
            value += math.exp(log_core + sigma_core * zs[1])
            if pay_promotion:
                value += promotion_cost_ms(technology, device.rrc, now)
            else:
                device.rrc.touch(now)
            index = 2
            for leg_value, sigma in legs:
                if sigma > 0:
                    value += math.exp(leg_value + sigma * zs[index])
                    index += 1
                else:
                    value += leg_value
            value += penalty
            value += stack
            rtt = value
            counters.delivered += 1
        else:
            # Origin radio draws (and RRC side effects) precede the
            # transport verdict on the layered path; keep them.
            stream.gauss_block(2)
            if pay_promotion:
                promotion_cost_ms(technology, device.rrc, now)
            else:
                device.rrc.touch(now)
            if destination is None:
                counters.lost += 1
            elif not route.admits:
                counters.filtered += 1
            else:
                counters.timed_out += 1
        return PingRecord(
            target_ip=ip, target_kind=kind, rtt_ms=rtt, outcome=None, retries=0
        )

    def _fast_http(
        self, replica_ip: str, domain: str, resolver_kind: str, now: float
    ) -> HttpRecord:
        """Fault-free HTTP GET with handshake/request/service draws fused."""
        stream = self.stream
        technology = self.technology
        profile = self.operator.radio_profile
        if stream.random() >= profile.stability:
            technology = profile.draw(stream)
        attachment = self.attachment_at(now)
        device = self.device
        location = device.location(now)
        log_access, sigma_access, log_core, sigma_core, _ = _ORIGIN_PARAMS[
            technology
        ]
        replica = self._replica_at(replica_ip)
        if replica is None:
            stream.gauss_block(2)
            device.rrc.touch(now)
            return HttpRecord(
                replica_ip=replica_ip, domain=domain, resolver_kind=resolver_kind
            )
        route = self._route_memo.get(replica_ip)
        if route is None:
            route = self.world.internet.route_view_for(
                self.operator.system, replica_ip
            )
            self._route_memo[replica_ip] = route
        counters = self.world.transport.counters
        destination = route.destination
        ttfb: Optional[float] = None
        if destination is not None and route.admits:
            legs, jitter_draws, penalty, stack = self._target_legs(
                replica_ip, route, location, attachment.egress
            )
            zs = stream.gauss_block(3 + 2 * jitter_draws)
            access = math.exp(log_access + sigma_access * zs[0])
            access += math.exp(log_core + sigma_core * zs[1])
            device.rrc.touch(now)
            index = 2
            ttfb = 0.0
            for _ in range(2):  # handshake RTT, then request RTT
                flow = access
                for leg_value, sigma in legs:
                    if sigma > 0:
                        flow += math.exp(leg_value + sigma * zs[index])
                        index += 1
                    else:
                        flow += leg_value
                flow += penalty
                flow += stack
                ttfb = ttfb + flow if ttfb else flow
            ttfb += math.exp(replica.log_service_ms + 0.5 * zs[index])
            counters.delivered += 1
        else:
            stream.gauss_block(2)
            device.rrc.touch(now)
            if destination is None:
                counters.lost += 1
            else:
                counters.filtered += 1
        return HttpRecord(
            replica_ip=replica_ip,
            domain=domain,
            resolver_kind=resolver_kind,
            ttfb_ms=ttfb,
            outcome=None,
            retries=0,
        )

    def _ping_probe(
        self, ip: str, kind: str, now: float, pay_promotion: bool = False
    ) -> PingRecord:
        """One ping train: send, retry fault drops, record the verdict."""
        transport = self.world.transport
        if transport.faults is None:
            return self._fast_ping(ip, kind, now, pay_promotion)
        policy = transport.policy
        carrier = self.operator.key
        retries = 0
        while True:
            origin = self.origin(now, pay_promotion=pay_promotion)
            delivery = transport.ping(
                origin,
                ip,
                self.stream,
                route=self.route_to(origin, ip),
                carrier=carrier,
                now=now,
                probe="ping",
            )
            if delivery.retryable and retries < policy.ping_retries:
                retries += 1
                transport.note_retry()
                now += policy.backoff_s
                continue
            return PingRecord(
                target_ip=ip,
                target_kind=kind,
                rtt_ms=delivery.rtt_ms,
                outcome=delivery.outcome if delivery.fault_induced else None,
                retries=retries,
            )

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
        transport = self.world.transport
        policy = transport.policy
        target_ip = self.attachment.client_dns_ip
        retries = 0
        while True:
            origin = self.origin(now)
            verdict = transport.gate(self.operator.key, "ping", now, self.stream)
            if verdict.delivered:
                rtt = self.operator.ping_client_resolver(
                    origin, self.attachment, self.stream
                )
                return PingRecord(
                    target_ip=target_ip,
                    target_kind="resolver-client-facing",
                    rtt_ms=rtt,
                    retries=retries,
                )
            if retries < policy.ping_retries:
                retries += 1
                transport.note_retry()
                now += policy.backoff_s
                continue
            return PingRecord(
                target_ip=target_ip,
                target_kind="resolver-client-facing",
                rtt_ms=None,
                outcome=verdict.outcome,
                retries=retries,
            )

    def ping_public_resolver(self, kind: str, now: float) -> PingRecord:
        """Ping a public service's anycast address."""
        transport = self.world.transport
        policy = transport.policy
        service = self.world.public_service(kind)
        target_kind = f"resolver-public-{kind}"
        retries = 0
        while True:
            origin = self.origin(now)
            verdict = transport.gate(self.operator.key, "ping", now, self.stream)
            if verdict.delivered:
                rtt = service.ping(
                    origin, now, self.stream, device_key=self.device.device_id
                )
                return PingRecord(
                    target_ip=service.anycast_ip,
                    target_kind=target_kind,
                    rtt_ms=rtt,
                    retries=retries,
                )
            if retries < policy.ping_retries:
                retries += 1
                transport.note_retry()
                now += policy.backoff_s
                continue
            return PingRecord(
                target_ip=service.anycast_ip,
                target_kind=target_kind,
                rtt_ms=None,
                outcome=verdict.outcome,
                retries=retries,
            )

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
        transport = self.world.transport
        if transport.faults is None:
            return self._fast_http(replica_ip, domain, resolver_kind, now)
        policy = transport.policy
        retries = 0
        while True:
            origin = self.origin(now)
            replica = self._replica_at(replica_ip)
            if replica is None:
                return HttpRecord(
                    replica_ip=replica_ip, domain=domain, resolver_kind=resolver_kind
                )
            delivery = transport.http(
                origin,
                replica,
                self.stream,
                route=self.route_to(origin, replica_ip),
                carrier=self.operator.key,
                now=now,
                probe="http",
            )
            if delivery.retryable and retries < policy.http_retries:
                retries += 1
                transport.note_retry()
                now += policy.backoff_s
                continue
            return HttpRecord(
                replica_ip=replica_ip,
                domain=domain,
                resolver_kind=resolver_kind,
                ttfb_ms=delivery.rtt_ms,
                outcome=delivery.outcome if delivery.fault_induced else None,
                retries=retries,
            )

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
