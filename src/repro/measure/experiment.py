"""The experiment script (Sec 3.2), faithfully re-implemented.

Each experiment, run roughly hourly per device:

1. a bootstrap ping wakes the radio (absorbing RRC promotion delay);
2. DNS resolutions of the nine popular mobile domains via the locally
   configured resolver, Google DNS and OpenDNS — with an immediate
   back-to-back second query to the local resolver (the Fig 7 cache
   probe);
3. ping, traceroute and an HTTP GET to every replica address returned;
4. resolver identification against the controlled zone for all three
   resolver kinds, plus pings/traceroutes to the configured and observed
   resolver addresses.

Probes run continually and as quickly as possible to keep the radio in
its high-power state, exactly as the paper describes; the small
inter-probe delays below model the library's pacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cdn.catalog import domain_names
from repro.cellnet.device import MobileDevice
from repro.core.rng import RandomStream, RngRegistry
from repro.core.world import World
from repro.measure.probes import DeviceProbeSession
from repro.measure.records import ExperimentRecord, ResolutionRecord

#: Seconds between consecutive probes (keeps the radio busy, advances
#: virtual time just enough for back-to-back semantics to be honest).
PROBE_GAP_S = 0.4


@dataclass
class ExperimentOptions:
    """Feature switches for one experiment run."""

    domains: Sequence[str] = field(default_factory=domain_names)
    resolver_kinds: Sequence[str] = ("local", "google", "opendns")
    #: Issue the immediate second local query per domain (Fig 7).
    double_query: bool = True
    #: Probe (ping/traceroute/HTTP) every replica address returned.
    probe_replicas: bool = True
    #: Run the resolver-identification probes.
    identify_resolvers: bool = True
    #: Traceroute one external target to expose the egress point.
    traceroute_egress: bool = True
    #: Cap on replica addresses probed per experiment (0 = no cap).
    max_replica_probes: int = 0


class ExperimentRunner:
    """Runs the experiment script for devices in a world."""

    #: Session factory; the stage-timing benchmark substitutes an
    #: instrumented subclass of :class:`DeviceProbeSession` here.
    session_class = DeviceProbeSession

    def __init__(self, world: World, options: Optional[ExperimentOptions] = None):
        self.world = world
        self.options = options or ExperimentOptions()
        self._rng: RngRegistry = world.rng

    def run(
        self, device: MobileDevice, started_at: float, sequence: int
    ) -> ExperimentRecord:
        """Execute one experiment and return its record.

        The experiment's stream is lent, not kept: the registry never
        stores it and folds its pool counters in when the experiment
        returns, so nothing drawn here outlives the record.
        """
        rng = self._rng
        stream = rng.lend("experiment", device.device_id, sequence)
        try:
            return self._run(device, started_at, sequence, stream)
        finally:
            rng.release(stream)

    def _run(
        self,
        device: MobileDevice,
        started_at: float,
        sequence: int,
        stream: RandomStream,
    ) -> ExperimentRecord:
        options = self.options
        session = self.session_class.begin(self.world, device, started_at, stream)
        now = started_at
        location = device.coarse_location(started_at)
        record = ExperimentRecord(
            device_id=device.device_id,
            carrier=device.carrier_key,
            country=session.operator.country.value,
            sequence=sequence,
            started_at=started_at,
            latitude=location.latitude,
            longitude=location.longitude,
            technology=session.technology.value,
            generation=session.technology.generation.value,
            client_ip=session.attachment.client_ip,
        )

        # 1. bootstrap ping.
        record.pings.append(session.bootstrap_ping(now))
        now += PROBE_GAP_S

        # 2. domain resolutions.
        local_resolutions: List[ResolutionRecord] = []
        for domain in options.domains:
            for kind in options.resolver_kinds:
                if kind == "local":
                    first = session.dns_local(domain, now, attempt=1)
                    record.resolutions.append(first)
                    local_resolutions.append(first)
                    now += PROBE_GAP_S
                    if options.double_query:
                        second = session.dns_local(domain, now, attempt=2)
                        record.resolutions.append(second)
                        local_resolutions.append(second)
                        now += PROBE_GAP_S
                else:
                    record.resolutions.append(session.dns_public(kind, domain, now))
                    now += PROBE_GAP_S

        # 3. probe every replica address seen.
        if options.probe_replicas:
            now = self._probe_replicas(session, record, now)

        # 4. resolver identification + resolver probes.
        if options.identify_resolvers:
            now = self._identify_resolvers(session, record, now, sequence)

        # 5. one external traceroute (egress-point discovery, Sec 5.2).
        if options.traceroute_egress:
            target = self.world.vantage.host.ip
            record.traceroutes.append(
                session.traceroute_ip(target, "egress-discovery", now)
            )
            now += PROBE_GAP_S
        return record

    # -- internals ---------------------------------------------------------

    def _probe_replicas(self, session, record, now: float) -> float:
        options = self.options
        by_address: dict = {}
        for resolution in record.resolutions:
            for address in resolution.addresses:
                by_address.setdefault(
                    address, (resolution.domain, resolution.resolver_kind)
                )
        addresses = list(by_address)
        if options.max_replica_probes:
            addresses = addresses[: options.max_replica_probes]
        # One pool refill covers the whole replica sweep: each ping+GET
        # pair consumes at most 13 uniforms (2 stability draws plus up
        # to 11 Gaussian-pair/service uniforms).  Purely a batching
        # hint; draw values and order are unchanged.
        if addresses:
            session.stream.prefill(13 * len(addresses))
        for address in addresses:
            domain, kind = by_address[address]
            record.pings.append(session.ping_ip(address, "replica", now))
            now += PROBE_GAP_S
            record.http_gets.append(session.http_get(address, domain, kind, now))
            now += PROBE_GAP_S
        # Replica traceroutes exist in the paper's script; one per
        # experiment keeps the dataset faithful without tripling runtime.
        if addresses:
            record.traceroutes.append(
                session.traceroute_ip(addresses[0], "replica", now)
            )
            now += PROBE_GAP_S
        return now

    def _identify_resolvers(
        self, session, record, now: float, sequence: int
    ) -> float:
        token = f"e{sequence}-{session.device.device_id}".replace("_", "-")
        for kind in self.options.resolver_kinds:
            identification = session.identify_resolver(kind, now, token)
            record.resolver_ids.append(identification)
            now += PROBE_GAP_S
            if kind == "local":
                record.pings.append(session.ping_configured_resolver(now))
                now += PROBE_GAP_S
                observed = identification.observed_external_ip
                if observed and observed != identification.configured_ip:
                    record.pings.append(
                        session.ping_ip(observed, "resolver-external-facing", now)
                    )
                    now += PROBE_GAP_S
            else:
                record.pings.append(session.ping_public_resolver(kind, now))
                now += PROBE_GAP_S
        return now
