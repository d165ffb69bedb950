"""One delivery path for every simulated packet.

Before this layer, each probe path re-derived failure semantics on its
own: ``measure_rtt``/``flow_rtt`` returned ``None`` and every caller
sniffed it, the recursive resolver branched on a missing flow sampler,
and there was no way to script degraded conditions.  ``Transport``
centralises the verdict: every send classifies into a structured
:class:`Delivery` outcome —

* ``DELIVERED`` — the reply came back, with its RTT;
* ``FILTERED`` — a firewall/NAT boundary dropped the probe, with the
  filtering hop (the operator's ingress router, when known);
* ``TIMED_OUT`` — the target exists and is routable but stayed silent
  (or a fault window suppressed the answer);
* ``LOST`` — the packet died in transit: unroutable destination, or
  fault-injected loss.

The determinism contract: with no fault scenario active, ``Transport``
consumes *exactly* the random draws the bare substrate primitives
would — classification happens before any draw, and every fault check
collapses to one ``faults is None`` test — so a fault-free campaign's
``Dataset.content_hash`` is byte-identical to the pre-transport engine.
Fault checks draw from the caller's stream only inside active scenario
windows, and only for rules that match.

Counters tally every classified send (plus probe-layer retries), and
surface in the ``transport`` section of ``BENCH_campaign.json``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Tuple

from repro.core.errors import ResolutionError
from repro.core.faults import FaultScenario, ProbePolicy
from repro.core.internet import (
    RouteView,
    TracerouteResult,
    VirtualInternet,
)
from repro.core.node import Host, ProbeOrigin
from repro.core.rng import RandomStream

#: Delivery outcome labels; these are also the values carried on the
#: records' optional ``outcome`` field and read back by the analysis
#: layer's predicates.
DELIVERED = "delivered"
FILTERED = "filtered"
TIMED_OUT = "timed_out"
LOST = "lost"


class Delivery:
    """The structured verdict of one simulated send."""

    __slots__ = ("outcome", "rtt_ms", "filtered_at", "fault_induced")

    def __init__(
        self,
        outcome: str,
        rtt_ms: Optional[float] = None,
        filtered_at: Optional[str] = None,
        fault_induced: bool = False,
    ) -> None:
        self.outcome = outcome
        self.rtt_ms = rtt_ms
        self.filtered_at = filtered_at
        self.fault_induced = fault_induced

    @property
    def delivered(self) -> bool:
        """Whether the reply came back."""
        return self.outcome == DELIVERED

    @property
    def retryable(self) -> bool:
        """Whether resending could help.

        Topology-determined failures (firewalled, unroutable, silent
        host) fail identically on every attempt; only fault-induced
        ones are worth the client's retry budget.
        """
        return self.fault_induced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = f", rtt_ms={self.rtt_ms}" if self.rtt_ms is not None else ""
        if self.filtered_at is not None:
            detail += f", filtered_at={self.filtered_at!r}"
        if self.fault_induced:
            detail += ", fault_induced=True"
        return f"Delivery({self.outcome!r}{detail})"


#: Shared verdict for the fault-free gate fast path: no per-call
#: allocation when nothing can go wrong.
_GATE_OK = Delivery(DELIVERED)


class TransportCounters:
    """Tally of every classified send, plus probe-layer retries."""

    __slots__ = ("delivered", "filtered", "timed_out", "lost", "retries")

    def __init__(self) -> None:
        self.delivered = 0
        self.filtered = 0
        self.timed_out = 0
        self.lost = 0
        self.retries = 0

    @property
    def attempts(self) -> int:
        """Total classified sends (each retry is its own attempt)."""
        return self.delivered + self.filtered + self.timed_out + self.lost

    def as_dict(self) -> dict:
        """Plain-dict view for benchmark reports."""
        return {
            "delivered": self.delivered,
            "filtered": self.filtered,
            "timed_out": self.timed_out,
            "lost": self.lost,
            "retries": self.retries,
            "attempts": self.attempts,
        }


class FaultRuntime:
    """A scenario compiled for per-send consultation.

    Keeps the rule tuples plus a sorted list of every window boundary,
    so attachment memo keys can fold in "which windows are active now"
    as one integer (:meth:`phase`) and session-level caching windows can
    be clamped to the next boundary (:meth:`span`).
    """

    def __init__(self, scenario: FaultScenario) -> None:
        self.scenario = scenario
        self.loss_rules = scenario.loss_rules
        self.resolver_outages = scenario.resolver_outages
        self.degraded_epochs = scenario.degraded_epochs
        self.egress_failovers = scenario.egress_failovers
        boundaries = set()
        for rule in self.loss_rules:
            if rule.window is not None:
                boundaries.update((rule.window.start_s, rule.window.end_s))
        for outage in self.resolver_outages:
            boundaries.update((outage.window.start_s, outage.window.end_s))
        for epoch in self.degraded_epochs:
            boundaries.update((epoch.window.start_s, epoch.window.end_s))
        for failover in self.egress_failovers:
            boundaries.update((failover.window.start_s, failover.window.end_s))
        self._boundaries: List[float] = sorted(boundaries)
        self._rat_memo: dict = {}

    def drop(
        self,
        carrier: Optional[str],
        probe: str,
        now: float,
        stream: RandomStream,
    ) -> bool:
        """Whether an active loss rule eats this send (draws on match)."""
        for rule in self.loss_rules:
            if rule.applies(carrier, probe, now) and stream.bernoulli(rule.rate):
                return True
        return False

    def outage_active(
        self, resolver_kind: str, carrier: Optional[str], now: float
    ) -> bool:
        """Whether a resolver tier is dark for this carrier right now."""
        for outage in self.resolver_outages:
            if (
                outage.resolver_kind == resolver_kind
                and (outage.carrier is None or outage.carrier == carrier)
                and outage.window.contains(now)
            ):
                return True
        return False

    def rat_override(self, carrier: str, now: float):
        """The forced radio technology for a carrier, if a window is on."""
        for epoch in self.degraded_epochs:
            if epoch.carrier == carrier and epoch.window.contains(now):
                technology = self._rat_memo.get(epoch.technology)
                if technology is None:
                    from repro.cellnet.radio import RadioTechnology

                    technology = RadioTechnology(epoch.technology)
                    self._rat_memo[epoch.technology] = technology
                return technology
        return None

    def failed_egress(self, carrier: str, now: float) -> Optional[int]:
        """The index of a carrier's failed egress point, if any."""
        for failover in self.egress_failovers:
            if failover.carrier == carrier and failover.window.contains(now):
                return failover.egress_index
        return None

    def phase(self, now: float) -> int:
        """Which inter-boundary segment ``now`` falls in (memo-key safe)."""
        return bisect_right(self._boundaries, now)

    def span(self, now: float) -> Tuple[float, float]:
        """The boundary-free interval around ``now`` (for cache windows)."""
        index = bisect_right(self._boundaries, now)
        lower = self._boundaries[index - 1] if index else float("-inf")
        upper = (
            self._boundaries[index]
            if index < len(self._boundaries)
            else float("inf")
        )
        return lower, upper


class Transport:
    """The one object every simulated packet crosses.

    Owned by :class:`~repro.core.world.World`; the recursive resolver,
    the public DNS services and traceroutes route their sends through it
    and act on the returned :class:`Delivery`.  Device probe sessions
    classify their DNS, ping and HTTP sends inline, in one body per
    probe, against the same counters, policy and fault runtime (see
    :mod:`repro.measure.probes`).
    """

    def __init__(
        self,
        internet: VirtualInternet,
        scenario: Optional[FaultScenario] = None,
    ) -> None:
        self.internet = internet
        self.scenario = scenario
        self.policy: ProbePolicy = (
            scenario.policy if scenario is not None else ProbePolicy()
        )
        self.faults: Optional[FaultRuntime] = (
            FaultRuntime(scenario)
            if scenario is not None and scenario.has_faults
            else None
        )
        self.counters = TransportCounters()

    # -- fate gates -----------------------------------------------------------

    def gate(
        self,
        carrier: Optional[str],
        probe: str,
        now: float,
        stream: RandomStream,
    ) -> Delivery:
        """Loss verdict for one exchange whose latency is drawn elsewhere.

        Used where the substrate composes the latency itself (the
        operator's client-facing resolver ping): the gate decides *if*
        the exchange completes, the caller then draws *how long* it took.
        """
        counters = self.counters
        faults = self.faults
        if faults is not None and faults.drop(carrier, probe, now, stream):
            counters.lost += 1
            return Delivery(LOST, fault_induced=True)
        counters.delivered += 1
        return _GATE_OK

    def dns_gate(
        self,
        carrier: Optional[str],
        resolver_kind: str,
        now: float,
        stream: RandomStream,
    ) -> Delivery:
        """Fate of one DNS query/response exchange with a resolver tier."""
        counters = self.counters
        faults = self.faults
        if faults is None:
            counters.delivered += 1
            return _GATE_OK
        if faults.outage_active(resolver_kind, carrier, now):
            counters.timed_out += 1
            return Delivery(TIMED_OUT, fault_induced=True)
        if faults.drop(carrier, "dns", now, stream):
            counters.lost += 1
            return Delivery(LOST, fault_induced=True)
        counters.delivered += 1
        return _GATE_OK

    def dns_timed_out(self, total_ms: float) -> bool:
        """Whether a resolution exceeded the client's timeout.

        Only consulted under an active fault scenario: the fault-free
        engine must reproduce the pre-transport dataset even for the
        lognormal tail, exactly as the seed engine recorded it.
        """
        return self.faults is not None and total_ms > self.policy.dns_timeout_ms

    def note_retry(self) -> None:
        """Count one probe-layer retry (hits + retries == attempts)."""
        self.counters.retries += 1

    # -- packet paths ---------------------------------------------------------

    def ping(
        self,
        origin: ProbeOrigin,
        destination_ip: str,
        stream: RandomStream,
        route: Optional[RouteView] = None,
        carrier: Optional[str] = None,
        now: float = 0.0,
        probe: Optional[str] = None,
    ) -> Delivery:
        """ICMP echo semantics; classification precedes every draw.

        ``probe`` opts a send into loss-rule checks ("ping" from device
        sessions); analysis re-probes pass None and stay fault-exempt.
        """
        internet = self.internet
        counters = self.counters
        if route is None:
            route = internet.route_view(origin, destination_ip)
        destination = route.destination
        if destination is None:
            counters.lost += 1
            return Delivery(LOST)
        if not route.answers_ping:
            if not route.admits:
                counters.filtered += 1
                return Delivery(FILTERED, filtered_at=self._filter_hop(destination))
            counters.timed_out += 1
            return Delivery(TIMED_OUT)
        faults = self.faults
        if (
            faults is not None
            and probe is not None
            and faults.drop(carrier, probe, now, stream)
        ):
            counters.lost += 1
            return Delivery(LOST, fault_induced=True)
        counters.delivered += 1
        return Delivery(
            DELIVERED, internet.measure_rtt(origin, destination_ip, stream, route=route)
        )

    def flow(
        self,
        origin: ProbeOrigin,
        destination_ip: str,
        stream: RandomStream,
        route: Optional[RouteView] = None,
        carrier: Optional[str] = None,
        now: float = 0.0,
        probe: Optional[str] = None,
    ) -> Delivery:
        """Transport-flow semantics (DNS over UDP, HTTP over TCP)."""
        internet = self.internet
        counters = self.counters
        if route is None:
            route = internet.route_view(origin, destination_ip)
        destination = route.destination
        if destination is None:
            counters.lost += 1
            return Delivery(LOST)
        if not route.admits:
            counters.filtered += 1
            return Delivery(FILTERED, filtered_at=self._filter_hop(destination))
        faults = self.faults
        if (
            faults is not None
            and probe is not None
            and faults.drop(carrier, probe, now, stream)
        ):
            counters.lost += 1
            return Delivery(LOST, fault_induced=True)
        counters.delivered += 1
        return Delivery(
            DELIVERED, internet.flow_rtt(origin, destination_ip, stream, route=route)
        )

    def traceroute(
        self,
        origin: ProbeOrigin,
        destination_ip: str,
        stream: RandomStream,
        route: Optional[RouteView] = None,
        carrier: Optional[str] = None,
        now: float = 0.0,
        probe: Optional[str] = None,
    ) -> Tuple[TracerouteResult, Delivery]:
        """Hop-by-hop TTL probing; returns the hops plus the verdict."""
        internet = self.internet
        counters = self.counters
        if route is None:
            route = internet.route_view(origin, destination_ip)
        faults = self.faults
        if (
            faults is not None
            and probe is not None
            and faults.drop(carrier, probe, now, stream)
        ):
            counters.lost += 1
            return (
                TracerouteResult(destination_ip=destination_ip),
                Delivery(LOST, fault_induced=True),
            )
        result = internet.traceroute(origin, destination_ip, stream, route=route)
        if result.reached:
            counters.delivered += 1
            return result, Delivery(DELIVERED, result.hops[-1].rtt_ms)
        destination = route.destination
        if destination is None:
            counters.lost += 1
            return result, Delivery(LOST)
        interior = (
            destination.asys.firewall.blocks_inbound
            and destination.asys.operator_key != origin.asys.operator_key
        )
        if interior or not route.admits:
            counters.filtered += 1
            return result, Delivery(
                FILTERED, filtered_at=self._filter_hop(destination)
            )
        counters.timed_out += 1
        return result, Delivery(TIMED_OUT)

    def authority_link(
        self, origin: ProbeOrigin, destination_ip: str, resolver_ip: str
    ) -> Callable[[RandomStream], float]:
        """A compiled per-query-leg sampler for the recursive resolver.

        Reachable authorities get the substrate's precompiled flow
        sampler verbatim (the resolution hot path pays nothing for the
        transport layer); unreachable ones get a callable that raises
        :class:`~repro.core.errors.ResolutionError` when the walk
        actually tries the hop — the engine memoises either shape.
        """
        sampler = self.internet.flow_sampler(origin, destination_ip)
        if sampler is not None:
            return sampler

        def unreachable(stream: RandomStream) -> float:
            raise ResolutionError(
                f"authority {destination_ip} unreachable from {resolver_ip}"
            )

        return unreachable

    def authority_program(
        self, origin: ProbeOrigin, destination_ip: str
    ) -> Optional[tuple]:
        """The declarative counterpart of :meth:`authority_link`.

        Returns the substrate's ``(c0, terms, trail, draw_count)`` flow
        program for a reachable authority, or ``None`` when unreachable.
        Compiled resolution plans store these instead of closures so a
        whole chain's Gaussian draws can be pre-counted and consumed as
        one contiguous pool slice.
        """
        return self.internet.flow_program(origin, destination_ip)

    def _filter_hop(self, destination: Host) -> Optional[str]:
        """The border router that dropped a filtered probe, when known."""
        ingress = self.internet._ingress_router_for(destination)
        return ingress.ip if ingress is not None else None
