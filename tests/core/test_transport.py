"""The unified delivery layer: one verdict per simulated send."""

import pytest

from repro.cellnet.device import MobileDevice
from repro.cellnet.mobility import MobilityModel
from repro.core.errors import ResolutionError
from repro.core.faults import (
    DAY_S,
    FaultScenario,
    LossRule,
    ProbePolicy,
    ResolverOutage,
    Window,
)
from repro.core.transport import (
    DELIVERED,
    FILTERED,
    LOST,
    TIMED_OUT,
    Delivery,
    Transport,
)
from repro.core.world import WorldConfig, build_world
from repro.geo.regions import US_CITIES, city_named

#: An address outside every allocated prefix (allocator pool is 16/6).
UNROUTABLE_IP = "198.51.100.1"


@pytest.fixture()
def origin(world, stream):
    return world.vantage.origin(stream)


class TestDeliveryVerdicts:
    """Each outcome class, from the fault-free transport."""

    def test_ping_delivered(self, world, origin, stream):
        transport = world.transport
        before = transport.counters.delivered
        verdict = transport.ping(origin, world.echo_authority.host.ip, stream)
        assert verdict.outcome == DELIVERED
        assert verdict.delivered
        assert verdict.rtt_ms is not None and verdict.rtt_ms > 0
        assert not verdict.retryable
        assert transport.counters.delivered == before + 1

    def test_ping_filtered_names_the_hop(self, world, origin, stream):
        transport = world.transport
        egress_ip = world.operators["att"].egress_ips()[0]
        before = transport.counters.filtered
        verdict = transport.ping(origin, egress_ip, stream)
        assert verdict.outcome == FILTERED
        assert not verdict.delivered
        assert verdict.rtt_ms is None
        assert verdict.filtered_at is not None
        assert not verdict.retryable  # topology, not a fault: no retry
        assert transport.counters.filtered == before + 1

    def test_ping_lost_unroutable(self, world, origin, stream):
        transport = world.transport
        before = transport.counters.lost
        verdict = transport.ping(origin, UNROUTABLE_IP, stream)
        assert verdict.outcome == LOST
        assert verdict.rtt_ms is None
        assert not verdict.fault_induced
        assert transport.counters.lost == before + 1

    def test_flow_delivered(self, world, origin, stream):
        verdict = world.transport.flow(
            origin, world.echo_authority.host.ip, stream
        )
        assert verdict.outcome == DELIVERED
        assert verdict.rtt_ms > 0

    def test_flow_filtered(self, world, origin, stream):
        egress_ip = world.operators["tmobile"].egress_ips()[0]
        verdict = world.transport.flow(origin, egress_ip, stream)
        assert verdict.outcome == FILTERED

    def test_traceroute_delivered(self, world, origin, stream):
        result, verdict = world.transport.traceroute(
            origin, world.echo_authority.host.ip, stream
        )
        assert result.reached
        assert verdict.outcome == DELIVERED
        assert verdict.rtt_ms == result.hops[-1].rtt_ms

    def test_traceroute_lost(self, world, origin, stream):
        result, verdict = world.transport.traceroute(
            origin, UNROUTABLE_IP, stream
        )
        assert not result.reached
        assert verdict.outcome == LOST


class TestGates:
    def test_fault_free_gate_is_shared_singleton(self, world, stream):
        transport = world.transport
        first = transport.gate("att", "ping", 0.0, stream)
        second = transport.gate("sprint", "http", 1.0, stream)
        assert first is second  # no allocation when nothing can go wrong
        assert first.outcome == DELIVERED

    def test_fault_free_dns_gate_delivers(self, world, stream):
        verdict = world.transport.dns_gate("att", "local", 0.0, stream)
        assert verdict.outcome == DELIVERED

    def test_fault_free_never_times_out(self, world):
        # The seed engine recorded the lognormal tail verbatim; the
        # fault-free transport must not clip it.
        assert not world.transport.dns_timed_out(1e9)


class TestCounters:
    def test_attempts_is_the_outcome_sum(self, world):
        counters = world.transport.counters
        assert counters.attempts == (
            counters.delivered
            + counters.filtered
            + counters.timed_out
            + counters.lost
        )

    def test_as_dict_shape(self, world):
        snapshot = world.transport.counters.as_dict()
        assert set(snapshot) == {
            "delivered", "filtered", "timed_out", "lost", "retries", "attempts",
        }

    def test_note_retry(self, world):
        counters = world.transport.counters
        before = counters.retries
        world.transport.note_retry()
        assert counters.retries == before + 1


class TestAuthorityLink:
    def test_reachable_authority_gets_a_sampler(self, world, origin, stream):
        sampler = world.transport.authority_link(
            origin, world.echo_authority.host.ip, "192.0.2.1"
        )
        assert sampler(stream) > 0

    def test_unreachable_authority_raises_on_use(self, world, origin, stream):
        sampler = world.transport.authority_link(
            origin, UNROUTABLE_IP, "192.0.2.1"
        )
        with pytest.raises(ResolutionError, match="unreachable"):
            sampler(stream)


#: A scenario whose faults are always on: certain loss for T-Mobile
#: pings, a whole-campaign AT&T local-resolver outage.
ALWAYS_ON = FaultScenario(
    name="test-always-on",
    loss_rules=(
        LossRule(rate=1.0, carrier="tmobile", probes=("ping",)),
    ),
    resolver_outages=(
        ResolverOutage(
            resolver_kind="local",
            carrier="att",
            window=Window(0.0, 365 * DAY_S),
        ),
    ),
    policy=ProbePolicy(dns_retries=2, backoff_s=1.0),
)


@pytest.fixture(scope="module")
def faulty_world():
    return build_world(WorldConfig(scenario=ALWAYS_ON))


class TestFaultInjection:
    def test_outage_times_the_dns_gate_out(self, faulty_world, stream):
        verdict = faulty_world.transport.dns_gate("att", "local", 10.0, stream)
        assert verdict.outcome == TIMED_OUT
        assert verdict.fault_induced and verdict.retryable

    def test_outage_is_scoped_to_its_carrier(self, faulty_world, stream):
        verdict = faulty_world.transport.dns_gate(
            "verizon", "local", 10.0, stream
        )
        assert verdict.outcome == DELIVERED

    def test_certain_loss_eats_the_ping(self, faulty_world, stream):
        transport = faulty_world.transport
        origin = faulty_world.vantage.origin(stream)
        verdict = transport.ping(
            origin,
            faulty_world.echo_authority.host.ip,
            stream,
            carrier="tmobile",
            now=0.0,
            probe="ping",
        )
        assert verdict.outcome == LOST
        assert verdict.fault_induced and verdict.retryable

    def test_probe_none_is_fault_exempt(self, faulty_world, stream):
        # Analysis re-probes pass no probe kind and must never draw
        # fault fates, even for a carrier under certain loss.
        origin = faulty_world.vantage.origin(stream)
        verdict = faulty_world.transport.ping(
            origin,
            faulty_world.echo_authority.host.ip,
            stream,
            carrier="tmobile",
            now=0.0,
        )
        assert verdict.outcome == DELIVERED

    def test_timeout_applies_under_faults(self, faulty_world):
        policy = faulty_world.transport.policy
        assert faulty_world.transport.dns_timed_out(policy.dns_timeout_ms + 1)
        assert not faulty_world.transport.dns_timed_out(policy.dns_timeout_ms - 1)


class TestRetryAccounting:
    def test_dns_retries_exhaust_the_policy_budget(self, faulty_world):
        """One outage-bound lookup: hits + retries == attempts."""
        mobility = MobilityModel(
            home_city=city_named("Chicago"),
            candidate_cities=US_CITIES,
            seed=7,
            device_key="retry-dev",
            travel_probability=0.0,
        )
        device = MobileDevice(
            device_id="retry-dev", carrier_key="att", mobility=mobility
        )
        from repro.measure.probes import DeviceProbeSession

        transport = faulty_world.transport
        stream = faulty_world.rng.fork("retry-tests").stream("s")
        session = DeviceProbeSession.begin(
            faulty_world, device, now=0.0, stream=stream
        )
        counters = transport.counters
        base_timed_out = counters.timed_out
        base_retries = counters.retries
        policy = transport.policy

        record = session.dns_local("www.google.com", now=0.0)
        assert record.delivery_outcome == "timed_out"
        assert record.rcode == "TIMEOUT"
        assert record.retries == policy.dns_retries
        # Every attempt (the first send plus each retry) timed out at
        # the gate, and each retry was counted exactly once.
        attempts = counters.timed_out - base_timed_out
        retries = counters.retries - base_retries
        assert retries == policy.dns_retries
        assert attempts == 1 + retries


class TestDeliveryObject:
    def test_slots_and_defaults(self):
        verdict = Delivery(DELIVERED, 12.5)
        assert verdict.rtt_ms == 12.5
        assert verdict.filtered_at is None
        assert not verdict.fault_induced
        with pytest.raises(AttributeError):
            verdict.extra = 1

    def test_retryable_tracks_fault_induced(self):
        assert Delivery(LOST, fault_induced=True).retryable
        assert not Delivery(LOST).retryable
