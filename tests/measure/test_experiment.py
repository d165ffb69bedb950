"""The full experiment script."""

import pytest

from repro.cellnet.device import MobileDevice
from repro.cellnet.mobility import MobilityModel
from repro.core.world import WorldConfig, _is_pristine, build_world, snapshot_world
from repro.measure.campaign import Campaign, CampaignConfig
from repro.measure.experiment import ExperimentOptions, ExperimentRunner
from repro.measure.probes import DeviceProbeSession
from repro.geo.regions import US_CITIES, city_named


@pytest.fixture()
def device(world):
    mobility = MobilityModel(
        home_city=city_named("Dallas"),
        candidate_cities=US_CITIES,
        seed=31,
        device_key="exp-dev",
        travel_probability=0.0,
    )
    return MobileDevice(device_id="exp-dev", carrier_key="verizon", mobility=mobility)


@pytest.fixture()
def record(world, device):
    runner = ExperimentRunner(world)
    return runner.run(device, started_at=0.0, sequence=0)


class TestExperimentStructure:
    def test_metadata(self, record):
        assert record.carrier == "verizon"
        assert record.country == "US"
        assert record.technology
        assert record.client_ip

    def test_bootstrap_ping_first(self, record):
        assert record.pings[0].target_kind == "bootstrap"

    def test_nine_domains_three_resolvers(self, record):
        domains = {r.domain for r in record.resolutions}
        assert len(domains) == 9
        kinds = {r.resolver_kind for r in record.resolutions}
        assert kinds == {"local", "google", "opendns"}

    def test_double_local_queries(self, record):
        for domain in {r.domain for r in record.resolutions}:
            attempts = [
                r.attempt
                for r in record.resolutions
                if r.domain == domain and r.resolver_kind == "local"
            ]
            assert sorted(attempts) == [1, 2]

    def test_replicas_probed(self, record):
        replica_pings = [p for p in record.pings if p.target_kind == "replica"]
        assert replica_pings
        assert record.http_gets
        probed = {p.target_ip for p in replica_pings}
        fetched = {h.replica_ip for h in record.http_gets}
        assert probed == fetched

    def test_resolver_ids_for_all_kinds(self, record):
        kinds = {r.resolver_kind for r in record.resolver_ids}
        assert kinds == {"local", "google", "opendns"}

    def test_egress_traceroute_present(self, record):
        kinds = [t.target_kind for t in record.traceroutes]
        assert "egress-discovery" in kinds

    def test_verizon_external_resolver_silent_to_clients(self, record):
        # Fig 4: Verizon's external tier never answers client pings.
        external_pings = [
            p for p in record.pings
            if p.target_kind == "resolver-external-facing"
        ]
        assert external_pings
        assert all(p.rtt_ms is None for p in external_pings)


class TestExperimentOptions:
    def test_disable_double_query(self, world, device):
        runner = ExperimentRunner(world, ExperimentOptions(double_query=False))
        record = runner.run(device, started_at=0.0, sequence=1)
        assert all(r.attempt == 1 for r in record.resolutions)

    def test_domain_subset(self, world, device):
        runner = ExperimentRunner(
            world, ExperimentOptions(domains=["m.yelp.com"])
        )
        record = runner.run(device, started_at=0.0, sequence=2)
        assert {r.domain for r in record.resolutions} == {"m.yelp.com"}

    def test_disable_replica_probes(self, world, device):
        runner = ExperimentRunner(
            world, ExperimentOptions(probe_replicas=False)
        )
        record = runner.run(device, started_at=0.0, sequence=3)
        assert record.http_gets == []

    def test_cap_replica_probes(self, world, device):
        runner = ExperimentRunner(
            world, ExperimentOptions(max_replica_probes=2)
        )
        record = runner.run(device, started_at=0.0, sequence=4)
        assert len(record.http_gets) <= 2

    def test_reproducible_across_fresh_worlds(self):
        # Replaying in one world differs (resolver caches advance);
        # determinism is defined over fresh worlds with the same seed.
        from repro.core.world import build_world

        def run_once():
            world = build_world()
            mobility = MobilityModel(
                home_city=city_named("Dallas"),
                candidate_cities=US_CITIES,
                seed=31,
                device_key="exp-dev",
                travel_probability=0.0,
            )
            fresh = MobileDevice(
                device_id="exp-dev", carrier_key="verizon", mobility=mobility
            )
            return ExperimentRunner(world).run(fresh, started_at=7200.0, sequence=9)

        assert run_once() == run_once()


class _RecordingSession(DeviceProbeSession):
    """Keeps every session it opens, so tests can inspect them."""

    opened: list = []

    @classmethod
    def begin(cls, world, device, now, stream):
        session = super().begin(world, device, now, stream)
        cls.opened.append(session)
        return session


class TestPerExperimentState:
    """What one experiment builds dies with it; what it counted does not."""

    TINY = dict(device_scale=0.05, duration_days=2.0, interval_hours=24.0)

    def test_pool_stats_count_every_experiment_stream(self, monkeypatch):
        monkeypatch.setattr(_RecordingSession, "opened", [])
        world = build_world(WorldConfig(seed=2014))
        campaign = Campaign(world, CampaignConfig(**self.TINY))
        campaign.runner.session_class = _RecordingSession
        dataset = campaign.run()
        streams = [session.stream for session in _RecordingSession.opened]
        assert len(streams) == len(dataset.experiments) > 0
        streams += world.rng._streams.values()
        stats = world.rng.pool_stats()
        assert stats["streams"] == len(streams)
        assert stats["pool_refills"] == sum(s.pool_refills for s in streams)
        assert stats["pool_uniforms"] == sum(s.pool_generated for s in streams)
        assert stats["pool_hits"] == sum(s.pool_hits for s in streams)
        assert stats["weighted_memo_entries"] == sum(
            len(s._cum_memo) for s in streams
        )
        assert stats["pool_refills"] >= len(dataset.experiments)

    def test_world_after_one_experiment_is_not_pristine(self, device):
        # A seed no other test snapshots, so the config-keyed snapshot
        # cache cannot answer first.
        world = build_world(WorldConfig(seed=432102))
        assert _is_pristine(world)
        ExperimentRunner(world).run(device, started_at=0.0, sequence=0)
        assert not _is_pristine(world)
        assert snapshot_world(world) is None

    def test_registry_does_not_grow_with_experiments(self, device):
        world = build_world(WorldConfig(seed=2014))
        runner = ExperimentRunner(world)
        runner.run(device, started_at=0.0, sequence=0)
        kept = list(world.rng.known_streams())
        for sequence in range(1, 6):
            runner.run(device, started_at=3600.0 * sequence, sequence=sequence)
        assert list(world.rng.known_streams()) == kept
        assert world.rng.lent == 6

    def test_leg_memo_is_per_session(self, monkeypatch):
        monkeypatch.setattr(_RecordingSession, "opened", [])
        world = build_world(WorldConfig(seed=2014))
        campaign = Campaign(world, CampaignConfig(**self.TINY))
        campaign.runner.session_class = _RecordingSession
        campaign.run()
        memos = [session._leg_memo for session in _RecordingSession.opened]
        assert any(memos)
        assert len({id(memo) for memo in memos}) == len(memos)
        assert not hasattr(world.internet, "_probe_leg_memo")
