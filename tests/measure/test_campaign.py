"""Campaign runner."""

import pytest

from repro.core.errors import ConfigError
from repro.core.world import WorldConfig, build_world
from repro.measure.campaign import Campaign, CampaignConfig, PAPER_CLIENT_COUNTS


def _tiny_config(**overrides):
    defaults = dict(
        device_scale=0.0,
        min_devices=1,
        duration_days=2.0,
        interval_hours=12.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestPopulation:
    def test_paper_counts_total_158(self):
        assert sum(PAPER_CLIENT_COUNTS.values()) == 158

    def test_min_devices_floor(self, world):
        campaign = Campaign(world, _tiny_config())
        for carrier in world.operators:
            assert len(campaign.devices_of(carrier)) == 1

    def test_scaling(self, world):
        campaign = Campaign(world, _tiny_config(device_scale=0.5))
        assert len(campaign.devices_of("verizon")) == 32
        assert len(campaign.devices_of("lgu")) == 2

    def test_devices_live_in_their_market(self, world):
        campaign = Campaign(world, _tiny_config(device_scale=0.2))
        from repro.geo.regions import Country

        for device in campaign.devices_of("skt"):
            assert device.mobility.home_city.country is Country.SOUTH_KOREA
        for device in campaign.devices_of("att"):
            assert device.mobility.home_city.country is Country.US

    def test_unknown_carrier_rejected(self, world):
        config = _tiny_config(devices_per_carrier={"att": 1})
        with pytest.raises(ConfigError):
            Campaign(world, config)


class TestExecution:
    def test_run_produces_all_carriers(self):
        world = build_world()
        campaign = Campaign(world, _tiny_config())
        dataset = campaign.run()
        assert set(dataset.carriers()) == set(world.operators)
        assert dataset.metadata["devices"] == 6
        assert dataset.metadata["experiments"] == len(dataset)

    def test_experiments_time_ordered(self):
        world = build_world()
        campaign = Campaign(world, _tiny_config())
        dataset = campaign.run()
        times = [record.started_at for record in dataset]
        assert times == sorted(times)

    def test_deterministic_across_worlds(self):
        first = Campaign(build_world(), _tiny_config()).run()
        second = Campaign(build_world(), _tiny_config()).run()
        assert first.experiments == second.experiments


#: Small but multi-carrier: every carrier contributes devices, several
#: experiments interleave per device, public-DNS probes run.
SMOKE = dict(device_scale=0.02, duration_days=6.0, interval_hours=24.0)
SEED = 977


def _world():
    return build_world(WorldConfig(seed=SEED))


def _config():
    return CampaignConfig(**SMOKE)


@pytest.fixture(scope="module")
def serial_dataset():
    return Campaign(_world(), _config()).run()


class TestSerialDeterminism:
    def test_two_runs_bit_identical(self, serial_dataset):
        again = Campaign(_world(), _config()).run()
        assert again.content_hash() == serial_dataset.content_hash()
        # Hash equality must mean line equality, not just luck.
        assert [r.to_json() for r in again] == [
            r.to_json() for r in serial_dataset
        ]

    def test_globally_time_ordered(self, serial_dataset):
        keys = [(r.started_at, r.device_id) for r in serial_dataset]
        assert keys == sorted(keys)

    def test_all_carriers_present(self, serial_dataset):
        assert set(serial_dataset.by_carrier()) == {
            "att", "sprint", "tmobile", "verizon", "skt", "lgu",
        }
