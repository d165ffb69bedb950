"""Byte-identity of sub-carrier sharded execution.

The contract under test extends the serial determinism tests in
``test_campaign``: with range-scoped DNS caches, :class:`ShardedCampaign`
may split a carrier's device population *mid-carrier* across worker
tasks and still archive the exact bytes the serial walk produces — at
any shard count, via ``run()`` or ``run_streaming()`` (both merge the
workers' JSONL spill files).  The config here forces
mid-carrier splits (``range_size=2`` over carriers of up to 5 devices)
so every shard count exercises the cross-shard merge policy.
"""

import os
import tempfile

import pytest

from repro.core.world import WorldConfig, build_world
from repro.measure.campaign import (
    Campaign,
    CampaignConfig,
    ShardedCampaign,
)
from repro.measure.records import Dataset

#: Mixed odd/even populations with range_size=2: nine device ranges,
#: several of which split a carrier, so shard counts that are not
#: carrier-aligned (3, 7, 13) cut inside carriers.
SMOKE = dict(
    devices_per_carrier={
        "att": 3,
        "sprint": 1,
        "tmobile": 2,
        "verizon": 5,
        "skt": 1,
        "lgu": 1,
    },
    duration_days=6.0,
    interval_hours=24.0,
    range_size=2,
)
SEED = 977


def _world():
    return build_world(WorldConfig(seed=SEED))


def _config():
    return CampaignConfig(**SMOKE)


@pytest.fixture(scope="module")
def serial_dataset():
    return Campaign(_world(), _config()).run()


class TestShardTasks:
    def test_tasks_partition_ranges_in_order(self):
        sharded = ShardedCampaign(_world(), _config(), workers=2, shards=4)
        tasks = sharded.shard_tasks()
        flattened = [r for task in tasks for r in task]
        assert flattened == sharded.ranges
        assert all(task for task in tasks)
        assert len(tasks) == 4

    def test_shard_count_capped_by_range_count(self):
        sharded = ShardedCampaign(_world(), _config(), workers=2, shards=99)
        assert sharded.shards == len(sharded.ranges)
        assert len(sharded.shard_tasks()) == len(sharded.ranges)

    def test_devices_in_ranges_restores_population(self):
        campaign = Campaign(_world(), _config())
        sharded_config = _config()
        ranges = sharded_config.device_ranges(
            sorted({d.carrier_key for d in campaign.devices})
        )
        regrouped = campaign.devices_in_ranges(ranges)
        assert {d.device_id for d in regrouped} == {
            d.device_id for d in campaign.devices
        }

    def test_every_device_carries_its_range_scope(self):
        campaign = Campaign(_world(), _config())
        for device in campaign.devices:
            expected = f"{device.carrier_key}/r{device.device_index // 2}"
            assert device.cache_scope == expected


class TestShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 13])
    def test_any_shard_count_matches_serial_hash(
        self, serial_dataset, shards
    ):
        sharded = ShardedCampaign(
            _world(), _config(), workers=2, shards=shards
        ).run()
        assert sharded.content_hash() == serial_dataset.content_hash()
        assert len(sharded) == len(serial_dataset)

    def test_metadata_records_workers_and_shards(self):
        dataset = ShardedCampaign(
            _world(), _config(), workers=2, shards=3
        ).run()
        assert dataset.metadata["workers"] == 2
        assert dataset.metadata["shards"] == 3

    def test_workers_zero_falls_back_to_serial(self, serial_dataset):
        fallback = ShardedCampaign(
            _world(), _config(), workers=0, shards=3
        ).run()
        assert fallback.content_hash() == serial_dataset.content_hash()
        assert "workers" not in fallback.metadata


class TestStreamingMerge:
    def test_streaming_spill_matches_serial_bytes(self, serial_dataset):
        sharded = ShardedCampaign(_world(), _config(), workers=2, shards=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "campaign.jsonl")
            result = sharded.run_streaming(path)
            assert result["content_hash"] == serial_dataset.content_hash()
            assert result["experiments"] == len(serial_dataset)
            loaded = Dataset.load(path)
        assert loaded.content_hash() == serial_dataset.content_hash()
        assert loaded.metadata["shards"] == 3

    def test_streaming_serial_fallback_matches(self, serial_dataset):
        sharded = ShardedCampaign(_world(), _config(), workers=0, shards=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "campaign.jsonl")
            result = sharded.run_streaming(path)
            assert result["content_hash"] == serial_dataset.content_hash()
            loaded = Dataset.load(path)
        assert loaded.content_hash() == serial_dataset.content_hash()


    def test_tail_reads_a_finished_shard_one_block_at_a_time(self, tmp_path):
        """A shard that finished before the merge reached it stays on
        disk: the parent holds one read block of it, not the file."""
        import tracemalloc
        from concurrent.futures import Future

        from repro.measure.campaign import _TAIL_READ_BYTES, _tail_jsonl_lines

        line = "x" * 99
        count = 50 * _TAIL_READ_BYTES // 100
        path = tmp_path / "shard-0000.jsonl"
        path.write_text((line + "\n") * count)
        finished = Future()
        finished.set_result(count)
        stream = _tail_jsonl_lines(str(path), finished)
        tracemalloc.start()
        try:
            assert next(stream) == line
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _TAIL_READ_BYTES
        assert 1 + sum(1 for _ in stream) == count


class TestParentTakesQueuedShards:
    """A pool smaller than the usable cores leaves the merging parent a
    core: it runs queued shard tasks itself, with unchanged bytes."""

    @staticmethod
    def _cores(monkeypatch, count):
        import repro.measure.campaign as campaign_module

        monkeypatch.setattr(campaign_module, "usable_cores", lambda: count)

    def test_free_core_parent_runs_tasks_and_repeats_identically(
        self, serial_dataset, monkeypatch, tmp_path
    ):
        self._cores(monkeypatch, 2)
        with ShardedCampaign(_world(), _config(), workers=1) as sharded:
            results = [
                sharded.run_streaming(str(tmp_path / f"run-{run}.jsonl"))
                for run in range(3)
            ]
        expected = serial_dataset.content_hash()
        assert [result["content_hash"] for result in results] == [expected] * 3
        assert results[0]["parent_shards"] >= 1
        assert all(
            0 <= result["parent_shards"] < sharded.shards for result in results
        )
        assert "parent_shards" not in results[0]["metadata"]
        loaded = Dataset.load(str(tmp_path / "run-0.jsonl"))
        assert "parent_shards" not in loaded.metadata

    def test_pool_filling_the_cores_leaves_the_parent_merging(
        self, serial_dataset, monkeypatch, tmp_path
    ):
        self._cores(monkeypatch, 2)
        with ShardedCampaign(_world(), _config(), workers=2) as sharded:
            result = sharded.run_streaming(str(tmp_path / "campaign.jsonl"))
        assert result["parent_shards"] == 0
        assert result["content_hash"] == serial_dataset.content_hash()

    def test_parent_spill_error_propagates_and_pool_stays_usable(
        self, serial_dataset, monkeypatch, tmp_path
    ):
        self._cores(monkeypatch, 2)
        spill_root = tmp_path / "spills"
        spill_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill_root))

        def failing_spill(shard, ranges, path, *args):
            raise RuntimeError(f"parent spill of shard {shard} failed")

        with ShardedCampaign(_world(), _config(), workers=1) as sharded:
            sharded.spill_shard = failing_spill
            with pytest.raises(RuntimeError, match="parent spill of shard"):
                sharded.run_streaming(str(tmp_path / "failed.jsonl"))
            assert list(spill_root.glob("repro-shards-*")) == []
            del sharded.spill_shard
            result = sharded.run_streaming(str(tmp_path / "campaign.jsonl"))
            assert sharded.pool_stats["reused"] >= 1
        assert result["content_hash"] == serial_dataset.content_hash()
        assert list(spill_root.glob("repro-shards-*")) == []
