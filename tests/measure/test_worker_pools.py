"""Warm worker pools: snapshot boots, contexts, reuse, repeated runs.

The multiprocess executors' contract is *byte identity under every
mechanism*: snapshot-booted workers vs rebuilt workers, fork vs spawn
start methods, any shard count, first run or fifteenth — all must
reproduce the serial campaign's bytes exactly.  These tests pin each
mechanism separately, plus the order-independence of CDN mapping
decisions that repeated-run determinism rests on.
"""

import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.world import (
    WorldConfig,
    boot_world,
    build_world,
    snapshot_world,
)
from repro.measure.campaign import (
    Campaign,
    CampaignConfig,
    ShardedCampaign,
    resolve_mp_context,
)

TINY = dict(device_scale=0.05, duration_days=4.0, interval_hours=24.0)

AVAILABLE_CONTEXTS = multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    "fork" not in AVAILABLE_CONTEXTS,
    reason="fork start method unavailable on this platform",
)


def _tiny_config() -> CampaignConfig:
    return CampaignConfig(**TINY)


@pytest.fixture(scope="module")
def serial_golden():
    """The tiny-scale serial campaign hash every executor must match."""
    campaign = Campaign(build_world(WorldConfig(seed=2014)), _tiny_config())
    return campaign.run().content_hash()


class TestSnapshotBootstrap:
    def test_pristine_world_snapshots(self):
        world = build_world(WorldConfig(seed=2014))
        snapshot = snapshot_world(world)
        assert snapshot is not None
        assert len(snapshot) > 0

    def test_used_world_refuses_to_snapshot(self):
        # A snapshot must capture first-run state; drawing from the
        # world moves it past that, so the snapshot layer refuses
        # (callers then ship the config and workers rebuild).  The seed
        # is one no other test snapshots, so the config-keyed cache
        # cannot satisfy the call first.
        world = build_world(WorldConfig(seed=432101))
        world.rng.stream("experiment", "probe", 0).random()
        assert snapshot_world(world) is None

    def test_boot_world_falls_back_without_snapshot(self):
        world, mode = boot_world(None, WorldConfig(seed=2014))
        assert mode == "rebuild"
        assert world.config.seed == 2014

    def test_boot_world_prefers_snapshot(self):
        config = WorldConfig(seed=2014)
        snapshot = snapshot_world(build_world(config))
        world, mode = boot_world(snapshot, config)
        assert mode == "snapshot"
        assert world.config.seed == 2014

    def test_garbage_snapshot_falls_back_to_rebuild(self):
        world, mode = boot_world(b"not a pickle", WorldConfig(seed=2014))
        assert mode == "rebuild"
        assert world.config.seed == 2014

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ecs=st.booleans(),
    )
    def test_snapshot_boot_and_rebuild_spill_identical_shard_jsonl(
        self, seed, ecs
    ):
        """The byte-identity assertion between worker boot modes.

        A snapshot-booted worker and a ``build_world`` worker must
        serialise identical shard JSONL for any world config — this is
        what makes the snapshot path an optimisation rather than a
        behaviour change.
        """
        config = WorldConfig(seed=seed, ecs_enabled=ecs)
        snapshot = snapshot_world(build_world(config))
        assert snapshot is not None
        booted, mode = boot_world(snapshot, config)
        assert mode == "snapshot"
        booted_campaign = Campaign(booted, _tiny_config())
        rebuilt_campaign = Campaign(build_world(config), _tiny_config())
        ranges = booted_campaign.config.device_ranges(
            list(booted_campaign.world.operators)
        )
        shard = ranges[: max(1, len(ranges) // 2)]
        booted_lines = [
            record.to_json_line()
            for record in booted_campaign._iter_execute(
                booted_campaign.devices_in_ranges(shard)
            )
        ]
        rebuilt_lines = [
            record.to_json_line()
            for record in rebuilt_campaign._iter_execute(
                rebuilt_campaign.devices_in_ranges(shard)
            )
        ]
        assert booted_lines == rebuilt_lines

    @settings(max_examples=2, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        context=st.sampled_from(
            [c for c in ("fork", "spawn") if c in AVAILABLE_CONTEXTS]
        ),
    )
    def test_snapshot_booted_pool_matches_rebuilt_serial(self, seed, context):
        """End-to-end: snapshot-booted workers vs a rebuilt serial world.

        The pool initializer ships the parent's snapshot, so every
        worker world is pickle-booted; the serial reference rebuilds
        from the config.  Their campaign bytes must agree for any seed
        under both fork and spawn (fork drops out of the strategy on
        platforms without it).
        """
        config = WorldConfig(seed=seed)
        golden = Campaign(build_world(config), _tiny_config()).run()
        with ShardedCampaign(
            build_world(config),
            _tiny_config(),
            workers=2,
            shards=2,
            mp_context=context,
        ) as campaign:
            assert campaign.world_snapshot is not None
            assert campaign.run().content_hash() == golden.content_hash()


class TestMpContexts:
    def test_auto_resolves_to_an_available_method(self):
        assert resolve_mp_context("auto") in AVAILABLE_CONTEXTS

    def test_spawn_is_always_available(self):
        assert resolve_mp_context("spawn") == "spawn"

    def test_unknown_context_rejected(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError):
            resolve_mp_context("thread")

    @pytest.mark.parametrize(
        "context",
        [
            pytest.param("fork", marks=needs_fork),
            "spawn",
        ],
    )
    def test_contexts_produce_identical_bytes(self, context, serial_golden):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
            mp_context=context,
        ) as campaign:
            assert campaign.mp_context == context
            assert campaign.run().content_hash() == serial_golden


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 13])
    def test_any_shard_count_matches_serial(self, shards, serial_golden):
        # shards beyond the range count clamp (7 and 13 exercise that);
        # shards=1 exercises the serial fallback inside the sharded
        # executor.  Bytes must never move.
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=shards,
        ) as campaign:
            with tempfile.TemporaryDirectory() as tmp:
                output = os.path.join(tmp, "campaign.jsonl")
                result = campaign.run_streaming(output)
            assert result["content_hash"] == serial_golden


class TestWarmPoolLifecycle:
    def test_second_run_reuses_the_pool(self, serial_golden):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
        ) as campaign:
            assert campaign.run().content_hash() == serial_golden
            assert campaign.pool_stats == {"created": 1, "reused": 0}
            assert campaign.run().content_hash() == serial_golden
            assert campaign.pool_stats == {"created": 1, "reused": 1}

    def test_streaming_and_in_memory_share_one_pool(self, serial_golden):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
        ) as campaign:
            with tempfile.TemporaryDirectory() as tmp:
                result = campaign.run_streaming(
                    os.path.join(tmp, "campaign.jsonl")
                )
            assert result["content_hash"] == serial_golden
            assert campaign.run().content_hash() == serial_golden
            assert campaign.pool_stats == {"created": 1, "reused": 1}

    def test_close_is_idempotent_and_reopens_on_demand(self, serial_golden):
        campaign = ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
        )
        try:
            campaign.run()
            campaign.close()
            campaign.close()
            assert campaign._executor is None
            # A run after close transparently builds a fresh pool.
            assert campaign.run().content_hash() == serial_golden
            assert campaign.pool_stats["created"] == 2
        finally:
            campaign.close()

    def test_context_manager_closes_the_pool(self):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
        ) as campaign:
            campaign.run()
            assert campaign._executor is not None
        assert campaign._executor is None

    def test_two_runs_share_one_pool(self, serial_golden):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)), _tiny_config(), workers=2
        ) as campaign:
            assert campaign.run().content_hash() == serial_golden
            assert campaign.run().content_hash() == serial_golden
            assert campaign.pool_stats == {"created": 1, "reused": 1}


class TestRepeatedRunsAreIdempotent:
    """Regression: repeated runs on one campaign object must not drift.

    The historical flake: repeated ``run_streaming`` calls on one
    :class:`ShardedCampaign` could hash differently because per-run
    task→worker assignment leaked into CDN mapping decisions (the /24
    anchor-order dependence, fixed by canonical block anchors) and
    because workers kept mutated state between runs (fixed by run
    tokens re-booting pristine campaigns).
    """

    def test_repeated_streaming_runs_hash_identically(self, serial_golden):
        with ShardedCampaign(
            build_world(WorldConfig(seed=2014)),
            _tiny_config(),
            workers=2,
            shards=3,
        ) as campaign:
            hashes = []
            for _ in range(3):
                with tempfile.TemporaryDirectory() as tmp:
                    result = campaign.run_streaming(
                        os.path.join(tmp, "campaign.jsonl")
                    )
                hashes.append(result["content_hash"])
        assert hashes == [serial_golden] * 3

    def test_repeated_serial_runs_hash_identically(self, serial_golden):
        campaign = Campaign(build_world(WorldConfig(seed=2014)), _tiny_config())
        assert campaign.run().content_hash() == serial_golden
        assert campaign.run().content_hash() == serial_golden

    def test_mixed_run_and_streaming_hash_identically(self, serial_golden):
        campaign = Campaign(build_world(WorldConfig(seed=2014)), _tiny_config())
        assert campaign.run().content_hash() == serial_golden
        with tempfile.TemporaryDirectory() as tmp:
            result = campaign.run_streaming(os.path.join(tmp, "campaign.jsonl"))
        assert result["content_hash"] == serial_golden


class TestMappingOrderIndependence:
    """The root cause of the repeated-run flake, pinned at its layer."""

    def test_canonical_anchor_is_constant_across_a_block(self):
        from repro.core.addressing import prefix24

        world = build_world(WorldConfig(seed=2014))
        blocks = {}
        for host in world.internet.hosts():
            blocks.setdefault(prefix24(host.ip), []).append(host.ip)
        multi = next(ips for ips in blocks.values() if len(ips) >= 2)
        anchors = {world.canonical_resolver_anchor(ip) for ip in multi}
        # Every member of a /24 canonicalises to one representative, so
        # whichever resolver queries first, the CDN decides for the
        # same anchor — decisions cannot encode arrival order.
        assert len(anchors) == 1
        assert anchors.pop() in multi

    def test_range_execution_order_cannot_move_bytes(self, serial_golden):
        """Execute ranges forward and reversed; merged bytes must agree.

        This is the in-process reconstruction of the flake: different
        shard→worker assignments present device ranges to the CDN in
        different orders, which only yields identical datasets if
        mapping decisions are order-independent.
        """
        import heapq

        from repro.measure.records import Dataset, record_event_key

        def merged_hash(reverse: bool) -> str:
            campaign = Campaign(
                build_world(WorldConfig(seed=2014)), _tiny_config()
            )
            ranges = campaign.config.device_ranges(
                list(campaign.world.operators)
            )
            if reverse:
                ranges = list(reversed(ranges))
            streams = [
                list(campaign._iter_execute(campaign.devices_in_ranges([item])))
                for item in ranges
            ]
            merged = list(heapq.merge(*streams, key=record_event_key))
            return Dataset(
                experiments=merged, metadata={}
            ).content_hash()

        forward = merged_hash(reverse=False)
        reverse = merged_hash(reverse=True)
        assert forward == reverse == serial_golden


class TestCliAutoExecutorLogging:
    def test_run_logs_the_auto_decision(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "campaign.jsonl"
        status = main([
            "run",
            "--scale", "0.05",
            "--days", "4",
            "--interval-hours", "24",
            "--output", str(output),
        ])
        assert status == 0
        err = capsys.readouterr().err
        assert "executor " in err
        # The reasoning names the decision inputs, not just the choice.
        assert "bootstrap" in err or "core" in err or "range" in err
