"""Adaptive executor selection (serial vs sharded)."""

import pytest

from repro.core.errors import ConfigError
from repro.measure.campaign import (
    EXECUTOR_CHOICES,
    ExecutorDecision,
    select_executor,
    usable_cores,
)


class TestSelectExecutor:
    def test_explicit_requests_are_honoured(self):
        assert select_executor("serial", cpu_count=32, shard_count=6) == "serial"
        assert select_executor("sharded", cpu_count=1, shard_count=1) == "sharded"

    def test_auto_never_multiprocess_on_one_core(self):
        for shards in (1, 2, 6, 100):
            assert (
                select_executor("auto", cpu_count=1, shard_count=shards)
                == "serial"
            )

    def test_auto_never_multiprocess_with_one_range(self):
        for cores in (1, 2, 64):
            assert (
                select_executor("auto", cpu_count=cores, shard_count=1)
                == "serial"
            )

    def test_auto_shards_with_cores_and_ranges(self):
        # Sub-carrier sharding replaced the per-carrier pick: two cores
        # and two device ranges are enough, and more cores keep scaling
        # (workers size as min(cores, device_ranges), not carriers).
        # Without a campaign-size estimate auto assumes the campaign is
        # large enough to amortize worker bootstrap.
        assert select_executor("auto", cpu_count=2, shard_count=2) == "sharded"
        assert select_executor("auto", cpu_count=8, shard_count=6) == "sharded"
        assert select_executor("auto", cpu_count=64, shard_count=200) == "sharded"

    def test_zero_cpu_count_reported_as_serial(self):
        # os.cpu_count() can return None; callers pass it straight through.
        assert select_executor("auto", cpu_count=0, shard_count=6) == "serial"

    def test_unknown_request_raises(self):
        for name in ("turbo", "parallel"):
            with pytest.raises(ConfigError):
                select_executor(name)

    def test_choices_constant_matches_cli(self):
        assert EXECUTOR_CHOICES == ("auto", "serial", "sharded")


class TestUsableCores:
    def test_counts_the_affinity_mask_not_the_machine(self, monkeypatch):
        import repro.measure.campaign as campaign_module

        # A runner pinned to two of its 16 cores (``taskset -c 0,1``).
        monkeypatch.setattr(
            campaign_module.os, "sched_getaffinity", lambda pid: {0, 1},
            raising=False,
        )
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: 16)
        assert usable_cores() == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        import repro.measure.campaign as campaign_module

        monkeypatch.delattr(campaign_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    def test_auto_and_worker_default_size_from_usable_cores(self, monkeypatch):
        import repro.measure.campaign as campaign_module
        from repro.core.world import WorldConfig, build_world
        from repro.measure.campaign import CampaignConfig, ShardedCampaign

        monkeypatch.setattr(
            campaign_module.os, "sched_getaffinity", lambda pid: {3},
            raising=False,
        )
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: 16)
        assert select_executor("auto", shard_count=6) == "serial"
        config = CampaignConfig(
            devices_per_carrier={
                "att": 2, "sprint": 1, "tmobile": 1,
                "verizon": 1, "skt": 1, "lgu": 1,
            },
            duration_days=1.0,
        )
        campaign = ShardedCampaign(build_world(WorldConfig(seed=5)), config)
        assert campaign.workers == 1


class TestAmortizationDecisionTable:
    """The auto policy across core counts and campaign sizes.

    Explicit ``bootstrap_s``/``per_experiment_s`` pin the estimates so
    the table does not depend on what this process happened to measure.
    """

    COSTS = dict(bootstrap_s=1.0, per_experiment_s=0.001)

    @pytest.mark.parametrize("experiments", [10, 10_000, 10_000_000])
    def test_one_core_is_always_serial(self, experiments):
        decision = select_executor(
            "auto", cpu_count=1, shard_count=8,
            experiments=experiments, **self.COSTS,
        )
        assert decision == "serial"
        assert "single core" in decision.reason

    @pytest.mark.parametrize("cpu_count", [2, 8])
    def test_small_campaigns_stay_serial_on_any_core_count(self, cpu_count):
        # 10 experiments ≈ 0.01s of simulate vs 1s per-worker bootstrap:
        # going multiprocess can only lose.
        decision = select_executor(
            "auto", cpu_count=cpu_count, shard_count=8,
            experiments=10, **self.COSTS,
        )
        assert decision == "serial"
        assert "amortize" in decision.reason

    @pytest.mark.parametrize("cpu_count", [2, 8])
    def test_large_campaigns_shard_on_multi_core(self, cpu_count):
        # 10k experiments ≈ 10s of simulate clears the 2x bootstrap bar.
        decision = select_executor(
            "auto", cpu_count=cpu_count, shard_count=8,
            experiments=10_000, **self.COSTS,
        )
        assert decision == "sharded"

    def test_threshold_scales_with_bootstrap_cost(self):
        # The same campaign flips to serial when bootstrap is pricier —
        # the measured-bootstrap recalibration in action.
        base = dict(cpu_count=8, shard_count=8, experiments=3_000,
                    per_experiment_s=0.001)
        assert select_executor("auto", bootstrap_s=1.0, **base) == "sharded"
        assert select_executor("auto", bootstrap_s=2.0, **base) == "serial"

    def test_decision_reports_its_inputs(self):
        decision = select_executor(
            "auto", cpu_count=8, shard_count=4,
            experiments=10_000, **self.COSTS,
        )
        assert isinstance(decision, ExecutorDecision)
        assert decision.executor == "sharded"
        assert decision.cpu_count == 8
        assert decision.shard_count == 4
        assert decision.bootstrap_s == 1.0
        assert decision.simulate_s == pytest.approx(10.0)
        described = decision.describe()
        assert described.startswith("executor sharded:")
        assert "bootstrap" in described

    def test_decision_is_a_plain_string_value(self):
        decision = select_executor("serial", cpu_count=1, shard_count=1)
        assert decision == "serial"
        assert str(decision) == "serial"
        assert decision.reason == "explicit request"


class TestDeviceRanges:
    def test_ranges_partition_population(self):
        from repro.measure.campaign import CampaignConfig

        config = CampaignConfig(
            devices_per_carrier={"att": 5, "verizon": 7}, range_size=3
        )
        ranges = config.device_ranges(["att", "verizon"])
        assert [(r.carrier_key, r.index, r.start, r.stop) for r in ranges] == [
            ("att", 0, 0, 3),
            ("att", 1, 3, 5),
            ("verizon", 0, 0, 3),
            ("verizon", 1, 3, 6),
            ("verizon", 2, 6, 7),
        ]
        assert [r.scope for r in ranges[:2]] == ["att/r0", "att/r1"]

    def test_ranges_independent_of_shard_count(self):
        # Shards only group ranges; boundaries come from the config.
        from repro.measure.campaign import CampaignConfig

        config = CampaignConfig(device_scale=1.0, range_size=32)
        keys = ["att", "sprint", "tmobile", "verizon", "skt", "lgu"]
        assert config.device_ranges(keys) == config.device_ranges(keys)


class TestStudyExecutor:
    def test_study_resolves_executor(self, monkeypatch):
        import repro.measure.campaign as campaign_module
        from repro import CellularDNSStudy, StudyConfig

        monkeypatch.setattr(campaign_module, "usable_cores", lambda: 1)
        study = CellularDNSStudy(StudyConfig.smoke_scale())
        assert study.executor == "serial"
        assert type(study.campaign).__name__ == "Campaign"

    def test_study_workers_do_not_force_parallel_on_one_core(self, monkeypatch):
        import repro.measure.campaign as campaign_module
        from repro import CellularDNSStudy, StudyConfig

        monkeypatch.setattr(campaign_module, "usable_cores", lambda: 1)
        config = StudyConfig.smoke_scale()
        config.workers = 4
        study = CellularDNSStudy(config)
        assert study.executor == "serial"

    def test_study_auto_shards_on_multi_core(self, monkeypatch):
        import repro.measure.campaign as campaign_module
        from repro import CellularDNSStudy, StudyConfig
        from repro.measure.campaign import ShardedCampaign

        monkeypatch.setattr(campaign_module, "usable_cores", lambda: 4)
        # The default study scale (~5k experiments) is big enough to
        # amortize worker bootstrap; smoke scale is not (tested below).
        study = CellularDNSStudy(StudyConfig())
        assert study.executor == "sharded"
        assert isinstance(study.campaign, ShardedCampaign)
        # Workers size from cores and ranges, not the carrier count.
        assert study.campaign.workers == min(4, len(study.campaign.ranges))

    def test_study_auto_keeps_tiny_campaigns_serial_on_multi_core(
        self, monkeypatch
    ):
        import repro.measure.campaign as campaign_module
        from repro import CellularDNSStudy, StudyConfig

        monkeypatch.setattr(campaign_module, "usable_cores", lambda: 4)
        study = CellularDNSStudy(StudyConfig.smoke_scale())
        # Cores are available, but a smoke campaign finishes serially
        # faster than the workers could even boot.
        assert study.executor == "serial"
        assert "amortize" in study.executor_decision.reason

    def test_study_explicit_serial(self):
        from repro import CellularDNSStudy, StudyConfig

        config = StudyConfig.smoke_scale()
        config.executor = "serial"
        study = CellularDNSStudy(config)
        assert study.executor == "serial"

    def test_study_explicit_sharded_with_shards(self):
        from repro import CellularDNSStudy, StudyConfig
        from repro.measure.campaign import ShardedCampaign

        config = StudyConfig.smoke_scale()
        config.executor = "sharded"
        config.workers = 2
        config.shards = 3
        study = CellularDNSStudy(config)
        assert study.executor == "sharded"
        assert isinstance(study.campaign, ShardedCampaign)
        assert study.campaign.workers == 2
        assert study.campaign.shards == min(3, len(study.campaign.ranges))


class TestCliExecutorFlag:
    def test_run_parser_accepts_executor(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--executor", "serial", "-o", "x.jsonl"]
        )
        assert args.executor == "serial"

    def test_run_parser_accepts_sharded_executor_and_shards(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--executor", "sharded", "--shards", "7", "-o", "x.jsonl"]
        )
        assert args.executor == "sharded"
        assert args.shards == 7

    def test_run_parser_rejects_unknown_executor(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--executor", "turbo"])

    def test_bench_parser_accepts_smoke(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--smoke"])
        assert args.smoke is True
        assert args.output is None
