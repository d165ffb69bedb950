"""Fault scenarios end to end, and the byte-identity contract.

Two commitments from the transport refactor, pinned here:

* **Byte identity** — a fault-free campaign (no scenario, or the
  bundled ``baseline``) hashes byte-identically to the pre-transport
  engine; the tiny-scale goldens below were recorded against it.
* **Scenarios bite** — each bundled fault scenario shifts the dataset
  and leaves the documented artifacts (fault outcomes on the wire,
  retry counters, degraded radio epochs).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CellularDNSStudy, StudyConfig
from repro.core.faults import BUNDLED_SCENARIOS, load_scenario
from repro.core.world import WorldConfig
from repro.measure import records

#: Tiny-scale campaign goldens (device_scale=0.05, 4 days, 24 h
#: interval).  A fault-free campaign must keep reproducing them byte
#: for byte.  Re-recorded (seeds 2014, 99) when CDN /24 mapping
#: decisions became order-independent: the old bytes encoded whichever
#: resolver queried each /24 first, the order-dependence that made
#: shard-order a hash hazard.
TINY_GOLDEN_HASHES = {
    2014: "f572f84c1dab854d4183ef48fe62930684ff40a437784ef62a6e0cb897a5b5bf",
    7: "6a272ae6d07a34961638c8fe7f8dc37d100b2d42a2b5fe4af5f72e739c8ffc4d",
    99: "d247105c1b5868fe403354aee2be8e37c4f3102486dfd899332298e339392750",
}

#: Tiny-scale goldens of each bundled fault scenario (same campaign as
#: ``TINY_GOLDEN_HASHES``).  They pin the probe bodies' behaviour under
#: faults: gate verdicts, drop draws, retries and timeouts.
SCENARIO_GOLDEN_HASHES = {
    "resolver-outage": {
        2014: "9b7e7574202f4819e2a4c0a9abe53f10d79a2b31744993d491cb4297b33bc761",
        7: "1de5efe05e3a303754e48eb39d4142c95ba15bffe49d23294c460b6a613ff351",
        99: "7edf5f33c834236ad50304a26427a1d2097f08c22bb948297ee20a487c44309f",
    },
    "lossy-2g": {
        2014: "427ff0f0abf5949b0e384022c7920a5aa5b67bf7fe02b1455c793b6eda67f59e",
        7: "0c8772ddd1dd27d1e6e08007887189e96f5b386acd4d63796cf9a625474f7360",
        99: "39b5ed59dbb2d20cbe2f7510cd9bec3b2ed328154377fcc595b05d9f4e61ef79",
    },
    "egress-failover": {
        2014: "a0619eab91b3ade23352b5dc59797a67913135da6a08cf100c94da3e9d9a7e20",
        7: "ee6c2ec728d0857a6e0443205325da70f247730195a64ac1e6efc3b9a4e75ad2",
        99: "f8ff4f87642d315a1ed7e76410ef60d762419554c494ec45678b169202e00760",
    },
}

#: ``TransportCounters.as_dict()`` after the seed-2014 tiny run of each
#: bundled fault scenario: every send and retry is counted exactly once.
SCENARIO_COUNTERS = {
    "resolver-outage": {
        "delivered": 4437, "filtered": 0, "timed_out": 241, "lost": 0,
        "retries": 152, "attempts": 4678,
    },
    "lossy-2g": {
        "delivered": 4540, "filtered": 0, "timed_out": 13, "lost": 188,
        "retries": 169, "attempts": 4741,
    },
    "egress-failover": {
        "delivered": 4563, "filtered": 0, "timed_out": 13, "lost": 0,
        "retries": 0, "attempts": 4576,
    },
}

#: Content hash of the lossy-2g campaign at the paper's Table-1
#: population (device_scale=1.0), 4 days, 12 h interval, seed 2014:
#: the same value as ``LOSSY_4D_GOLDEN`` in ``perfbench/workloads.py``.
LOSSY_4D_GOLDEN = "780b3acd408aba9f3760bd5014848be5f8fcb9053d5cf7413ab53628c5a19117"


def _tiny_study(seed: int, scenario=None) -> CellularDNSStudy:
    world = WorldConfig(seed=seed)
    if scenario is not None:
        world.scenario = load_scenario(scenario)
    return CellularDNSStudy(
        StudyConfig(
            seed=seed,
            device_scale=0.05,
            duration_days=4.0,
            interval_hours=24.0,
            world=world,
        )
    )


def _tiny_hash(seed: int, scenario=None) -> str:
    return _tiny_study(seed, scenario).dataset.content_hash()


class TestByteIdentity:
    @pytest.mark.parametrize("serializer", ["default", "stdlib"])
    @pytest.mark.parametrize("seed", sorted(TINY_GOLDEN_HASHES))
    def test_fault_free_matches_the_pre_transport_golden(
        self, seed, serializer, monkeypatch
    ):
        if serializer == "stdlib":
            # Force the stdlib encoder fallback: the orjson fast path
            # (when installed) and the fallback must write equal bytes.
            monkeypatch.setattr(records, "_orjson_dumps", None)
        assert _tiny_hash(seed) == TINY_GOLDEN_HASHES[seed]

    def test_baseline_scenario_is_the_fault_free_engine(self):
        assert _tiny_hash(2014, "baseline") == TINY_GOLDEN_HASHES[2014]

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_baseline_equals_no_scenario_for_any_seed(self, seed):
        # The policy-only baseline scenario must never perturb a draw.
        assert _tiny_hash(seed, "baseline") == _tiny_hash(seed)


class TestScenarioGoldens:
    @pytest.mark.parametrize(
        "scenario,seed",
        [
            (scenario, seed)
            for scenario, hashes in sorted(SCENARIO_GOLDEN_HASHES.items())
            for seed in sorted(hashes)
        ],
    )
    def test_scenario_matches_its_golden(self, scenario, seed):
        assert _tiny_hash(seed, scenario) == SCENARIO_GOLDEN_HASHES[scenario][seed]

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_COUNTERS))
    def test_scenario_transport_counters(self, scenario):
        study = _tiny_study(2014, scenario)
        study.dataset
        counters = study.campaign.world.transport.counters
        assert counters.as_dict() == SCENARIO_COUNTERS[scenario]

    def test_lossy_table1_four_days_matches_its_golden(self):
        world = WorldConfig(seed=2014)
        world.scenario = load_scenario("lossy-2g")
        study = CellularDNSStudy(
            StudyConfig(
                seed=2014,
                device_scale=1.0,
                duration_days=4.0,
                interval_hours=12.0,
                executor="serial",
                world=world,
            )
        )
        assert study.dataset.content_hash() == LOSSY_4D_GOLDEN


@pytest.fixture(scope="module")
def baseline_hash():
    return _tiny_hash(2014)


class TestBundledScenariosShiftTheDataset:
    @pytest.fixture(scope="class")
    def outage_study(self):
        return _tiny_study(2014, "resolver-outage")

    @pytest.fixture(scope="class")
    def lossy_study(self):
        return _tiny_study(2014, "lossy-2g")

    def test_resolver_outage(self, outage_study, baseline_hash):
        dataset = outage_study.dataset
        assert dataset.content_hash() != baseline_hash
        window = BUNDLED_SCENARIOS["resolver-outage"].resolver_outages[0].window
        faulted = [
            resolution
            for record in dataset
            if record.carrier == "att" and window.contains(record.started_at)
            for resolution in record.resolutions
            if resolution.resolver_kind == "local"
        ]
        assert faulted
        # Local lookups inside the outage window time out after
        # exhausting the retry budget; the failure reaches the wire.
        policy = outage_study.config.world.scenario.policy
        assert all(r.delivery_outcome == "timed_out" for r in faulted)
        assert all(r.rcode == "TIMEOUT" for r in faulted)
        assert all(r.retries == policy.dns_retries for r in faulted)
        counters = outage_study.campaign.world.transport.counters
        assert counters.timed_out > 0
        assert counters.retries > 0

    def test_resolver_outage_spares_other_carriers(
        self, outage_study, baseline_hash
    ):
        dataset = outage_study.dataset
        others = [
            resolution
            for record in dataset
            if record.carrier != "att"
            for resolution in record.resolutions
        ]
        assert all(r.delivery_outcome != "timed_out" for r in others)

    def test_lossy_2g(self, lossy_study, baseline_hash):
        dataset = lossy_study.dataset
        assert dataset.content_hash() != baseline_hash
        window = BUNDLED_SCENARIOS["lossy-2g"].degraded_epochs[0].window
        in_window = [
            record
            for record in dataset
            if record.carrier == "tmobile" and window.contains(record.started_at)
        ]
        assert in_window
        # The degraded epoch pins every in-window T-Mobile session to EDGE.
        assert all(record.technology == "EDGE" for record in in_window)
        counters = lossy_study.campaign.world.transport.counters
        assert counters.lost > 0
        assert counters.retries > 0

    def test_egress_failover(self, baseline_hash):
        assert _tiny_hash(2014, "egress-failover") != baseline_hash

    def test_fault_free_counters_record_no_faults(self):
        study = _tiny_study(2014)
        study.dataset
        counters = study.campaign.world.transport.counters
        assert counters.lost == 0
        assert counters.retries == 0
        assert counters.delivered > 0


class TestScenarioCli:
    def test_run_with_bundled_scenario(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "campaign.jsonl"
        status = main([
            "run",
            "--scenario", "lossy-2g",
            "--scale", "0.05",
            "--days", "4",
            "--interval-hours", "24",
            "--output", str(output),
        ])
        assert status == 0
        assert output.exists()
        text = output.read_text()
        # Fault outcomes ride the wire only when a fault actually hit.
        assert '"outcome":"lost"' in text
        assert '"retries":' in text

    def test_run_fault_free_emits_legacy_wire(self, tmp_path):
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
        text = output.read_text()
        assert '"outcome"' not in text
        assert '"retries"' not in text

    def test_unknown_scenario_rejected(self):
        from repro.cli import main

        with pytest.raises(ValueError, match="unknown scenario"):
            main([
                "run",
                "--scenario", "no-such-scenario",
                "--scale", "0.05",
                "--days", "4",
            ])
