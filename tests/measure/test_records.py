"""Measurement records and dataset persistence."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DatasetError
from repro.measure.records import (
    Dataset,
    ExperimentRecord,
    HttpRecord,
    PingRecord,
    ResolutionRecord,
    ResolverIdRecord,
    TracerouteRecord,
)


def _record(device="dev-1", carrier="att", sequence=0, at=0.0):
    return ExperimentRecord(
        device_id=device,
        carrier=carrier,
        country="US",
        sequence=sequence,
        started_at=at,
        latitude=41.9,
        longitude=-87.6,
        technology="LTE",
        generation="4G",
        client_ip="16.2.0.9",
        resolutions=[
            ResolutionRecord(
                domain="m.yelp.com",
                resolver_kind="local",
                resolution_ms=42.0,
                addresses=["16.0.7.1"],
                cname_chain=["m-yelp-com.edge.continental-sim.net"],
            )
        ],
        pings=[PingRecord(target_ip="16.0.7.1", target_kind="replica", rtt_ms=30.0)],
        traceroutes=[
            TracerouteRecord(
                target_ip="16.0.7.1",
                target_kind="replica",
                hops=[[1, None, None], [2, "16.2.1.1", 20.0]],
            )
        ],
        http_gets=[
            HttpRecord(
                replica_ip="16.0.7.1", domain="m.yelp.com",
                resolver_kind="local", ttfb_ms=70.0,
            )
        ],
        resolver_ids=[
            ResolverIdRecord(
                resolver_kind="local",
                configured_ip="16.2.11.1",
                observed_external_ip="16.2.12.7",
            )
        ],
    )


class TestExperimentRecord:
    def test_json_roundtrip(self):
        record = _record()
        clone = ExperimentRecord.from_json(record.to_json())
        assert clone == record

    def test_resolutions_via(self):
        record = _record()
        assert len(record.resolutions_via("local")) == 1
        assert record.resolutions_via("google") == []

    def test_resolver_id_lookup(self):
        record = _record()
        assert record.resolver_id("local").observed_external_ip == "16.2.12.7"
        assert record.resolver_id("google") is None

    def test_bad_json_raises(self):
        with pytest.raises(DatasetError):
            ExperimentRecord.from_json("{not json")

    def test_missing_fields_raise(self):
        with pytest.raises(DatasetError):
            ExperimentRecord.from_json('{"device_id": "x"}')

    def test_fault_fields_roundtrip(self):
        record = _record()
        record.resolutions[0].outcome = "timed_out"
        record.resolutions[0].retries = 2
        record.pings[0].outcome = "lost"
        record.pings[0].retries = 1
        record.traceroutes[0].outcome = "lost"
        record.http_gets[0].outcome = "timed_out"
        clone = ExperimentRecord.from_json(record.to_json())
        assert clone == record
        # The fast loader takes the from_json fallback for fault lines.
        loaded = Dataset.load_jsonl([record.to_json_line()])
        assert loaded.experiments[0] == record

    def test_fault_free_wire_has_no_fault_keys(self):
        # Default-valued outcome/retries are pruned from the wire, so a
        # fault-free campaign's bytes match the pre-transport engine.
        line = _record().to_json_line()
        assert '"outcome"' not in line
        assert '"retries"' not in line
        assert _record().to_json_line_reference() == line

    def test_delivery_outcome_inference(self):
        record = _record()
        # Explicit outcome wins; otherwise inferred from the legacy fields.
        assert record.resolutions[0].delivery_outcome == "delivered"
        assert record.pings[0].delivery_outcome == "delivered"
        record.pings[0].rtt_ms = None
        assert record.pings[0].delivery_outcome == "timed_out"
        record.pings[0].outcome = "lost"
        assert record.pings[0].delivery_outcome == "lost"
        record.resolutions[0].rcode = "UNREACHABLE"
        assert record.resolutions[0].delivery_outcome == "lost"
        record.resolutions[0].rcode = "TIMEOUT"
        assert record.resolutions[0].delivery_outcome == "timed_out"

    def test_traceroute_hop_ips(self):
        record = _record()
        assert record.traceroutes[0].hop_ips() == ["16.2.1.1"]

    def test_ping_responded(self):
        assert PingRecord("1.2.3.4", "t", rtt_ms=1.0).responded
        assert not PingRecord("1.2.3.4", "t").responded


_text = st.text(max_size=20)
_any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
_opt_float = st.none() | _any_float
# Fault fields ride the wire only when set (None / 0 are pruned by the
# emitters); the strategies cover both shapes so the fast serializer is
# held to the oracle on legacy and fault lines alike.
_outcome = st.none() | st.sampled_from(
    ["delivered", "filtered", "timed_out", "lost"]
)
_retries = st.integers(0, 3)

_resolutions = st.builds(
    ResolutionRecord,
    domain=_text,
    resolver_kind=st.sampled_from(["local", "google", "opendns"]),
    resolution_ms=_any_float,
    addresses=st.lists(_text, max_size=3),
    cname_chain=st.lists(_text, max_size=3),
    attempt=st.integers(-10, 10),
    rcode=_text,
    outcome=_outcome,
    retries=_retries,
)
_pings = st.builds(
    PingRecord,
    target_ip=_text,
    target_kind=_text,
    rtt_ms=_opt_float,
    outcome=_outcome,
    retries=_retries,
)
_hops = st.lists(
    st.lists(
        st.none() | st.integers(-1000, 1000) | _any_float | _text, max_size=4
    ),
    max_size=4,
)
_traceroutes = st.builds(
    TracerouteRecord,
    target_ip=_text,
    target_kind=_text,
    hops=_hops,
    reached=st.booleans(),
    outcome=_outcome,
)
_http_gets = st.builds(
    HttpRecord,
    replica_ip=_text,
    domain=_text,
    resolver_kind=_text,
    ttfb_ms=_opt_float,
    outcome=_outcome,
    retries=_retries,
)
_resolver_ids = st.builds(
    ResolverIdRecord,
    resolver_kind=_text,
    configured_ip=_text,
    observed_external_ip=st.none() | _text,
    resolution_ms=_opt_float,
)
_experiment_records = st.builds(
    ExperimentRecord,
    device_id=_text,
    carrier=_text,
    country=_text,
    sequence=st.integers(-(10**9), 10**9),
    started_at=_any_float,
    latitude=_any_float,
    longitude=_any_float,
    technology=_text,
    generation=_text,
    client_ip=_text,
    resolutions=st.lists(_resolutions, max_size=3),
    pings=st.lists(_pings, max_size=3),
    traceroutes=st.lists(_traceroutes, max_size=2),
    http_gets=st.lists(_http_gets, max_size=3),
    resolver_ids=st.lists(_resolver_ids, max_size=3),
)


class TestFastSerializer:
    """The fast emitter against the ``asdict`` oracle, byte for byte."""

    def test_fixture_record_identical(self):
        record = _record()
        assert record.to_json_line() == record.to_json_line_reference()

    def test_awkward_scalars_identical(self):
        record = _record()
        record.device_id = 'quote " backslash \\ unicode é中\x00'
        record.started_at = float("nan")
        record.latitude = float("inf")
        record.longitude = float("-inf")
        record.pings[0].rtt_ms = None
        record.traceroutes[0].hops = [
            [1, None, float("nan")],
            [True, False, -0.0, "tab\there"],
        ]
        assert record.to_json_line() == record.to_json_line_reference()

    @given(_experiment_records)
    def test_randomised_records_identical(self, record):
        assert record.to_json_line() == record.to_json_line_reference()

    @given(_experiment_records)
    def test_fast_line_parses_back(self, record):
        import json as jsonlib

        parsed = jsonlib.loads(record.to_json_line())
        assert parsed == jsonlib.loads(record.to_json_line_reference())


class TestDataset:
    def _dataset(self):
        dataset = Dataset(metadata={"seed": 1})
        dataset.add(_record("dev-1", "att", 0, 0.0))
        dataset.add(_record("dev-1", "att", 1, 3600.0))
        dataset.add(_record("dev-2", "skt", 0, 100.0))
        return dataset

    def test_grouping(self):
        dataset = self._dataset()
        assert set(dataset.by_carrier()) == {"att", "skt"}
        assert len(dataset.by_device()["dev-1"]) == 2

    def test_by_device_sorted_by_time(self):
        dataset = self._dataset()
        times = [r.started_at for r in dataset.by_device()["dev-1"]]
        assert times == sorted(times)

    def test_carriers_and_devices(self):
        dataset = self._dataset()
        assert dataset.carriers() == ["att", "skt"]
        assert dataset.device_ids() == ["dev-1", "dev-2"]

    def test_filter(self):
        dataset = self._dataset()
        only_att = dataset.filter(lambda record: record.carrier == "att")
        assert len(only_att) == 2
        assert only_att.metadata == dataset.metadata

    def test_jsonl_roundtrip_with_metadata(self):
        dataset = self._dataset()
        buffer = io.StringIO()
        written = dataset.dump_jsonl(buffer)
        assert written == 3
        loaded = Dataset.load_jsonl(buffer.getvalue().splitlines())
        assert len(loaded) == 3
        assert loaded.metadata == {"seed": 1}
        assert loaded.experiments == dataset.experiments

    def test_save_and_load_file(self, tmp_path):
        dataset = self._dataset()
        path = tmp_path / "campaign.jsonl"
        dataset.save(str(path))
        loaded = Dataset.load(str(path))
        assert loaded.experiments == dataset.experiments

    def test_load_tolerates_blank_lines_and_trailing_newlines(self):
        dataset = self._dataset()
        buffer = io.StringIO()
        dataset.dump_jsonl(buffer)
        lines = buffer.getvalue().splitlines()
        dirty = ["", lines[0], "   ", *lines[1:], "\t", "", ""]
        loaded = Dataset.load_jsonl(dirty)
        assert loaded.experiments == dataset.experiments
        assert loaded.metadata == dataset.metadata

    def test_content_hash_ignores_metadata(self):
        plain = self._dataset()
        annotated = Dataset(
            experiments=list(plain.experiments),
            metadata={"seed": 1, "workers": 4},
        )
        assert plain.content_hash() == annotated.content_hash()

    def test_content_hash_tracks_content(self):
        first = self._dataset()
        second = self._dataset()
        assert first.content_hash() == second.content_hash()
        second.experiments[0].resolutions[0].resolution_ms += 1.0
        assert first.content_hash() != second.content_hash()

    def test_content_hash_sensitive_to_order(self):
        dataset = self._dataset()
        reordered = Dataset(experiments=list(reversed(dataset.experiments)))
        assert dataset.content_hash() != reordered.content_hash()

    def test_content_hash_handles_nan(self):
        withnan = Dataset(experiments=[_record()])
        withnan.experiments[0].resolutions[0].resolution_ms = float("nan")
        # NaN != NaN under equality, but the serialised text is stable.
        assert withnan.content_hash() == withnan.content_hash()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["att", "skt", "lgu"]),
                st.integers(0, 5),
                st.floats(0, 1e6, allow_nan=False),
            ),
            max_size=12,
        )
    )
    def test_roundtrip_property(self, specs):
        dataset = Dataset()
        for index, (carrier, seq, at) in enumerate(specs):
            dataset.add(_record(f"dev-{index % 3}", carrier, seq, at))
        buffer = io.StringIO()
        dataset.dump_jsonl(buffer)
        loaded = Dataset.load_jsonl(buffer.getvalue().splitlines())
        assert loaded.experiments == dataset.experiments
