"""JSONL ingest fast path: edge cases and the from_json oracle.

:meth:`Dataset.load_jsonl` decodes canonical lines through the
slot-assigning fast decoders and falls back to
:meth:`ExperimentRecord.from_json` for anything else;
:meth:`Dataset.load_jsonl_reference` always takes the slow path.  The
two must agree on every input a campaign can archive — including the
awkward ones: metadata-only files, NaN/inf floats, unicode carriers,
blank lines, and hand-edited non-canonical records.
"""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DatasetError
from repro.measure.records import Dataset, ExperimentRecord

from tests.measure.test_records import _experiment_records, _record


def _dump(dataset: Dataset) -> str:
    buffer = io.StringIO()
    dataset.dump_jsonl(buffer)
    return buffer.getvalue()


def _assert_paths_agree(text: str) -> Dataset:
    """Both ingest paths on the same text: equal records and metadata."""
    fast = Dataset.loads_jsonl(text)
    slow = Dataset.load_jsonl_reference(text.split("\n"))
    assert fast.metadata == slow.metadata
    assert len(fast) == len(slow)
    assert fast.content_hash() == slow.content_hash()
    return fast


class TestIngestEdgeCases:
    def test_metadata_only_dataset(self):
        text = _dump(Dataset(metadata={"seed": 7, "note": "no records"}))
        loaded = _assert_paths_agree(text)
        assert loaded.metadata == {"seed": 7, "note": "no records"}
        assert len(loaded) == 0

    def test_empty_text(self):
        loaded = _assert_paths_agree("")
        assert len(loaded) == 0
        assert loaded.metadata == {}

    def test_blank_and_padded_lines_skipped(self):
        record = _record()
        text = "\n\n  " + record.to_json_line() + "  \n\n"
        loaded = _assert_paths_agree(text)
        assert loaded.experiments == [record]

    def test_nan_and_inf_floats_roundtrip(self):
        record = _record()
        record.started_at = float("nan")
        record.latitude = float("inf")
        record.longitude = float("-inf")
        record.resolutions[0].resolution_ms = float("nan")
        record.pings[0].rtt_ms = float("inf")
        dataset = Dataset(experiments=[record])
        text = _dump(dataset)
        loaded = _assert_paths_agree(text)
        clone = loaded.experiments[0]
        assert math.isnan(clone.started_at)
        assert clone.latitude == float("inf")
        assert clone.longitude == float("-inf")
        assert math.isnan(clone.resolutions[0].resolution_ms)
        # The re-serialised line is byte-identical despite NaN != NaN.
        assert clone.to_json_line() == record.to_json_line()

    def test_unicode_carriers_and_domains(self):
        record = _record(carrier="케이티-kt")
        record.device_id = "dev-é中- "
        record.resolutions[0].domain = "www.bücher.example"
        dataset = Dataset(experiments=[record], metadata={"país": "한국"})
        loaded = _assert_paths_agree(_dump(dataset))
        clone = loaded.experiments[0]
        assert clone.carrier == "케이티-kt"
        assert clone.device_id == "dev-é中- "
        assert clone.resolutions[0].domain == "www.bücher.example"
        assert loaded.metadata == {"país": "한국"}
        assert loaded.by_carrier()["케이티-kt"] == [clone]

    def test_decoded_addresses_are_interned(self):
        # The analysis fold retains every address it decodes; records
        # naming the same resolver, replica or hop share one string.
        first, second = _record(sequence=0), _record(sequence=1, at=60.0)
        second.traceroutes[0].hops.append([3, "16.0.7.1", 31.0, "extra"])
        loaded = _assert_paths_agree(
            _dump(Dataset(experiments=[first, second]))
        )
        a, b = loaded.experiments
        address = a.resolutions[0].addresses[0]
        assert address == "16.0.7.1"
        assert b.resolutions[0].addresses[0] is address
        assert a.http_gets[0].replica_ip is address
        assert b.http_gets[0].replica_ip is address
        assert b.traceroutes[0].hops[2][1] is address
        assert a.traceroutes[0].hops[1][1] is b.traceroutes[0].hops[1][1]
        assert a.traceroutes[0].hops[0] == [1, None, None]

    def test_non_canonical_line_falls_back(self):
        # Hand-edited key order is not the canonical emitter shape; the
        # fast ingest must hand it to from_json, not mis-decode it.
        record = _record()
        import json

        payload = json.loads(record.to_json_line())
        reordered = json.dumps(dict(reversed(list(payload.items()))))
        loaded = _assert_paths_agree(reordered + "\n")
        assert loaded.experiments == [record]

    def test_extra_unknown_key_still_loads(self):
        import json

        payload = json.loads(_record().to_json_line())
        payload["future_field"] = {"v": 2}
        text = json.dumps(payload) + "\n"
        loaded = _assert_paths_agree(text)
        assert loaded.experiments == [_record()]

    def test_bad_line_raises_dataset_error(self):
        with pytest.raises(DatasetError):
            Dataset.loads_jsonl("{not json}\n")
        with pytest.raises(DatasetError):
            Dataset.load_jsonl_reference(["{not json}"])

    def test_missing_required_field_raises(self):
        with pytest.raises(DatasetError):
            Dataset.loads_jsonl('{"device_id": "only"}\n')

    @given(st.lists(_experiment_records, max_size=5))
    def test_randomised_records_agree(self, records):
        dataset = Dataset(experiments=records, metadata={"seed": 1})
        text = _dump(dataset)
        fast = Dataset.loads_jsonl(text)
        slow = Dataset.load_jsonl_reference(text.split("\n"))
        # Record-level equality fails on NaN fields; the serialised
        # bodies are the NaN-safe identity.
        assert fast.content_hash() == slow.content_hash()
        assert fast.content_hash() == dataset.content_hash()
        assert fast.metadata == dataset.metadata

    def test_file_roundtrip_with_unicode(self, tmp_path):
        dataset = Dataset(
            experiments=[_record(carrier="skt-유심")],
            metadata={"label": "ünïcode"},
        )
        path = tmp_path / "campaign.jsonl"
        dataset.save(str(path))
        loaded = Dataset.load(str(path))
        assert loaded.experiments == dataset.experiments
        assert loaded.metadata == dataset.metadata
