"""Pluggable dataset backends, per-shard checkpoints, resume, reconcile.

The contracts under test:

* **backend equivalence** — every registered backend (JSONL, SQLite,
  binary columnar) roundtrips a campaign dataset with the exact
  ``Dataset.content_hash`` of the in-memory records, and the JSONL
  backend's archive bytes are unchanged from the historical
  ``dump_jsonl`` format (the reference every golden pins);
* **truncation handling** — a torn partial final line (crash
  mid-write) is detected, reported with the clean-record count, and
  loadable as an incomplete prefix, instead of raising mid-parse;
* **crash/resume identity** — a checkpointed run interrupted by an
  injected crash (in-process, or a worker killed mid-spill with a
  partial shard left on disk) resumes to an archive byte-identical to
  an uninterrupted run, for every backend and shard count ∈ {1,2,3,7};
* **reconcile** — the healing pass detects missing/truncated/corrupt
  committed shards, quarantines (never deletes) the evidence, re-runs
  exactly those shards and restores the reference hash;
* **cache equivalence** — the analysis result cache keys on
  ``Dataset.content_hash``, so the same campaign archived via JSONL
  and SQLite hits one cache entry.
"""

import io
import os

import pytest

from repro.analysis.result_cache import AnalysisResultCache
from repro.core.errors import DatasetError, TruncatedDatasetError
from repro.core.world import WorldConfig, build_world
from repro.measure.backends import (
    BACKEND_CHOICES,
    get_backend,
    resolve_backend,
    sniff_backend,
)
from repro.measure.campaign import Campaign, CampaignConfig, ShardedCampaign
from repro.measure.checkpoint import (
    CampaignInterrupted,
    CheckpointStore,
    CrashPoint,
    campaign_fingerprint,
    default_checkpoint_dir,
    reconcile,
    run_checkpointed,
)
from repro.measure.records import Dataset
from repro.measure.validate import verify_manifests

#: Same forced-mid-carrier-split population as test_sharded_campaign:
#: nine device ranges under range_size=2, so shard plans of 1/2/3/7
#: tasks all exercise real multi-shard commits and merges.
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


@pytest.fixture(scope="module")
def reference_hash(serial_dataset):
    return serial_dataset.content_hash()


# -- backend roundtrips -------------------------------------------------------


class TestBackendRoundtrips:
    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_roundtrip_preserves_content_hash_and_metadata(
        self, name, serial_dataset, reference_hash, tmp_path
    ):
        backend = get_backend(name)
        path = str(tmp_path / f"archive{backend.shard_extension}")
        serial_dataset.save(path, backend=name)
        loaded = Dataset.load(path, backend=name)
        assert loaded.content_hash() == reference_hash
        assert loaded.metadata["seed"] == SEED
        assert loaded.metadata["experiments"] == len(serial_dataset)

    def test_jsonl_backend_bytes_match_dump_jsonl(
        self, serial_dataset, tmp_path
    ):
        # The JSONL backend is the byte reference: Dataset.save must
        # emit exactly the historical dump_jsonl stream.
        path = str(tmp_path / "archive.jsonl")
        serial_dataset.save(path)
        buffer = io.StringIO()
        serial_dataset.dump_jsonl(buffer)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == buffer.getvalue()

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_sniffing_identifies_every_backend(
        self, name, serial_dataset, tmp_path
    ):
        backend = get_backend(name)
        path = str(tmp_path / f"archive{backend.shard_extension}")
        serial_dataset.save(path, backend=name)
        assert sniff_backend(path).name == name
        # Dataset.load with no backend hint reads any layout.
        assert Dataset.load(path).content_hash() == serial_dataset.content_hash()

    def test_resolve_backend_prefers_name_then_extension(self):
        assert resolve_backend("sqlite", "x.jsonl").name == "sqlite"
        assert resolve_backend(None, "x.sqlite").name == "sqlite"
        assert resolve_backend(None, "x.col").name == "columnar"
        assert resolve_backend(None, "x.anything").name == "jsonl"
        with pytest.raises(DatasetError):
            resolve_backend("parquet")

    def test_run_streaming_backend_param_is_hash_invariant(
        self, reference_hash, tmp_path
    ):
        for name in BACKEND_CHOICES:
            backend = get_backend(name)
            path = str(tmp_path / f"stream{backend.shard_extension}")
            campaign = ShardedCampaign(_world(), _config(), workers=0)
            result = campaign.run_streaming(path, backend=name)
            assert result["content_hash"] == reference_hash
            assert Dataset.load(path).content_hash() == reference_hash

    def test_columnar_key_columns_match_records(
        self, serial_dataset, tmp_path
    ):
        backend = get_backend("columnar")
        path = str(tmp_path / "archive.col")
        serial_dataset.save(path, backend="columnar")
        columns = backend.columns(path)
        assert list(columns["started_at"]) == [
            r.started_at for r in serial_dataset
        ]
        assert columns["carrier"] == [r.carrier for r in serial_dataset]
        assert list(columns["sequence"]) == [
            r.sequence for r in serial_dataset
        ]


# -- archive writer -----------------------------------------------------------


def _shard_streams(dataset, blanks=False):
    """The dataset's lines dealt into two event-ordered shard streams."""
    lines = [record.to_json_line() for record in dataset.experiments]
    shards = [lines[0::2], lines[1::2]]
    if blanks:
        shards = [
            ["", *(line + "\n" for line in shard), "  ", "\n"]
            for shard in shards
        ]
    return [iter(shard) for shard in shards]


class TestArchiveWriter:
    """``write_archive_lines``: every backend's archive is its own
    shard writer, sealed with the metadata and renamed into place."""

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_archive_matches_dataset_hash_and_count(
        self, name, serial_dataset, reference_hash, tmp_path
    ):
        path = str(tmp_path / "archive")
        count, digest = get_backend(name).write_archive_lines(
            path, _shard_streams(serial_dataset), metadata={"seed": SEED}
        )
        assert count == len(serial_dataset)
        assert digest == reference_hash
        loaded = Dataset.load(path)
        assert loaded.content_hash() == reference_hash
        assert loaded.metadata == {"seed": SEED, "experiments": count}

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_archive_tolerates_blank_lines(
        self, name, serial_dataset, reference_hash, tmp_path
    ):
        backend = get_backend(name)
        clean, dirty = str(tmp_path / "clean"), str(tmp_path / "dirty")
        backend.write_archive_lines(clean, _shard_streams(serial_dataset))
        count, digest = backend.write_archive_lines(
            dirty, _shard_streams(serial_dataset, blanks=True)
        )
        assert count == len(serial_dataset)
        assert digest == reference_hash
        with open(clean, "rb") as a, open(dirty, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_archive_feeds_sink_each_written_line(
        self, name, serial_dataset, reference_hash, tmp_path
    ):
        seen = []
        count, digest = get_backend(name).write_archive_lines(
            str(tmp_path / "archive"),
            _shard_streams(serial_dataset, blanks=True),
            sink=seen.append,
        )
        assert count == len(seen) == len(serial_dataset)
        assert seen == [r.to_json_line() for r in serial_dataset.experiments]
        assert digest == reference_hash

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_clean_write_leaves_no_tmp_files(
        self, name, serial_dataset, tmp_path
    ):
        backend = get_backend(name)
        path = str(tmp_path / f"archive{backend.shard_extension}")
        backend.write_archive_lines(
            path, _shard_streams(serial_dataset), metadata={"seed": SEED}
        )
        assert os.listdir(tmp_path) == [os.path.basename(path)]


# -- truncated-tail handling (satellite 1) ------------------------------------


class TestTruncatedTail:
    def _lines(self, serial_dataset):
        return [r.to_json_line() for r in serial_dataset.experiments]

    def test_final_partial_line_raises_truncated_error(self, serial_dataset):
        lines = self._lines(serial_dataset)
        torn = lines[:5] + [lines[5][: len(lines[5]) // 2]]
        with pytest.raises(TruncatedDatasetError) as excinfo:
            Dataset.load_jsonl(torn)
        assert excinfo.value.clean_records == 5
        assert excinfo.value.partial_line == torn[-1]
        # TruncatedDatasetError stays a DatasetError: existing callers
        # catching the base class keep working.
        assert isinstance(excinfo.value, DatasetError)

    def test_allow_truncated_loads_clean_prefix(self, serial_dataset):
        lines = self._lines(serial_dataset)
        torn = lines[:5] + [lines[5][: len(lines[5]) // 2]]
        dataset = Dataset.load_jsonl(torn, allow_truncated=True)
        assert len(dataset) == 5
        assert dataset.truncated_tail == torn[-1]
        clean = Dataset.load_jsonl(lines[:5])
        assert dataset.content_hash() == clean.content_hash()

    def test_mid_archive_corruption_still_raises_dataset_error(
        self, serial_dataset
    ):
        lines = self._lines(serial_dataset)
        corrupt = [lines[0], "{broken", lines[1]]
        with pytest.raises(DatasetError) as excinfo:
            Dataset.load_jsonl(corrupt)
        assert not isinstance(excinfo.value, TruncatedDatasetError)

    def _torn_write_keeps_previous_archive(self, streams, tmp_path):
        """Write ``streams()`` through every backend over an existing
        archive; return the TruncatedDatasetError each torn write raised,
        after checking the old archive's bytes survived untouched."""
        errors = []
        for name in BACKEND_CHOICES:
            path = str(tmp_path / f"archive-{name}")
            with open(path, "wb") as handle:
                handle.write(b"previous archive bytes\n")
            with pytest.raises(TruncatedDatasetError) as excinfo:
                get_backend(name).write_archive_lines(path, streams())
            with open(path, "rb") as handle:
                assert handle.read() == b"previous archive bytes\n"
            errors.append(excinfo.value)
        return errors

    def test_merge_over_torn_stream_reports_clean_count(
        self, serial_dataset, tmp_path
    ):
        lines = self._lines(serial_dataset)
        # rstrip the brace so the tear cannot coincidentally land on a
        # nested object boundary and still look closed.  Two live
        # streams keep the merge heap computing keys (heapq.merge stops
        # keying once a single iterator remains).
        torn_line = lines[4][: len(lines[4]) // 2].rstrip("}")
        stream_a = [lines[0], lines[2], torn_line]
        stream_b = [lines[1], lines[3]] + lines[5:]
        for error in self._torn_write_keeps_previous_archive(
            lambda: [iter(stream_a), iter(stream_b)], tmp_path
        ):
            assert error.clean_records <= 4
            assert error.partial_line == torn_line

    def test_single_stream_merge_still_detects_tear(
        self, serial_dataset, tmp_path
    ):
        # heapq.merge skips key computation once one iterator remains,
        # so the guard must also cover a one-stream merge.
        lines = self._lines(serial_dataset)
        torn_line = lines[3][: len(lines[3]) // 2].rstrip("}")
        for error in self._torn_write_keeps_previous_archive(
            lambda: [iter(lines[:3] + [torn_line])], tmp_path
        ):
            assert error.clean_records == 3
            assert error.partial_line == torn_line

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_backend_scan_classifies_clean_and_missing(
        self, name, serial_dataset, tmp_path
    ):
        backend = get_backend(name)
        path = str(tmp_path / f"archive{backend.shard_extension}")
        serial_dataset.save(path, backend=name)
        scan = backend.scan(path)
        assert scan.status == "ok"
        assert scan.records == len(serial_dataset)
        assert scan.sha256 == serial_dataset.content_hash()
        assert backend.scan(path + ".nope").status == "missing"

    def test_jsonl_scan_flags_torn_tail(self, serial_dataset, tmp_path):
        backend = get_backend("jsonl")
        path = str(tmp_path / "archive.jsonl")
        serial_dataset.save(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-31])
        scan = backend.scan(path)
        assert scan.status == "truncated"
        assert 0 < scan.records < len(serial_dataset)


# -- crash / resume matrix (satellite 3) --------------------------------------


class TestCrashResume:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_crash_then_resume_is_byte_identical(
        self, name, shards, reference_hash, tmp_path
    ):
        backend = get_backend(name)
        output = str(tmp_path / f"campaign{backend.shard_extension}")
        campaign = ShardedCampaign(
            _world(), _config(), workers=0, shards=shards
        )
        crash_shard = min(shards - 1, 2)
        with pytest.raises(CampaignInterrupted):
            run_checkpointed(
                campaign, output, backend=name,
                crash=CrashPoint(shard=crash_shard, after_records=2),
            )
        # The crash left the victim shard uncommitted (a partial spill)
        # and everything before it durably committed.
        store = CheckpointStore(default_checkpoint_dir(output), backend)
        assert not store.is_committed(crash_shard)
        resumed = run_checkpointed(campaign, output, backend=name, resume=True)
        assert resumed["content_hash"] == reference_hash
        assert resumed["total_shards"] == shards
        assert Dataset.load(output).content_hash() == reference_hash

    def test_interrupt_after_n_commits_then_resume(
        self, reference_hash, tmp_path
    ):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_checkpointed(campaign, output, stop_after_shards=3)
        assert excinfo.value.committed == 3
        resumed = run_checkpointed(campaign, output, resume=True)
        assert resumed["resumed_shards"] == 3
        assert resumed["executed_shards"] == campaign.shards - 3
        assert resumed["content_hash"] == reference_hash

    def test_worker_killed_mid_spill_leaves_partial_shard(
        self, reference_hash, tmp_path
    ):
        # The real thing: a pool worker dies with os._exit mid-spill.
        # Its flushed partial shard stays on disk uncommitted; the pool
        # breaks; resume re-runs the unfinished shards byte-identically.
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=2)
        try:
            with pytest.raises(CampaignInterrupted):
                run_checkpointed(
                    campaign, output,
                    crash=CrashPoint(shard=4, after_records=2, hard_kill=True),
                )
            shards_dir = default_checkpoint_dir(output)
            leftovers = [
                name for name in os.listdir(shards_dir)
                if name.endswith(".tmp")
            ]
            assert leftovers, "the killed worker left no partial spill"
            resumed = run_checkpointed(campaign, output, resume=True)
            assert resumed["content_hash"] == reference_hash
        finally:
            campaign.close()

    def test_fresh_run_refuses_existing_checkpoints(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        run_checkpointed(campaign, output)
        with pytest.raises(DatasetError, match="resume"):
            run_checkpointed(campaign, output)

    def test_resume_refuses_foreign_fingerprint(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        with pytest.raises(CampaignInterrupted):
            run_checkpointed(campaign, output, stop_after_shards=1)
        other_config = CampaignConfig(**{**SMOKE, "duration_days": 5.0})
        other = ShardedCampaign(_world(), other_config, workers=0)
        with pytest.raises(DatasetError, match="fingerprint"):
            run_checkpointed(other, output, resume=True)

    def test_serial_campaign_is_checkpointable(
        self, reference_hash, tmp_path
    ):
        # A plain Campaign checkpoints as one durable shard.
        output = str(tmp_path / "campaign.jsonl")
        campaign = Campaign(_world(), _config())
        result = run_checkpointed(campaign, output)
        assert result["total_shards"] == 1
        assert result["content_hash"] == reference_hash


# -- reconcile healing pass ---------------------------------------------------


class TestReconcile:
    def _checkpointed(self, tmp_path, backend="jsonl", shards=0):
        backend_obj = get_backend(backend)
        output = str(tmp_path / f"campaign{backend_obj.shard_extension}")
        campaign = ShardedCampaign(
            _world(), _config(), workers=0, shards=shards
        )
        run_checkpointed(campaign, output, backend=backend)
        return campaign, output

    def test_clean_checkpoints_reconcile_to_noop(
        self, reference_hash, tmp_path
    ):
        campaign, output = self._checkpointed(tmp_path)
        report = reconcile(campaign, output)
        assert not report.healed
        assert report.result["content_hash"] == reference_hash

    def test_truncated_and_missing_shards_are_healed(
        self, reference_hash, tmp_path
    ):
        campaign, output = self._checkpointed(tmp_path)
        store = CheckpointStore(
            default_checkpoint_dir(output), get_backend("jsonl")
        )
        # Truncate one committed shard mid-line and delete another.
        victim = store.shard_path(3)
        with open(victim, "rb") as handle:
            data = handle.read()
        with open(victim, "wb") as handle:
            handle.write(data[:-37])
        os.remove(store.shard_path(5))
        report = reconcile(campaign, output)
        statuses = {row.shard: row.status for row in report.rows}
        assert statuses[3] == "truncated"
        assert statuses[5] == "missing"
        assert len(report.healed) == 2
        assert report.result["content_hash"] == reference_hash
        assert Dataset.load(output).content_hash() == reference_hash

    def test_quarantine_preserves_corrupt_evidence(
        self, reference_hash, tmp_path
    ):
        campaign, output = self._checkpointed(tmp_path)
        store = CheckpointStore(
            default_checkpoint_dir(output), get_backend("jsonl")
        )
        victim = store.shard_path(2)
        with open(victim, "rb") as handle:
            original = handle.read()
        # Corrupt a record in the middle: valid file shape, wrong bytes.
        with open(victim, "wb") as handle:
            handle.write(original.replace(b'"carrier"', b'"carrIer"', 1))
        report = reconcile(campaign, output)
        row = next(r for r in report.rows if r.shard == 2)
        assert row.status in ("corrupt", "mismatch")
        assert row.action == "quarantined+rerun"
        quarantined = [
            name
            for name in os.listdir(default_checkpoint_dir(output))
            if "quarantined" in name
        ]
        assert quarantined, "reconcile deleted the corrupt evidence"
        with open(
            os.path.join(default_checkpoint_dir(output), quarantined[0]), "rb"
        ) as handle:
            assert b'"carrIer"' in handle.read()
        assert report.result["content_hash"] == reference_hash

    def test_reconcile_without_manifest_refuses(self, tmp_path):
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        with pytest.raises(DatasetError, match="nothing to reconcile"):
            reconcile(campaign, str(tmp_path / "never-ran.jsonl"))

    @pytest.mark.parametrize("name", ["sqlite", "columnar"])
    def test_reconcile_heals_alternate_backends(
        self, name, reference_hash, tmp_path
    ):
        campaign, output = self._checkpointed(tmp_path, backend=name)
        store = CheckpointStore(
            default_checkpoint_dir(output), get_backend(name)
        )
        victim = store.shard_path(1)
        with open(victim, "rb") as handle:
            data = handle.read()
        with open(victim, "wb") as handle:
            handle.write(data[: max(64, len(data) // 2)])
        report = reconcile(campaign, output, backend=name)
        assert len(report.healed) == 1
        assert report.result["content_hash"] == reference_hash


# -- validate learns manifests (satellite 2) ----------------------------------


class TestVerifyManifests:
    def test_clean_run_passes_every_row(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        run_checkpointed(campaign, output)
        verification = verify_manifests(output)
        assert verification.ok
        labels = [row.label for row in verification.rows]
        assert labels[-1] == "archive"
        assert len(labels) == campaign.shards + 1
        assert "PASS" in verification.table()

    def test_torn_shard_fails_its_row_only(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        run_checkpointed(campaign, output)
        store = CheckpointStore(
            default_checkpoint_dir(output), get_backend("jsonl")
        )
        with open(store.shard_path(0), "rb") as handle:
            data = handle.read()
        with open(store.shard_path(0), "wb") as handle:
            handle.write(data[:-19])
        verification = verify_manifests(output)
        assert not verification.ok
        by_label = {row.label: row for row in verification.rows}
        assert not by_label["shard-0000"].passed
        assert "truncated" in by_label["shard-0000"].detail
        assert by_label["shard-0001"].passed

    def test_archive_mismatch_fails_archive_row(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        run_checkpointed(campaign, output)
        # Rewrite the archive with one record dropped: shards all PASS,
        # the archive cross-check must FAIL.
        with open(output, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        record_indices = [
            i for i, line in enumerate(lines)
            if not line.startswith('{"_metadata"')
        ]
        del lines[record_indices[3]]
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        verification = verify_manifests(output)
        by_label = {row.label: row for row in verification.rows}
        assert not by_label["archive"].passed
        assert all(
            row.passed for row in verification.rows if row.label != "archive"
        )

    def test_missing_manifest_reports_cleanly(self, tmp_path):
        verification = verify_manifests(str(tmp_path / "no-such.jsonl"))
        assert not verification.ok
        assert "no campaign manifest" in verification.rows[0].detail


# -- result-cache equivalence across backends (satellite 6) -------------------


class TestCacheEquivalenceAcrossBackends:
    def test_jsonl_and_sqlite_share_one_cache_entry(
        self, serial_dataset, tmp_path
    ):
        jsonl_path = str(tmp_path / "campaign.jsonl")
        sqlite_path = str(tmp_path / "campaign.sqlite")
        serial_dataset.save(jsonl_path, backend="jsonl")
        serial_dataset.save(sqlite_path, backend="sqlite")

        cache = AnalysisResultCache()
        calls = []

        def render(dataset):
            calls.append(1)
            return f"report for {len(dataset)} records"

        via_jsonl = Dataset.load(jsonl_path)
        via_sqlite = Dataset.load(sqlite_path)
        assert via_jsonl.content_hash() == via_sqlite.content_hash()
        first = cache.get_or_render(
            via_jsonl.content_hash(), "report", lambda: render(via_jsonl)
        )
        second = cache.get_or_render(
            via_sqlite.content_hash(), "report", lambda: render(via_sqlite)
        )
        # One miss (rendered from the JSONL load), then the SQLite load
        # lands on the same entry: the cache key is the content hash,
        # which the storage layer never perturbs.
        assert (cache.misses, cache.hits) == (1, 1)
        assert first == second
        assert len(calls) == 1

    def test_checkpointed_runs_share_cache_across_backends(self, tmp_path):
        hashes = {}
        for name in ("jsonl", "sqlite"):
            backend = get_backend(name)
            output = str(tmp_path / f"campaign{backend.shard_extension}")
            campaign = ShardedCampaign(_world(), _config(), workers=0)
            result = run_checkpointed(campaign, output, backend=name)
            hashes[name] = result["content_hash"]
        assert hashes["jsonl"] == hashes["sqlite"]


# -- manifest durability details ----------------------------------------------


class TestManifestFormat:
    def test_shard_manifest_records_range_count_and_hash(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0, shards=3)
        run_checkpointed(campaign, output)
        store = CheckpointStore(
            default_checkpoint_dir(output), get_backend("jsonl")
        )
        manifest = store.read_manifest()
        assert manifest["shards"] == 3
        assert manifest["backend"] == "jsonl"
        assert len(manifest["tasks"]) == 3
        total = 0
        for shard in range(3):
            sidecar = store.read_shard_manifest(shard)
            scan = store.backend.scan(store.shard_path(shard))
            assert sidecar["records"] == scan.records
            assert sidecar["sha256"] == scan.sha256
            assert sidecar["ranges"] == manifest["tasks"][shard]
            total += sidecar["records"]
        assert total == len(Dataset.load(output))

    def test_no_stray_tmp_files_after_clean_run(self, tmp_path):
        output = str(tmp_path / "campaign.jsonl")
        campaign = ShardedCampaign(_world(), _config(), workers=0)
        run_checkpointed(campaign, output)
        stray = [
            name
            for name in os.listdir(default_checkpoint_dir(output))
            if name.endswith(".tmp")
        ]
        assert stray == []


#: ``campaign_fingerprint`` of the tiny config (seed 2014, device_scale
#: 0.05, 4 days at 24 h) under the JSONL backend.  Resume refuses a
#: changed fingerprint, so moving these would orphan every existing
#: checkpoint directory.
TINY_FINGERPRINTS = {
    "serial": "e8d26a37fbc47daa52dfe1406b39c9dd45f0687b38c9f430aaa6e6db92c3c199",
    "sharded": "43ebc7321da6c75ba5fca938bc976f2009a1c1de26f16bb579ee1bd71860add0",
}


class TestFingerprintStability:
    @pytest.mark.parametrize("kind", sorted(TINY_FINGERPRINTS))
    def test_tiny_fingerprint_is_pinned(self, kind):
        world = build_world(WorldConfig(seed=2014))
        config = CampaignConfig(
            device_scale=0.05, duration_days=4.0, interval_hours=24.0
        )
        if kind == "serial":
            campaign = Campaign(world, config)
        else:
            campaign = ShardedCampaign(world, config, workers=0)
        fingerprint = campaign_fingerprint(
            campaign, campaign.shard_tasks(), get_backend("jsonl")
        )
        assert fingerprint == TINY_FINGERPRINTS[kind]
