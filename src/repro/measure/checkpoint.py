"""Per-shard checkpoints, crash-safe resume, and the reconciler.

The paper's campaigns ran continuously for months; a production-scale
reproduction cannot lose hour six of a long simulated campaign to a
crash at hour seven.  This module turns a campaign run into a sequence
of *durable shard commits* against a :class:`CheckpointStore`:

* each shard task runs :meth:`~repro.measure.campaign.Campaign.spill_shard`
  — the same spill task sharded streaming runs use — whose records
  stream through the selected backend's
  :class:`~repro.measure.backends.ShardWriter` into
  ``shard-NNNN.<ext>.tmp``, in the campaign's warm pool or in-process
  as :attr:`~repro.measure.campaign.Campaign.pooled` decides;
* on completion the file is fsync'd, atomically renamed into place and
  a **manifest sidecar** (shard ranges, record count, incremental
  SHA-256 over the canonical lines) is written with the same
  fsync+rename discipline;
* :func:`run_checkpointed` with ``resume=True`` replays committed
  shards straight from their manifests and re-executes only the
  missing ranges — the merged archive is byte-identical to an
  uninterrupted run because shard streams are deterministic functions
  of the config and ranges never share cache scope;
* :func:`reconcile` is the healing pass: it deep-verifies every shard
  against its manifest, **quarantines** (never deletes) anything
  missing/truncated/corrupt/mismatched, re-runs exactly those shards
  and re-merges.

State machine of one shard, as resume/reconcile see it::

            ┌────────── no file, no manifest ──────────┐
            ▼                                          │
        MISSING ──run──▶ SEALED(tmp) ──rename+manifest──▶ COMMITTED
            ▲                │                             │
            │              crash                      scan != manifest
            │                ▼                             ▼
            └──re-run── UNCOMMITTED(tmp)              SUSPECT ──quarantine──▶ re-run

The shard hash domain is the backend-independent one — SHA-256 over
``line + "\\n"`` per canonical record line — so manifests written under
one backend remain meaningful evidence about the *records*, and the
final archive hash equals :meth:`Dataset.content_hash` regardless of
layout.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import DatasetError
from repro.measure.backends import (
    DatasetBackend,
    _fsync_dir,
    get_backend,
    write_atomic,
)
from repro.measure.campaign import (
    Campaign,
    CampaignInterrupted,
    CrashPoint,
    DeviceRange,
    _spill_task,
)

#: Manifest schema version (campaign manifest and shard sidecars).
MANIFEST_VERSION = 1


def _range_descriptor(item: DeviceRange) -> List[object]:
    return [item.carrier_key, item.index, item.start, item.stop]


def task_descriptors(tasks: Sequence[Sequence[DeviceRange]]) -> List[List[List[object]]]:
    """JSON-serialisable description of the shard→ranges assignment."""
    return [[_range_descriptor(item) for item in task] for task in tasks]


def campaign_fingerprint(
    campaign: Campaign,
    tasks: Sequence[Sequence[DeviceRange]],
    backend: DatasetBackend,
) -> str:
    """Identity of a checkpointed run: world + config + plan + layout.

    Resume refuses to mix manifests across fingerprints — a committed
    shard is only evidence about *this* world config, campaign config,
    shard plan and storage backend.
    """
    payload = json.dumps(
        {
            "world": campaign.world.config.content_hash(),
            "config": repr(campaign.config),
            "tasks": task_descriptors(tasks),
            "backend": backend.name,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ShardState:
    """One shard's reconciliation row: manifest vs bytes on disk."""

    __slots__ = ("shard", "status", "records", "detail", "action")

    def __init__(self, shard: int, status: str, records: int = 0,
                 detail: str = "", action: str = ""):
        self.shard = shard
        self.status = status
        self.records = records
        self.detail = detail
        #: What the pass did about it: ``kept`` / ``quarantined+rerun`` /
        #: ``rerun``.
        self.action = action


class CheckpointStore:
    """The durable shard directory beside a campaign archive.

    Layout (``<output>.shards/`` by default)::

        manifest.json               campaign manifest (fingerprint, plan)
        shard-0000.jsonl            committed shard (backend extension)
        shard-0000.manifest.json    shard sidecar (ranges, records, sha256)
        shard-0003.jsonl.tmp        torn spill of an uncommitted shard
        shard-0001.jsonl.quarantined-0   evidence kept by the reconciler

    Commit protocol: seal the writer (flush+fsync the tmp), atomically
    rename it into place, fsync the directory, then write the sidecar
    via the same atomic discipline.  A reader therefore never trusts a
    shard without its sidecar, and a crash between the two steps leaves
    a committed file that resume simply re-verifies or re-runs — never
    a half-trusted manifest.
    """

    def __init__(self, directory: str, backend: DatasetBackend):
        self.directory = directory
        self.backend = backend

    # -- paths --------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    def shard_path(self, shard: int) -> str:
        return os.path.join(
            self.directory,
            f"shard-{shard:04d}{self.backend.shard_extension}",
        )

    def shard_manifest_path(self, shard: int) -> str:
        return os.path.join(self.directory, f"shard-{shard:04d}.manifest.json")

    # -- campaign manifest --------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.manifest_path)

    def read_manifest(self) -> Dict[str, object]:
        with open(self.manifest_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def write_manifest(self, fingerprint: str,
                       tasks: Sequence[Sequence[DeviceRange]]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        write_atomic(
            self.manifest_path,
            json.dumps(
                {
                    "version": MANIFEST_VERSION,
                    "fingerprint": fingerprint,
                    "backend": self.backend.name,
                    "shards": len(tasks),
                    "tasks": task_descriptors(tasks),
                },
                indent=2,
                sort_keys=True,
            ).encode("utf-8"),
        )

    # -- shard commits ------------------------------------------------------

    def commit_shard(
        self,
        shard: int,
        task: Sequence[DeviceRange],
        records: int,
        sha256: str,
    ) -> None:
        """Atomically promote a sealed ``*.tmp`` spill to committed."""
        path = self.shard_path(shard)
        os.replace(path + ".tmp", path)
        _fsync_dir(path)
        write_atomic(
            self.shard_manifest_path(shard),
            json.dumps(
                {
                    "version": MANIFEST_VERSION,
                    "shard": shard,
                    "file": os.path.basename(path),
                    "backend": self.backend.name,
                    "ranges": [_range_descriptor(item) for item in task],
                    "records": records,
                    "sha256": sha256,
                },
                indent=2,
                sort_keys=True,
            ).encode("utf-8"),
        )

    def read_shard_manifest(self, shard: int) -> Optional[Dict[str, object]]:
        try:
            with open(self.shard_manifest_path(shard), "r",
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def is_committed(self, shard: int) -> bool:
        return (
            self.read_shard_manifest(shard) is not None
            and os.path.exists(self.shard_path(shard))
        )

    def verify_shard(self, shard: int) -> ShardState:
        """Deep-verify one shard's bytes against its manifest sidecar."""
        manifest = self.read_shard_manifest(shard)
        path = self.shard_path(shard)
        if manifest is None:
            if os.path.exists(path + ".tmp"):
                return ShardState(
                    shard, "uncommitted", 0,
                    "sealed or torn spill without a manifest",
                )
            if os.path.exists(path):
                return ShardState(
                    shard, "uncommitted", 0,
                    "shard file without a manifest sidecar",
                )
            return ShardState(shard, "missing", 0, "never committed")
        scan = self.backend.scan(path)
        if scan.status != "ok":
            return ShardState(shard, scan.status, scan.records, scan.detail)
        if scan.records != manifest["records"] or scan.sha256 != manifest["sha256"]:
            return ShardState(
                shard, "mismatch", scan.records,
                f"manifest promises {manifest['records']} records "
                f"sha {str(manifest['sha256'])[:12]}, file holds "
                f"{scan.records} records sha {scan.sha256[:12]}",
            )
        return ShardState(shard, "ok", scan.records)

    def quarantine(self, shard: int) -> Optional[str]:
        """Move a suspect shard file aside — evidence is never deleted."""
        path = self.shard_path(shard)
        if not os.path.exists(path):
            return None
        for attempt in range(1000):
            target = f"{path}.quarantined-{attempt}"
            if not os.path.exists(target):
                os.replace(path, target)
                _fsync_dir(path)
                return target
        raise DatasetError(f"quarantine namespace exhausted for {path}")


# -- shard execution ----------------------------------------------------------


def _sealed_shards(
    campaign: Campaign,
    store: CheckpointStore,
    tasks: Sequence[Sequence[DeviceRange]],
    missing: Sequence[int],
    crash: Optional[CrashPoint] = None,
) -> Iterator[Tuple[int, Tuple[int, str]]]:
    """Run the given shards; yield ``(shard, (records, sha256))`` as
    each one seals.

    A pooled campaign ships every shard to its warm worker pool and
    yields in completion order; otherwise the shards run in-process, in
    order, on one pristine-prepared campaign (ranges never share cache
    scope, so any subset reproduces the uninterrupted stream's bytes).
    Closing the generator early drops queued shards and lets running
    ones finish their (uncommitted, harmless) spills, so the warm pool
    stays reusable for a resume run.
    """
    def spill_args(shard: int) -> tuple:
        return shard, tasks[shard], store.shard_path(shard), store.backend.name, crash

    if not campaign.pooled:
        campaign._prepare_serial_run()
        for shard in missing:
            yield shard, campaign.spill_shard(*spill_args(shard))
        return
    token = campaign._next_run_token()
    pool = campaign._ensure_pool()
    futures = {
        pool.submit(_spill_task, token, *spill_args(shard)): shard
        for shard in missing
    }
    pending = set(futures)
    try:
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield futures[future], future.result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _run_missing_shards(
    campaign: Campaign,
    store: CheckpointStore,
    tasks: Sequence[Sequence[DeviceRange]],
    missing: Sequence[int],
    crash: Optional[CrashPoint] = None,
    stop_after_shards: Optional[int] = None,
) -> int:
    """Execute and commit the given shards; returns how many committed.

    Each shard is committed as it seals.  Either a :class:`CrashPoint`
    firing, a dead worker process or ``stop_after_shards`` raises
    :class:`CampaignInterrupted` with everything already committed left
    durable on disk.
    """
    if not missing:
        return 0
    budget = len(missing) if stop_after_shards is None else stop_after_shards
    committed = 0
    sealed = _sealed_shards(campaign, store, tasks, missing, crash)
    try:
        for shard, (records, sha) in sealed:
            store.commit_shard(shard, tasks[shard], records, sha)
            committed += 1
            if committed >= budget and committed < len(missing):
                raise CampaignInterrupted(
                    f"stopped after {committed} shard commits",
                    committed=committed, total=len(tasks),
                )
    except BrokenProcessPool as exc:
        # A worker died mid-spill (killed, OOM, injected os._exit):
        # its partial shard is on disk, uncommitted.  The pool is
        # unusable; close it so a resume boots a fresh one.
        campaign.close(wait=False)
        raise CampaignInterrupted(
            f"worker process died after {committed} of {len(missing)} "
            f"pending shards committed: {exc}",
            committed=committed, total=len(tasks),
        ) from exc
    finally:
        sealed.close()
    return committed


def _merge_committed(
    campaign: Campaign,
    store: CheckpointStore,
    output_path: str,
    shard_count: int,
    sink=None,
) -> Dict[str, object]:
    """K-way merge every committed shard into the final archive."""
    backend = store.backend
    result = campaign._write_archive(
        output_path,
        (backend.iter_lines(store.shard_path(shard)) for shard in range(shard_count)),
        backend.name,
        sink,
    )
    expected = 0
    for shard in range(shard_count):
        manifest = store.read_shard_manifest(shard)
        expected += int(manifest["records"]) if manifest else 0
    if result["experiments"] != expected:
        raise DatasetError(
            f"merged archive holds {result['experiments']} records but "
            f"shard manifests promise {expected} — refusing to trust the "
            f"merge"
        )
    return result


def default_checkpoint_dir(output_path: str) -> str:
    return output_path + ".shards"


def run_checkpointed(
    campaign: Campaign,
    output_path: str,
    backend: str = "jsonl",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    sink=None,
    verify: bool = False,
    stop_after_shards: Optional[int] = None,
    crash: Optional[CrashPoint] = None,
) -> Dict[str, object]:
    """Run a campaign as durable per-shard commits, resumably.

    Fresh runs execute every shard of the campaign's plan, committing
    each with a manifest sidecar before merging the shards into
    ``output_path``.  With ``resume=True`` an existing checkpoint
    directory is replayed: committed shards are trusted from their
    manifests (deep-verified when ``verify=True``; anything suspect is
    quarantined and re-run) and only missing shards execute.  The
    merged archive — and its content hash — is byte-identical to an
    uninterrupted run, for every backend and shard plan, because shard
    streams are pure functions of the config.

    Refuses a *fresh* run over an existing checkpoint directory (that
    is either an accident or a resume), and a resume whose fingerprint
    (world config, campaign config, shard plan, backend) does not match
    the manifest.

    ``sink``, as on :meth:`ShardedCampaign.run_streaming`, receives
    every merged line via ``ingest_line``.  ``stop_after_shards`` and
    ``crash`` are the bench/test interrupt hooks; both leave a valid
    checkpoint directory behind and raise :class:`CampaignInterrupted`.

    Returns the ``run_streaming`` result dict plus ``"resumed_shards"``
    / ``"executed_shards"`` / ``"total_shards"``.
    """
    store = CheckpointStore(
        checkpoint_dir or default_checkpoint_dir(output_path),
        get_backend(backend),
    )
    tasks = campaign.shard_tasks()
    fingerprint = campaign_fingerprint(campaign, tasks, store.backend)

    if store.exists():
        if not resume:
            raise DatasetError(
                f"checkpoint directory {store.directory!r} already holds a "
                f"campaign manifest; pass resume=True to continue it or "
                f"remove the directory to start over"
            )
        manifest = store.read_manifest()
        if manifest.get("fingerprint") != fingerprint:
            raise DatasetError(
                "checkpoint manifest was written by a different campaign "
                f"(fingerprint {str(manifest.get('fingerprint'))[:12]} != "
                f"{fingerprint[:12]}); refusing to mix shards across runs"
            )
    else:
        store.write_manifest(fingerprint, tasks)

    resumed: List[int] = []
    missing: List[int] = []
    for shard in range(len(tasks)):
        if not store.is_committed(shard):
            missing.append(shard)
            continue
        if verify:
            state = store.verify_shard(shard)
            if state.status != "ok":
                store.quarantine(shard)
                missing.append(shard)
                continue
        resumed.append(shard)

    executed = _run_missing_shards(
        campaign, store, tasks, missing,
        crash=crash, stop_after_shards=stop_after_shards,
    )
    result = _merge_committed(campaign, store, output_path, len(tasks), sink)
    result.update(
        resumed_shards=len(resumed),
        executed_shards=executed,
        total_shards=len(tasks),
    )
    return result


class ReconcileReport:
    """What the healing pass found and did, shard by shard."""

    def __init__(self, rows: List[ShardState], result: Dict[str, object]):
        self.rows = rows
        self.result = result

    @property
    def healed(self) -> List[ShardState]:
        return [row for row in self.rows if row.status != "ok"]

    def summary(self) -> str:
        ok = sum(1 for row in self.rows if row.status == "ok")
        return (
            f"reconcile: {ok}/{len(self.rows)} shards verified clean, "
            f"{len(self.healed)} healed; archive "
            f"{self.result['experiments']} records, hash "
            f"{self.result['content_hash'][:12]}"
        )

    def table(self) -> str:
        lines = [f"{'shard':>5}  {'status':<12}{'records':>8}  action"]
        for row in self.rows:
            action = row.action or "kept"
            detail = f"  ({row.detail})" if row.detail else ""
            lines.append(
                f"{row.shard:>5}  {row.status:<12}{row.records:>8}  "
                f"{action}{detail}"
            )
        return "\n".join(lines)


def reconcile(
    campaign: Campaign,
    output_path: str,
    backend: str = "jsonl",
    checkpoint_dir: Optional[str] = None,
    sink=None,
) -> ReconcileReport:
    """Heal a checkpointed campaign: verify, quarantine, re-run, re-merge.

    Every shard is deep-verified against its manifest sidecar
    (:meth:`CheckpointStore.verify_shard`).  Shards that are missing,
    truncated, corrupt, or that disagree with their manifest are
    **quarantined** — moved aside with a ``.quarantined-N`` suffix,
    never deleted, because a disagreement means *something* is wrong
    and the evidence may be the only way to find out what — then
    re-executed from the campaign plan and re-committed.  The final
    archive is re-merged either way, so the pass always ends with
    archive == manifests == bytes.
    """
    store = CheckpointStore(
        checkpoint_dir or default_checkpoint_dir(output_path),
        get_backend(backend),
    )
    if not store.exists():
        raise DatasetError(
            f"no campaign manifest under {store.directory!r}; nothing to "
            f"reconcile (run with checkpoints first)"
        )
    tasks = campaign.shard_tasks()
    fingerprint = campaign_fingerprint(campaign, tasks, store.backend)
    manifest = store.read_manifest()
    if manifest.get("fingerprint") != fingerprint:
        raise DatasetError(
            "checkpoint manifest was written by a different campaign "
            f"(fingerprint {str(manifest.get('fingerprint'))[:12]} != "
            f"{fingerprint[:12]}); refusing to reconcile across runs"
        )

    rows: List[ShardState] = []
    bad: List[int] = []
    for shard in range(len(tasks)):
        state = store.verify_shard(shard)
        if state.status == "ok":
            state.action = "kept"
        else:
            target = store.quarantine(shard)
            state.action = (
                "quarantined+rerun" if target is not None else "rerun"
            )
            bad.append(shard)
        rows.append(state)

    _run_missing_shards(campaign, store, tasks, bad)
    result = _merge_committed(campaign, store, output_path, len(tasks), sink)
    result.update(healed_shards=len(bad), total_shards=len(tasks))
    return ReconcileReport(rows, result)


__all__ = [
    "CampaignInterrupted",
    "CheckpointStore",
    "CrashPoint",
    "ReconcileReport",
    "ShardState",
    "campaign_fingerprint",
    "default_checkpoint_dir",
    "reconcile",
    "run_checkpointed",
    "task_descriptors",
]
