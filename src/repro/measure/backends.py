"""Pluggable dataset storage backends.

Every byte a campaign persists now flows through one interface:
:class:`DatasetBackend` owns how record lines are laid out on disk —
for the final merged archive *and* for the per-shard checkpoint files
the crash-safe runner commits (:mod:`repro.measure.checkpoint`).

Three implementations ship:

* :class:`JsonlBackend` — the historical format and the **reference**:
  one canonical JSON line per record.  Its archive bytes are unchanged
  from the pre-backend engine, so every committed golden hash
  (``SMOKE_DATASET_SHA256``, the tiny scenario goldens) pins it.
* :class:`SqliteBackend` — one stdlib SQLite database per archive or
  shard; record lines stored verbatim in insertion order.
* :class:`ColumnarBackend` — a binary layout that projects the probe
  event key into flat columns (``started_at`` float64s, carrier ids,
  device indices, sequences, payload offsets) over a heap of the exact
  line bytes, so merges and scans can read keys without parsing JSON.

The **hash domain is backend-independent**: every backend stores each
record's canonical JSON line byte-for-byte and can replay it, so
:meth:`Dataset.content_hash` — SHA-256 over the lines — is identical no
matter which backend held the data.  That single invariant is what lets
per-shard checkpoint manifests, ``--resume`` and the reconciler promise
byte-identity with an uninterrupted run, and what keys the analysis
result cache identically across backends.

One writer per backend: each backend's :class:`ShardWriter` subclass
is the only code that lays out its bytes.  Shard spills and final
archives both go through it; an archive is just a writer fed the k-way
merged line streams and sealed with the campaign metadata (see
:meth:`DatasetBackend.write_archive_lines`).

Durability contract (see :class:`ShardWriter`): records are appended to
a ``*.tmp`` file; :meth:`ShardWriter.seal` stores the metadata, flushes
and fsyncs it.  A shard is then committed by the checkpoint layer
(atomic rename + manifest sidecar); an archive is renamed into place
by :meth:`DatasetBackend.write_archive_lines` itself.  A crash at any
point leaves either the previous file or the complete new one at the
final path, plus at most a torn ``*.tmp`` beside it — never a
half-trusted file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import struct
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import DatasetError, TruncatedDatasetError
from repro.measure.records import (
    Dataset,
    jsonl_event_key,
    merged_shard_lines,
)

#: Names accepted by ``--backend`` (and the registry order shown in
#: help text).  JSONL first: it is the reference format.
BACKEND_CHOICES = ("jsonl", "sqlite", "columnar")

#: Magic prefix of a columnar archive/shard file.
COLUMNAR_MAGIC = b"RPROCOL1"

#: Magic prefix every SQLite 3 database starts with.
SQLITE_MAGIC = b"SQLite format 3\x00"


def _fsync_path(path: str) -> None:
    """fsync one file by path (no-op if the platform refuses)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    """fsync the directory holding ``path`` so a rename is durable."""
    _fsync_path(os.path.dirname(os.path.abspath(path)) or ".")


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via fsync'd tmp-file + atomic rename.

    The unit of crash safety for manifests: a reader never observes a
    half-written file — either the old content, or the new, complete
    one.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path)


class ShardScan:
    """What a full verification pass learned about one shard file.

    ``status`` is one of ``ok`` / ``truncated`` / ``corrupt`` /
    ``missing``; ``records`` and ``sha256`` describe the *clean prefix*
    (the whole file when ``ok``), so resume can decide whether the
    shard needs re-running and validate can diff against the manifest.
    """

    __slots__ = ("status", "records", "sha256", "detail")

    def __init__(self, status: str, records: int = 0, sha256: str = "",
                 detail: str = ""):
        self.status = status
        self.records = records
        self.sha256 = sha256
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardScan({self.status!r}, records={self.records}, "
            f"detail={self.detail!r})"
        )


class ShardWriter:
    """Streaming writer for one file of records (backend-agnostic core).

    The one place a backend lays out its bytes, for shard spills and
    archives alike.  Counts records and folds each canonical line (plus
    the terminating newline — the content-hash domain) into an
    incremental SHA-256 as it is appended, so the digest a manifest or
    an archive result reports costs no second pass.  Subclasses
    implement the storage-specific ``_append``/``_seal``.
    """

    def __init__(self, path: str):
        #: Final (committed) path; writes land in ``tmp_path``.
        self.path = path
        self.tmp_path = path + ".tmp"
        self.records = 0
        self._digest = hashlib.sha256()

    def append(self, line: str) -> None:
        """Append one canonical record line (no trailing newline)."""
        self._append(line)
        self._digest.update(line.encode("utf-8"))
        self._digest.update(b"\n")
        self.records += 1

    def seal(
        self, metadata: Optional[Dict[str, object]] = None
    ) -> Tuple[int, str]:
        """Store ``metadata`` (if given) in the backend's own place,
        flush + fsync the tmp file; returns ``(records, sha256)``.

        The file is *sealed*, not committed: the caller performs the
        atomic rename (the checkpoint layer, which also writes the
        manifest, or :meth:`DatasetBackend.write_archive_lines`), so a
        worker crash can never leave a renamed-but-unmanifested shard.
        """
        self._seal(metadata)
        return self.records, self._digest.hexdigest()

    def flush(self) -> None:
        """Push appended records to the OS (crash-injection hook)."""
        self._flush()

    def abort(self) -> None:
        """Close without sealing; the tmp file is left for diagnosis."""
        self._abort()

    # -- storage-specific ---------------------------------------------------

    def _append(self, line: str) -> None:
        raise NotImplementedError

    def _seal(self, metadata: Optional[Dict[str, object]]) -> None:
        raise NotImplementedError

    def _flush(self) -> None:
        pass

    def _abort(self) -> None:
        pass


class DatasetBackend:
    """How record lines are laid out on disk (archives and shards).

    The interface every producer and consumer in the repo goes through:

    * :meth:`open_shard` → :class:`ShardWriter` — the backend's one
      writer: streaming, durable writes (``append`` / ``seal``);
    * :meth:`write_archive_lines` — k-way merge already-ordered line
      streams through that writer into a sealed archive, renamed into
      place;
    * :meth:`write_dataset` / :meth:`load` — whole-dataset persistence;
    * :meth:`iter_lines` — replay the stored canonical lines in order
      (the hash domain; also the merge input for shard files);
    * :meth:`scan` — full verification: clean-record count, SHA-256,
      truncation/corruption classification, without ever raising on a
      torn file.
    """

    #: Registry name (``--backend`` value).
    name: str = ""
    #: Extension committed shard files carry under this backend.
    shard_extension: str = ""

    # -- shards -------------------------------------------------------------

    def open_shard(self, path: str) -> ShardWriter:
        """A streaming writer whose records land in ``path + '.tmp'``."""
        raise NotImplementedError

    # -- archives -----------------------------------------------------------

    def write_archive_lines(
        self,
        path: str,
        line_streams: Iterable[Iterator[str]],
        metadata: Optional[Dict[str, object]] = None,
        sink=None,
    ) -> Tuple[int, str]:
        """Merge ordered line streams into the archive at ``path``.

        The merged lines go through :meth:`open_shard`'s writer, which
        is sealed with ``metadata`` (record count filled in as
        ``experiments``) and atomically renamed over ``path``: the path
        holds either its previous content or the complete new archive.
        Returns ``(record_count, content_hash)`` where the hash is over
        the merged canonical lines — byte-equal to
        :meth:`Dataset.content_hash` of the same records, whatever the
        on-disk layout.  ``sink`` is called with each merged line as it
        is written (the pipelined-analysis hook).
        """
        writer = self.open_shard(path)
        try:
            for line in merged_shard_lines(line_streams):
                writer.append(line)
                if sink is not None:
                    sink(line)
            if metadata is not None:
                metadata = dict(metadata, experiments=writer.records)
            sealed = writer.seal(metadata)
        except BaseException:
            writer.abort()
            raise
        os.replace(writer.tmp_path, path)
        _fsync_dir(path)
        return sealed

    def write_dataset(self, path: str, dataset: Dataset) -> int:
        """Persist a whole in-memory dataset; returns the record count."""
        lines = (record.to_json_line() for record in dataset.experiments)
        count, _ = self.write_archive_lines(
            path, [lines], metadata=dataset.metadata or None
        )
        return count

    def load(self, path: str) -> Dataset:
        """Read an archive back into a :class:`Dataset`."""
        dataset = Dataset.load_jsonl(self.iter_lines(path))
        metadata = self.read_metadata(path)
        if metadata is not None:
            dataset.metadata = metadata
        return dataset

    def iter_lines(self, path: str) -> Iterator[str]:
        """Yield the stored canonical record lines, in order."""
        raise NotImplementedError

    def read_metadata(self, path: str) -> Optional[Dict[str, object]]:
        """The campaign metadata stored alongside the records, if any."""
        raise NotImplementedError

    def scan(self, path: str) -> ShardScan:
        """Verify one file end to end without raising on torn bytes."""
        raise NotImplementedError


# -- JSONL --------------------------------------------------------------------


class JsonlBackend(DatasetBackend):
    """The historical one-line-per-record format; the byte reference."""

    name = "jsonl"
    shard_extension = ".jsonl"

    class _Writer(ShardWriter):
        def __init__(self, path: str):
            super().__init__(path)
            self._handle = open(self.tmp_path, "w", encoding="utf-8")

        def _append(self, line: str) -> None:
            self._handle.write(line)
            self._handle.write("\n")

        def _flush(self) -> None:
            self._handle.flush()

        def _seal(self, metadata) -> None:
            if metadata is not None:
                self._handle.write(
                    json.dumps({"_metadata": metadata}, separators=(",", ":"))
                    + "\n"
                )
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

        def _abort(self) -> None:
            try:
                self._handle.close()
            except Exception:
                pass

    def open_shard(self, path: str) -> ShardWriter:
        return self._Writer(path)

    # Bound per class, not inherited: perfbench's tracer patches each
    # backend's own ``write_archive_lines``.
    write_archive_lines = DatasetBackend.write_archive_lines

    def iter_lines(self, path: str) -> Iterator[str]:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith('{"_metadata"'):
                    yield line

    def read_metadata(self, path: str) -> Optional[Dict[str, object]]:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith('{"_metadata"'):
                    return json.loads(line)["_metadata"]
        return None

    def scan(self, path: str) -> ShardScan:
        if not os.path.exists(path):
            return ShardScan("missing", detail="no such file")
        digest = hashlib.sha256()
        records = 0
        pending: Optional[str] = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    stripped = line.strip()
                    if not stripped:
                        continue
                    if pending is not None:
                        # A bad line with records after it: corruption,
                        # not a torn tail.
                        return ShardScan(
                            "corrupt", records, digest.hexdigest(),
                            f"unparsable line before end of file: "
                            f"{pending[:60]!r}...",
                        )
                    if stripped.startswith('{"_metadata"'):
                        continue
                    try:
                        json.loads(stripped)
                    except json.JSONDecodeError:
                        pending = stripped
                        continue
                    digest.update(stripped.encode("utf-8"))
                    digest.update(b"\n")
                    records += 1
        except (OSError, UnicodeDecodeError) as exc:
            return ShardScan("corrupt", records, digest.hexdigest(), str(exc))
        if pending is not None:
            return ShardScan(
                "truncated", records, digest.hexdigest(),
                f"torn final line ({len(pending)} bytes)",
            )
        return ShardScan("ok", records, digest.hexdigest())


# -- SQLite -------------------------------------------------------------------


class SqliteBackend(DatasetBackend):
    """Record lines stored verbatim in a stdlib SQLite database.

    Schema: ``records(seq INTEGER PRIMARY KEY, line TEXT)`` in insertion
    (event) order plus a one-row ``metadata`` table holding the campaign
    metadata JSON.  Lines are stored byte-for-byte, so replaying them
    reproduces the exact JSONL body — and therefore the exact content
    hash.
    """

    name = "sqlite"
    shard_extension = ".sqlite"

    _SCHEMA = (
        "CREATE TABLE records (seq INTEGER PRIMARY KEY, line TEXT NOT NULL);"
        "CREATE TABLE metadata (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
    )
    #: Rows buffered per executemany batch while appending.
    _BATCH = 256

    class _Writer(ShardWriter):
        def __init__(self, path: str):
            super().__init__(path)
            if os.path.exists(self.tmp_path):
                os.remove(self.tmp_path)
            self._con = sqlite3.connect(self.tmp_path)
            self._con.executescript(SqliteBackend._SCHEMA)
            self._batch: List[Tuple[str]] = []

        def _append(self, line: str) -> None:
            self._batch.append((line,))
            if len(self._batch) >= SqliteBackend._BATCH:
                self._flush()

        def _flush(self) -> None:
            if self._batch:
                self._con.executemany(
                    "INSERT INTO records (line) VALUES (?)", self._batch
                )
                self._con.commit()
                self._batch.clear()

        def _seal(self, metadata) -> None:
            self._flush()
            if metadata is not None:
                self._con.execute(
                    "INSERT INTO metadata (key, value) VALUES (?, ?)",
                    ("metadata", json.dumps(metadata, separators=(",", ":"))),
                )
            self._con.commit()
            self._con.close()
            _fsync_path(self.tmp_path)

        def _abort(self) -> None:
            try:
                self._con.close()
            except Exception:
                pass

    def open_shard(self, path: str) -> ShardWriter:
        return self._Writer(path)

    # Bound per class, not inherited: perfbench's tracer patches each
    # backend's own ``write_archive_lines``.
    write_archive_lines = DatasetBackend.write_archive_lines

    def iter_lines(self, path: str) -> Iterator[str]:
        con = sqlite3.connect(path)
        try:
            for (line,) in con.execute(
                "SELECT line FROM records ORDER BY seq"
            ):
                yield line
        finally:
            con.close()

    def read_metadata(self, path: str) -> Optional[Dict[str, object]]:
        con = sqlite3.connect(path)
        try:
            row = con.execute(
                "SELECT value FROM metadata WHERE key = 'metadata'"
            ).fetchone()
        except sqlite3.DatabaseError:
            row = None
        finally:
            con.close()
        return json.loads(row[0]) if row else None

    def scan(self, path: str) -> ShardScan:
        if not os.path.exists(path):
            return ShardScan("missing", detail="no such file")
        digest = hashlib.sha256()
        records = 0
        try:
            con = sqlite3.connect(path)
            try:
                for (line,) in con.execute(
                    "SELECT line FROM records ORDER BY seq"
                ):
                    json.loads(line)
                    digest.update(line.encode("utf-8"))
                    digest.update(b"\n")
                    records += 1
            finally:
                con.close()
        except sqlite3.DatabaseError as exc:
            # SQLite reports a half-written database as malformed; we
            # cannot tell a torn tail from deeper damage, so the safer
            # (and strictly honest) classification is corrupt.
            return ShardScan("corrupt", records, digest.hexdigest(), str(exc))
        except (ValueError, TypeError) as exc:
            return ShardScan(
                "corrupt", records, digest.hexdigest(),
                f"stored line is not valid JSON: {exc}",
            )
        return ShardScan("ok", records, digest.hexdigest())


# -- binary columnar ----------------------------------------------------------


class ColumnarBackend(DatasetBackend):
    """Sharded binary columnar layout.

    File structure (all little-endian)::

        magic   8s   b"RPROCOL1"
        hlen    <Q   header length in bytes
        header  JSON {"records", "metadata", "carriers", "sections"}
        ...section bytes...

    Sections (offsets in the header are relative to the end of the
    header): the probe-event key columns — ``started_at`` float64,
    ``carrier_id`` uint32 into the header's carrier table,
    ``device_index``/``sequence`` int64 — then ``offsets`` (N+1 uint64
    into the heap) and the ``heap``: every record's canonical JSON line
    bytes, concatenated.  Keys are readable without parsing a single
    line of JSON; the heap preserves the exact bytes the content hash
    is defined over.
    """

    name = "columnar"
    shard_extension = ".col"

    class _Writer(ShardWriter):
        def __init__(self, path: str):
            super().__init__(path)
            # Key columns accumulate in memory (a few machine words per
            # record); line payloads stream to the heap tmp file so the
            # writer never holds the record stream.
            self._heap_path = path + ".heap.tmp"
            self._heap = open(self._heap_path, "wb")
            self._started_at = array("d")
            self._carrier_ids = array("L")
            self._device_index = array("q")
            self._sequence = array("q")
            self._offsets = array("Q", [0])
            self._carriers: Dict[str, int] = {}
            self._heap_bytes = 0

        def _append(self, line: str) -> None:
            started_at, carrier, device_index, sequence = jsonl_event_key(line)
            carrier_id = self._carriers.setdefault(
                carrier, len(self._carriers)
            )
            encoded = line.encode("utf-8")
            self._heap.write(encoded)
            self._heap_bytes += len(encoded)
            self._started_at.append(started_at)
            self._carrier_ids.append(carrier_id)
            self._device_index.append(device_index)
            self._sequence.append(sequence)
            self._offsets.append(self._heap_bytes)

        def _flush(self) -> None:
            self._heap.flush()

        def _seal(self, metadata) -> None:
            self._heap.flush()
            self._heap.close()
            _assemble_columnar(
                self.tmp_path,
                self._heap_path,
                records=self.records,
                metadata=metadata,
                carriers=self._carriers,
                columns=(
                    self._started_at,
                    self._carrier_ids,
                    self._device_index,
                    self._sequence,
                    self._offsets,
                ),
            )
            os.remove(self._heap_path)

        def _abort(self) -> None:
            try:
                self._heap.close()
            except Exception:
                pass

    def open_shard(self, path: str) -> ShardWriter:
        return self._Writer(path)

    # Bound per class, not inherited: perfbench's tracer patches each
    # backend's own ``write_archive_lines``.
    write_archive_lines = DatasetBackend.write_archive_lines

    def _read_header(self, handle) -> Tuple[dict, int]:
        magic = handle.read(8)
        if magic != COLUMNAR_MAGIC:
            raise DatasetError(
                f"not a columnar archive (magic {magic!r})"
            )
        (hlen,) = struct.unpack("<Q", handle.read(8))
        header = json.loads(handle.read(hlen).decode("utf-8"))
        return header, 16 + hlen

    def iter_lines(self, path: str) -> Iterator[str]:
        with open(path, "rb") as handle:
            header, base = self._read_header(handle)
            sections = header["sections"]
            off_start, off_len = sections["offsets"]
            handle.seek(base + off_start)
            offsets = array("Q")
            offsets.frombytes(handle.read(off_len))
            heap_start, heap_len = sections["heap"]
            handle.seek(base + heap_start)
            heap = handle.read(heap_len)
        for index in range(header["records"]):
            yield heap[offsets[index]: offsets[index + 1]].decode("utf-8")

    def read_metadata(self, path: str) -> Optional[Dict[str, object]]:
        with open(path, "rb") as handle:
            header, _ = self._read_header(handle)
        return header.get("metadata")

    def columns(self, path: str) -> Dict[str, object]:
        """The stored probe-event key columns, without touching the heap.

        ``{"started_at": array('d'), "carrier": [str, ...],
        "device_index": array('q'), "sequence": array('q')}`` — what a
        merge or a time-window scan needs, read in four block I/Os.
        """
        with open(path, "rb") as handle:
            header, base = self._read_header(handle)
            sections = header["sections"]

            def read(name: str, typecode: str):
                start, length = sections[name]
                handle.seek(base + start)
                column = array(typecode)
                column.frombytes(handle.read(length))
                return column

            started_at = read("started_at", "d")
            carrier_ids = read("carrier_id", "L")
            device_index = read("device_index", "q")
            sequence = read("sequence", "q")
        table = header["carriers"]
        return {
            "started_at": started_at,
            "carrier": [table[i] for i in carrier_ids],
            "device_index": device_index,
            "sequence": sequence,
        }

    def scan(self, path: str) -> ShardScan:
        if not os.path.exists(path):
            return ShardScan("missing", detail="no such file")
        digest = hashlib.sha256()
        records = 0
        try:
            with open(path, "rb") as handle:
                header, base = self._read_header(handle)
                sections = header["sections"]
                expected = header["records"]
                heap_start, heap_len = sections["heap"]
                size = os.path.getsize(path)
                if base + heap_start + heap_len > size:
                    return ShardScan(
                        "truncated", 0, "",
                        f"file is {size} bytes; header promises "
                        f"{base + heap_start + heap_len}",
                    )
            for line in self.iter_lines(path):
                json.loads(line)
                digest.update(line.encode("utf-8"))
                digest.update(b"\n")
                records += 1
            if records != expected:
                return ShardScan(
                    "corrupt", records, digest.hexdigest(),
                    f"header promises {expected} records, heap holds "
                    f"{records}",
                )
        except (DatasetError, OSError, ValueError, KeyError,
                struct.error) as exc:
            return ShardScan("corrupt", records, digest.hexdigest(), str(exc))
        return ShardScan("ok", records, digest.hexdigest())


def _assemble_columnar(
    path: str,
    heap_path: str,
    records: int,
    metadata: Optional[Dict[str, object]],
    carriers: Dict[str, int],
    columns: Tuple[array, array, array, array, array],
) -> None:
    """Assemble a columnar file: header, key columns, offsets, heap."""
    started_at, carrier_ids, device_index, sequence, offsets = columns
    table = [""] * len(carriers)
    for key, index in carriers.items():
        table[index] = key
    blobs = [
        ("started_at", started_at.tobytes()),
        ("carrier_id", carrier_ids.tobytes()),
        ("device_index", device_index.tobytes()),
        ("sequence", sequence.tobytes()),
        ("offsets", offsets.tobytes()),
    ]
    sections: Dict[str, List[int]] = {}
    cursor = 0
    for name, blob in blobs:
        sections[name] = [cursor, len(blob)]
        cursor += len(blob)
    heap_len = os.path.getsize(heap_path)
    sections["heap"] = [cursor, heap_len]
    header = json.dumps(
        {
            "records": records,
            "metadata": metadata,
            "carriers": table,
            "sections": sections,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as out:
        out.write(COLUMNAR_MAGIC)
        out.write(struct.pack("<Q", len(header)))
        out.write(header)
        for _, blob in blobs:
            out.write(blob)
        with open(heap_path, "rb") as heap:
            while True:
                chunk = heap.read(1 << 20)
                if not chunk:
                    break
                out.write(chunk)
        out.flush()
        os.fsync(out.fileno())


# -- registry -----------------------------------------------------------------

#: The backend registry, in ``--backend`` choice order.
BACKENDS: Dict[str, DatasetBackend] = {
    backend.name: backend
    for backend in (JsonlBackend(), SqliteBackend(), ColumnarBackend())
}


def get_backend(name: str) -> DatasetBackend:
    """The registered backend for ``name`` (raises on unknown names)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset backend {name!r}; "
            f"expected one of {BACKEND_CHOICES}"
        ) from None


#: Extensions mapped to backends, for paths that do not exist yet.
_EXTENSION_BACKENDS = {
    ".jsonl": "jsonl",
    ".sqlite": "sqlite",
    ".db": "sqlite",
    ".col": "columnar",
    ".columnar": "columnar",
}


def resolve_backend(
    name: Optional[str], path: Optional[str] = None
) -> DatasetBackend:
    """Resolve an explicit backend name, else infer one from ``path``.

    Inference is by extension (``.sqlite``/``.db`` → sqlite,
    ``.col``/``.columnar`` → columnar) with JSONL — the reference — as
    the default for everything else.
    """
    if name:
        return get_backend(name)
    if path:
        _, extension = os.path.splitext(path)
        mapped = _EXTENSION_BACKENDS.get(extension.lower())
        if mapped:
            return get_backend(mapped)
    return get_backend("jsonl")


def sniff_backend(path: str) -> Optional[DatasetBackend]:
    """Identify the backend that wrote ``path`` from its first bytes.

    SQLite and columnar archives carry unambiguous magic; anything else
    readable is treated as JSONL.  Returns None when the file cannot be
    read (the caller decides how loud to be).
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(16)
    except OSError:
        return None
    if prefix.startswith(SQLITE_MAGIC):
        return get_backend("sqlite")
    if prefix.startswith(COLUMNAR_MAGIC):
        return get_backend("columnar")
    return get_backend("jsonl")


__all__ = [
    "BACKEND_CHOICES",
    "BACKENDS",
    "ColumnarBackend",
    "DatasetBackend",
    "JsonlBackend",
    "ShardScan",
    "ShardWriter",
    "SqliteBackend",
    "get_backend",
    "resolve_backend",
    "sniff_backend",
    "write_atomic",
]
