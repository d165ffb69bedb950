"""Span tracing for the traced run, installed from outside the program.

A :class:`Tracer` replaces the public entry points of each layer with
thin wrappers that read the clock and nothing else, so a traced
campaign consumes exactly the random streams an untraced one does and
writes the same bytes.  Each call becomes a span: name, start, end and
the span that was open when it began (its parent).  Spans are kept in
flat in-memory arrays and written out once, when the run ends.

Generator entry points (the event-queue drain, archive line readers)
are traced per resumption: every ``next()`` into the generator is one
span, parented to whoever pulled it, so time spent producing an item is
attributed to the generator's layer and not to its consumer.

A worker process forked from a traced parent gets the original,
unwrapped functions back (see :meth:`Tracer.install`): its spans could
not be returned to the parent, so it should not pay for them.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

#: The layer boundaries the traced run wraps: ``(module, attribute path,
#: span name, kind)``.  ``kind`` is ``"call"`` for functions and methods,
#: ``"gen"`` for generator functions (one span per resumption).  Names
#: bound into another module by ``from ... import`` are wrapped where
#: the caller looks them up.
LAYER_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.study", "CellularDNSStudy.__init__", "study.init", "call"),
    ("repro.core.study", "build_world", "world.build", "call"),
    ("repro.measure.campaign", "snapshot_world", "world.snapshot", "call"),
    ("repro.measure.campaign", "Campaign.run_streaming", "campaign.run", "call"),
    ("repro.measure.campaign", "ShardedCampaign.run_streaming", "campaign.run", "call"),
    ("repro.measure.checkpoint", "run_checkpointed", "campaign.run", "call"),
    ("repro.measure.campaign", "Campaign._iter_execute", "campaign.drive", "gen"),
    ("repro.measure.campaign", "_tail_jsonl_lines", "pool.tail", "gen"),
    ("repro.measure.experiment", "ExperimentRunner.run", "experiment.run", "call"),
    ("repro.measure.probes", "DeviceProbeSession.begin", "probes.session_begin", "call"),
    ("repro.measure.probes", "DeviceProbeSession.dns_local", "probes.dns_local", "call"),
    ("repro.measure.probes", "DeviceProbeSession.dns_public", "probes.dns_public", "call"),
    ("repro.measure.probes", "DeviceProbeSession.bootstrap_ping", "probes.ping", "call"),
    ("repro.measure.probes", "DeviceProbeSession.ping_ip", "probes.ping", "call"),
    ("repro.measure.probes", "DeviceProbeSession.ping_configured_resolver",
     "probes.ping", "call"),
    ("repro.measure.probes", "DeviceProbeSession.ping_public_resolver",
     "probes.ping", "call"),
    ("repro.measure.probes", "DeviceProbeSession.traceroute_ip", "probes.traceroute", "call"),
    ("repro.measure.probes", "DeviceProbeSession.http_get", "probes.http", "call"),
    ("repro.dns.recursive", "RecursiveEngine.resolve", "dns.resolve", "call"),
    ("repro.cdn.provider", "CDNProvider.select_replicas", "cdn.select", "call"),
    ("repro.measure.records", "ExperimentRecord.to_json_line", "records.serialize", "call"),
    ("repro.measure.records", "Dataset.content_hash", "records.content_hash", "call"),
    ("repro.measure.records", "Dataset.load", "records.load", "call"),
    ("repro.measure.backends", "JsonlBackend.write_archive_lines",
     "backends.write_archive", "call"),
    ("repro.measure.backends", "SqliteBackend.write_archive_lines",
     "backends.write_archive", "call"),
    ("repro.measure.backends", "ColumnarBackend.write_archive_lines",
     "backends.write_archive", "call"),
    ("repro.measure.backends", "JsonlBackend.iter_lines", "backends.iter_lines", "gen"),
    ("repro.measure.backends", "SqliteBackend.iter_lines", "backends.iter_lines", "gen"),
    ("repro.measure.backends", "ColumnarBackend.iter_lines", "backends.iter_lines", "gen"),
    ("repro.measure.backends", "ShardWriter.seal", "backends.seal", "call"),
    ("repro.measure.checkpoint", "CheckpointStore.commit_shard", "checkpoint.commit", "call"),
    ("repro.analysis.engine", "ProjectionAccumulator.ingest", "analysis.ingest", "call"),
    ("repro.analysis.engine", "ProjectionAccumulator.ingest_line",
     "analysis.ingest_line", "call"),
    ("repro.analysis.engine", "ProjectionAccumulator.finalize", "analysis.finalize", "call"),
    ("repro.analysis.suite", "regenerate_report", "suite.regenerate", "call"),
)

#: Counter bumped by the ``dns.resolve`` wrapper for answers served
#: from cache (``RecursiveResult.cache_hit``).
DNS_CACHE_HITS = "dns.cache_hits"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Span ``i`` is stored column-wise: ``name_ids[i]`` (index into
    :attr:`names`), ``parents[i]`` (-1 for a root), ``starts[i]`` and
    ``ends[i]`` (``clock()`` seconds).  A span is allocated when it
    opens, so a parent's index is always lower than its children's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.ends)

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    # -- wrappers -----------------------------------------------------------

    def wrap_call(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` wrapped so that every call is one span named ``name``."""
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack
        ends = self.ends
        add_name = self.name_ids.append
        add_parent = self.parents.append
        add_start = self.starts.append
        add_end = ends.append

        def traced(*args, **kwargs):
            index = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, genfn: Callable) -> Callable:
        """``genfn`` wrapped so that every resumption is one span."""
        nid = self.name_id(name)
        clock = self.clock
        stack = self._stack
        ends = self.ends
        add_name = self.name_ids.append
        add_parent = self.parents.append
        add_start = self.starts.append
        add_end = ends.append

        def segments(generator):
            try:
                while True:
                    index = len(ends)
                    add_name(nid)
                    add_parent(stack[-1])
                    add_end(0.0)
                    stack.append(index)
                    add_start(clock())
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        ends[index] = clock()
                        stack.pop()
                    yield item
            finally:
                generator.close()

        def traced(*args, **kwargs):
            return segments(genfn(*args, **kwargs))

        traced.__name__ = getattr(genfn, "__name__", name)
        traced.__wrapped__ = genfn
        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str, kind: str,
              on_result=None) -> None:
        """Replace ``owner.attribute`` by its traced version.

        Only attributes ``owner`` defines itself are patched; class and
        static methods keep their descriptor type.
        """
        original = vars(owner)[attribute]
        function = original
        if isinstance(original, (classmethod, staticmethod)):
            function = original.__func__
        if kind == "gen":
            wrapped = self.wrap_generator(name, function)
        else:
            wrapped = self.wrap_call(name, function, on_result)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attribute, wrapped)
        self._restore.append((owner, attribute, original))

    def install(self, points: Sequence[Tuple[str, str, str, str]] = LAYER_POINTS) -> None:
        """Wrap every layer point; forked children get the originals back."""
        for module_name, path, name, kind in points:
            owner: object = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            on_result = self._count_cache_hit if name == "dns.resolve" else None
            self.patch(owner, attribute, name, kind, on_result)
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _count_cache_hit(self, result) -> None:
        if result.cache_hit:
            self.counts[DNS_CACHE_HITS] = self.counts.get(DNS_CACHE_HITS, 0) + 1

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the four columns
        as raw native-endian arrays (int32, int32, float64, float64)."""
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": ["name_id:i", "parent:i", "start:d", "end:d"],
            "counts": self.counts,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (their union), so self times of a tree
    always sum to its root's duration.
    """
    count = len(ends)
    children: Dict[int, List[int]] = {}
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [ends[index] - starts[index] for index in range(count)]
    for parent, kids in children.items():
        low, high = starts[parent], ends[parent]
        intervals = sorted(
            (max(starts[kid], low), min(ends[kid], high)) for kid in kids
        )
        covered = 0.0
        run_start = run_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            elif end > run_end:
                run_end = end
        if run_end is not None:
            covered += run_end - run_start
        result[parent] -= covered
    return result


def summarize(
    tracer: Tracer, since: float
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``; plus the
    summed self time of every span that began at or after ``since``.

    ``total_s`` sums durations of spans whose parent has another name,
    so a layer that calls itself is not counted twice.  The second
    value is the part of the window after ``since`` that spans account
    for: compared with the window's length it shows how much of the
    traced work time the layers explain.
    """
    names, name_ids, parents = tracer.names, tracer.name_ids, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    selfs = self_times(parents, starts, ends)
    table: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names
    }
    window_self_s = 0.0
    for index in range(len(ends)):
        nid = name_ids[index]
        row = table[names[nid]]
        row["calls"] += 1
        row["self_s"] += selfs[index]
        parent = parents[index]
        if parent < 0 or name_ids[parent] != nid:
            row["total_s"] += ends[index] - starts[index]
        if starts[index] >= since:
            window_self_s += selfs[index]
    return table, window_self_s
