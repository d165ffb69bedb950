"""Campaign and substrate benchmarks.

Performance work on the simulator is held to two commitments at once:

* **Throughput** — experiments per second, serial and sharded
  (:class:`~repro.measure.campaign.ShardedCampaign`).
* **Exactness** — the sharded dataset must hash identically to the
  serial one; a benchmark that got faster by diverging is a regression.

``run_benchmarks`` measures both, plus microbenchmarks of the hot
substrate primitives (longest-prefix-match AS lookup, the memoised WAN
latency model, great-circle distance), and writes the result to
``BENCH_campaign.json`` so successive PRs leave a comparable trail.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.addressing import Prefix, int_to_ip
from repro.core.asn import ASKind, AutonomousSystem, FirewallPolicy
from repro.core.internet import VirtualInternet
from repro.core.world import WorldConfig, build_world
from repro.geo.coordinates import GeoPoint
from repro.geo.latency import WanLatencyModel

#: Default output artifact, at the repository root.
BENCH_OUTPUT = "BENCH_campaign.json"

#: Content hash of the smoke-scale campaign (seed 2014, device_scale
#: 0.05, 14 days, 12 h interval) under the fault-free scenario.  The
#: transport layer's byte-identity contract pins it: ``bench_check``
#: and the determinism tests fail if a fault-free campaign ever drifts
#: from the pre-transport engine's bytes.  Re-pinned when CDN mapping
#: decisions became order-independent (per-/24 canonical anchors): the
#: previous bytes encoded whichever resolver happened to query each /24
#: first, which is exactly the order-dependence the fix removed.
SMOKE_DATASET_SHA256 = (
    "42b940625b2c4b19a61f3adc369eac4c1fc888edf11be3266330dca2ec281d1a"
)


@dataclass
class BenchScale:
    """Knobs for the campaign-throughput benchmark."""

    seed: int = 2014
    device_scale: float = 0.5
    duration_days: float = 7.0
    interval_hours: float = 12.0
    workers: int = 0  # 0 = min(device ranges, cpus)


def smoke_scale(seed: int = 2014, workers: int = 0) -> BenchScale:
    """A ~30s scale for ``repro-study bench --smoke`` / ``make bench-smoke``."""
    return BenchScale(
        seed=seed,
        device_scale=0.05,
        duration_days=14.0,
        interval_hours=12.0,
        workers=workers,
    )


# -- campaign throughput ------------------------------------------------------


def bench_campaign(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """Serial vs sharded throughput, with the identity check.

    The serial leg times :meth:`Campaign.run`; the sharded leg times
    :meth:`ShardedCampaign.run_streaming` into a temporary archive —
    the path every multiprocess run takes.
    """
    import tempfile

    from repro.measure.campaign import (
        Campaign,
        CampaignConfig,
        ShardedCampaign,
        select_executor,
    )

    scale = scale or BenchScale()
    world_config = WorldConfig(seed=scale.seed)
    campaign_config = CampaignConfig(
        device_scale=scale.device_scale,
        duration_days=scale.duration_days,
        interval_hours=scale.interval_hours,
    )

    serial_campaign = Campaign(build_world(world_config), campaign_config)
    started = time.perf_counter()
    serial = serial_campaign.run()
    serial_s = time.perf_counter() - started

    with ShardedCampaign(
        build_world(world_config),
        campaign_config,
        workers=scale.workers or None,
    ) as sharded_campaign, tempfile.TemporaryDirectory(
        prefix="repro-bench-campaign-"
    ) as tmp:
        started = time.perf_counter()
        sharded = sharded_campaign.run_streaming(
            os.path.join(tmp, "campaign.jsonl")
        )
        sharded_s = time.perf_counter() - started

    serial_hash = serial.content_hash()
    experiments = len(serial)
    return {
        # Delivery-outcome tally of every send the serial campaign made;
        # run_benchmarks lifts this into the report's transport section.
        "transport_counters": (
            serial_campaign.world.transport.counters.as_dict()
        ),
        "device_scale": scale.device_scale,
        "duration_days": scale.duration_days,
        "interval_hours": scale.interval_hours,
        "devices": len(serial_campaign.devices),
        "experiments": experiments,
        "workers": sharded_campaign.workers,
        "shards": sharded_campaign.shards,
        "device_ranges": len(sharded_campaign.ranges),
        # What an `--executor auto` run would pick on this box (sized
        # against the sub-carrier device-range count, not carriers).
        "executor": select_executor(
            "auto", shard_count=len(sharded_campaign.ranges)
        ),
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "serial_exp_per_s": round(experiments / serial_s, 1),
        "sharded_exp_per_s": round(experiments / sharded_s, 1),
        "sharded_speedup": round(serial_s / sharded_s, 2),
        "dataset_hash": serial_hash,
        "hash_match": serial_hash == sharded["content_hash"],
    }


# -- warm worker-pool economics -----------------------------------------------


def bench_workers(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """Worker-pool economics: snapshot boots, pool reuse, repeat runs.

    Three measurements behind the warm-pool executor design:

    * **snapshot vs rebuild bootstrap** — one ``pickle.loads`` of the
      parent's pristine world snapshot vs one ``build_world``, best of
      three, in microseconds.  This is the per-worker cost a pool
      initializer pays under each boot mode.
    * **pool reuse** — two streaming runs on one
      :class:`~repro.measure.campaign.ShardedCampaign`; the second must
      reuse the first's live pool (``pool_stats``), paying zero
      interpreter spawns.
    * **cold vs warm run** — both streaming runs are timed: the first
      on a cold pool, the second on the warm one.  Run tokens make
      repeated runs idempotent, so the two must hash identically.
    """
    import tempfile

    from repro.core.world import boot_world, snapshot_world
    from repro.measure.campaign import (
        CampaignConfig,
        ShardedCampaign,
        resolve_mp_context,
        usable_cores,
    )

    scale = scale or BenchScale()
    world_config = WorldConfig(seed=scale.seed)
    campaign_config = CampaignConfig(
        device_scale=scale.device_scale,
        duration_days=scale.duration_days,
        interval_hours=scale.interval_hours,
    )

    world = build_world(world_config)
    snapshot = snapshot_world(world)
    snapshot_boots: List[float] = []
    rebuild_boots: List[float] = []
    for _ in range(3):
        started = time.perf_counter()
        _, mode = boot_world(snapshot, world_config)
        snapshot_boots.append(time.perf_counter() - started)
        started = time.perf_counter()
        boot_world(None, world_config)
        rebuild_boots.append(time.perf_counter() - started)

    workers = scale.workers or min(usable_cores(), 4)
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-workers-")
    try:
        with ShardedCampaign(
            build_world(world_config), campaign_config, workers=workers
        ) as campaign:
            started = time.perf_counter()
            first = campaign.run_streaming(os.path.join(tmpdir, "first.jsonl"))
            first_s = time.perf_counter() - started
            started = time.perf_counter()
            second = campaign.run_streaming(os.path.join(tmpdir, "second.jsonl"))
            second_s = time.perf_counter() - started
            pool_stats = dict(campaign.pool_stats)
            shards = campaign.shards
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    snapshot_boot = min(snapshot_boots)
    rebuild_boot = min(rebuild_boots)
    return {
        "snapshot_bytes": len(snapshot or b""),
        "snapshot_boot_mode": mode,
        "snapshot_boot_us": round(snapshot_boot * 1e6, 1),
        "rebuild_boot_us": round(rebuild_boot * 1e6, 1),
        "snapshot_speedup": round(rebuild_boot / max(snapshot_boot, 1e-9), 2),
        "mp_context": resolve_mp_context("auto"),
        "workers": workers,
        "shards": shards,
        "pools_created": pool_stats["created"],
        "pool_reuse_hits": pool_stats["reused"],
        "first_run_s": round(first_s, 3),
        "second_run_s": round(second_s, 3),
        "hash_match": first["content_hash"] == second["content_hash"],
    }


# -- per-stage experiment breakdown -------------------------------------------

#: Probe-session method -> reported stage.  ``identify_resolver`` is
#: deliberately absent: it delegates to ``dns_local``/``dns_public``,
#: which are timed where they run, so wrapping it would double-count.
_STAGE_OF_METHOD: Dict[str, str] = {
    "dns_local": "dns",
    "dns_public": "dns",
    "bootstrap_ping": "ping",
    "ping_ip": "ping",
    "ping_configured_resolver": "ping",
    "ping_public_resolver": "ping",
    "traceroute_ip": "traceroute",
    "http_get": "http",
}

STAGES = ("dns", "ping", "traceroute", "http", "serialize")


def _timed_session_class(totals: Dict[str, float], counts: Dict[str, int]):
    """A DeviceProbeSession subclass that meters each probe method."""
    from repro.measure.probes import DeviceProbeSession

    class TimedProbeSession(DeviceProbeSession):
        pass

    def _wrap(name: str, stage: str):
        original = getattr(DeviceProbeSession, name)

        def timed(self, *args, **kwargs):
            started = time.perf_counter()
            result = original(self, *args, **kwargs)
            totals[stage] += time.perf_counter() - started
            counts[stage] += 1
            return result

        timed.__name__ = name
        setattr(TimedProbeSession, name, timed)

    # Exact signatures for the dns methods (no *args/**kwargs packing):
    # the dns stage is the benchmark's headline per-call figure, so the
    # meter's own overhead on it is kept to the two clock reads.
    def dns_local(self, qname, now, attempt=1):
        started = time.perf_counter()
        result = DeviceProbeSession.dns_local(self, qname, now, attempt)
        totals["dns"] += time.perf_counter() - started
        counts["dns"] += 1
        return result

    def dns_public(self, kind, qname, now, attempt=1):
        started = time.perf_counter()
        result = DeviceProbeSession.dns_public(self, kind, qname, now, attempt)
        totals["dns"] += time.perf_counter() - started
        counts["dns"] += 1
        return result

    TimedProbeSession.dns_local = dns_local
    TimedProbeSession.dns_public = dns_public

    for name, stage in _STAGE_OF_METHOD.items():
        if name in ("dns_local", "dns_public"):
            continue
        _wrap(name, stage)
    return TimedProbeSession


#: DNS sub-phases reported under ``stages`` (see ``_instrument_dns``).
DNS_SUBPHASES = ("dns_cache_hit", "dns_walk", "dns_cdn_select")


def _instrument_dns(totals: Dict[str, float], counts: Dict[str, int]):
    """Meter the DNS hot path's sub-phases; returns a restore callable.

    Patches, at class level, the three nested layers of one resolution:
    ``RecursiveEngine.resolve`` (everything), ``_resolve_upstream`` (the
    authority walk a cache miss pays, whether replayed from a compiled
    plan or walked generically), and ``CDNProvider.select_replicas``
    (replica selection inside a CDN authority's answer).  Subtracting
    nested totals yields the exclusive split reported as
    ``dns_cache_hit_s`` (cache layer: peek, result building, puts),
    ``dns_walk_s`` (authority chain minus CDN selection) and
    ``dns_cdn_select_s``.  The wrappers only read the clock, so the
    metered campaign consumes exactly the streams a plain run would.
    """
    from repro.cdn.provider import CDNProvider
    from repro.dns.recursive import RecursiveEngine

    original_resolve = RecursiveEngine.resolve
    original_upstream = RecursiveEngine._resolve_upstream
    original_select = CDNProvider.select_replicas

    # Exact signatures (no *args/**kwargs packing): the wrappers sit on
    # the hottest call paths being measured, so their own overhead must
    # stay minimal.
    def timed_resolve(
        self, qname, qtype, now, stream, client_subnet=None, cache_scope=None
    ):
        started = time.perf_counter()
        try:
            return original_resolve(
                self, qname, qtype, now, stream, client_subnet, cache_scope
            )
        finally:
            totals["resolve"] += time.perf_counter() - started
            counts["resolve"] += 1

    def timed_upstream(self, qname, qtype, now, stream, client_subnet):
        started = time.perf_counter()
        try:
            return original_upstream(
                self, qname, qtype, now, stream, client_subnet
            )
        finally:
            totals["upstream"] += time.perf_counter() - started
            counts["upstream"] += 1

    def timed_select(self, spec, resolver_ip, now, client_subnet=None):
        started = time.perf_counter()
        try:
            return original_select(self, spec, resolver_ip, now, client_subnet)
        finally:
            totals["cdn"] += time.perf_counter() - started
            counts["cdn"] += 1

    RecursiveEngine.resolve = timed_resolve
    RecursiveEngine._resolve_upstream = timed_upstream
    CDNProvider.select_replicas = timed_select

    def restore() -> None:
        RecursiveEngine.resolve = original_resolve
        RecursiveEngine._resolve_upstream = original_upstream
        CDNProvider.select_replicas = original_select

    return restore


def bench_stage_breakdown(
    scale: Optional[BenchScale] = None,
) -> Dict[str, object]:
    """Wall time per experiment stage: dns/ping/traceroute/http/serialize.

    Runs a (small, serial) campaign with an instrumented probe session,
    then times JSONL emission of the produced records.  The instrumented
    run consumes exactly the streams the plain run would — the wrappers
    only read the clock — so the campaign it measures is the campaign
    the study runs.
    """
    from repro.measure.campaign import Campaign, CampaignConfig

    # Collect debris left by whatever ran before (run_benchmarks runs the
    # big campaign first): the breakdown should time *this* campaign, not
    # the previous benchmark's garbage.
    gc.collect()

    from repro.core.rng import derived_seed_cache_info

    scale = scale or smoke_scale()
    totals: Dict[str, float] = {stage: 0.0 for stage in STAGES}
    counts: Dict[str, int] = {stage: 0 for stage in STAGES}
    derived_before = derived_seed_cache_info()
    campaign = Campaign(
        build_world(WorldConfig(seed=scale.seed)),
        CampaignConfig(
            device_scale=scale.device_scale,
            duration_days=scale.duration_days,
            interval_hours=scale.interval_hours,
        ),
    )
    campaign.runner.session_class = _timed_session_class(totals, counts)
    dns_totals: Dict[str, float] = {"resolve": 0.0, "upstream": 0.0, "cdn": 0.0}
    dns_counts: Dict[str, int] = {"resolve": 0, "upstream": 0, "cdn": 0}
    restore_dns = _instrument_dns(dns_totals, dns_counts)
    try:
        started = time.perf_counter()
        dataset = campaign.run()
        total_s = time.perf_counter() - started
    finally:
        restore_dns()

    started = time.perf_counter()
    for record in dataset:
        record.to_json_line()
    totals["serialize"] = time.perf_counter() - started
    counts["serialize"] = len(dataset)

    probed_s = sum(totals.values())
    report: Dict[str, object] = {
        "experiments": len(dataset),
        "total_s": round(total_s + totals["serialize"], 3),
        "other_s": round(max(total_s - (probed_s - totals["serialize"]), 0.0), 3),
    }
    for stage in STAGES:
        report[f"{stage}_s"] = round(totals[stage], 3)
        report[f"{stage}_calls"] = counts[stage]
        report[f"{stage}_us_per_call"] = (
            round(totals[stage] / counts[stage] * 1e6, 1) if counts[stage] else 0.0
        )
    # Exclusive DNS sub-phase split (see _instrument_dns).
    report["dns_resolve_calls"] = dns_counts["resolve"]
    report["dns_upstream_calls"] = dns_counts["upstream"]
    report["dns_cache_hit_s"] = round(
        max(dns_totals["resolve"] - dns_totals["upstream"], 0.0), 3
    )
    report["dns_walk_s"] = round(
        max(dns_totals["upstream"] - dns_totals["cdn"], 0.0), 3
    )
    report["dns_cdn_select_s"] = round(dns_totals["cdn"], 3)
    report["dns_cdn_select_calls"] = dns_counts["cdn"]
    # Draw-pool counters for the campaign just timed, plus the
    # _derived_from_parts memo's hit/miss delta over the run (the cache
    # is process-global, so only the delta describes this campaign).
    # run_benchmarks lifts this into the report's top-level ``sampler``
    # section.
    derived_after = derived_seed_cache_info()
    report["sampler"] = {
        **campaign.world.rng.pool_stats(),
        "derived_seed_cache": {
            "hits": derived_after["hits"] - derived_before["hits"],
            "misses": derived_after["misses"] - derived_before["misses"],
            "currsize": derived_after["currsize"],
        },
    }
    return report


# -- event scheduler and shard merge ------------------------------------------


def bench_scheduler(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """Event-queue throughput and shard-merge memory, in one section.

    Two measurements:

    * **queue drain** — events/s through :class:`ProbeEventQueue` driven
      exactly the way ``Campaign._iter_execute`` drives it (push one
      event per device, pop-then-push-next until empty), with the probe
      work stubbed out, so the number is the scheduling machinery alone;
    * **shard merge** — peak traced allocation of packaging one campaign
      from spilled shard JSONL the way the sharded executor's parent
      does (the JSONL backend's ``write_archive_lines`` over the files,
      holding one pending line per shard — what ``run_streaming()``
      holds), next to the spill files' total size.  The merge must land
      on the serial content hash; its peak is the number that makes
      million-experiment campaigns packageable on a laptop.
    """
    import tempfile
    import tracemalloc

    from repro.measure.campaign import Campaign, CampaignConfig
    from repro.measure.backends import get_backend
    from repro.measure.records import record_event_key
    from repro.measure.scheduler import ExperimentSchedule, ProbeEventQueue

    gc.collect()
    scale = scale or smoke_scale()

    # Queue drain: a synthetic month-long hourly population, no probes.
    schedule = ExperimentSchedule(
        start=0.0, end=30 * 86400.0, seed=scale.seed, interval_s=3600.0
    )
    queue = ProbeEventQueue()
    started = time.perf_counter()
    for index in range(256):
        times = schedule.iter_times(f"bench-{index:03d}")
        first = next(times, None)
        if first is not None:
            queue.push(first, "bench", index, 0, times)
    events = 0
    while queue:
        _, carrier, index, sequence, times = queue.pop()
        events += 1
        following = next(times, None)
        if following is not None:
            queue.push(following, carrier, index, sequence + 1, times)
    drain_s = time.perf_counter() - started

    # Shard merge: one smoke campaign, split into four event-ordered
    # shards (the executor's output shape), then merged.
    campaign = Campaign(
        build_world(WorldConfig(seed=scale.seed)),
        CampaignConfig(
            device_scale=scale.device_scale,
            duration_days=scale.duration_days,
            interval_hours=scale.interval_hours,
        ),
    )
    dataset = campaign.run()
    serial_hash = dataset.content_hash()
    shard_count = 4
    shards = [
        sorted(list(dataset)[index::shard_count], key=record_event_key)
        for index in range(shard_count)
    ]

    with tempfile.TemporaryDirectory(prefix="repro-bench-merge-") as tmp:
        paths = []
        for index, shard in enumerate(shards):
            path = os.path.join(tmp, f"shard-{index}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                for record in shard:
                    handle.write(record.to_json_line() + "\n")
            paths.append(path)
        del shards, dataset, campaign
        spill_bytes = sum(os.path.getsize(path) for path in paths)

        def lines_of(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield line

        # Streaming packaging: what run_streaming()'s parent holds — one
        # pending line per shard plus the write block.
        output = os.path.join(tmp, "merged.jsonl")
        gc.collect()
        tracemalloc.start()
        count, streaming_hash = get_backend("jsonl").write_archive_lines(
            output, (lines_of(path) for path in paths)
        )
        streaming_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    return {
        "queue_events": events,
        "queue_drain_s": round(drain_s, 4),
        "queue_events_per_s": round(events / drain_s),
        "merge_experiments": count,
        "merge_shards": shard_count,
        "spill_kb": round(spill_bytes / 1024, 1),
        "streaming_peak_kb": round(streaming_peak / 1024, 1),
        "hash_match": serial_hash == streaming_hash,
    }


# -- analysis fast path -------------------------------------------------------


def bench_analysis(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """The analysis fast path, end to end (see ``analysis/engine``).

    Times every layer of the ISSUE's tentpole on one campaign:

    * **ingest** — ``Dataset.loads_jsonl`` (the fast path) vs
      ``load_jsonl_reference`` (per-line ``from_json``), hash-checked;
    * **engine scan** — one cold fused scan over the columnar
      projections (plus the projection build itself);
    * **regeneration** — steady-state full table+figure rendering via
      the engine vs the original per-function walks.  Steady state is
      what the ``benchmarks/bench_*`` suites and repeated report/claim
      renders measure: the dataset is unchanged, so the engine's query
      cache holds;
    * **result cache** — a whole-report replay through
      :class:`~repro.analysis.result_cache.AnalysisResultCache`
      (includes the content hash that keys it).

    ``byte_identical`` asserts the fused document, the reference
    document, and the datasets' content hashes all agree — a benchmark
    that got faster by diverging is a regression, same rule as the
    campaign benchmark's ``hash_match``.
    """
    from io import StringIO

    from repro.analysis.engine import get_engine
    from repro.analysis.result_cache import AnalysisResultCache
    from repro.analysis.suite import (
        _FUSED,
        _REFERENCE,
        _render_figures,
        _render_tables,
        regenerate_report,
    )
    from repro.core.study import CellularDNSStudy, StudyConfig
    from repro.measure.records import Dataset

    gc.collect()
    scale = scale or smoke_scale()
    study = CellularDNSStudy(
        StudyConfig(
            seed=scale.seed,
            device_scale=scale.device_scale,
            duration_days=scale.duration_days,
            interval_hours=scale.interval_hours,
            executor="serial",
        )
    )
    dataset = study.dataset
    experiments = len(dataset)
    dataset_hash = dataset.content_hash()

    buffer = StringIO()
    dataset.dump_jsonl(buffer)
    text = buffer.getvalue()

    def best_of(render, rounds: int = 3) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            render()
            best = min(best, time.perf_counter() - started)
        return best

    # Best-of-3 on both ingest paths: a single cold call at smoke scale
    # is dominated by first-touch effects, not the decoder.
    loaded = Dataset.loads_jsonl(text)
    loaded_reference = Dataset.load_jsonl_reference(text.split("\n"))
    load_s = best_of(lambda: Dataset.loads_jsonl(text))
    load_reference_s = best_of(
        lambda: Dataset.load_jsonl_reference(text.split("\n"))
    )
    load_hash_match = (
        loaded.content_hash() == dataset_hash
        and loaded_reference.content_hash() == dataset_hash
    )

    dataset._invalidate()
    started = time.perf_counter()
    get_engine(dataset)
    engine_scan_s = time.perf_counter() - started

    # Warm both paths once (fills the engine query cache / the dataset
    # grouping indices), then time steady state.
    fused = regenerate_report(study)
    reference = regenerate_report(study, reference=True)
    tables_s = best_of(lambda: _render_tables(study, _FUSED))
    figures_s = best_of(lambda: _render_figures(study, _FUSED))
    reference_tables_s = best_of(lambda: _render_tables(study, _REFERENCE))
    reference_figures_s = best_of(lambda: _render_figures(study, _REFERENCE))

    byte_identical = (
        fused.text == reference.text
        and fused.dataset_hash == reference.dataset_hash
        and load_hash_match
    )

    result_cache = AnalysisResultCache()
    regenerate_report(study, cache_store=result_cache)
    started = time.perf_counter()
    replayed = regenerate_report(study, cache_store=result_cache)
    cache_hit_s = time.perf_counter() - started

    fused_total = tables_s + figures_s
    reference_total = reference_tables_s + reference_figures_s
    return {
        "experiments": experiments,
        "dataset_hash": dataset_hash,
        "load_s": round(load_s, 4),
        "load_reference_s": round(load_reference_s, 4),
        "load_speedup": round(load_reference_s / load_s, 2),
        "engine_scan_s": round(engine_scan_s, 4),
        "tables_s": round(tables_s, 4),
        "figures_s": round(figures_s, 4),
        "reference_tables_s": round(reference_tables_s, 4),
        "reference_figures_s": round(reference_figures_s, 4),
        "regeneration_speedup": round(reference_total / fused_total, 2),
        "us_per_record": round(fused_total / experiments * 1e6, 1),
        "scan_us_per_record": round(engine_scan_s / experiments * 1e6, 1),
        "cache_hit_s": round(cache_hit_s, 4),
        "cache_replayed": replayed.cached,
        "byte_identical": byte_identical,
    }


def bench_backends(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """Per-backend archive append/load throughput, hash-checked.

    One smoke-scale campaign dataset is written and re-read through
    every registered storage backend (see
    :mod:`repro.measure.backends`), best-of-3 on both directions.
    ``append_us_per_record`` covers serialisation plus the backend's
    write path — for JSONL that is exactly the historical
    ``Dataset.save`` path, so this number is the regression gate for
    the archive writer.  ``hash_match`` asserts the roundtripped
    dataset's :meth:`Dataset.content_hash` is identical under every
    backend — a backend that got faster by changing the bytes is a
    regression, same rule as the campaign benchmark.
    """
    import tempfile

    from repro.core.study import CellularDNSStudy, StudyConfig
    from repro.measure.backends import BACKEND_CHOICES, get_backend
    from repro.measure.records import Dataset

    gc.collect()
    scale = scale or smoke_scale()
    study = CellularDNSStudy(
        StudyConfig(
            seed=scale.seed,
            device_scale=scale.device_scale,
            duration_days=scale.duration_days,
            interval_hours=scale.interval_hours,
            executor="serial",
        )
    )
    dataset = study.dataset
    experiments = len(dataset)
    dataset_hash = dataset.content_hash()
    report: Dict[str, object] = {
        "experiments": experiments,
        "dataset_hash": dataset_hash,
        "hash_match": True,
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-backends-") as tmp:
        for name in BACKEND_CHOICES:
            backend = get_backend(name)
            path = os.path.join(tmp, f"archive{backend.shard_extension}")
            append_s = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                dataset.save(path, backend=name)
                append_s = min(append_s, time.perf_counter() - started)
            load_s = float("inf")
            loaded = None
            for _ in range(3):
                started = time.perf_counter()
                loaded = Dataset.load(path, backend=name)
                load_s = min(load_s, time.perf_counter() - started)
            hash_match = loaded.content_hash() == dataset_hash
            report["hash_match"] = report["hash_match"] and hash_match
            report[name] = {
                "append_us_per_record": round(append_s / experiments * 1e6, 1),
                "load_us_per_record": round(load_s / experiments * 1e6, 1),
                "archive_bytes": os.path.getsize(path),
                "hash_match": hash_match,
            }
    return report


def bench_pipeline(scale: Optional[BenchScale] = None) -> Dict[str, object]:
    """Pipelined campaign→report vs the post-hoc two-pass flow.

    Two end-to-end legs over the same campaign scale:

    * **post-hoc** — stream the campaign to JSONL, then load the file
      back and render the full report (the pre-pipeline flow: archive
      bytes are decoded a second time and scanned into the engine);
    * **streaming** — stream the campaign with a
      :class:`~repro.analysis.engine.ProjectionAccumulator` riding the
      merge, then render from the finalized engine.  The archive is
      written identically but never re-read.

    ``pipeline_advantage_s`` is the wall-clock the streaming leg saves;
    ``bench_check`` gates it against the committed analysis ingest +
    scan cost it is supposed to absorb.  ``byte_identical`` asserts the
    two rendered reports and the archive hashes agree.  The serializer
    pace and the accumulator's peak footprint (tracemalloc, aggregates
    only — never the record stream) ride along.
    """
    import tempfile
    import tracemalloc

    from repro.analysis.engine import ProjectionAccumulator, StreamedDataset
    from repro.core.study import CellularDNSStudy, StudyConfig
    from repro.measure.records import Dataset

    gc.collect()
    scale = scale or BenchScale()

    def fresh_study() -> CellularDNSStudy:
        return CellularDNSStudy(
            StudyConfig(
                seed=scale.seed,
                device_scale=scale.device_scale,
                duration_days=scale.duration_days,
                interval_hours=scale.interval_hours,
                executor="serial",
            )
        )

    tmpdir = tempfile.mkdtemp(prefix="repro-bench-pipeline-")
    posthoc_path = os.path.join(tmpdir, "posthoc.jsonl")
    streamed_path = os.path.join(tmpdir, "streamed.jsonl")
    try:
        # Post-hoc leg: archive, then load + scan + render from the file.
        study = fresh_study()
        started = time.perf_counter()
        posthoc_run = study.campaign.run_streaming(posthoc_path)
        posthoc_campaign_s = time.perf_counter() - started
        started = time.perf_counter()
        study.use_dataset(Dataset.load(posthoc_path))
        posthoc_text = study.regenerate_report().text
        posthoc_report_s = time.perf_counter() - started

        # Streaming leg: the accumulator folds each record as its line
        # is written; the report renders with zero re-read.
        study = fresh_study()
        sink = ProjectionAccumulator()
        started = time.perf_counter()
        streamed_run = study.campaign.run_streaming(streamed_path, sink=sink)
        study.use_dataset(
            StreamedDataset(
                sink.finalize(),
                streamed_run["content_hash"],
                streamed_run["experiments"],
                metadata=streamed_run["metadata"],
            )
        )
        streaming_text = study.regenerate_report().text
        streaming_total_s = time.perf_counter() - started
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    experiments = posthoc_run["experiments"]
    byte_identical = (
        streaming_text == posthoc_text
        and streamed_run["content_hash"] == posthoc_run["content_hash"]
    )

    # Serializer pace: the batch emitter over every record of the run.
    dataset = fresh_study().dataset
    started = time.perf_counter()
    for record in dataset.experiments:
        record.to_json_line()
    serialize_s = time.perf_counter() - started

    # Accumulator footprint: peak engine-aggregate memory while folding
    # the whole campaign (the records already exist, so the delta is
    # the accumulator's own state).
    gc.collect()
    tracemalloc.start()
    sink = ProjectionAccumulator()
    for record in dataset.experiments:
        sink.ingest(record)
    sink.finalize()
    _, accumulator_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    posthoc_total_s = posthoc_campaign_s + posthoc_report_s
    return {
        "experiments": experiments,
        "posthoc_campaign_s": round(posthoc_campaign_s, 4),
        "posthoc_report_s": round(posthoc_report_s, 4),
        "posthoc_total_s": round(posthoc_total_s, 4),
        "streaming_total_s": round(streaming_total_s, 4),
        "pipeline_advantage_s": round(posthoc_total_s - streaming_total_s, 4),
        "serialize_us_per_experiment": round(
            serialize_s / max(experiments, 1) * 1e6, 1
        ),
        "accumulator_peak_kb": round(accumulator_peak / 1024.0, 1),
        "byte_identical": byte_identical,
    }


# -- substrate microbenchmarks ------------------------------------------------


def _synthetic_internet(systems: int, prefixes_per_system: int) -> VirtualInternet:
    """An internet of ``systems`` ASes with nested/overlapping prefixes.

    Each AS announces one /16 plus ``prefixes_per_system - 1`` more-
    specific /24s carved from the *previous* AS's /16, so longest-prefix
    match genuinely decides ownership (as it does for operator-CDN
    prefixes nested inside carrier space).
    """
    net = VirtualInternet()
    all_systems: List[AutonomousSystem] = []
    for index in range(systems):
        system = AutonomousSystem(
            asn=65000 + index,
            name=f"bench-as-{index}",
            kind=ASKind.TRANSIT,
            firewall=FirewallPolicy(blocks_inbound=False),
        )
        system.add_prefix(Prefix.parse(f"10.{index}.0.0/16"))
        all_systems.append(system)
        net.register_system(system)
    for index, system in enumerate(all_systems):
        parent = (index - 1) % systems
        for sub in range(prefixes_per_system - 1):
            system.add_prefix(Prefix.parse(f"10.{parent}.{sub}.0/24"))
    return net


def bench_asn_lookup(
    systems: int = 50, prefixes_per_system: int = 8, lookups: int = 20_000
) -> Dict[str, object]:
    """Indexed ``asn_of`` against the linear reference scan."""
    net = _synthetic_internet(systems, prefixes_per_system)
    addresses = [
        int_to_ip((10 << 24) | ((i % systems) << 16) | ((i * 7919) & 0xFFFF))
        for i in range(lookups)
    ]

    started = time.perf_counter()
    indexed = [net.asn_of(address) for address in addresses]
    indexed_s = time.perf_counter() - started

    started = time.perf_counter()
    linear = [net.asn_of_linear(address) for address in addresses]
    linear_s = time.perf_counter() - started

    if indexed != linear:  # pragma: no cover - tripwire, tested separately
        raise AssertionError("indexed asn_of diverged from the linear scan")
    return {
        "systems": systems,
        "prefixes": systems * prefixes_per_system,
        "lookups": lookups,
        "indexed_s": round(indexed_s, 4),
        "linear_s": round(linear_s, 4),
        "indexed_per_s": round(lookups / indexed_s),
        "linear_per_s": round(lookups / linear_s),
        "speedup": round(linear_s / indexed_s, 1),
    }


def bench_primitives(iterations: int = 200_000) -> Dict[str, object]:
    """Throughput of the per-probe hot primitives."""
    model = WanLatencyModel()
    src = GeoPoint(latitude=41.88, longitude=-87.63)
    dst = GeoPoint(latitude=34.05, longitude=-118.24)

    model.base_rtt_ms(src, dst)  # warm the memo: steady-state is hits
    started = time.perf_counter()
    for _ in range(iterations):
        model.base_rtt_ms(src, dst)
    base_rtt_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(iterations):
        src.distance_km(dst)
    distance_s = time.perf_counter() - started

    return {
        "iterations": iterations,
        "base_rtt_memoised_per_s": round(iterations / base_rtt_s),
        "distance_km_per_s": round(iterations / distance_s),
    }


def bench_transport(iterations: int = 20_000) -> Dict[str, object]:
    """Per-outcome cost of the transport layer's delivery verdicts.

    Times ``Transport.ping`` steady-state against one target per outcome
    class (a responsive university host, a firewalled carrier egress, an
    unroutable address), plus the delivered ``flow`` path and the
    fault-free ``dns_gate``.  Each timed call runs the same
    classification the campaign hot path runs; a target classifying
    differently than its label is a hard error, not a skewed number.
    """
    world = build_world(WorldConfig())
    transport = world.transport
    stream = world.rng.stream("bench", "transport")
    origin = world.vantage.origin(stream)

    first_operator = next(iter(world.operators.values()))
    targets = {
        "delivered": world.echo_authority.host.ip,
        "filtered": first_operator.egress_ips()[0],
        "lost": "198.51.100.1",  # outside every allocated prefix
    }
    report: Dict[str, object] = {"iterations": iterations}
    for expected, address in targets.items():
        verdict = transport.ping(origin, address, stream)
        if verdict.outcome != expected:  # pragma: no cover - tripwire
            raise AssertionError(
                f"bench target {address} classified {verdict.outcome}, "
                f"expected {expected}"
            )
        started = time.perf_counter()
        for _ in range(iterations):
            transport.ping(origin, address, stream)
        elapsed = time.perf_counter() - started
        report[f"ping_{expected}_us"] = round(elapsed / iterations * 1e6, 3)

    started = time.perf_counter()
    for _ in range(iterations):
        transport.flow(origin, targets["delivered"], stream)
    elapsed = time.perf_counter() - started
    report["flow_delivered_us"] = round(elapsed / iterations * 1e6, 3)

    started = time.perf_counter()
    for _ in range(iterations):
        transport.dns_gate("att", "local", 0.0, stream)
    elapsed = time.perf_counter() - started
    report["dns_gate_us"] = round(elapsed / iterations * 1e6, 3)
    return report


# -- entry point --------------------------------------------------------------


def run_benchmarks(
    scale: Optional[BenchScale] = None,
    output_path: Optional[str] = BENCH_OUTPUT,
) -> Dict[str, object]:
    """Run every benchmark; write ``output_path`` unless it is None."""
    campaign = bench_campaign(scale)
    transport = bench_transport()
    # The campaign's delivery-outcome tally rides in the transport
    # section next to the per-outcome microbenchmark figures.
    transport["campaign"] = campaign.pop("transport_counters")
    stages = bench_stage_breakdown()
    # The stage campaign's draw-pool counters become their own section.
    sampler = stages.pop("sampler")
    report: Dict[str, object] = {
        "cpu_count": os.cpu_count(),
        "campaign": campaign,
        "workers": bench_workers(scale),
        "stages": stages,
        "sampler": sampler,
        "scheduler": bench_scheduler(),
        "analysis": bench_analysis(),
        "bench_backends": bench_backends(),
        "pipeline": bench_pipeline(scale),
        "transport": transport,
        "asn_lookup": bench_asn_lookup(),
        "primitives": bench_primitives(),
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a benchmark report."""
    campaign = report["campaign"]
    workers = report.get("workers")
    stages = report.get("stages")
    sampler = report.get("sampler")
    scheduler = report.get("scheduler")
    analysis = report.get("analysis")
    backends = report.get("bench_backends")
    pipeline = report.get("pipeline")
    transport = report.get("transport")
    asn = report["asn_lookup"]
    primitives = report["primitives"]
    lines = [
        f"cpus: {report['cpu_count']}",
        (
            f"campaign: {campaign['experiments']} experiments | "
            f"serial {campaign['serial_exp_per_s']}/s | "
            f"sharded(x{campaign['workers']}/{campaign['shards']}) "
            f"{campaign['sharded_exp_per_s']}/s "
            f"({campaign['sharded_speedup']}x) | "
            f"auto executor: {campaign['executor']} | "
            f"hash match: {campaign['hash_match']}"
        ),
        (
            f"workers: snapshot boot {workers['snapshot_boot_us']}us vs "
            f"rebuild {workers['rebuild_boot_us']}us "
            f"({workers['snapshot_speedup']}x, "
            f"{workers['snapshot_bytes']}b snapshot) | "
            f"ctx {workers['mp_context']} | pools created "
            f"{workers['pools_created']}, reused "
            f"{workers['pool_reuse_hits']} | runs "
            f"{workers['first_run_s']}s cold, "
            f"{workers['second_run_s']}s warm | "
            f"hash match: {workers['hash_match']}"
            if workers
            else "workers: skipped"
        ),
        (
            "stages: "
            + " | ".join(
                f"{stage} {stages[f'{stage}_s']}s "
                f"({stages[f'{stage}_us_per_call']}us/call)"
                for stage in STAGES
            )
            + f" | other {stages['other_s']}s"
            if stages
            else "stages: skipped"
        ),
        (
            f"dns split: cache-hit {stages['dns_cache_hit_s']}s | "
            f"walk {stages['dns_walk_s']}s | "
            f"cdn-select {stages['dns_cdn_select_s']}s "
            f"({stages['dns_upstream_calls']} upstream walks over "
            f"{stages['dns_resolve_calls']} resolves)"
            if stages and "dns_cache_hit_s" in stages
            else "dns split: skipped"
        ),
        (
            f"scheduler: {scheduler['queue_events_per_s']} events/s "
            f"({scheduler['queue_events']} drained) | merge peak "
            f"{scheduler['streaming_peak_kb']}kb over "
            f"{scheduler['spill_kb']}kb of spills, "
            f"{scheduler['merge_experiments']} experiments / "
            f"{scheduler['merge_shards']} shards | "
            f"hash match: {scheduler['hash_match']}"
            if scheduler
            else "scheduler: skipped"
        ),
        (
            f"analysis: regen {analysis['tables_s'] + analysis['figures_s']:.3f}s "
            f"vs reference "
            f"{analysis['reference_tables_s'] + analysis['reference_figures_s']:.3f}s "
            f"({analysis['regeneration_speedup']}x, "
            f"{analysis['us_per_record']}us/record) | "
            f"scan {analysis['engine_scan_s']}s | "
            f"ingest {analysis['load_s']}s vs {analysis['load_reference_s']}s "
            f"({analysis['load_speedup']}x) | "
            f"cache hit {analysis['cache_hit_s']}s | "
            f"byte identical: {analysis['byte_identical']}"
            if analysis
            else "analysis: skipped"
        ),
        (
            "backends: "
            + " | ".join(
                f"{name} append {backends[name]['append_us_per_record']}"
                f"us/rec, load {backends[name]['load_us_per_record']}us/rec"
                for name in ("jsonl", "sqlite", "columnar")
                if name in backends
            )
            + f" | hash match: {backends['hash_match']}"
            if backends
            else "backends: skipped"
        ),
        (
            f"pipeline: streaming {pipeline['streaming_total_s']}s vs "
            f"post-hoc {pipeline['posthoc_total_s']}s "
            f"(campaign {pipeline['posthoc_campaign_s']}s + report "
            f"{pipeline['posthoc_report_s']}s) | "
            f"advantage {pipeline['pipeline_advantage_s']}s | "
            f"serialize {pipeline['serialize_us_per_experiment']}us/exp | "
            f"accumulator peak {pipeline['accumulator_peak_kb']}kb | "
            f"byte identical: {pipeline['byte_identical']}"
            if pipeline
            else "pipeline: skipped"
        ),
        (
            f"sampler: {sampler['pool_hits']} pool hits over "
            f"{sampler['pool_refills']} refills "
            f"({sampler['pool_realignments']} realignments, "
            f"{sampler['streams']} streams) | seed cache "
            f"{sampler['derived_seed_cache']['hits']} hits / "
            f"{sampler['derived_seed_cache']['misses']} misses"
            if sampler
            else "sampler: skipped"
        ),
        (
            f"transport: ping {transport['ping_delivered_us']}us delivered / "
            f"{transport['ping_filtered_us']}us filtered / "
            f"{transport['ping_lost_us']}us lost | "
            f"flow {transport['flow_delivered_us']}us | "
            f"dns_gate {transport['dns_gate_us']}us | campaign "
            f"{transport['campaign']['attempts']} sends "
            f"({transport['campaign']['delivered']} delivered, "
            f"{transport['campaign']['filtered']} filtered, "
            f"{transport['campaign']['timed_out']} timed out, "
            f"{transport['campaign']['lost']} lost, "
            f"{transport['campaign']['retries']} retries)"
            if transport
            else "transport: skipped"
        ),
        (
            f"asn_of: indexed {asn['indexed_per_s']}/s vs "
            f"linear {asn['linear_per_s']}/s ({asn['speedup']}x) "
            f"over {asn['systems']} ASes / {asn['prefixes']} prefixes"
        ),
        (
            f"primitives: base_rtt {primitives['base_rtt_memoised_per_s']}/s "
            f"(memoised), distance_km {primitives['distance_km_per_s']}/s"
        ),
    ]
    return "\n".join(lines)
