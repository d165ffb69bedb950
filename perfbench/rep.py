"""One run of one workload, in a fresh process.

Usage (the driver, ``run.py``, is the only caller)::

    python3 perfbench/rep.py SPEC_JSON RUN_DIR T0 [--trace] [--check]

``SPEC_JSON`` is a :meth:`workloads.Workload.spec` dict, ``RUN_DIR`` a
directory this run owns, ``T0`` the ``time.monotonic()`` reading the
driver took just before starting this process (so set-up time includes
interpreter start-up).  The run drives the program through its public
surface the way ``repro-study run --report`` / ``repro-study report
--dataset`` do, times it from outside, and writes ``RUN_DIR/result.json``.

A fresh process per run matters: module-level memos (world snapshots,
derived seeds, zone chains) would make a second in-process run warmer
than any user's, and ``ru_maxrss`` never goes down.

``--check`` adds the full output check after the timed region: reload
the archive, re-hash it, validate it and regenerate the report from it.
Without it, the driver compares this run's hash and report digest with
a checked run of the same seed.  ``--trace`` wraps each layer's entry
points (see ``tracer.py``) and writes the spans to ``RUN_DIR/spans.bin``.

Exit status: 0 when the run and its checks passed, 3 when a check
failed (the result says which), anything else on a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(path: str) -> int:
    """Bytes of every file under a directory."""
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _layer_metrics(table, counts, import_s, work_s, window_self_s, spans):
    """The per-layer metrics a traced run's spans give."""

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {
        "setup.import_s": import_s,
        "study.init_s": row("study.init")["total_s"],
        "world.build_s": row("world.build")["total_s"],
        "world.snapshot_s": row("world.snapshot")["total_s"],
        "campaign.drive_self_s": (
            row("campaign.run")["self_s"] + row("campaign.drive")["self_s"]
        ),
        "experiment.run_s": row("experiment.run")["total_s"],
        "experiment.runs": row("experiment.run")["calls"],
        "experiment.self_s": row("experiment.run")["self_s"],
        "probes.session_begin_s": row("probes.session_begin")["total_s"],
        "dns.resolve_s": row("dns.resolve")["total_s"],
        "dns.resolve_calls": row("dns.resolve")["calls"],
        "dns.cache_hit_ratio": (
            counts.get("dns.cache_hits", 0) / row("dns.resolve")["calls"]
            if row("dns.resolve")["calls"] else 0.0
        ),
        "cdn.select_s": row("cdn.select")["total_s"],
        "cdn.select_calls": row("cdn.select")["calls"],
        "records.serialize_s": row("records.serialize")["total_s"],
        "records.serialize_calls": row("records.serialize")["calls"],
        "records.content_hash_s": row("records.content_hash")["total_s"],
        "records.load_s": row("records.load")["total_s"],
        "backends.write_archive_self_s": row("backends.write_archive")["self_s"],
        "backends.iter_lines_s": row("backends.iter_lines")["total_s"],
        "backends.seal_s": row("backends.seal")["total_s"],
        "checkpoint.commit_s": row("checkpoint.commit")["total_s"],
        "checkpoint.commits": row("checkpoint.commit")["calls"],
        "pool.tail_s": row("pool.tail")["total_s"],
        "analysis.ingest_s": row("analysis.ingest")["total_s"],
        "analysis.ingest_calls": row("analysis.ingest")["calls"],
        "analysis.ingest_line_self_s": row("analysis.ingest_line")["self_s"],
        "analysis.finalize_s": row("analysis.finalize")["total_s"],
        "suite.regenerate_self_s": row("suite.regenerate")["self_s"],
        "trace.work_s": work_s,
        "trace.coverage": window_self_s / work_s,
        "trace.spans": spans,
    }
    for probe in ("dns_local", "dns_public", "ping", "traceroute", "http"):
        metrics[f"probes.{probe}_s"] = row(f"probes.{probe}")["total_s"]
        metrics[f"probes.{probe}_calls"] = row(f"probes.{probe}")["calls"]
    return metrics


def main(argv) -> int:
    spec = json.loads(argv[1])
    run_dir = argv[2]
    t0 = float(argv[3])
    traced = "--trace" in argv[4:]
    full_check = "--check" in argv[4:]

    from repro import CellularDNSStudy, StudyConfig
    from repro.analysis.engine import ProjectionAccumulator, StreamedDataset
    from repro.core.world import WorldConfig
    from repro.measure import checkpoint
    from repro.measure.records import Dataset
    from repro.measure.validate import validate_dataset, verify_manifests
    from workloads import PINNED_SEED

    import_s = time.monotonic() - t0
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # -- set-up: exactly repro.cli._study_from_args ------------------------
    world = WorldConfig()
    if spec["scenario"]:
        from repro.core.faults import load_scenario

        world.scenario = load_scenario(spec["scenario"])
    workers = max(1, (os.cpu_count() or 1) - 1) if spec["executor"] == "sharded" else 0
    study = CellularDNSStudy(
        StudyConfig(
            seed=spec["seed"],
            device_scale=spec["device_scale"],
            duration_days=spec["duration_days"],
            interval_hours=spec["interval_hours"],
            workers=workers,
            shards=0,
            executor=spec["executor"],
            world=world,
        )
    )
    setup_s = time.monotonic() - t0

    # -- timed work: repro.cli._cmd_run --report / _cmd_report ---------------
    archive = spec.get("archive") or os.path.join(run_dir, "archive")
    cpu_before = _cpu_seconds(resource.RUSAGE_SELF)
    work_start = time.perf_counter()
    if spec["kind"] == "campaign":
        sink = ProjectionAccumulator()
        if spec["checkpoint"]:
            result = checkpoint.run_checkpointed(
                study.campaign, archive, backend="jsonl", sink=sink
            )
        else:
            result = study.campaign.run_streaming(archive, sink=sink, backend=None)
        study.use_dataset(
            StreamedDataset(
                sink.finalize(),
                result["content_hash"],
                result["experiments"],
                metadata=result["metadata"],
            )
        )
        text = study.regenerate_report().text
        close = getattr(study.campaign, "close", None)
        if close is not None:
            close()  # join the worker pool, as interpreter exit would
        experiments = result["experiments"]
        content_hash = result["content_hash"]
    else:
        study.use_dataset(Dataset.load(archive))
        report = study.regenerate_report(cache=None)
        text = report.text
        experiments = len(study.dataset)
        content_hash = report.dataset_hash
    work_s = time.perf_counter() - work_start
    parent_cpu_s = _cpu_seconds(resource.RUSAGE_SELF) - cpu_before
    worker_cpu_s = _cpu_seconds(resource.RUSAGE_CHILDREN)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    process_cpu_s = _cpu_seconds(resource.RUSAGE_SELF) + worker_cpu_s

    # -- measurements (nothing below is timed) -------------------------------
    shard_dir = checkpoint.default_checkpoint_dir(archive)
    archive_bytes = os.path.getsize(archive)
    checkpoint_bytes = _tree_bytes(shard_dir) if os.path.isdir(shard_dir) else 0
    campaign = study.campaign
    pool_workers = getattr(campaign, "workers", 0) if spec["executor"] != "serial" else 0
    counters = campaign.world.transport.counters
    pool = campaign.world.rng.pool_stats()
    metrics = {
        "setup_s": setup_s,
        "exp_per_s": experiments / work_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "disk_bytes_per_exp": (archive_bytes + checkpoint_bytes) / experiments,
        "transport.attempts": counters.attempts,
        "transport.delivered_ratio": (
            counters.delivered / counters.attempts if counters.attempts else 0.0
        ),
        "transport.retries": counters.retries,
        "transport.lost": counters.lost,
        "transport.timed_out": counters.timed_out,
        "rng.pool_refills": pool["pool_refills"],
        "rng.pool_uniforms": pool["pool_uniforms"],
        "rng.pool_hit_ratio": (
            pool["pool_hits"] / pool["pool_uniforms"] if pool["pool_uniforms"] else 0.0
        ),
        "backends.archive_bytes": archive_bytes,
        "checkpoint.bytes": checkpoint_bytes,
        "pool.parent_cpu_s": parent_cpu_s,
        "pool.parent_wait_s": max(0.0, work_s - parent_cpu_s),
        "pool.worker_cpu_s": worker_cpu_s,
        "pool.cpu_utilization": (
            (parent_cpu_s + worker_cpu_s) / (work_s * (1 + pool_workers))
        ),
        "process.cpu_s": process_cpu_s,
    }
    layers = None
    if tracer is not None:
        from tracer import summarize

        tracer.uninstall()
        table, window_self_s = summarize(tracer, work_start)
        metrics.update(
            _layer_metrics(
                table, tracer.counts, import_s, work_s, window_self_s, len(tracer)
            )
        )
        layers = table
        tracer.write(os.path.join(run_dir, "spans.bin"))

    # -- output checks -------------------------------------------------------
    failures = []
    if spec["kind"] == "campaign":
        if spec["seed"] == PINNED_SEED and content_hash != spec["golden"]:
            failures.append(
                f"content hash {content_hash} != golden {spec['golden']} "
                f"at pinned seed {PINNED_SEED}"
            )
        if spec["scenario"] and not (counters.lost > 0 and counters.retries > 0):
            failures.append(
                f"scenario {spec['scenario']} did not fire: lost "
                f"{counters.lost}, retries {counters.retries}"
            )
        if full_check:
            loaded = Dataset.load(archive)
            rehashed = loaded.content_hash()
            if rehashed != content_hash:
                failures.append(f"archive re-hashes to {rehashed}, run said {content_hash}")
            validation = validate_dataset(loaded)
            if not validation.ok:
                failures.append(f"validate_dataset: {validation.summary()}")
            study.use_dataset(loaded)
            if study.regenerate_report().text != text:
                failures.append("streamed report differs from the archive's report")
            if spec["checkpoint"]:
                verification = verify_manifests(archive)
                if not verification.ok:
                    failures.append(f"verify_manifests:\n{verification.table()}")
    elif content_hash != spec["expected_hash"]:
        failures.append(f"dataset hash {content_hash} != archive's {spec['expected_hash']}")

    from repro.measure import records

    record = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "orjson": _version("orjson"),
        "serializer": "orjson" if records._orjson_dumps is not None else "stdlib",
        "executor": study.executor_decision.describe(),
        "mp_context": getattr(campaign, "mp_context", None) if pool_workers else None,
        "workers": pool_workers,
        "devices": len(campaign.devices),
    }
    outcome = {
        "ok": not failures,
        "failures": failures,
        "experiments": experiments,
        "work_s": work_s,
        "content_hash": content_hash,
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "metrics": metrics,
        "layers": layers,
        "record": record,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1, sort_keys=True)
    return 0 if not failures else 3


def _version(module_name: str):
    try:
        module = __import__(module_name)
    except ImportError:
        return None
    return getattr(module, "__version__", "unknown")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
