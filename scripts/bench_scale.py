"""Large-population streaming smoke: ``make bench-scale``.

Runs a ``device_scale=10`` campaign — ~1,600 devices, ten times the
paper's 158-client population — through the sub-carrier sharded
executor's streaming path and asserts the parent process packages it in
bounded memory.  The workers spill event-ordered JSONL per shard task;
the parent k-way merges the spill files holding one write block at a
time, so its peak traced allocation must stay a small constant
regardless of campaign size.  A peak anywhere near the in-memory
dataset means some layer is accumulating records again.

A second run at the same scale rides a
:class:`~repro.analysis.engine.ProjectionAccumulator` on the merge —
the pipelined campaign→report path.  Its bound is higher (the analysis
aggregates are real state) but still a constant in the *aggregate*
domain: distinct carriers, domains and devices, never the record
stream.  The run must reproduce the merge-only content hash exactly and
its :class:`~repro.analysis.engine.StreamedDataset` must render the
full report without touching the output file.

A third leg exercises crash-safe resume at scale: the same campaign
runs checkpointed (per-shard durable commits, see
:mod:`repro.measure.checkpoint`), is interrupted after a third of its
shards have committed, and a fresh campaign object resumes it — the
resumed archive's content hash must be byte-identical to the first
leg's uninterrupted streaming hash.

The warm pool of the first two legs is bounded too: once it joins,
the largest peak RSS of any of its workers (``RUSAGE_CHILDREN``
``ru_maxrss``) must stay under :data:`WORKER_PEAK_LIMIT_MB`.  A worker
runs thousands of experiments, so per-experiment state it keeps shows
up here as growth with campaign length.  The resume leg's reading is
printed but not gated: its workers fork from a parent that by then
holds the accumulator and two more worlds, and fork-context workers
start with the parent's resident pages.

Usage::

    PYTHONPATH=src python scripts/bench_scale.py [--scale 10] [--days 2]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
import tracemalloc

from repro.core.world import WorldConfig, build_world
from repro.measure.campaign import CampaignConfig, ShardedCampaign

#: Ceiling on the parent's peak traced allocation during the streaming
#: run.  The parent merges lines, and when the pool leaves it a free
#: core it also runs queued shard tasks, holding one task's simulation
#: state at a time; it never holds the record stream.  An in-memory
#: package of the same campaign holds every record object — tens of
#: megabytes even at this smoke's scale and growing linearly — so a
#: breach is a regression signal, not noise.
PEAK_LIMIT_MB = 32.0

#: Ceiling for the accumulator-sink run: the merge bound plus the
#: analysis aggregates the fold legitimately holds (latency samples,
#: device timelines, replica maps — small per-record projections, never
#: the decoded record objects themselves).  Sized from a measured
#: ~144MB peak at the default 10x scale with headroom; holding the
#: decoded record stream itself would add hundreds of megabytes on top,
#: so a breach still means some layer started retaining records.
ACCUMULATOR_PEAK_LIMIT_MB = 256.0

#: Ceiling on the first two legs' pool workers' peak RSS.  Measured at
#: the default 10x scale, 2 days, 2 fork-context workers on a 2-core box:
#: 200.2 and 202.6MB while every experiment's RNG stream and probe leg
#: programs outlived the experiment, 68.2 and 68.3MB once they die with
#: it.  The bound sits between the two, so a layer that starts keeping
#: per-experiment state again fails it.
WORKER_PEAK_LIMIT_MB = 128.0


def _worker_peak_mb() -> float:
    """Largest peak RSS of any reaped child process so far, in MB.

    ``RUSAGE_CHILDREN`` only covers children that have been waited for,
    so read it after a pool joins; it is a running maximum over every
    leg so far, not a per-leg figure.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=10.0,
                        help="device_scale multiplier (default 10x paper)")
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--interval-hours", type=float, default=12.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--limit-mb", type=float, default=PEAK_LIMIT_MB)
    parser.add_argument(
        "--accumulator-limit-mb", type=float,
        default=ACCUMULATOR_PEAK_LIMIT_MB,
    )
    args = parser.parse_args(argv)

    # The traced bounds measure the parent.  Fork-context pool workers
    # would inherit an active trace and pay tracemalloc on every
    # allocation of the simulation itself, so children stop tracing as
    # they start.
    os.register_at_fork(after_in_child=tracemalloc.stop)

    config = CampaignConfig(
        device_scale=args.scale,
        duration_days=args.days,
        interval_hours=args.interval_hours,
    )
    campaign = ShardedCampaign(
        build_world(WorldConfig(seed=args.seed)), config, workers=args.workers
    )
    print(
        f"bench-scale: {len(campaign.devices)} devices "
        f"({args.scale}x paper population), {args.days:g} days @ "
        f"{args.interval_hours:g}h, {len(campaign.ranges)} device ranges, "
        f"{campaign.shards} shard tasks, {campaign.workers} workers"
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        output = os.path.join(tmp, "campaign.jsonl")
        tracemalloc.start()
        started = time.perf_counter()
        result = campaign.run_streaming(output)
        elapsed = time.perf_counter() - started
        peak_mb = tracemalloc.get_traced_memory()[1] / (1024 * 1024)
        tracemalloc.stop()
        size_mb = os.path.getsize(output) / (1024 * 1024)

    print(
        f"bench-scale: {result['experiments']} experiments in "
        f"{elapsed:.1f}s ({result['experiments'] / elapsed:.0f}/s) | "
        f"dataset {size_mb:.1f}MB on disk | parent peak {peak_mb:.1f}MB | "
        f"parent ran {result.get('parent_shards', 0)} shard tasks | "
        f"hash {result['content_hash'][:12]}"
    )
    if result["experiments"] <= 0:
        print("FAIL: streaming campaign produced no experiments",
              file=sys.stderr)
        return 1
    if peak_mb >= args.limit_mb:
        print(
            f"FAIL: parent peak memory {peak_mb:.1f}MB breaches the "
            f"{args.limit_mb:.0f}MB streaming bound",
            file=sys.stderr,
        )
        return 1
    print(f"OK: parent stayed under the {args.limit_mb:.0f}MB bound")

    # Second leg: the *same* campaign object re-runs with a
    # ProjectionAccumulator riding the merge (the pipelined
    # campaign→report path) — run tokens keep repeated runs idempotent
    # and the warm pool carries over, so this leg doubles as the
    # repeated-run determinism check at scale.  The fold's aggregates
    # are real state, so the bound is higher — but still in the
    # aggregate domain, never the record stream — and the archive hash
    # must not move by a byte.
    from repro.analysis.engine import ProjectionAccumulator, StreamedDataset
    from repro.core.study import CellularDNSStudy, StudyConfig

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        output = os.path.join(tmp, "campaign.jsonl")
        sink = ProjectionAccumulator()
        tracemalloc.start()
        started = time.perf_counter()
        streamed = campaign.run_streaming(output, sink=sink)
        engine = sink.finalize()
        sink_elapsed = time.perf_counter() - started
        sink_peak_mb = tracemalloc.get_traced_memory()[1] / (1024 * 1024)
        tracemalloc.stop()
    campaign.close()
    worker_peak_mb = _worker_peak_mb()
    print(
        f"bench-scale: streaming + accumulator legs (one warm pool): "
        f"worker peak RSS {worker_peak_mb:.1f}MB"
    )
    if worker_peak_mb >= WORKER_PEAK_LIMIT_MB:
        print(
            f"FAIL: worker peak RSS {worker_peak_mb:.1f}MB breaches the "
            f"{WORKER_PEAK_LIMIT_MB:.0f}MB worker bound",
            file=sys.stderr,
        )
        return 1
    if campaign.pool_stats["reused"] < 1:
        print(
            "FAIL: the accumulator leg did not reuse the first leg's "
            f"warm worker pool (stats {campaign.pool_stats})",
            file=sys.stderr,
        )
        return 1

    print(
        f"bench-scale: accumulator leg {streamed['experiments']} "
        f"experiments in {sink_elapsed:.1f}s | parent peak "
        f"{sink_peak_mb:.1f}MB | parent ran "
        f"{streamed.get('parent_shards', 0)} shard tasks | hash "
        f"{streamed['content_hash'][:12]}"
    )
    if streamed["content_hash"] != result["content_hash"]:
        print(
            "FAIL: accumulator-sink run changed the archive hash "
            f"({streamed['content_hash'][:12]} != "
            f"{result['content_hash'][:12]})",
            file=sys.stderr,
        )
        return 1
    if sink_peak_mb >= args.accumulator_limit_mb:
        print(
            f"FAIL: accumulator-leg peak memory {sink_peak_mb:.1f}MB "
            f"breaches the {args.accumulator_limit_mb:.0f}MB bound",
            file=sys.stderr,
        )
        return 1
    study = CellularDNSStudy(
        StudyConfig(
            seed=args.seed,
            device_scale=args.scale,
            duration_days=args.days,
            interval_hours=args.interval_hours,
        )
    )
    study.use_dataset(
        StreamedDataset(
            engine,
            streamed["content_hash"],
            streamed["experiments"],
            metadata=streamed["metadata"],
        )
    )
    report_text = study.regenerate_report().text
    if not report_text or "Table 1" not in report_text:
        print(
            "FAIL: streamed engine did not render the full report",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: accumulator stayed under the "
        f"{args.accumulator_limit_mb:.0f}MB bound; streamed report "
        f"rendered ({len(report_text)} chars) with zero archive re-read"
    )

    # Third leg: crash-safe resume at scale.  A checkpointed run of the
    # same campaign is interrupted after a third of its shards have
    # durably committed; a *fresh* campaign object (new process state,
    # new pool) resumes from the manifests and must reproduce the first
    # leg's content hash byte for byte.
    from repro.measure.checkpoint import CampaignInterrupted, run_checkpointed

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        output = os.path.join(tmp, "campaign.jsonl")
        interrupted = ShardedCampaign(
            build_world(WorldConfig(seed=args.seed)), config,
            workers=args.workers,
        )
        stop_after = max(1, interrupted.shards // 3)
        started = time.perf_counter()
        try:
            run_checkpointed(interrupted, output, stop_after_shards=stop_after)
            print(
                f"FAIL: checkpointed run was not interrupted after "
                f"{stop_after} shards",
                file=sys.stderr,
            )
            return 1
        except CampaignInterrupted as exc:
            first_elapsed = time.perf_counter() - started
            print(
                f"bench-scale: resume leg interrupted after "
                f"{exc.committed}/{interrupted.shards} shard commits "
                f"({first_elapsed:.1f}s)"
            )
        finally:
            interrupted.close()
        resumed_campaign = ShardedCampaign(
            build_world(WorldConfig(seed=args.seed)), config,
            workers=args.workers,
        )
        started = time.perf_counter()
        resumed = run_checkpointed(resumed_campaign, output, resume=True)
        resume_elapsed = time.perf_counter() - started
        resumed_campaign.close()
    print(
        f"bench-scale: resume leg: worker peak RSS {_worker_peak_mb():.1f}MB "
        f"(running max; includes parent pages inherited at fork, not gated)"
    )
    print(
        f"bench-scale: resumed {resumed['resumed_shards']} committed "
        f"shards, executed {resumed['executed_shards']} of "
        f"{resumed['total_shards']} in {resume_elapsed:.1f}s | hash "
        f"{resumed['content_hash'][:12]}"
    )
    if resumed["content_hash"] != result["content_hash"]:
        print(
            "FAIL: resumed archive hash diverged from the uninterrupted "
            f"run ({resumed['content_hash'][:12]} != "
            f"{result['content_hash'][:12]})",
            file=sys.stderr,
        )
        return 1
    if resumed["resumed_shards"] < stop_after:
        print(
            f"FAIL: resume replayed only {resumed['resumed_shards']} "
            f"committed shards (expected >= {stop_after}) — the "
            f"checkpoints were not trusted",
            file=sys.stderr,
        )
        return 1
    print(
        "OK: interrupted + resumed archive is byte-identical to the "
        "uninterrupted run"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
