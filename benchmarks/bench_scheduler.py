"""Event-driven scheduler throughput and streaming shard-merge memory.

Times the campaign's scheduling core in isolation: events per second
through the single probe-event queue that drives every executor, and
the peak allocation of packaging a sharded campaign via the streaming
JSONL merge, next to the size of the spill files it reads.  The merge
must land on the serial content hash — the streaming path's entire
point is being O(shards) in memory *without* being allowed to move a
byte.

Standalone use::

    PYTHONPATH=src python benchmarks/bench_scheduler.py
"""

from repro.measure.bench import BenchScale, bench_scheduler

#: Scaled down so the bench session stays quick (the repo-root
#: ``BENCH_campaign.json`` carries the full-scale ``scheduler`` section).
SMOKE_SCALE = BenchScale(device_scale=0.05, duration_days=14.0)


def _format(report) -> str:
    return (
        f"queue: {report['queue_events_per_s']} events/s "
        f"({report['queue_events']} drained in "
        f"{report['queue_drain_s']}s)\n"
        f"merge: {report['merge_experiments']} experiments over "
        f"{report['merge_shards']} shards | peak "
        f"{report['streaming_peak_kb']}kb over "
        f"{report['spill_kb']}kb of spills\n"
        f"hash match: {report['hash_match']}"
    )


def bench_scheduler_section(emit):
    report = bench_scheduler(SMOKE_SCALE)
    emit("scheduler", _format(report))
    assert report["hash_match"], "shard merge diverged from serial bytes"
    assert report["queue_events_per_s"] > 0
    # The streaming merge must hold lines, not the campaign: anything
    # within an order of magnitude of the spilled bytes means a shard's
    # records are being accumulated somewhere.
    assert report["streaming_peak_kb"] * 10 < report["spill_kb"]


if __name__ == "__main__":
    print(_format(bench_scheduler(SMOKE_SCALE)))
