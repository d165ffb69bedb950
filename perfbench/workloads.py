"""The benchmark's workloads and the metrics it reports.

Plain data, importable without the program: the driver (``run.py``)
reads it to plan runs, the per-run process (``rep.py``) to execute them.

Every campaign workload uses the paper's Table-1 population (158
devices at ``device_scale=1.0``) at a 12 h cadence; the seed comes from
the driver and is the only input that varies between runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

#: Seed at which each campaign's content hash must equal its golden.
PINNED_SEED = 2014


@dataclass(frozen=True)
class Workload:
    """One way of driving the program, as ``repro-study`` would."""

    name: str
    #: Why this workload exists (one line, copied to BENCHMARK.json).
    why: str
    #: ``"campaign"`` (``run --report``) or ``"report"`` (``report
    #: --dataset``).
    kind: str
    duration_days: float
    device_scale: float = 1.0
    interval_hours: float = 12.0
    executor: str = "serial"
    scenario: Optional[str] = None
    checkpoint: bool = False
    #: For ``report`` workloads: the campaign workload whose archive,
    #: written once per run and untimed, is read back.
    source: Optional[str] = None
    #: ``Dataset.content_hash`` of the campaign at :data:`PINNED_SEED`.
    golden: Optional[str] = None

    def spec(self, seed: int, **overrides) -> Dict[str, object]:
        """The JSON-able run spec ``rep.py`` executes."""
        spec = asdict(self)
        spec.update(seed=seed, **overrides)
        return spec


#: Content hash of the fault-free Table-1 campaign, 2 days, seed 2014.
#: Serial and sharded executors must both produce it.
PAPER_2D_GOLDEN = "15c38ba78a861ea15ce5bb6e633dc04bf343b729f54f65b9f131dcd963107936"

#: Content hash of the lossy-2g Table-1 campaign, 4 days, seed 2014.
LOSSY_4D_GOLDEN = "780b3acd408aba9f3760bd5014848be5f8fcb9053d5cf7413ab53628c5a19117"

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="serial-paper",
        why="run --report --executor serial: one process drives every "
            "campaign layer on the fused fault-free probe path and folds "
            "record objects with zero decodes",
        kind="campaign",
        duration_days=2.0,
        golden=PAPER_2D_GOLDEN,
    ),
    Workload(
        name="lossy-durable",
        why="run --report --checkpoint under lossy-2g: layered probe path "
            "with retries, fsync'd shard commits, and a decode of every "
            "line on read-back",
        kind="campaign",
        # Spans the scenario's whole fault window (days 0.5-3.5).
        duration_days=4.0,
        scenario="lossy-2g",
        checkpoint=True,
        golden=LOSSY_4D_GOLDEN,
    ),
    Workload(
        name="sharded-paper",
        why="run --report --executor sharded on nproc-1 workers: warm pool, "
            "worker spills, overlapped merge and a parent that decodes "
            "every line; same bytes as serial-paper",
        kind="campaign",
        duration_days=2.0,
        executor="sharded",
        golden=PAPER_2D_GOLDEN,
    ),
    Workload(
        name="archive-report",
        why="report --dataset on serial-paper's archive, no cache: the read "
            "side (archive load, whole-dataset scan, render) with no "
            "campaign layer running",
        kind="report",
        duration_days=2.0,
        source="serial-paper",
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "exp_per_ref_s": "1/ref_s",
    "peak_rss_mb": "MB",
    "disk_bytes_per_exp": "B",
}

#: Per-layer metrics (``--trace 1``): name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "setup.import_s": ("s", "lower"),
    "study.init_s": ("s", "lower"),
    "world.build_s": ("s", "lower"),
    "world.snapshot_s": ("s", "lower"),
    "campaign.drive_self_s": ("s", "lower"),
    "experiment.run_s": ("s", "lower"),
    "experiment.runs": ("count", "higher"),
    "experiment.self_s": ("s", "lower"),
    "probes.session_begin_s": ("s", "lower"),
    "probes.dns_local_s": ("s", "lower"),
    "probes.dns_local_calls": ("count", "lower"),
    "probes.dns_public_s": ("s", "lower"),
    "probes.dns_public_calls": ("count", "lower"),
    "probes.ping_s": ("s", "lower"),
    "probes.ping_calls": ("count", "lower"),
    "probes.traceroute_s": ("s", "lower"),
    "probes.traceroute_calls": ("count", "lower"),
    "probes.http_s": ("s", "lower"),
    "probes.http_calls": ("count", "lower"),
    "dns.resolve_s": ("s", "lower"),
    "dns.resolve_calls": ("count", "lower"),
    "dns.cache_hit_ratio": ("ratio", "higher"),
    "cdn.select_s": ("s", "lower"),
    "cdn.select_calls": ("count", "lower"),
    "transport.attempts": ("count", "lower"),
    "transport.delivered_ratio": ("ratio", "higher"),
    "transport.retries": ("count", "lower"),
    "transport.lost": ("count", "lower"),
    "transport.timed_out": ("count", "lower"),
    "rng.pool_refills": ("count", "lower"),
    "rng.pool_uniforms": ("count", "lower"),
    "rng.pool_hit_ratio": ("ratio", "higher"),
    "records.serialize_s": ("s", "lower"),
    "records.serialize_calls": ("count", "lower"),
    "records.content_hash_s": ("s", "lower"),
    "records.load_s": ("s", "lower"),
    "backends.write_archive_self_s": ("s", "lower"),
    "backends.iter_lines_s": ("s", "lower"),
    "backends.seal_s": ("s", "lower"),
    "backends.archive_bytes": ("B", "lower"),
    "checkpoint.commit_s": ("s", "lower"),
    "checkpoint.commits": ("count", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "pool.tail_s": ("s", "lower"),
    "pool.parent_cpu_s": ("s", "lower"),
    "pool.parent_wait_s": ("s", "lower"),
    "pool.worker_cpu_s": ("s", "lower"),
    "pool.cpu_utilization": ("ratio", "higher"),
    "analysis.ingest_s": ("s", "lower"),
    "analysis.ingest_calls": ("count", "lower"),
    "analysis.ingest_line_self_s": ("s", "lower"),
    "analysis.finalize_s": ("s", "lower"),
    "suite.regenerate_self_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.work_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_exp_per_s": ("1/s", "lower"),
}

#: Per-layer metrics read from untraced runs of a traced invocation:
#: process accounting is what the tracer would distort.
UNTRACED_LAYER_METRICS = (
    "pool.parent_cpu_s",
    "pool.parent_wait_s",
    "pool.worker_cpu_s",
    "pool.cpu_utilization",
    "process.cpu_s",
)
