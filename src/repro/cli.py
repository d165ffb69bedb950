"""Command-line interface.

Five subcommands cover the lifecycle of a study:

* ``repro-study run`` — simulate a campaign and archive the dataset
  (``--report`` also prints the report, folded incrementally from the
  streaming merge without re-reading the archive; ``--backend``
  selects the storage layout, ``--checkpoint``/``--resume`` make the
  run durable and crash-resumable via per-shard manifests);
* ``repro-study report`` — print the paper's tables/figures from a
  dataset (or re-simulate when none is given);
* ``repro-study validate`` — integrity-check an archived dataset
  (``--manifests`` also verifies per-shard checkpoint manifests
  against the bytes on disk);
* ``repro-study reconcile`` — heal a checkpointed campaign: verify
  every shard against its manifest, quarantine and re-run anything
  missing/truncated/corrupt, re-merge the archive;
* ``repro-study export`` — dump every figure's series as CSV.

Plus ``verify`` (check paper claims against a fresh campaign) and
``bench`` (campaign throughput serial vs sharded, substrate
microbenchmarks; writes ``BENCH_campaign.json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import CellularDNSStudy, StudyConfig
from repro.analysis.export import export_study_figures
from repro.core.errors import DatasetError
from repro.measure.backends import BACKEND_CHOICES
from repro.measure.campaign import EXECUTOR_CHOICES
from repro.measure.records import Dataset
from repro.measure.validate import validate_dataset, verify_manifests


def _study_from_args(args) -> CellularDNSStudy:
    from repro.core.world import WorldConfig

    world = WorldConfig()
    scenario_ref = getattr(args, "scenario", None)
    if scenario_ref:
        from repro.core.faults import load_scenario

        world.scenario = load_scenario(scenario_ref)
    config = StudyConfig(
        seed=args.seed,
        device_scale=args.scale,
        duration_days=args.days,
        interval_hours=args.interval_hours,
        workers=getattr(args, "workers", 0),
        shards=getattr(args, "shards", 0),
        executor=getattr(args, "executor", "auto"),
        world=world,
    )
    return CellularDNSStudy(config)


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fraction of the paper's 158-client population")
    parser.add_argument("--days", type=float, default=60.0)
    parser.add_argument("--interval-hours", type=float, default=12.0)
    parser.add_argument(
        "--scenario", default=None, metavar="NAME|PATH",
        help="fault scenario the campaign runs under: a bundled name "
             "(baseline, resolver-outage, lossy-2g, egress-failover) or "
             "a JSON scenario file; omitted/baseline is fault-free",
    )


def _cmd_run(args) -> int:
    study = _study_from_args(args)
    if getattr(args, "executor", "auto") == "auto":
        # Surface why auto picked what it picked (and the measured
        # bootstrap/simulate estimates it weighed).
        print(study.executor_decision.describe(), file=sys.stderr)
    print(f"Simulating {len(study.campaign.devices)} devices for "
          f"{args.days:.0f} days...", file=sys.stderr)
    backend = args.backend
    checkpointed = args.checkpoint or args.resume or args.checkpoint_dir
    sink = None
    if args.report:
        # Pipelined campaign→report: the analysis accumulator rides the
        # streaming merge, folding each record as its line is written.
        # The report renders from the accumulated projections with zero
        # re-read of the output file; the archived bytes (and content
        # hash) are identical to the plain run.
        from repro.analysis.engine import ProjectionAccumulator

        sink = ProjectionAccumulator()
    if checkpointed:
        # Durable mode: per-shard commits with manifest sidecars, so a
        # crash loses at most one uncommitted shard and --resume
        # finishes the run byte-identically.
        from repro.measure.checkpoint import (
            CampaignInterrupted, run_checkpointed,
        )

        try:
            result = run_checkpointed(
                study.campaign,
                args.output,
                backend=backend or "jsonl",
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                sink=sink,
            )
        except CampaignInterrupted as exc:
            print(f"INTERRUPTED: {exc} — re-run with --resume to finish",
                  file=sys.stderr)
            return 1
        except DatasetError as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            return 1
        if result["resumed_shards"]:
            print(
                f"Resumed {result['resumed_shards']} committed shards, "
                f"executed {result['executed_shards']} of "
                f"{result['total_shards']}",
                file=sys.stderr,
            )
    else:
        result = study.campaign.run_streaming(
            args.output, sink=sink, backend=backend
        )
    if sink is not None:
        from repro.analysis.engine import StreamedDataset

        study.use_dataset(
            StreamedDataset(
                sink.finalize(),
                result["content_hash"],
                result["experiments"],
                metadata=result["metadata"],
            )
        )
        print(study.regenerate_report().text)
    print(f"Wrote {result['experiments']} experiments to {args.output}",
          file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.result_cache import AnalysisResultCache

    study = _study_from_args(args)
    if args.dataset:
        study.use_dataset(Dataset.load(args.dataset))
    cache = (
        AnalysisResultCache(args.analysis_cache)
        if args.analysis_cache
        else None
    )
    result = study.regenerate_report(cache=cache)
    print(result.text)
    if result.cached:
        print(
            f"(replayed from {args.analysis_cache}: dataset "
            f"{result.dataset_hash[:12]} unchanged)",
            file=sys.stderr,
        )
    return 0


def _cmd_validate(args) -> int:
    import os

    dataset = Dataset.load(args.dataset)
    report = validate_dataset(dataset)
    print(report.summary())
    for finding in report.findings[: args.max_findings]:
        print(f"  {finding}")
    if len(report.findings) > args.max_findings:
        print(f"  ... and {len(report.findings) - args.max_findings} more")
    manifests_ok = True
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.manifests:
        from repro.measure.checkpoint import default_checkpoint_dir

        checkpoint_dir = default_checkpoint_dir(args.dataset)
    if checkpoint_dir is None:
        # Auto-detect: a sibling .shards directory means the archive was
        # written by a checkpointed run — verify it without being asked.
        from repro.measure.checkpoint import default_checkpoint_dir

        candidate = default_checkpoint_dir(args.dataset)
        if os.path.isdir(candidate):
            checkpoint_dir = candidate
    if checkpoint_dir is not None:
        verification = verify_manifests(args.dataset, checkpoint_dir)
        print(f"checkpoint manifests ({verification.checkpoint_dir}):")
        print(verification.table())
        manifests_ok = verification.ok
    return 0 if report.ok and manifests_ok else 1


def _cmd_reconcile(args) -> int:
    from repro.measure.checkpoint import reconcile

    study = _study_from_args(args)
    report = reconcile(
        study.campaign,
        args.output,
        backend=args.backend or "jsonl",
        checkpoint_dir=args.checkpoint_dir,
    )
    print(report.table())
    print(report.summary())
    return 0


def _cmd_verify(args) -> int:
    from repro.analysis.claims import render_verification, verify_claims

    study = _study_from_args(args)
    results = verify_claims(study)
    print(render_verification(results))
    return 0 if all(result.passed for result in results) else 1


def _cmd_bench(args) -> int:
    from repro.measure.bench import (
        BENCH_OUTPUT, BenchScale, bench_analysis, format_report,
        run_benchmarks, smoke_scale,
    )

    if args.analysis:
        # Analysis fast path only (make bench-analysis): quick enough
        # for CI, with the byte-identity check as the pass/fail signal.
        scale = smoke_scale(seed=args.seed, workers=args.workers)
        analysis = bench_analysis(scale)
        fused_s = analysis["tables_s"] + analysis["figures_s"]
        reference_s = (
            analysis["reference_tables_s"] + analysis["reference_figures_s"]
        )
        print(f"analysis: regen {fused_s:.3f}s vs reference "
              f"{reference_s:.3f}s ({analysis['regeneration_speedup']}x, "
              f"{analysis['us_per_record']}us/record)")
        print(f"scan {analysis['engine_scan_s']}s | "
              f"ingest {analysis['load_s']}s vs "
              f"{analysis['load_reference_s']}s "
              f"({analysis['load_speedup']}x) | "
              f"cache hit {analysis['cache_hit_s']}s | "
              f"byte identical: {analysis['byte_identical']}")
        if args.output:
            import json as _json

            with open(args.output, "w", encoding="utf-8") as handle:
                _json.dump({"analysis": analysis}, handle, indent=2)
                handle.write("\n")
            print(f"Wrote {args.output}")
        if not analysis["byte_identical"]:
            print("FAIL: fused analysis output diverged from the "
                  "reference walks", file=sys.stderr)
            return 1
        return 0

    if args.smoke:
        scale = smoke_scale(seed=args.seed, workers=args.workers)
        output = args.output  # None skips writing: smoke must not
        # overwrite the tracked full-scale report.
    else:
        scale = BenchScale(
            seed=args.seed,
            device_scale=args.scale,
            duration_days=args.days,
            interval_hours=args.interval_hours,
            workers=args.workers,
        )
        output = BENCH_OUTPUT if args.output is None else args.output
    report = run_benchmarks(scale, output_path=output)
    print(format_report(report))
    if output:
        print(f"Wrote {output}")
    if not report["campaign"]["hash_match"]:
        print("FAIL: sharded dataset hash diverged from serial",
              file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    study = _study_from_args(args)
    if args.dataset:
        study.use_dataset(Dataset.load(args.dataset))
    paths = export_study_figures(study, args.output_dir)
    print(f"Exported {len(paths)} CSV files to {args.output_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduction of 'Behind the Curtain' (IMC 2014)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate a campaign to JSONL")
    _add_scale_arguments(run)
    run.add_argument("--output", "-o", default="campaign.jsonl")
    run.add_argument(
        "--workers", type=int, default=0,
        help="worker pool size when a multiprocess path runs (0 = auto)",
    )
    run.add_argument(
        "--shards", type=int, default=0,
        help="sub-carrier shard tasks for the sharded executor "
             "(0 = one task per device range; output identical at any "
             "value)",
    )
    run.add_argument(
        "--executor", choices=list(EXECUTOR_CHOICES), default="auto",
        help="execution strategy; auto never goes multiprocess on one "
             "core (output identical either way)",
    )
    run.add_argument(
        "--report", action="store_true",
        help="also print the full report, computed incrementally from "
             "the streaming merge (each record folded as it is written; "
             "the output file is never re-read); archived bytes are "
             "identical to a plain run",
    )
    run.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=None,
        help="dataset storage backend; default infers from the output "
             "extension with JSONL (the byte reference) as fallback — "
             "the content hash is identical under every backend",
    )
    run.add_argument(
        "--checkpoint", action="store_true",
        help="run durably: commit each shard with a fsync'd manifest "
             "sidecar under <output>.shards/, so a crash loses at most "
             "the uncommitted shards and --resume finishes the run",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume a checkpointed run: replay committed shards from "
             "their manifests, execute only the missing ones; the "
             "finished archive is byte-identical to an uninterrupted run",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint directory (default: <output>.shards)",
    )
    run.set_defaults(handler=_cmd_run)

    report = commands.add_parser("report", help="print the paper's artifacts")
    _add_scale_arguments(report)
    report.add_argument("--dataset", help="analyse an archived dataset instead")
    report.add_argument(
        "--analysis-cache", default=None, metavar="PATH",
        help="file-backed result cache keyed by dataset content hash; "
             "re-running over an unchanged dataset replays the rendered "
             "report instead of recomputing it",
    )
    report.set_defaults(handler=_cmd_report)

    validate = commands.add_parser("validate", help="integrity-check a dataset")
    validate.add_argument("dataset")
    validate.add_argument("--max-findings", type=int, default=20)
    validate.add_argument(
        "--manifests", action="store_true",
        help="also verify per-shard checkpoint manifests against the "
             "shard bytes and the archive (auto-detected when a "
             "<dataset>.shards directory exists)",
    )
    validate.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint directory to verify (default: <dataset>.shards)",
    )
    validate.set_defaults(handler=_cmd_validate)

    reconcile = commands.add_parser(
        "reconcile",
        help="heal a checkpointed campaign: verify every shard against "
             "its manifest, quarantine + re-run anything missing or "
             "corrupt (evidence is never deleted), re-merge the archive",
    )
    _add_scale_arguments(reconcile)
    reconcile.add_argument("--output", "-o", default="campaign.jsonl",
                           help="the checkpointed campaign's archive path")
    reconcile.add_argument(
        "--workers", type=int, default=0,
        help="worker pool size for re-running shards (0 = auto)",
    )
    reconcile.add_argument(
        "--shards", type=int, default=0,
        help="shard plan of the original run (must match its manifest)",
    )
    reconcile.add_argument(
        "--executor", choices=list(EXECUTOR_CHOICES), default="auto",
    )
    reconcile.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=None,
        help="storage backend of the checkpointed run (default jsonl)",
    )
    reconcile.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint directory (default: <output>.shards)",
    )
    reconcile.set_defaults(handler=_cmd_reconcile)

    export = commands.add_parser("export", help="export figure series as CSV")
    _add_scale_arguments(export)
    export.add_argument("--dataset", help="analyse an archived dataset instead")
    export.add_argument("--output-dir", "-o", default="figures")
    export.set_defaults(handler=_cmd_export)

    verify = commands.add_parser(
        "verify", help="check every paper claim against a fresh campaign"
    )
    _add_scale_arguments(verify)
    verify.set_defaults(handler=_cmd_verify)

    bench = commands.add_parser(
        "bench", help="measure campaign throughput and substrate primitives"
    )
    bench.add_argument("--seed", type=int, default=2014)
    bench.add_argument("--scale", type=float, default=0.5)
    bench.add_argument("--days", type=float, default=7.0)
    bench.add_argument("--interval-hours", type=float, default=12.0)
    bench.add_argument(
        "--workers", type=int, default=0,
        help="sharded-leg worker pool size (0 = min(device ranges, cpus))",
    )
    bench.add_argument(
        "--analysis", action="store_true",
        help="run only the analysis fast-path benchmark (ingest, fused "
             "scan, regeneration vs reference, result cache); fails if "
             "the fused output is not byte-identical to the reference",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="~30s determinism smoke: tiny campaign, asserts the serial "
             "and sharded dataset hashes match; skips writing the report "
             "unless --output is given",
    )
    bench.add_argument(
        "--output", "-o", default=None,
        help="benchmark report path (empty string skips writing; "
             "default BENCH_campaign.json, or none under --smoke)",
    )
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
