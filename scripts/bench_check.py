#!/usr/bin/env python
"""Pre-merge gate: tier-1 tests plus a campaign determinism smoke.

Runs, in order:

1. the tier-1 test suite (``pytest -x -q`` with ``src`` on the path);
2. a ~30 s benchmark smoke at ``device_scale=0.05`` over 14 days,
   failing hard if the sub-carrier sharded campaign's streamed
   dataset hash differs from the serial one, if the fault-free
   dataset hash drifts from the pinned ``SMOKE_DATASET_SHA256``
   golden (the transport layer's byte-identity contract) — and, on a
   multi-core box, if the sharded executor stays *slower* than the
   serial one across three attempts (an executor regression; noise
   only slows a leg down, so the best attempt gates; single-core boxes
   only note the expected slowdown — ``--executor auto`` runs serial
   there);
3. the warm worker-pool gate: snapshot boots must beat world rebuilds
   (best-of-3 each), a repeat run must reuse the live pool, and the
   two streaming runs (cold pool, then warm) must hash identically;
4. the probe fast-path gates: one stage-breakdown smoke whose
   ``dns_us_per_call`` must stay within 25% — and ``ping_us_per_call``
   / ``http_us_per_call`` / ``serialize_us_per_call`` within 50% — of
   the committed ``BENCH_campaign.json`` figures (guards the
   compiled-plan, vectorized draw-pool and batched-serializer fast
   paths against silent regression; the headroom absorbs box noise,
   wider for the shorter stages, and a stage reading over its limit is
   re-measured up to three times — steal-noise is additive, so the
   per-stage minimum is what gates), and whose sampler pool counters
   must show at least one refill (the block-sampling layer is actually
   in play);
5. the analysis fast-path gate: the fused table+figure regeneration
   must render **byte-identical** to the reference per-function walks
   (hard failure — correctness, not speed), and its steady-state
   ``us_per_record`` must stay within 50% of the committed figure
   (more headroom than the DNS gate: the measured interval is
   shorter, so box noise is proportionally larger);
6. the dataset backends gate: every storage backend (JSONL, SQLite,
   columnar) must roundtrip the smoke dataset hash-identically (hard
   failure — a backend that changes bytes corrupts archives), and the
   JSONL reference writer's append/load us-per-record must stay within
   50% of the committed ``bench_backends`` figures;
7. the pipelined campaign→report gate: the streaming-merge report must
   render byte-identical to the post-hoc path (hard failure), and the
   streaming leg must beat campaign-then-report wall-clock by at least
   the committed ``analysis.load_s + engine_scan_s`` — the archive
   re-read and re-scan the pipeline eliminates (up to three attempts,
   keeping the maximum advantage: noise can only hide a real saving).

Exit status is non-zero on any test failure, on a determinism-hash
mismatch, on a multi-core sharded slowdown, on an analysis identity
break, or on a fast-path regression, so CI (or a pre-push hook) can
call this one script.

Usage::

    python scripts/bench_check.py [--skip-tests]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def run_tier1() -> int:
    """The repo's tier-1 suite, exactly as the roadmap specifies it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    print("== tier-1 test suite ==", flush=True)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"], cwd=REPO_ROOT, env=env
    )
    return result.returncode


def run_bench_smoke() -> int:
    """Small campaign, serial vs sharded, hashes must match."""
    sys.path.insert(0, SRC)
    from repro.measure.bench import (
        SMOKE_DATASET_SHA256,
        BenchScale,
        bench_campaign,
    )

    print("== campaign determinism smoke ==", flush=True)
    report = bench_campaign(
        BenchScale(device_scale=0.05, duration_days=14.0, interval_hours=12.0)
    )
    print(
        f"{report['experiments']} experiments | "
        f"serial {report['serial_exp_per_s']}/s | "
        f"sharded(x{report['workers']}/{report['shards']}) "
        f"{report['sharded_exp_per_s']}/s | "
        f"hash {report['dataset_hash'][:16]}…",
        flush=True,
    )
    if not report["hash_match"]:
        print(
            "FAIL: the sharded dataset hash differs from serial",
            file=sys.stderr,
        )
        return 1
    print("determinism: OK (serial == sharded)")
    if report["dataset_hash"] != SMOKE_DATASET_SHA256:
        print(
            f"FAIL: fault-free smoke hash {report['dataset_hash'][:16]}… "
            f"drifted from the pinned golden "
            f"{SMOKE_DATASET_SHA256[:16]}… — the transport layer's "
            f"byte-identity contract is broken",
            file=sys.stderr,
        )
        return 1
    print("fault-free golden hash: OK")
    cores = os.cpu_count() or 1
    if report["sharded_s"] > report["serial_s"]:
        if cores >= 2:
            # Timing noise can only slow a leg down, so the best of a
            # few attempts is the honest reading: one clean win proves
            # the warm-pool executor earns its keep on this box.
            best = report
            for attempt in range(2, SHARDED_GATE_ATTEMPTS + 1):
                print(
                    f"note: sharded ({best['sharded_s']}s) slower than "
                    f"serial ({best['serial_s']}s) — re-measuring "
                    f"(attempt {attempt}/{SHARDED_GATE_ATTEMPTS})",
                    flush=True,
                )
                retry = bench_campaign(
                    BenchScale(
                        device_scale=0.05,
                        duration_days=14.0,
                        interval_hours=12.0,
                    )
                )
                if retry["sharded_speedup"] > best["sharded_speedup"]:
                    best = retry
                if best["sharded_s"] <= best["serial_s"]:
                    break
            if best["sharded_s"] > best["serial_s"]:
                print(
                    f"FAIL: sharded ({best['sharded_s']}s) stayed slower "
                    f"than serial ({best['serial_s']}s) on a {cores}-core "
                    f"box across {SHARDED_GATE_ATTEMPTS} attempts",
                    file=sys.stderr,
                )
                return 1
            report = best
        else:
            print(
                "note: sharded executor slower than serial on 1 core "
                "(expected; `--executor auto` runs serial here)"
            )
            return 0
    print(f"sharded speedup on {cores} cores: {report['sharded_speedup']}x")
    return 0


#: Multi-core sharded-vs-serial attempts before the smoke may fail.
#: Noise only ever slows a leg down, so the best attempt is what gates.
SHARDED_GATE_ATTEMPTS = 3


def run_workers_gate() -> int:
    """The warm worker-pool mechanics must actually pay off.

    Runs :func:`~repro.measure.bench.bench_workers` at the smoke scale
    and requires:

    * **snapshot beats rebuild** (hard failure): booting a worker world
      from the parent's snapshot must be faster than re-running
      ``build_world`` (both best-of-3) — otherwise the snapshot
      machinery is pure overhead;
    * **pool reuse** (hard failure): the second streaming run must have
      reused the first run's live pool;
    * **byte identity** (hard failure): the two streaming runs (cold
      pool, then warm) must hash identically.  The overlapped merge is
      gated against the serial bytes by the campaign smoke (serial ==
      sharded == ``SMOKE_DATASET_SHA256``).

    Both runs' wall times are reported but not gated — on small smokes
    they sit inside timer noise.
    """
    sys.path.insert(0, SRC)
    from repro.measure.bench import BenchScale, bench_workers

    print("== warm worker-pool gate ==", flush=True)
    report = bench_workers(
        BenchScale(device_scale=0.05, duration_days=14.0, interval_hours=12.0)
    )
    print(
        f"snapshot boot {report['snapshot_boot_us']}us vs rebuild "
        f"{report['rebuild_boot_us']}us ({report['snapshot_speedup']}x) | "
        f"ctx {report['mp_context']} | pools created "
        f"{report['pools_created']}, reused {report['pool_reuse_hits']} | "
        f"runs {report['first_run_s']}s cold, "
        f"{report['second_run_s']}s warm | "
        f"hash match: {report['hash_match']}",
        flush=True,
    )
    if report["snapshot_bytes"] <= 0:
        print(
            "FAIL: no world snapshot was produced for a pristine world — "
            "workers are paying full rebuilds",
            file=sys.stderr,
        )
        return 1
    if report["snapshot_boot_us"] >= report["rebuild_boot_us"]:
        print(
            f"FAIL: snapshot boot ({report['snapshot_boot_us']}us) did not "
            f"beat world rebuild ({report['rebuild_boot_us']}us); the "
            f"snapshot bootstrap is pure overhead",
            file=sys.stderr,
        )
        return 1
    if report["pool_reuse_hits"] < 1:
        print(
            "FAIL: the second streaming run did not reuse the warm pool "
            f"(created {report['pools_created']}, reused "
            f"{report['pool_reuse_hits']})",
            file=sys.stderr,
        )
        return 1
    if not report["hash_match"]:
        print(
            "FAIL: the second streaming run (warm pool) hashed "
            "differently from the first (cold pool)",
            file=sys.stderr,
        )
        return 1
    print("workers gate: OK")
    return 0


#: Allowed us-per-call slack over the committed benchmark before the
#: gate fails, per probe stage (1.25 == a ≥25% regression fails).  The
#: dns stage runs the longest interval so its figure is the most
#: stable; ping and http intervals are a few hundred milliseconds, so
#: proportionally more box noise is absorbed before failing.
STAGE_REGRESSION_LIMITS = {
    "dns": 1.25,
    "ping": 1.5,
    "http": 1.5,
    "serialize": 1.5,
}


#: Stage-breakdown attempts before a pace gate may fail.  Timing noise
#: on a shared box (CPU steal) is strictly additive — a spike can only
#: make a stage *look* slower — so the minimum over attempts is the
#: robust statistic: one quiet reading proves the code path's pace, and
#: only a stage that stays over its limit across every attempt fails.
STAGE_GATE_ATTEMPTS = 3


def run_stage_gates() -> int:
    """Probe fast paths must stay near the committed benchmark, and the
    vectorized sampler must actually be in play.

    One stage-breakdown smoke feeds every check: per-stage us-per-call
    regression gates for dns/ping/http (re-measured up to
    ``STAGE_GATE_ATTEMPTS`` times, keeping per-stage minimums, so an
    unlucky CPU-steal window doesn't fail a healthy path), plus a
    sampler sanity gate — the campaign must have refilled draw pools at
    least once (pool counters all zero would mean the block-sampling
    layer silently stopped being exercised, e.g. every probe fell back
    to the scalar path).
    """
    sys.path.insert(0, SRC)
    from repro.measure.bench import bench_stage_breakdown

    committed_path = os.path.join(REPO_ROOT, "BENCH_campaign.json")
    if not os.path.exists(committed_path):
        print("note: no committed BENCH_campaign.json; skipping stage gates")
        return 0
    with open(committed_path) as handle:
        committed = json.load(handle)
    stages = committed.get("stages", {})
    print("== probe fast-path gates ==", flush=True)
    report = bench_stage_breakdown()
    print(
        f"(dns split: cache-hit {report['dns_cache_hit_s']}s, "
        f"walk {report['dns_walk_s']}s, "
        f"cdn-select {report['dns_cdn_select_s']}s)",
        flush=True,
    )
    best = {
        stage: report[f"{stage}_us_per_call"]
        for stage in STAGE_REGRESSION_LIMITS
    }
    limits = {}
    for stage, slack in STAGE_REGRESSION_LIMITS.items():
        baseline = stages.get(f"{stage}_us_per_call")
        if not baseline:
            print(
                f"note: committed benchmark lacks {stage}_us_per_call; "
                f"skipping {stage} gate"
            )
            continue
        limits[stage] = baseline * slack
    attempts = 1
    while (
        any(best[stage] >= limit for stage, limit in limits.items())
        and attempts < STAGE_GATE_ATTEMPTS
    ):
        over = [s for s, lim in limits.items() if best[s] >= lim]
        print(
            f"note: {', '.join(over)} over limit on attempt {attempts} — "
            f"re-measuring (box noise is additive; the minimum counts)",
            flush=True,
        )
        retry = bench_stage_breakdown()
        for stage in best:
            value = retry[f"{stage}_us_per_call"]
            if value < best[stage]:
                best[stage] = value
        attempts += 1
    failed = False
    for stage, limit in limits.items():
        baseline = stages[f"{stage}_us_per_call"]
        measured = best[stage]
        print(
            f"{stage} {measured} us/call (best of {attempts}) | "
            f"committed {baseline} us/call | limit {round(limit, 1)}",
            flush=True,
        )
        if measured >= limit:
            slack = STAGE_REGRESSION_LIMITS[stage]
            print(
                f"FAIL: {stage}_us_per_call {measured} regressed "
                f">={round((slack - 1) * 100)}% over the committed "
                f"{baseline} (limit {round(limit, 1)}) across "
                f"{attempts} attempts",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    sampler = report.get("sampler")
    if not sampler or sampler.get("pool_refills", 0) <= 0:
        print(
            "FAIL: sampler pool counters report zero refills — the "
            "vectorized draw-pool layer was never exercised",
            file=sys.stderr,
        )
        return 1
    print(
        f"sampler: {sampler['pool_hits']} pool hits over "
        f"{sampler['pool_refills']} refills "
        f"({sampler['pool_realignments']} realignments)"
    )
    print("stage gates: OK")
    return 0


#: Allowed analysis us_per_record slack over the committed benchmark
#: (1.5 == a ≥50% regression fails; the regeneration interval is short,
#: so the gate leaves more room for box noise than the DNS gate).
ANALYSIS_REGRESSION_LIMIT = 1.5


def run_analysis_gate() -> int:
    """Fused analysis must stay byte-identical and near the committed pace."""
    sys.path.insert(0, SRC)
    from repro.measure.bench import bench_analysis

    committed_path = os.path.join(REPO_ROOT, "BENCH_campaign.json")
    if not os.path.exists(committed_path):
        print("note: no committed BENCH_campaign.json; skipping analysis gate")
        return 0
    with open(committed_path) as handle:
        committed = json.load(handle)
    baseline = committed.get("analysis", {}).get("us_per_record")
    if not baseline:
        print(
            "note: committed benchmark lacks analysis.us_per_record; "
            "skipping analysis gate"
        )
        return 0
    print("== analysis fast-path gate ==", flush=True)
    report = bench_analysis()
    measured = report["us_per_record"]
    limit = baseline * ANALYSIS_REGRESSION_LIMIT
    print(
        f"analysis {measured} us/record over {report['experiments']} "
        f"experiments | committed {baseline} us/record | "
        f"limit {round(limit, 1)} | "
        f"regen speedup {report['regeneration_speedup']}x | "
        f"ingest speedup {report['load_speedup']}x | "
        f"byte identical: {report['byte_identical']}",
        flush=True,
    )
    if not report["byte_identical"]:
        print(
            "FAIL: fused analysis output diverged from the reference "
            "walks (byte identity broken)",
            file=sys.stderr,
        )
        return 1
    if measured >= limit:
        print(
            f"FAIL: analysis us_per_record {measured} regressed >=50% over "
            f"the committed {baseline} (limit {round(limit, 1)})",
            file=sys.stderr,
        )
        return 1
    print("analysis gate: OK")
    return 0


#: Allowed backend append/load us-per-record slack over the committed
#: ``bench_backends`` figures (1.5 == a ≥50% regression fails).  Only
#: the JSONL backend gates — it is the byte reference and the format
#: every existing golden pins; the alternate backends' figures are
#: informational until they grow goldens of their own.
BACKENDS_REGRESSION_LIMIT = 1.5

#: Backend-gate attempts: CPU-steal noise is additive, so per-metric
#: minimums over attempts are the robust statistic (same reasoning as
#: the stage gates).
BACKENDS_GATE_ATTEMPTS = 3


def run_backends_gate() -> int:
    """Storage backends must roundtrip hash-identically, and the JSONL
    reference writer must stay near its committed pace.

    Runs :func:`~repro.measure.bench.bench_backends` at the smoke scale
    and requires:

    * **hash identity** (hard failure): the dataset loaded back from
      every backend must reproduce the in-memory
      ``Dataset.content_hash`` — a backend that changes bytes is
      corrupting archives, whatever its speed;
    * **JSONL pace**: append and load us-per-record must stay within
      ``BACKENDS_REGRESSION_LIMIT`` of the committed ``bench_backends``
      figures (best-of-``BACKENDS_GATE_ATTEMPTS``), so the backend
      refactor can never quietly tax the historical serialize path.
    """
    sys.path.insert(0, SRC)
    from repro.measure.bench import bench_backends

    committed_path = os.path.join(REPO_ROOT, "BENCH_campaign.json")
    if not os.path.exists(committed_path):
        print("note: no committed BENCH_campaign.json; skipping backends gate")
        return 0
    with open(committed_path) as handle:
        committed = json.load(handle)
    baselines = committed.get("bench_backends", {}).get("jsonl", {})
    print("== dataset backends gate ==", flush=True)
    report = bench_backends()
    print(
        " | ".join(
            f"{name} append {report[name]['append_us_per_record']}us/rec, "
            f"load {report[name]['load_us_per_record']}us/rec"
            for name in ("jsonl", "sqlite", "columnar")
            if name in report
        )
        + f" | hash match: {report['hash_match']}",
        flush=True,
    )
    if not report["hash_match"]:
        print(
            "FAIL: a backend roundtrip changed Dataset.content_hash — "
            "storage is corrupting archives",
            file=sys.stderr,
        )
        return 1
    limits = {}
    for metric in ("append_us_per_record", "load_us_per_record"):
        baseline = baselines.get(metric)
        if not baseline:
            print(
                f"note: committed benchmark lacks bench_backends.jsonl."
                f"{metric}; skipping its gate"
            )
            continue
        limits[metric] = baseline * BACKENDS_REGRESSION_LIMIT
    best = {metric: report["jsonl"][metric] for metric in limits}
    attempts = 1
    while (
        any(best[metric] >= limit for metric, limit in limits.items())
        and attempts < BACKENDS_GATE_ATTEMPTS
    ):
        over = [m for m, lim in limits.items() if best[m] >= lim]
        print(
            f"note: jsonl {', '.join(over)} over limit on attempt "
            f"{attempts} — re-measuring (noise is additive; the minimum "
            f"counts)",
            flush=True,
        )
        retry = bench_backends()
        if not retry["hash_match"]:
            print(
                "FAIL: a backend roundtrip changed Dataset.content_hash "
                "on re-measure",
                file=sys.stderr,
            )
            return 1
        for metric in best:
            best[metric] = min(best[metric], retry["jsonl"][metric])
        attempts += 1
    failed = False
    for metric, limit in limits.items():
        baseline = baselines[metric]
        measured = best[metric]
        print(
            f"jsonl {metric} {measured} (best of {attempts}) | "
            f"committed {baseline} | limit {round(limit, 1)}",
            flush=True,
        )
        if measured >= limit:
            print(
                f"FAIL: jsonl {metric} {measured} regressed >=50% over "
                f"the committed {baseline} (limit {round(limit, 1)}) "
                f"across {attempts} attempts",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("backends gate: OK")
    return 0


#: Pipeline-gate attempts before the advantage check may fail.  Box
#: noise can deflate the measured advantage (a steal spike in the
#: streaming leg), so the *maximum* over attempts is the robust
#: statistic — one quiet reading proves the pipeline's saving is real.
PIPELINE_GATE_ATTEMPTS = 3


def run_pipeline_gate() -> int:
    """The pipelined campaign→report must actually absorb the analysis
    ingest + scan cost it replaces.

    Runs :func:`~repro.measure.bench.bench_pipeline` at the default
    benchmark scale and requires

    * **byte identity** (hard failure): the streaming-merge report and
      archive hash must equal the post-hoc path's;
    * **advantage**: the streaming leg must beat campaign-then-report
      by at least the committed ``analysis.load_s + engine_scan_s`` —
      the re-read and re-scan the pipeline exists to eliminate.
    """
    sys.path.insert(0, SRC)
    from repro.measure.bench import bench_pipeline

    committed_path = os.path.join(REPO_ROOT, "BENCH_campaign.json")
    if not os.path.exists(committed_path):
        print("note: no committed BENCH_campaign.json; skipping pipeline gate")
        return 0
    with open(committed_path) as handle:
        committed = json.load(handle)
    analysis = committed.get("analysis", {})
    load_s = analysis.get("load_s")
    engine_scan_s = analysis.get("engine_scan_s")
    if load_s is None or engine_scan_s is None:
        print(
            "note: committed benchmark lacks analysis.load_s / "
            "engine_scan_s; skipping pipeline gate"
        )
        return 0
    threshold = load_s + engine_scan_s
    print("== pipelined campaign→report gate ==", flush=True)
    best_advantage = float("-inf")
    for attempt in range(1, PIPELINE_GATE_ATTEMPTS + 1):
        report = bench_pipeline()
        print(
            f"attempt {attempt}: streaming {report['streaming_total_s']}s "
            f"vs post-hoc {report['posthoc_total_s']}s over "
            f"{report['experiments']} experiments | advantage "
            f"{report['pipeline_advantage_s']}s | byte identical: "
            f"{report['byte_identical']}",
            flush=True,
        )
        if not report["byte_identical"]:
            print(
                "FAIL: streaming-merge report or archive hash diverged "
                "from the post-hoc path (byte identity broken)",
                file=sys.stderr,
            )
            return 1
        best_advantage = max(best_advantage, report["pipeline_advantage_s"])
        if best_advantage >= threshold:
            break
    print(
        f"pipeline advantage {best_advantage}s (best of {attempt}) | "
        f"required >= {round(threshold, 4)}s "
        f"(committed analysis load {load_s}s + scan {engine_scan_s}s)",
        flush=True,
    )
    if best_advantage < threshold:
        print(
            f"FAIL: pipeline advantage {best_advantage}s never reached the "
            f"committed analysis ingest+scan cost {round(threshold, 4)}s "
            f"across {attempt} attempts — the streaming fold is not "
            f"absorbing the re-read it replaces",
            file=sys.stderr,
        )
        return 1
    print("pipeline gate: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="run only the determinism smoke",
    )
    args = parser.parse_args()
    if not args.skip_tests:
        status = run_tier1()
        if status != 0:
            return status
    status = run_bench_smoke()
    if status != 0:
        return status
    status = run_workers_gate()
    if status != 0:
        return status
    status = run_stage_gates()
    if status != 0:
        return status
    status = run_analysis_gate()
    if status != 0:
        return status
    status = run_backends_gate()
    if status != 0:
        return status
    return run_pipeline_gate()


if __name__ == "__main__":
    raise SystemExit(main())
