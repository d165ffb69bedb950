"""The repository's benchmark driver.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serial-paper --seed 7 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One invocation measures one workload for ``--seconds`` seconds: it
starts the workload again and again, each time in a fresh process
(``rep.py``), until the time is used up (and at least
:data:`MIN_RUNS` times), then reports medians.  The seed is the only
input; the program receives nothing but the config it implies.  Runs
of a workload never overlap.

Throughput is reported as ``exp_per_ref_s``: experiments per
*reference* second.  Between runs the driver times a fixed slice of
pure-Python work (:func:`calibrate`); each run's work time is scaled by
the readings taken just before and just after it.  On a shared machine
whose speed drifts by tens of percent from minute to minute, this
cancels most of the drift and keeps what the program itself changed.
The raw wall-clock rate and the calibration are in the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the
traced ones, plus the tracing overhead (untraced minus traced
wall-clock experiments per second).  Every run's output is checked: the first run of a
campaign workload gets the full check (archive re-hash, validation,
report regenerated from the archive), and every later run must return
the same content hash and report.  ``archive-report`` first writes its
archive with an untimed, fully checked ``serial-paper`` run of the same
seed, and every report run must reproduce that run's report.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the
run record (machine, versions, serializer, executor decision).  A
readable table goes to standard error.  All files are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import (
    END_TO_END,
    PER_LAYER,
    UNTRACED_LAYER_METRICS,
    WORKLOADS,
    WORKLOADS_BY_NAME,
    Workload,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rep.py")
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Fewest runs one invocation makes, whatever ``--seconds`` says.
MIN_RUNS = 2

#: Wall-clock budget of one invocation; a run still going then is
#: killed and counted as failed.
DEADLINE_S = 170.0


#: Time of one :func:`calibration_slice` on the 2-core development VM
#: when it was least contended.  It only fixes the unit of
#: ``exp_per_ref_s``: on that machine, uncontended, a reference second
#: is a wall second.
CALIBRATION_NOMINAL_S = 0.032

#: Calibration after each run lasts this share of the run's wall time
#: (at least :data:`CALIBRATION_MIN_S`), so the readings sample the
#: machine's speed across the whole invocation.
CALIBRATION_SHARE = 0.25
CALIBRATION_MIN_S = 0.3


def calibration_slice() -> float:
    """Seconds a fixed slice of pure-Python work takes right now.

    Dict updates, string formatting, float math, sorting and JSON
    encoding: the operations the program spends its time in.
    """
    started = time.perf_counter()
    table: Dict[str, float] = {}
    for index in range(100_000):
        key = f"k{index % 997}"
        table[key] = table.get(key, 0.0) + math.sqrt(index)
    json.dumps(sorted(table.items()))
    return time.perf_counter() - started


def calibrate(seconds: float) -> float:
    """Median :func:`calibration_slice` time over about ``seconds``:
    how fast the shared machine is at the moment, independent of the
    program."""
    deadline = time.perf_counter() + seconds
    readings = [calibration_slice()]
    while time.perf_counter() < deadline:
        readings.append(calibration_slice())
    return statistics.median(readings)


class Invocation:
    """Everything one workload measurement attempted and observed."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: List[str] = []
        self.untraced: List[Dict[str, object]] = []
        self.traced: List[Dict[str, object]] = []
        self.record: Dict[str, object] = {}
        #: Latest :func:`calibrate` reading (taken after the last run).
        self.calibration: Optional[float] = None
        self.directory = os.path.join(
            WORK_DIR, f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        )

    # -- running ------------------------------------------------------------

    def run_once(self, spec, label: str, deadline: float, traced=False, check=False):
        """Run ``rep.py`` once; returns its result, or None on failure."""
        run_dir = os.path.join(self.directory, label)
        os.makedirs(run_dir)
        tmp = os.path.join(self.directory, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["TMPDIR"] = tmp
        command = [sys.executable, REP, json.dumps(spec), run_dir]
        self.attempted += 1
        before = self.calibration or calibrate(CALIBRATION_MIN_S)
        t0 = time.monotonic()
        command.append(repr(t0))
        if traced:
            command.append("--trace")
        if check:
            command.append("--check")
        try:
            completed = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{label}: timed out")
            return None
        self.calibration = calibrate(
            max(CALIBRATION_MIN_S, CALIBRATION_SHARE * (time.monotonic() - t0))
        )
        result = None
        path = os.path.join(run_dir, "result.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                result = json.load(handle)
        if completed.returncode != 0 or result is None or not result["ok"]:
            detail = result["failures"] if result else completed.stderr.strip()[-2000:]
            self.failures.append(f"{label}: exit {completed.returncode}: {detail}")
            return None
        # The machine's speed around this run: readings just before and
        # just after it.
        result["calibration_s"] = (before + self.calibration) / 2
        result["ref_s"] = result["work_s"] * CALIBRATION_NOMINAL_S / result["calibration_s"]
        result["metrics"]["exp_per_ref_s"] = result["experiments"] / result["ref_s"]
        return result

    def measure(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        started = time.monotonic()
        deadline = started + DEADLINE_S
        workload = self.workload
        spec = workload.spec(self.seed)
        reference: Optional[Dict[str, object]] = None
        source_dir = None
        if workload.kind == "report":
            source = WORKLOADS_BY_NAME[workload.source]
            prepared = self.run_once(
                source.spec(self.seed), "archive", deadline, check=True
            )
            if prepared is None:
                return
            source_dir = os.path.join(self.directory, "archive")
            spec = dict(spec, archive=os.path.join(source_dir, "archive"),
                        expected_hash=prepared["content_hash"])
            reference = prepared
        index = 0
        while True:
            runs = len(self.untraced) + len(self.traced)
            elapsed = time.monotonic() - started
            if runs >= MIN_RUNS and elapsed >= self.seconds:
                break
            if time.monotonic() >= deadline or index >= MIN_RUNS and not runs:
                break
            traced = self.trace and index % 2 == 1
            check = reference is None
            label = f"run-{index:02d}" + ("-traced" if traced else "")
            result = self.run_once(spec, label, deadline, traced=traced, check=check)
            index += 1
            self._discard_outputs(os.path.join(self.directory, label))
            if result is None:
                continue
            if reference is None:
                reference = result
            elif (result["content_hash"], result["report_sha256"]) != (
                reference["content_hash"], reference["report_sha256"]
            ):
                self.failures.append(
                    f"{label}: output differs from the checked run "
                    f"(hash {result['content_hash'][:12]} vs "
                    f"{reference['content_hash'][:12]})"
                )
                continue
            self.record = self.record or result["record"]
            (self.traced if traced else self.untraced).append(result)
        if source_dir is not None:
            self._discard_outputs(source_dir)

    @staticmethod
    def _discard_outputs(run_dir: str) -> None:
        """Delete what a run wrote except its result and spans."""
        if not os.path.isdir(run_dir):
            return
        for name in os.listdir(run_dir):
            if name in ("result.json", "spans.bin"):
                continue
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)

    # -- reporting ----------------------------------------------------------

    def samples(self, metric: str, traced: bool) -> List[float]:
        results = self.traced if traced else self.untraced
        return [float(result["metrics"][metric]) for result in results]

    def rate(self, traced: bool) -> float:
        """Experiments per second of work over all successful runs.

        Time-weighted rather than a median of per-run rates: on a
        machine whose speed drifts from second to second, the total
        over every measured second is the steadier figure.
        """
        results = self.traced if traced else self.untraced
        return (sum(result["experiments"] for result in results)
                / sum(result["work_s"] for result in results))

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Every declared metric.  ``exp_per_ref_s`` is total
        experiments over total work time in reference seconds (each
        run's work time scaled by the calibration around it); the rest
        are medians over the successful runs."""
        out: Dict[str, Dict[str, object]] = {}
        if not self.trace:
            for name, unit in END_TO_END.items():
                if name == "exp_per_ref_s":
                    value = (sum(r["experiments"] for r in self.untraced)
                             / sum(r["ref_s"] for r in self.untraced))
                else:
                    value = statistics.median(self.samples(name, False))
                out[name] = {"value": value, "unit": unit}
            return out
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.overhead_exp_per_s":
                value = self.rate(False) - self.rate(True)
            else:
                value = statistics.median(
                    self.samples(name, name not in UNTRACED_LAYER_METRICS)
                )
            out[name] = {"value": value, "unit": unit}
        return out

    def complete(self) -> bool:
        return bool(self.untraced) and (bool(self.traced) or not self.trace)

    def run_record(self) -> Dict[str, object]:
        first = (self.untraced or self.traced or [{}])[0]
        return dict(
            self.record,
            workload=self.workload.name,
            seed=self.seed,
            nproc=os.cpu_count(),
            cpu_model=_cpu_model(),
            experiments=first.get("experiments"),
            duration_days=self.workload.duration_days,
            runs_untraced=len(self.untraced),
            runs_traced=len(self.traced),
            calibration_s=statistics.median(r["calibration_s"] for r in self.untraced),
            exp_per_wall_s=self.rate(False),
        )

    def table(self) -> str:
        """Readable summary: reported value, quartiles of the per-run
        values and sample count per metric, then (traced) the layers."""
        lines = [f"== {self.workload.name} (seed {self.seed}, "
                 f"{self.attempted} runs attempted, {len(self.failures)} failed, "
                 f"error_rate {len(self.failures) / max(1, self.attempted):.3f})"]
        if self.complete():
            for name, entry in self.metrics().items():
                line = f"  {name:32s} {entry['value']:14.6g} {entry['unit']:6s}"
                if name != "trace.overhead_exp_per_s":
                    values = self.samples(
                        name, self.trace and name not in UNTRACED_LAYER_METRICS
                    )
                    if len(values) >= 2:
                        q1, _, q3 = statistics.quantiles(values, n=4)
                        line += f" [q1 {q1:.6g}, q3 {q3:.6g}]"
                    line += f" n={len(values)}"
                lines.append(line)
            if self.trace:
                lines.append(_layer_shares(self.traced[0]))
        for failure in self.failures:
            lines.append(f"  FAILED {failure}")
        return "\n".join(lines)


#: Spans that run during set-up, before the timed work starts.
SETUP_SPANS = ("study.init", "world.build", "world.snapshot")


def _layer_shares(result: Dict[str, object]) -> str:
    """Self time, calls and share of work time per span name."""
    work_s = result["metrics"]["trace.work_s"]
    rows = sorted(result["layers"].items(), key=lambda item: -item[1]["self_s"])
    lines = [f"  {'span (first traced run)':32s} {'self_s':>10s} {'share':>7s} "
             f"{'total_s':>10s} {'calls':>9s}"]
    for name, row in rows:
        share = "setup" if name in SETUP_SPANS else f"{row['self_s'] / work_s:.1%}"
        lines.append(f"  {name:32s} {row['self_s']:10.4f} {share:>7s} "
                     f"{row['total_s']:10.4f} {row['calls']:9d}")
    return "\n".join(lines)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2

    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    invocations = []
    for name in names:
        invocation = Invocation(WORKLOADS_BY_NAME[name], args.seed, args.seconds,
                                bool(args.trace))
        invocation.measure()
        print(invocation.table(), file=sys.stderr, flush=True)
        invocations.append(invocation)

    if not all(invocation.complete() for invocation in invocations):
        print("error: no successful run to report", file=sys.stderr)
        return 1
    if len(invocations) > 1:
        _print_summary(invocations)
        return 0 if not any(invocation.failures for invocation in invocations) else 1
    invocation = invocations[0]
    print(json.dumps({"run_record": invocation.run_record()}))
    print(json.dumps({
        "correct": not invocation.failures,
        "attempted": invocation.attempted,
        "failed": len(invocation.failures),
        "metrics": invocation.metrics(),
    }))
    return 0


def _print_summary(invocations: List[Invocation]) -> None:
    """One table of medians for every workload (``--workload all``)."""
    first = invocations[0]
    names = list(PER_LAYER if first.trace else END_TO_END)
    print(json.dumps({"run_record": {k: v for k, v in first.run_record().items()
                                     if k in ("nproc", "cpu_model", "python", "numpy",
                                              "orjson", "serializer")}}))
    header = f"{'metric':32s} {'unit':6s}" + "".join(
        f" {invocation.workload.name:>16s}" for invocation in invocations
    )
    print(header)
    for name in names:
        unit = END_TO_END[name] if not first.trace else PER_LAYER[name][0]
        cells = "".join(
            f" {invocation.metrics()[name]['value']:16.6g}" for invocation in invocations
        )
        print(f"{name:32s} {unit:6s}{cells}")
    counts = "".join(
        f" {len(i.untraced) + len(i.traced):16d}" for i in invocations
    )
    print(f"{'samples':32s} {'count':6s}{counts}")
    errors = "".join(
        f" {len(i.failures) / max(1, i.attempted):16.6g}" for i in invocations
    )
    print(f"{'error_rate':32s} {'ratio':6s}{errors}")


if __name__ == "__main__":
    sys.exit(main())
