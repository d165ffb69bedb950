"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``;
the repository's test suite does not collect them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

from tracer import Tracer, self_times, summarize
from workloads import END_TO_END, PER_LAYER, WORKLOADS, WORKLOADS_BY_NAME

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- self-time arithmetic -------------------------------------------------------


def test_self_times_subtract_the_union_of_clipped_children():
    # root [0,10]; a [1,4] and b [3,6] overlap; c [8,12] runs past its
    # parent; d [2,3] nests in a.
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert self_times(parents, starts, ends) == pytest.approx(
        [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0]
    )


def test_self_times_of_a_tree_sum_to_its_root():
    tracer = Tracer(clock=iter(range(1000)).__next__)

    def leaf():
        return None

    def middle():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap_call("leaf", leaf)
    tracer.wrap_call("root", lambda: [tracer.wrap_call("middle", middle)()
                                      for _ in range(3)])()
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    assert sum(selfs) == pytest.approx(tracer.ends[0] - tracer.starts[0])
    table, window = summarize(tracer, since=0.0)
    assert table["leaf"]["calls"] == 6 and table["middle"]["calls"] == 3
    assert window == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_recursive_layer_is_not_counted_twice():
    tracer = Tracer(clock=iter(range(100)).__next__)

    def countdown(n):
        if n:
            traced(n - 1)

    traced = tracer.wrap_call("layer", countdown)
    traced(3)
    table, _ = summarize(tracer, since=0.0)
    assert table["layer"]["calls"] == 4
    assert table["layer"]["total_s"] == tracer.ends[0] - tracer.starts[0]


def test_generator_resumptions_are_parented_to_their_consumer():
    tracer = Tracer(clock=iter(range(1000)).__next__)

    def produce():
        yield 1
        yield 2

    def consume():
        return list(traced_produce())

    traced_produce = tracer.wrap_generator("produce", produce)
    assert tracer.wrap_call("consume", consume)() == [1, 2]
    names = [tracer.names[i] for i in tracer.name_ids]
    # Two items plus the resumption that ends the generator.
    assert names == ["consume", "produce", "produce", "produce"]
    assert list(tracer.parents) == [-1, 0, 0, 0]


def test_patch_keeps_descriptor_kinds_and_uninstall_restores():
    class Layer:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    originals = dict(vars(Layer))
    tracer = Tracer()
    tracer.patch(Layer, "method", "layer.method", "call")
    tracer.patch(Layer, "build", "layer.build", "call")
    assert Layer().method(1) == 2
    assert Layer.build(5) == (Layer, 5)
    assert len(tracer) == 2
    tracer.uninstall()
    assert vars(Layer)["method"] is originals["method"]
    assert vars(Layer)["build"] is originals["build"]


# -- declared names -------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_names_match_benchmark_json():
    declared = _benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == [w.name for w in WORKLOADS]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        w.name: w.why for w in WORKLOADS
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    names = (
        [w["name"] for w in declared["workloads"]]
        + [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    )
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


# -- traced vs untraced ---------------------------------------------------------


def _run(spec, run_dir, *flags):
    os.makedirs(run_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(run_dir))
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec),
         str(run_dir), repr(time.monotonic()), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


SMALL = dict(device_scale=0.05, duration_days=1.0)


def test_tracing_only_reads_the_clock(tmp_path):
    """Traced runs — serial, and sharded with forked workers — write the
    same bytes and report as an untraced, fully checked serial run."""
    serial = WORKLOADS_BY_NAME["serial-paper"].spec(7, **SMALL)
    sharded = WORKLOADS_BY_NAME["sharded-paper"].spec(7, **SMALL)
    plain = _run(serial, tmp_path / "plain", "--check")
    traced = _run(serial, tmp_path / "traced", "--trace")
    traced_sharded = _run(sharded, tmp_path / "sharded", "--trace")
    for other in (traced, traced_sharded):
        assert other["content_hash"] == plain["content_hash"]
        assert other["report_sha256"] == plain["report_sha256"]
    # The driver derives exp_per_ref_s (from exp_per_s and its
    # calibration) and the tracing overhead (from two kinds of run).
    assert set(END_TO_END) - {"exp_per_ref_s"} | {"exp_per_s"} <= set(plain["metrics"])
    assert set(PER_LAYER) - {"trace.overhead_exp_per_s"} <= set(traced["metrics"])
    assert traced["metrics"]["experiment.runs"] == plain["experiments"]
    assert traced["metrics"]["trace.coverage"] > 0.9
