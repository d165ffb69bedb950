"""Campaign throughput: serial loop vs sub-carrier shard workers.

Unlike the figure/table benches, this one times the *measurement* stage
itself.  It drives :mod:`repro.measure.bench` at a reduced scale (the
repo-root ``BENCH_campaign.json`` trajectory uses the full default
scale via ``repro-study bench``) and asserts the two execution
strategies agree bit-for-bit — a faster campaign that drifted from the
serial semantics is a correctness bug, not a win.

Standalone use::

    PYTHONPATH=src python benchmarks/bench_campaign_throughput.py
"""

from repro.measure.bench import BenchScale, format_report, run_benchmarks

#: Scaled down so the bench session stays quick; the CLI default
#: (device_scale=0.5) is the number the README quotes.
SMOKE_SCALE = BenchScale(device_scale=0.1, duration_days=7.0)


def bench_campaign_throughput(emit):
    report = run_benchmarks(SMOKE_SCALE, output_path=None)
    emit("campaign_throughput", format_report(report))
    campaign = report["campaign"]
    assert campaign["hash_match"], "sharded dataset diverged from serial"
    assert campaign["serial_exp_per_s"] > 0
    assert report["asn_lookup"]["speedup"] >= 10.0


if __name__ == "__main__":
    print(format_report(run_benchmarks(SMOKE_SCALE, output_path=None)))
