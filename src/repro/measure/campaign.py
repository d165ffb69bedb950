"""Campaign runner: many devices, many experiments, one dataset.

A campaign instantiates the volunteer population (Table 1's per-carrier
client counts, scaled if asked), schedules each device's experiments
over the study window, runs them in probe-event order and collects an
analysable :class:`~repro.measure.records.Dataset`.

Two execution strategies produce *bit-identical* datasets (the
``--executor`` choices are ``auto``, ``serial`` and ``sharded``):

* :class:`Campaign` runs everything in one process, draining one
  :class:`~repro.measure.scheduler.ProbeEventQueue` keyed
  ``(timestamp, carrier_key, device_index, sequence)``.
* :class:`ShardedCampaign` shards by *device range within* a carrier:
  the population is cut into deterministic ranges of
  :attr:`CampaignConfig.range_size` consecutive devices, any number of
  ranges can be grouped into ``--shards N`` worker tasks, and shard
  outputs re-merge by the global event key.

What makes sub-carrier sharding exact rather than approximate is the
cache-scope policy: the only mutable state devices share is DNS cache
contents, and every campaign resolution is scoped by the device's
range label (``MobileDevice.cache_scope``), applied identically by the
serial executor.  Range boundaries depend only on the campaign config —
never on the shard count or worker count — so the cache partition, and
therefore every record byte, is invariant across executors and any
``--shards N``.  The identity is asserted in tests via
:meth:`Dataset.content_hash`.

The sharded executor runs a *warm worker pool*:

* **Snapshot bootstrap** — the parent serializes its pristine world
  once (:func:`~repro.core.world.snapshot_world`) and ships the bytes
  to pool initializers; each worker materialises its world with one
  ``pickle.loads`` instead of re-running ``build_world``, with the
  rebuild kept as an automatic fallback.  Snapshot-booted and rebuilt
  workers are asserted byte-identical.
* **Fork-aware contexts** — ``mp_context="auto"`` prefers ``fork``
  where safe (Linux: the snapshot is inherited copy-on-write), then
  ``forkserver``, then ``spawn`` (the portable reference).  Output is
  identical under every context.
* **Persistent pools** — one ``ProcessPoolExecutor`` is reused across
  ``run``/``run_streaming`` calls; lifecycle is explicit
  (:meth:`close`, context manager).  Each run gets a fresh *run
  token*: workers re-boot a pristine campaign per token, so repeated
  runs on one campaign object are idempotent.
* **Overlapped shard→merge** — :meth:`ShardedCampaign.run_streaming`
  tails shard spill files while the shards still execute: the k-way
  merge (and the analysis sink fold, and the output hashing) advances
  as far as every shard's flushed frontier allows, so only the tail of
  the merge waits for the slowest shard.
* **Parent on a free core** — when the pool runs fewer processes than
  :func:`usable_cores` reports, the merging parent runs queued shard
  tasks itself (from the back of the plan, until it reaches a task a
  worker already holds) before it starts merging.  Output bytes do not
  depend on which process ran a task.

Workers never pickle records back to the parent.  One task,
:meth:`Campaign.spill_shard`, is the only way a shard reaches disk: it
runs a task's ranges through the backend's
:class:`~repro.measure.backends.ShardWriter`.  Streaming runs spill
JSONL into a temporary directory and tail the writer's unsealed
``.tmp`` file; checkpointed runs (:mod:`repro.measure.checkpoint`)
commit the sealed file.  The parent k-way merges spills by event key
straight to the output path, so peak memory is O(shards) (plus one
in-process task's simulation state when the parent runs tasks), not
O(campaign).  :meth:`ShardedCampaign.run` is that same stream written
to a temporary archive and loaded back.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cellnet.device import MobileDevice
from repro.cellnet.mobility import MobilityModel
from repro.core.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.errors import ConfigError, ReproError
from repro.core.world import (
    World,
    WorldConfig,
    boot_world,
    build_world,
    measured_bootstrap_s,
    snapshot_world,
)
from repro.geo.regions import cities_for, city_weights
from repro.measure.experiment import ExperimentOptions, ExperimentRunner
from repro.measure.records import Dataset, ExperimentRecord
from repro.measure.scheduler import ExperimentSchedule, ProbeEventQueue

#: Per-carrier client counts from Table 1 of the paper.
PAPER_CLIENT_COUNTS: Dict[str, int] = {
    "att": 33,
    "sprint": 9,
    "tmobile": 31,
    "verizon": 64,
    "skt": 17,
    "lgu": 4,
}

#: Valid ``--executor`` choices.
EXECUTOR_CHOICES = ("auto", "serial", "sharded")

#: Valid worker-pool start-method requests.
MP_CONTEXT_CHOICES = ("auto", "fork", "forkserver", "spawn")

#: Estimated fixed cost of standing up one pool worker beyond the world
#: bootstrap itself: interpreter spawn (zero under fork), module
#: imports, and the worker's own device build.
WORKER_SPAWN_OVERHEAD_S = 0.6

#: World-bootstrap estimate used before any measurement exists in this
#: process (see :func:`~repro.core.world.measured_bootstrap_s`).
DEFAULT_WORLD_BOOT_S = 0.25

#: Per-experiment serial simulate estimate (seconds) used when the
#: caller provides an experiment count but no measured rate.
DEFAULT_PER_EXPERIMENT_S = 0.002

#: ``auto`` goes multiprocess only when the estimated serial simulate
#: time exceeds this multiple of one worker's bootstrap cost.
MIN_AMORTIZATION = 2.0


def usable_cores() -> int:
    """Cores this process may run on.

    ``os.cpu_count()`` counts the machine; a CPU affinity mask
    (``taskset``, cgroup cpusets) can leave fewer usable, so the
    affinity set wins where the OS exposes one.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ExecutorDecision(str):
    """An executor choice that explains itself.

    A plain ``str`` subclass equal to the chosen executor name — every
    existing ``== "serial"`` comparison keeps working — that also
    carries the reasoning: why this executor, and the estimated
    bootstrap/simulate costs the ``auto`` policy weighed.
    """

    def __new__(
        cls,
        executor: str,
        reason: str,
        bootstrap_s: Optional[float] = None,
        simulate_s: Optional[float] = None,
        cpu_count: Optional[int] = None,
        shard_count: Optional[int] = None,
    ) -> "ExecutorDecision":
        self = super().__new__(cls, executor)
        self.reason = reason
        self.bootstrap_s = bootstrap_s
        self.simulate_s = simulate_s
        self.cpu_count = cpu_count
        self.shard_count = shard_count
        return self

    @property
    def executor(self) -> str:
        """The chosen executor name, as a plain string."""
        return str(self)

    def describe(self) -> str:
        """One log-friendly line: choice, reason, and the estimates."""
        parts = [f"executor {self!s}: {self.reason}"]
        if self.bootstrap_s is not None:
            parts.append(f"est. worker bootstrap {self.bootstrap_s:.2f}s")
        if self.simulate_s is not None:
            parts.append(f"est. serial simulate {self.simulate_s:.1f}s")
        return " | ".join(parts)


def select_executor(
    requested: str = "auto",
    cpu_count: Optional[int] = None,
    shard_count: Optional[int] = None,
    experiments: Optional[int] = None,
    bootstrap_s: Optional[float] = None,
    per_experiment_s: Optional[float] = None,
) -> ExecutorDecision:
    """Resolve an executor request to a concrete strategy, with reasons.

    ``auto`` weighs parallelism supply against amortization: it picks
    the sub-carrier ``sharded`` runner when there are at least two
    cores, at least two device ranges to spread across them, *and* the
    estimated serial simulate time exceeds a small multiple of one
    worker's bootstrap cost.  The bootstrap estimate is **measured**
    where possible — the world module records how long snapshot boots
    and rebuilds actually took in this process
    (:func:`~repro.core.world.measured_bootstrap_s`) — instead of the
    old static device-range threshold.  When the caller cannot supply
    an ``experiments`` count the campaign is assumed large (matching
    the historical behaviour for the supply-side checks).

    Explicit requests are honoured as stated — the benchmark forces the
    sharded executor to assert hash identity even where ``auto`` would
    not use it.

    Returns an :class:`ExecutorDecision` — a ``str`` subclass equal to
    the chosen executor, carrying the reason and cost estimates.
    """
    if requested not in EXECUTOR_CHOICES:
        raise ConfigError(
            f"unknown executor {requested!r}; expected one of {EXECUTOR_CHOICES}"
        )
    cores = cpu_count if cpu_count is not None else usable_cores()
    shards = shard_count if shard_count is not None else len(PAPER_CLIENT_COUNTS)
    if bootstrap_s is None:
        measured = measured_bootstrap_s()
        world_boot = measured if measured is not None else DEFAULT_WORLD_BOOT_S
        bootstrap_s = WORKER_SPAWN_OVERHEAD_S + world_boot
    simulate_s: Optional[float] = None
    if experiments is not None:
        rate = (
            per_experiment_s
            if per_experiment_s is not None
            else DEFAULT_PER_EXPERIMENT_S
        )
        simulate_s = experiments * rate
    context = dict(
        bootstrap_s=bootstrap_s,
        simulate_s=simulate_s,
        cpu_count=cores,
        shard_count=shards,
    )
    if requested != "auto":
        return ExecutorDecision(requested, "explicit request", **context)
    if cores < 2:
        return ExecutorDecision(
            "serial",
            "single core: worker bootstrap can never be amortized",
            **context,
        )
    if shards < 2:
        return ExecutorDecision(
            "serial",
            "a single device range leaves nothing to spread across workers",
            **context,
        )
    if simulate_s is not None and simulate_s < bootstrap_s * MIN_AMORTIZATION:
        return ExecutorDecision(
            "serial",
            f"campaign too small to amortize worker bootstrap "
            f"(~{simulate_s:.1f}s serial vs ~{bootstrap_s:.2f}s per worker)",
            **context,
        )
    return ExecutorDecision(
        "sharded",
        f"{shards} device ranges across {cores} cores amortize the "
        f"per-worker bootstrap",
        **context,
    )


def resolve_mp_context(requested: str = "auto") -> str:
    """Resolve a worker-pool start-method request against the platform.

    ``auto`` prefers ``fork`` where it is available and safe to use
    from this single-threaded parent (Linux — the world snapshot is
    then inherited copy-on-write, making worker bootstrap nearly
    free), then ``forkserver``, then ``spawn`` — the always-available
    portable reference.  Campaign output is byte-identical under every
    context; only bootstrap cost differs.
    """
    if requested not in MP_CONTEXT_CHOICES:
        raise ConfigError(
            f"unknown start method {requested!r}; "
            f"expected one of {MP_CONTEXT_CHOICES}"
        )
    methods = multiprocessing.get_all_start_methods()
    if requested == "auto":
        if sys.platform.startswith("linux") and "fork" in methods:
            return "fork"
        if "forkserver" in methods:
            return "forkserver"
        return "spawn"
    if requested not in methods:
        raise ConfigError(
            f"start method {requested!r} is unavailable on this platform "
            f"(available: {methods})"
        )
    return requested


@dataclass(frozen=True)
class DeviceRange:
    """A contiguous run of device indices within one carrier.

    Ranges are the unit of sub-carrier sharding *and* of DNS cache
    scoping: every device in ``[start, stop)`` carries the cache scope
    ``"<carrier_key>/r<index>"``.  The range list is a pure function of
    the campaign config (``range_size`` and the resolved per-carrier
    counts) — shard and worker counts only decide how ranges are
    grouped onto processes, never where their boundaries fall.
    """

    carrier_key: str
    index: int
    start: int
    stop: int

    @property
    def device_count(self) -> int:
        return self.stop - self.start

    @property
    def scope(self) -> str:
        return f"{self.carrier_key}/r{self.index}"


class CampaignInterrupted(ReproError):
    """A checkpointed run stopped before every shard committed.

    Raised for injected crashes (:class:`CrashPoint`), dead worker
    processes, and ``stop_after_shards`` interrupts.  Everything
    committed so far is durable; re-run with ``resume=True`` to finish.
    """

    def __init__(self, message: str, committed: int = 0, total: int = 0):
        super().__init__(message)
        self.committed = committed
        self.total = total


@dataclass(frozen=True)
class CrashPoint:
    """Deterministic crash injection for crash/resume tests and benches.

    The shard task running ``shard`` stops after ``after_records``
    appended records: with ``hard_kill`` the worker process flushes its
    partial spill and dies with ``os._exit`` (no cleanup, no exception
    propagation — the honest simulation of a killed worker, leaving a
    partial shard on disk); without it the runner raises
    :class:`CampaignInterrupted` in-process after flushing.
    """

    shard: int
    after_records: int
    hard_kill: bool = False


@dataclass
class CampaignConfig:
    """Scale and timing of a measurement campaign."""

    #: Devices per carrier; None uses the paper's Table 1 counts.
    devices_per_carrier: Optional[Dict[str, int]] = None
    #: Uniform scale factor on the (paper or explicit) device counts.
    device_scale: float = 1.0
    #: Minimum devices per carrier after scaling.
    min_devices: int = 1
    start: float = 0.0
    duration_days: float = 153.0  # 2014-03-01 .. 2014-08-01
    interval_hours: float = 1.0
    duty_cycle: float = 0.9
    #: Devices per sub-carrier shard range (the cache-scope partition
    #: granularity).  At the default, every carrier of the paper's
    #: Table 1 population fits one range until ``device_scale`` exceeds
    #: 1.0 on Verizon, so historical datasets hash unchanged.
    range_size: int = 32
    options: ExperimentOptions = field(default_factory=ExperimentOptions)

    def resolved_counts(self, carrier_keys: Sequence[str]) -> Dict[str, int]:
        """Device counts per carrier after defaults and scaling."""
        base = dict(self.devices_per_carrier or PAPER_CLIENT_COUNTS)
        counts = {}
        for key in carrier_keys:
            if key not in base:
                raise ConfigError(f"no device count for carrier {key!r}")
            counts[key] = max(self.min_devices, round(base[key] * self.device_scale))
        return counts

    def device_ranges(self, carrier_keys: Sequence[str]) -> List[DeviceRange]:
        """The deterministic device-range list for this config."""
        counts = self.resolved_counts(carrier_keys)
        size = max(1, self.range_size)
        ranges: List[DeviceRange] = []
        for key in carrier_keys:
            count = counts[key]
            for start in range(0, count, size):
                ranges.append(
                    DeviceRange(key, start // size, start, min(start + size, count))
                )
        return ranges

    def estimated_experiments(self, carrier_keys: Sequence[str]) -> int:
        """Rough campaign size for executor-selection cost estimates.

        Devices times scheduled slots times duty cycle — an estimate
        (per-device schedules jitter around the duty cycle), but well
        within the factor-of-two accuracy amortization decisions need.
        """
        devices = sum(self.resolved_counts(carrier_keys).values())
        interval_s = max(self.interval_hours, 1e-9) * SECONDS_PER_HOUR
        slots = (self.duration_days * SECONDS_PER_DAY) / interval_s
        return int(devices * slots * self.duty_cycle)


class Campaign:
    """Builds the device population and runs every experiment."""

    def __init__(
        self,
        world: World,
        config: Optional[CampaignConfig] = None,
        snapshot: Optional[bytes] = None,
    ):
        self.world = world
        self.config = config or CampaignConfig()
        #: Serialized pristine world (None when the world cannot be
        #: pickled — then workers fall back to ``build_world``).  Taken
        #: *before* the population build below mutates the world's RNG
        #: registry, so booting the snapshot restores exactly the state
        #: this campaign's first run starts from.
        self.world_snapshot = (
            snapshot if snapshot is not None else snapshot_world(world)
        )
        self.devices: List[MobileDevice] = self._build_devices()
        self.runner = ExperimentRunner(world, self.config.options)
        #: Whether this object's serial state has served a run already
        #: (repeated serial runs re-boot pristine state first).
        self._ran_serial = False

    # -- population ----------------------------------------------------------

    def _build_devices(self) -> List[MobileDevice]:
        devices: List[MobileDevice] = []
        counts = self.config.resolved_counts(list(self.world.operators))
        range_size = max(1, self.config.range_size)
        for carrier_key, count in counts.items():
            operator = self.world.operators[carrier_key]
            cities = cities_for(operator.country)
            weights = city_weights(cities)
            stream = self.world.rng.stream("population", carrier_key)
            for index in range(count):
                device_id = f"{carrier_key}-{index:03d}"
                home = stream.weighted_choice(cities, weights)
                mobility = MobilityModel(
                    home_city=home,
                    candidate_cities=cities,
                    seed=self.world.rng.master_seed,
                    device_key=device_id,
                )
                devices.append(
                    MobileDevice(
                        device_id=device_id,
                        carrier_key=carrier_key,
                        mobility=mobility,
                        device_index=index,
                        cache_scope=f"{carrier_key}/r{index // range_size}",
                    )
                )
        return devices

    def devices_of(self, carrier_key: str) -> List[MobileDevice]:
        """The campaign's devices on one carrier."""
        return [
            device for device in self.devices if device.carrier_key == carrier_key
        ]

    def devices_in_ranges(
        self, ranges: Sequence[DeviceRange]
    ) -> List[MobileDevice]:
        """The devices covered by the given ranges, in range order."""
        by_carrier: Dict[str, List[MobileDevice]] = {}
        for device in self.devices:
            by_carrier.setdefault(device.carrier_key, []).append(device)
        selected: List[MobileDevice] = []
        for shard_range in ranges:
            carrier_devices = by_carrier.get(shard_range.carrier_key, [])
            selected.extend(carrier_devices[shard_range.start: shard_range.stop])
        return selected

    # -- execution ------------------------------------------------------------

    def _schedule(self) -> ExperimentSchedule:
        config = self.config
        return ExperimentSchedule(
            start=config.start,
            end=config.start + config.duration_days * SECONDS_PER_DAY,
            seed=self.world.rng.master_seed,
            interval_s=config.interval_hours * SECONDS_PER_HOUR,
            duty_cycle=config.duty_cycle,
        )

    def _reset_serial_state(self) -> None:
        """Re-boot pristine world, population and runner.

        A serial execution advances per-device RNG streams, RRC state
        and DNS caches in place, so a second run over the same objects
        would drift.  Booting a pristine world (snapshot when
        available, rebuild otherwise) and re-deriving the population
        restores exactly the state the first run started from — the
        same per-run freshness warm pool workers get from run tokens.
        """
        world, _ = boot_world(self.world_snapshot, self.world.config)
        self.world = world
        self.devices = self._build_devices()
        self.runner = ExperimentRunner(world, self.config.options)

    def _prepare_serial_run(self) -> None:
        """Make repeated serial ``run``/``run_streaming`` idempotent."""
        if self._ran_serial:
            self._reset_serial_state()
        self._ran_serial = True

    def _iter_execute(
        self, devices: Sequence[MobileDevice]
    ) -> Iterator[ExperimentRecord]:
        """Yield the devices' experiment records in global event order.

        One :class:`ProbeEventQueue` drives the whole run: each device
        holds a single pending event keyed ``(timestamp, carrier_key,
        device_index, sequence)``; popping the earliest event runs that
        experiment and pushes the device's next scheduled time.  The
        key is globally comparable, so running any *subset* of devices
        yields exactly the serial stream restricted to that subset —
        the property sub-carrier shards rely on to re-merge exactly.
        """
        schedule = self._schedule()
        queue = ProbeEventQueue()
        for device in devices:
            times = schedule.iter_times(device.device_id)
            first = next(times, None)
            if first is not None:
                queue.push(
                    first,
                    device.carrier_key,
                    device.device_index,
                    0,
                    (device, times),
                )
        run = self.runner.run
        while queue:
            at, carrier_key, device_index, sequence, payload = queue.pop()
            device, times = payload
            yield run(device, at, sequence)
            following = next(times, None)
            if following is not None:
                queue.push(
                    following, carrier_key, device_index, sequence + 1, payload
                )

    def run(self) -> Dataset:
        """Run every scheduled experiment, globally event-ordered."""
        self._prepare_serial_run()
        records = list(self._iter_execute(self.devices))
        return Dataset(experiments=records, metadata=self._metadata(len(records)))

    def _metadata(self, experiments: int) -> Dict[str, object]:
        return {
            "seed": self.world.rng.master_seed,
            "devices": len(self.devices),
            "duration_days": self.config.duration_days,
            "interval_hours": self.config.interval_hours,
            "experiments": experiments,
        }

    def _streaming_metadata(self) -> Dict[str, object]:
        metadata = self._metadata(None)
        # The streaming writer cannot know the record count up front;
        # the archive writer fills it in when it seals the archive.
        del metadata["experiments"]
        return metadata

    def run_streaming(
        self, output_path: str, sink=None, backend: Optional[str] = None
    ) -> Dict[str, object]:
        """Run serially, streaming records straight to ``output_path``.

        Each record is serialised as it is produced and never held
        beyond the write; record bytes — and therefore
        :meth:`Dataset.content_hash` — are identical to :meth:`run`
        followed by :meth:`Dataset.save`.

        ``sink`` is the pipelined-analysis hook: an object with an
        ``ingest(record)`` method (e.g.
        :class:`repro.analysis.engine.ProjectionAccumulator`) that is
        fed every record, in stream order, before it is serialised — on
        this serial path the analysis fold costs **zero decodes**, the
        record object itself is folded.

        ``backend`` selects the on-disk layout (see
        :mod:`repro.measure.backends`); the default resolves from the
        output path's extension with JSONL — the byte reference — as
        the fallback.  The content hash is backend-independent.

        Returns ``{"experiments", "content_hash", "path", "metadata"}``
        where ``metadata`` is the metadata dict the output file carries
        (record count included).
        """
        self._prepare_serial_run()
        if sink is None:
            lines = (
                record.to_json_line()
                for record in self._iter_execute(self.devices)
            )
        else:
            ingest = sink.ingest

            def _fold_and_serialise():
                for record in self._iter_execute(self.devices):
                    ingest(record)
                    yield record.to_json_line()

            lines = _fold_and_serialise()
        return self._write_archive(output_path, [lines], backend)

    def _write_archive(
        self,
        output_path: str,
        line_streams: Iterable[Iterator[str]],
        backend: Optional[str] = None,
        sink=None,
    ) -> Dict[str, object]:
        """K-way merge ordered line streams into the archive at
        ``output_path``; ``sink.ingest_line`` (if given) sees each
        merged line.  Returns ``{"experiments", "content_hash", "path",
        "metadata"}``."""
        from repro.measure.backends import resolve_backend

        metadata = self._streaming_metadata()
        count, digest = resolve_backend(backend, output_path).write_archive_lines(
            output_path,
            line_streams,
            metadata=metadata,
            sink=sink.ingest_line if sink is not None else None,
        )
        metadata["experiments"] = count
        return {
            "experiments": count,
            "content_hash": digest,
            "path": output_path,
            "metadata": metadata,
        }

    # -- shards ---------------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether shard tasks run in a worker pool (else in-process)."""
        return False

    def shard_tasks(self) -> List[List[DeviceRange]]:
        """The shard plan: one task holding every device range (a serial
        campaign is still checkpointable, as a single durable unit)."""
        return [self.config.device_ranges(list(self.world.operators))]

    def spill_shard(
        self,
        shard: int,
        ranges: Sequence[DeviceRange],
        path: str,
        backend: str = "jsonl",
        crash: Optional[CrashPoint] = None,
    ) -> Tuple[int, str]:
        """Run one shard task's ranges into ``path + '.tmp'``, sealed.

        The only way a shard reaches disk: records stream through the
        backend's :class:`~repro.measure.backends.ShardWriter` as they
        are produced (O(1) records in memory), so a reader may tail the
        ``.tmp`` file while the task runs.  Returns ``(records,
        sha256)`` once sealed; committing (rename + manifest) is the
        caller's decision, so a dying worker can never leave a
        committed-looking file.  ``crash`` is the crash-injection hook
        of the checkpoint tests and benches.
        """
        from repro.measure.backends import get_backend

        writer = get_backend(backend).open_shard(path)
        crashing = crash is not None and crash.shard == shard
        try:
            for record in self._iter_execute(self.devices_in_ranges(ranges)):
                writer.append(record.to_json_line())
                if crashing and writer.records >= crash.after_records:
                    writer.flush()
                    if crash.hard_kill:
                        # A killed worker: partial spill bytes are on
                        # disk, no exception, no cleanup, no commit.
                        os._exit(9)
                    raise CampaignInterrupted(
                        f"injected crash in shard {shard} after "
                        f"{writer.records} records",
                    )
        except BaseException:
            # Close without sealing: the tmp spill stays on disk exactly
            # as a crash would leave it (resume re-runs the shard).
            writer.abort()
            raise
        return writer.seal()


# -- worker processes --------------------------------------------------------

#: Boot materials for this worker process, set by the pool initializer:
#: ``(snapshot_bytes_or_None, world_config, campaign_config)``.
_WORKER_BOOT: Optional[tuple] = None

#: The campaign serving the current run token (see ``_worker_campaign``).
_WORKER_CAMPAIGN: Optional[Campaign] = None
_WORKER_TOKEN: Optional[int] = None

#: ``"snapshot"`` or ``"rebuild"``: how this worker's world last booted.
_WORKER_BOOT_MODE: Optional[str] = None


def _init_shard_worker(
    snapshot: Optional[bytes], world_config: WorldConfig, config: CampaignConfig
) -> None:
    """Pool initializer: stash boot materials and pre-boot for run 0.

    Workers are *warm*: the pool persists across runs, and each run
    token boots a fresh campaign (pristine world, pristine caches) so
    repeated runs are idempotent.  The snapshot rides the initializer
    args — inherited copy-on-write under fork contexts, shipped once
    per worker under spawn — and booting from it skips the world
    rebuild (``build_world`` stays as the automatic fallback).
    """
    global _WORKER_BOOT, _WORKER_CAMPAIGN, _WORKER_TOKEN
    _WORKER_BOOT = (snapshot, world_config, config)
    _WORKER_CAMPAIGN = None
    _WORKER_TOKEN = None
    # Pre-boot the first run's campaign so bootstrap overlaps pool
    # spin-up instead of delaying the first task.
    _worker_campaign(0)


def _worker_campaign(run_token: int) -> Campaign:
    """This worker's campaign for ``run_token``, booting if stale.

    One campaign serves every task of one run: ranges never share
    cache scope, so state left by one range cannot perturb another
    (and compiled plans/memos are content-pure — warm or cold, they
    produce identical bytes).  A *new* token means the parent started
    another run; the worker re-boots pristine state so that run is
    byte-identical to the first.
    """
    global _WORKER_CAMPAIGN, _WORKER_TOKEN, _WORKER_BOOT_MODE
    campaign = _WORKER_CAMPAIGN
    if campaign is not None and _WORKER_TOKEN == run_token:
        return campaign
    snapshot, world_config, config = _WORKER_BOOT
    world, mode = boot_world(snapshot, world_config)
    campaign = Campaign(world, config, snapshot=snapshot)
    _WORKER_CAMPAIGN = campaign
    _WORKER_TOKEN = run_token
    _WORKER_BOOT_MODE = mode
    return campaign


def _spill_task(run_token: int, *args) -> Tuple[int, str]:
    """Pool entry point: this worker's campaign runs
    :meth:`Campaign.spill_shard` for one shard task."""
    return _worker_campaign(run_token).spill_shard(*args)


#: Poll cadence while tailing a still-running shard's spill file.
_TAIL_POLL_S = 0.02

#: Most bytes one tail read takes.  A shard that finished long before
#: the merge reaches it must not be read whole: every stream holds at
#: most this much unmerged data, which keeps the parent O(shards).
_TAIL_READ_BYTES = 1 << 16


def _tail_jsonl_lines(path: str, future) -> Iterator[str]:
    """Yield a spill file's lines while its producer may still run.

    The overlapped shard→merge pipeline: the k-way merge starts before
    the slowest shard finishes, so sink folding, serialising and
    hashing of already-safe records overlap shard execution.  Each
    shard's stream is event-ordered, so ``heapq.merge`` only pulls
    this shard's next line when it might be the global minimum; while
    the producer is still running that pull blocks here, polling for
    the next flushed block — which is exactly the safety condition (a
    line is emitted only once every shard is known to be past its
    key), so merged bytes are identical to merging the finished files.

    Only complete (newline-terminated) lines are consumed; a partial
    line waits in ``pending`` for the rest of its bytes.  A producer
    error propagates from here once observed.
    """
    offset = 0
    pending = b""
    while True:
        finished = future.done()
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size > offset:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read(_TAIL_READ_BYTES)
            offset += len(chunk)
            pending += chunk
            complete = pending.split(b"\n")
            pending = complete.pop()
            for raw in complete:
                if raw:
                    yield raw.decode("utf-8")
            continue
        if finished:
            break
        time.sleep(_TAIL_POLL_S)
    future.result()  # propagate the worker's exception, if any


class ShardedCampaign(Campaign):
    """Campaign sharded by device range *within* carriers.

    The device population is cut into deterministic
    :class:`DeviceRange` units (see :meth:`CampaignConfig.device_ranges`);
    ``shards`` groups consecutive ranges into that many worker tasks
    (default: one task per range), and ``workers`` defaults to
    ``min(usable_cores(), shards)``.  Each worker boots its world
    from the parent's snapshot (rebuilds as fallback) and runs its
    tasks' ranges through the same event queue the serial loop uses,
    so a shard's record stream is the serial stream restricted to its
    devices; the parent k-way merges shard streams by the global event
    key.  Output is bit-identical to :meth:`Campaign.run` for *any*
    shard count, worker count and start method.

    The worker pool is created on first use and *reused* across
    ``run``/``run_streaming`` calls — worker processes stay warm, so
    repeat runs pay zero interpreter spawns and (via per-run tokens)
    one snapshot boot instead of a world rebuild.  Lifecycle is
    explicit: :meth:`close` (idempotent) or use the campaign as a
    context manager; garbage collection closes without waiting as a
    backstop.

    A pool smaller than the usable core count leaves the parent a free
    core, so :meth:`run_streaming` also runs queued shard tasks in
    process (see :meth:`_run_queued_shards`).

    ``workers=0`` (or a single shard) falls back to the serial loop
    (:attr:`pooled` is False).
    """

    def __init__(
        self,
        world: World,
        config: Optional[CampaignConfig] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        mp_context: str = "auto",
    ):
        super().__init__(world, config)
        self.ranges: List[DeviceRange] = self.config.device_ranges(
            list(world.operators)
        )
        if shards is None or shards <= 0:
            shards = len(self.ranges)
        self.shards = max(1, min(shards, len(self.ranges)))
        if workers is None:
            workers = min(usable_cores(), self.shards)
        self.workers = workers
        self.mp_context: str = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._run_token = 0
        #: Pool lifecycle counters: how many pools this campaign
        #: created and how many runs reused a live one — the bench's
        #: pool-amortization signal.
        self.pool_stats: Dict[str, int] = {"created": 0, "reused": 0}

    # -- warm worker pool -----------------------------------------------------

    def _next_run_token(self) -> int:
        """A fresh token per run: workers re-boot pristine state on it."""
        token = self._run_token
        self._run_token = token + 1
        return token

    @property
    def _pool_processes(self) -> int:
        """How many worker processes the pool runs."""
        return min(self.workers, len(self.ranges)) or 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._executor
        if pool is not None and not getattr(pool, "_broken", False):
            self.pool_stats["reused"] += 1
            return pool
        if pool is not None:
            pool.shutdown(wait=True)
            self._executor = None
        pool = ProcessPoolExecutor(
            max_workers=self._pool_processes,
            mp_context=multiprocessing.get_context(self.mp_context),
            initializer=_init_shard_worker,
            initargs=(self.world_snapshot, self.world.config, self.config),
        )
        self._executor = pool
        self.pool_stats["created"] += 1
        return pool

    def close(self, wait: bool = True) -> None:
        """Shut the warm worker pool down (idempotent)."""
        pool = self._executor
        self._executor = None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- execution ------------------------------------------------------------

    @property
    def pooled(self) -> bool:
        return self.workers > 0 and self.shards > 1

    def shard_tasks(self) -> List[List[DeviceRange]]:
        """Group consecutive ranges into ``shards`` balanced tasks.

        Greedy fair-share packing by device count; deterministic in the
        config alone.  Grouping affects only which process runs which
        ranges — the merged output is invariant because every record
        stream re-merges by the global event key.
        """
        ranges = self.ranges
        shard_count = self.shards
        total = sum(item.device_count for item in ranges)
        tasks: List[List[DeviceRange]] = []
        index = 0
        assigned = 0
        for shard in range(shard_count):
            remaining_shards = shard_count - shard
            target = (total - assigned) / remaining_shards
            task: List[DeviceRange] = []
            size = 0
            while index < len(ranges):
                if task:
                    if (len(ranges) - index) <= (remaining_shards - 1):
                        break  # leave at least one range per later shard
                    if size + ranges[index].device_count > target:
                        break
                task.append(ranges[index])
                size += ranges[index].device_count
                index += 1
            assigned += size
            tasks.append(task)
        return tasks

    def run(self) -> Dataset:
        """Run all shards via :meth:`run_streaming` and load the result.

        The merged stream lands in a temporary JSONL archive that is
        loaded back, so records never cross the process boundary as
        pickled objects.
        """
        if not self.pooled:
            return super().run()
        with tempfile.TemporaryDirectory(prefix="repro-run-") as tmpdir:
            path = os.path.join(tmpdir, "campaign.jsonl")
            self.run_streaming(path)
            return Dataset.load(path)

    def run_streaming(
        self, output_path: str, sink=None, backend: Optional[str] = None
    ) -> Dict[str, object]:
        """Run all shards and stream the merged dataset to a file.

        Every shard task runs :meth:`Campaign.spill_shard` in the warm
        pool, spilling event-ordered JSONL into a temporary directory
        (when the pool leaves a core free, the parent first runs queued
        tasks itself, see :meth:`_run_queued_shards`);
        the parent *tails* the writers' unsealed ``.tmp`` files and
        k-way merges them straight to ``output_path`` while shards still
        execute, hashing record lines as they pass.  Every record the
        flushed frontiers prove safe is folded, hashed and written
        immediately, so only the tail of the merge waits for the slowest
        shard, and peak parent memory is O(shards) (one read block per
        spill file), never O(campaign).  The spills are never committed.
        The metadata line is appended after the records (loaders accept
        it at any position); record bytes — and therefore
        :meth:`Dataset.content_hash` — are identical to
        :meth:`Campaign.run`.

        ``sink`` is the pipelined-analysis hook: on this sharded path
        its ``ingest_line(line)`` method is fed every merged line as it
        is written (each line decoded exactly once, in the parent),
        building the analysis projections with zero re-read of
        ``output_path``.  On the in-process fallback the sink folds
        record objects directly — zero decodes (see
        :meth:`Campaign.run_streaming`).

        ``backend`` selects the final archive's on-disk layout (see
        :mod:`repro.measure.backends`); shard spill files stay JSONL —
        they are transient merge inputs, not archives — and the content
        hash is backend-independent.

        Returns ``{"experiments", "content_hash", "path", "metadata",
        "parent_shards"}``; ``parent_shards`` (how many tasks the parent
        ran) stays out of the archive's metadata.  The in-process
        fallback returns the :meth:`Campaign.run_streaming` dict.
        """
        if not self.pooled:
            return super().run_streaming(output_path, sink, backend=backend)
        token = self._next_run_token()
        pool = self._ensure_pool()
        tmpdir = tempfile.mkdtemp(prefix="repro-shards-")
        futures: List[Future] = []
        try:
            tasks = self.shard_tasks()
            paths = [
                os.path.join(tmpdir, f"shard-{shard:04d}.jsonl")
                for shard in range(len(tasks))
            ]
            for shard, (task, path) in enumerate(zip(tasks, paths)):
                futures.append(pool.submit(_spill_task, token, shard, task, path))
            parent_shards = self._run_queued_shards(tasks, paths, futures)
            # The writers' unsealed spills; sealing only fsyncs them.
            streams = [
                _tail_jsonl_lines(path + ".tmp", future)
                for path, future in zip(paths, futures)
            ]
            result = self._write_archive(output_path, streams, backend, sink)
            result["parent_shards"] = parent_shards
            return result
        except BaseException:
            # A failed run drops its queued tasks, so they cannot hold
            # up the next run on the warm pool, and lets running ones
            # finish before their spill directory goes.
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

    def _run_queued_shards(
        self,
        tasks: Sequence[Sequence[DeviceRange]],
        paths: Sequence[str],
        futures: List[Future],
    ) -> int:
        """Run queued shard tasks in this process when the pool leaves
        it a free core; returns how many it ran.

        Walks the plan from the back, cancelling each task a worker has
        not picked up yet and spilling it here instead, and stops at the
        first task a worker already holds.  A task run here becomes a
        finished spill file behind a done future, so the merge reads it
        like any other; ranges never share cache scope, so the bytes do
        not depend on which process ran which task.
        """
        if self._pool_processes >= usable_cores():
            return 0
        taken = 0
        for shard in range(len(tasks) - 1, -1, -1):
            if not futures[shard].cancel():
                break
            if not taken:
                self._prepare_serial_run()
            done: Future = Future()
            done.set_result(self.spill_shard(shard, tasks[shard], paths[shard]))
            futures[shard] = done
            taken += 1
        return taken

    def _streaming_metadata(self) -> Dict[str, object]:
        metadata = super()._streaming_metadata()
        metadata["workers"] = self.workers
        metadata["shards"] = self.shards
        return metadata
