"""Experiment scheduling.

Devices ran the experiment "approximately once per hour" (Sec 3.2), but
real volunteer devices miss slots — screens off, no coverage, battery
saver.  The schedule therefore combines a nominal interval, per-slot
jitter, and a duty cycle, all as pure functions of (device, slot).

:class:`ProbeEventQueue` turns those per-device time generators into one
event-driven campaign loop: a single priority queue of probe events
keyed ``(timestamp, carrier_key, device_index, sequence)``.  The key is
total and globally comparable, so any subset of devices drains in the
order the full campaign would have visited them — the property that
makes sub-carrier shard outputs re-mergeable into the exact serial
stream (see ``repro.measure.campaign``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.clock import SECONDS_PER_HOUR
from repro.core.rng import stable_fraction, stable_fraction_uncached


@dataclass
class ExperimentSchedule:
    """Per-device experiment times over a window."""

    start: float
    end: float
    seed: int
    interval_s: float = SECONDS_PER_HOUR
    #: Fraction of slots that actually produce an experiment.
    duty_cycle: float = 0.9
    #: Jitter applied within each slot, as a fraction of the interval.
    jitter_fraction: float = 0.3

    def times_for(self, device_key: str) -> List[float]:
        """All experiment start times for one device."""
        return list(self.iter_times(device_key))

    def iter_times(self, device_key: str) -> Iterator[float]:
        """Generate experiment times slot by slot."""
        if self.end <= self.start:
            return
        slot = 0
        phase = stable_fraction(self.seed, "phase", device_key) * self.interval_s
        while True:
            base = self.start + phase + slot * self.interval_s
            if base >= self.end:
                return
            keep = stable_fraction_uncached(self.seed, "duty", device_key, slot)
            if keep < self.duty_cycle:
                jitter = (
                    stable_fraction_uncached(self.seed, "jitter", device_key, slot) - 0.5
                ) * 2.0 * self.jitter_fraction * self.interval_s
                at = min(max(self.start, base + jitter), self.end - 1.0)
                yield at
            slot += 1

    def expected_count(self) -> int:
        """Approximate experiments per device over the window."""
        slots = max(0.0, (self.end - self.start) / self.interval_s)
        return int(slots * self.duty_cycle)


#: One scheduled probe event: the global ordering key plus its payload.
#: ``(timestamp, carrier_key, device_index, sequence)`` totally orders
#: every event of a campaign — timestamps are continuous-jittered floats
#: and ``(carrier_key, device_index)`` is unique per device, so no two
#: queue entries ever compare equal on the key prefix (the payload never
#: participates in heap comparisons).
ProbeEvent = Tuple[float, str, int, int, object]


class ProbeEventQueue:
    """Priority queue of probe events driving a campaign.

    Each device holds exactly one pending event at a time: pop the
    earliest event, run it, push the device's next scheduled time.  This
    is the event-driven replacement for merging per-device generators
    with ``heapq.merge`` — same order (per-device times are
    non-decreasing, so a device's events enter the heap in sequence
    order and end-clamp ties break on ``sequence``), but with an
    explicit, globally comparable key that any shard of devices shares.

    For device populations under 1000 per carrier the key order also
    matches the legacy ``(timestamp, device_id)`` string order
    (``device_id`` embeds the zero-padded index); past that, the numeric
    ``device_index`` keeps ordering sane where the string key would
    compare ``"1000" < "999"`` — and every executor uses this same key,
    so the cross-executor hash invariant holds at any scale.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[ProbeEvent] = []

    def push(
        self,
        at: float,
        carrier_key: str,
        device_index: int,
        sequence: int,
        payload: object = None,
    ) -> None:
        """Schedule one probe event."""
        heapq.heappush(self._heap, (at, carrier_key, device_index, sequence, payload))

    def pop(self) -> ProbeEvent:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[ProbeEvent]:
        """The earliest event without removing it (None when empty)."""
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
