"""Client mobility.

The paper records a coarse client location per experiment and shows that
resolver churn happens *even for stationary clients* (Fig 9, filtered to
a 10 km radius).  The mobility model therefore distinguishes:

* day-to-day wander around a home city (most users, most of the time),
* occasional trips to another city (travel epochs).

Positions are pure functions of (device, time), so any experiment replay
sees identical movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.clock import SECONDS_PER_DAY
from repro.core.rng import stable_fraction_uncached, stable_index_uncached
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import City


@dataclass
class MobilityModel:
    """Per-device movement over the study window."""

    home_city: City
    candidate_cities: Sequence[City]
    seed: int
    device_key: str
    #: Probability that a given travel epoch is spent away from home.
    travel_probability: float = 0.08
    #: Length of a travel decision epoch.
    travel_epoch_s: float = 4 * SECONDS_PER_DAY
    #: Radius of everyday wander around the anchor city, km.
    wander_km: float = 12.0
    #: Memo of anchor picks per travel epoch and positions per (epoch,
    #: hour).  Both are pure functions of quantised time, and every probe
    #: in an experiment re-asks within one hour, so recomputation is the
    #: campaign's hot path for no new information.
    _anchor_memo: Dict[int, City] = field(
        default_factory=dict, repr=False, compare=False
    )
    _location_memo: Dict[Tuple[int, int], GeoPoint] = field(
        default_factory=dict, repr=False, compare=False
    )

    def anchor_city(self, now: float) -> City:
        """The city the device is anchored to at ``now``."""
        epoch = int(now // self.travel_epoch_s)
        cached = self._anchor_memo.get(epoch)
        if cached is not None:
            return cached
        anchor = self._anchor_city_at(epoch)
        self._anchor_memo[epoch] = anchor
        return anchor

    def _anchor_city_at(self, epoch: int) -> City:
        draw = stable_fraction_uncached(self.seed, "travel", self.device_key, epoch)
        if draw >= self.travel_probability or len(self.candidate_cities) <= 1:
            return self.home_city
        away = [city for city in self.candidate_cities if city is not self.home_city]
        pick = stable_index_uncached(
            self.seed, "trip", self.device_key, epoch, modulo=len(away)
        )
        return away[pick]

    def location(self, now: float) -> GeoPoint:
        """The device's position at ``now``.

        Wander is re-drawn hourly within ``wander_km`` of the anchor, so
        consecutive experiments from a stationary user stay within the
        paper's 10 km clustering radius.
        """
        epoch = int(now // self.travel_epoch_s)
        hour = int(now // 3600.0)
        key = (epoch, hour)
        cached = self._location_memo.get(key)
        if cached is not None:
            return cached
        anchor = self.anchor_city(now)
        north = (
            stable_fraction_uncached(self.seed, "wander-n", self.device_key, hour) - 0.5
        ) * 2.0 * self.wander_km
        east = (
            stable_fraction_uncached(self.seed, "wander-e", self.device_key, hour) - 0.5
        ) * 2.0 * self.wander_km
        point = anchor.location.offset_km(north, east)
        self._location_memo[key] = point
        return point

    def is_travelling(self, now: float) -> bool:
        """True when the device is anchored away from home."""
        return self.anchor_city(now) is not self.home_city

    def stationary_windows(
        self, start: float, end: float, step_s: float = 3600.0
    ) -> List[float]:
        """Sample times in [start, end) during which the device is home.

        Convenience for the Fig 9 style analysis, which filters
        measurements to a static location cluster.
        """
        times = []
        now = start
        while now < end:
            if not self.is_travelling(now):
                times.append(now)
            now += step_s
        return times
