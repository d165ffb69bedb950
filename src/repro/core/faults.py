"""Declarative fault scenarios for the transport layer.

The paper's client script ran on real phones across real carrier
networks: queries were lost on 2G airlinks, carrier resolvers went
quiet for hours, and egress points failed over mid-campaign.  The
simulator reproduces those conditions as *data*, not code forks: a
:class:`FaultScenario` names a set of time-windowed fault rules, and
:class:`~repro.core.transport.Transport` consults them on every send.

Every dataclass here is frozen and built from plain tuples, so a
scenario pickles cleanly into the :class:`~repro.core.world.WorldConfig`
that sharded campaign workers rebuild their worlds from.

Scenarios load by bundled name or from a JSON file::

    repro-study run --scenario resolver-outage
    repro-study run --scenario my-scenario.json

The file schema mirrors :meth:`FaultScenario.from_dict`; windows are
``[start_s, end_s)`` pairs in campaign seconds (day N starts at
``N * 86400``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Probe kinds a loss rule may target (the paper's client script's four
#: probe primitives).
PROBE_KINDS = ("dns", "ping", "http", "traceroute")

DAY_S = 86400.0


@dataclass(frozen=True)
class Window:
    """A half-open ``[start_s, end_s)`` interval in campaign time."""

    start_s: float
    end_s: float

    def contains(self, now: float) -> bool:
        """Whether ``now`` falls inside the window."""
        return self.start_s <= now < self.end_s

    @classmethod
    def from_value(cls, value) -> "Window":
        """Accept ``[start, end]`` pairs or ``{"start_s":…, "end_s":…}``."""
        if isinstance(value, Window):
            return value
        if isinstance(value, dict):
            return cls(float(value["start_s"]), float(value["end_s"]))
        start, end = value
        return cls(float(start), float(end))


@dataclass(frozen=True)
class LossRule:
    """Bernoulli packet loss on a carrier's probes inside a window.

    ``carrier=None`` applies to every carrier; ``window=None`` applies
    for the whole campaign.
    """

    rate: float
    carrier: Optional[str] = None
    probes: Tuple[str, ...] = PROBE_KINDS
    window: Optional[Window] = None

    def applies(self, carrier: Optional[str], probe: str, now: float) -> bool:
        """Whether this rule covers one send."""
        if self.carrier is not None and carrier != self.carrier:
            return False
        if probe not in self.probes:
            return False
        return self.window is None or self.window.contains(now)


@dataclass(frozen=True)
class ResolverOutage:
    """A resolver tier stops answering for a while.

    ``resolver_kind`` is one of the record kinds (``local``, ``google``,
    ``opendns``); ``carrier=None`` hits every carrier's view of it.
    """

    resolver_kind: str
    window: Window
    carrier: Optional[str] = None


@dataclass(frozen=True)
class DegradedEpoch:
    """Force a carrier's devices onto one radio technology for a window.

    ``technology`` is a :class:`~repro.cellnet.radio.RadioTechnology`
    value string (e.g. ``"EDGE"``), kept as text here so scenarios stay
    serialisable without importing the cellnet layer.
    """

    carrier: str
    technology: str
    window: Window


@dataclass(frozen=True)
class EgressFailover:
    """An egress assignment slot of a carrier fails; devices re-home.

    ``egress_index`` is a position in each device's distance-ranked
    egress preference order (0 = the nearest choice); devices whose
    churn schedule lands on that slot re-home to the next-nearest
    egress for the window's duration.  Ranked-slot semantics make a
    failover bite at every campaign scale — an absolute host index
    might simply never be picked by a small device population.
    """

    carrier: str
    egress_index: int
    window: Window


@dataclass(frozen=True)
class ProbePolicy:
    """Retry/timeout/backoff policy of the paper's client script.

    Retries only ever trigger on *fault-induced* failures (loss, outage
    windows, fault timeouts); topology-determined failures — firewalled,
    unroutable or silent targets — fail identically on every attempt,
    so the client gives up immediately and the fault-free wire format
    stays byte-identical to the pre-transport engine.
    """

    dns_retries: int = 2
    ping_retries: int = 2
    http_retries: int = 1
    backoff_s: float = 2.0
    dns_timeout_ms: float = 5000.0
    http_timeout_ms: float = 10000.0


@dataclass(frozen=True)
class FaultScenario:
    """A named, declarative set of fault rules plus the probe policy."""

    name: str
    description: str = ""
    loss_rules: Tuple[LossRule, ...] = ()
    resolver_outages: Tuple[ResolverOutage, ...] = ()
    degraded_epochs: Tuple[DegradedEpoch, ...] = ()
    egress_failovers: Tuple[EgressFailover, ...] = ()
    policy: ProbePolicy = field(default_factory=ProbePolicy)

    @property
    def has_faults(self) -> bool:
        """False for fault-free scenarios (policy-only, e.g. baseline)."""
        return bool(
            self.loss_rules
            or self.resolver_outages
            or self.degraded_epochs
            or self.egress_failovers
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultScenario":
        """Build a scenario from the JSON file schema."""
        policy = payload.get("policy")
        return cls(
            name=payload.get("name", "custom"),
            description=payload.get("description", ""),
            loss_rules=tuple(
                LossRule(
                    rate=float(rule["rate"]),
                    carrier=rule.get("carrier"),
                    probes=tuple(rule.get("probes", PROBE_KINDS)),
                    window=(
                        Window.from_value(rule["window"])
                        if rule.get("window") is not None
                        else None
                    ),
                )
                for rule in payload.get("loss", ())
            ),
            resolver_outages=tuple(
                ResolverOutage(
                    resolver_kind=outage["resolver_kind"],
                    carrier=outage.get("carrier"),
                    window=Window.from_value(outage["window"]),
                )
                for outage in payload.get("resolver_outages", ())
            ),
            degraded_epochs=tuple(
                DegradedEpoch(
                    carrier=epoch["carrier"],
                    technology=epoch["technology"],
                    window=Window.from_value(epoch["window"]),
                )
                for epoch in payload.get("degraded_epochs", ())
            ),
            egress_failovers=tuple(
                EgressFailover(
                    carrier=failover["carrier"],
                    egress_index=int(failover["egress_index"]),
                    window=Window.from_value(failover["window"]),
                )
                for failover in payload.get("egress_failovers", ())
            ),
            policy=ProbePolicy(**policy) if policy else ProbePolicy(),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultScenario":
        """Load a scenario from a JSON file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


#: The fault-free scenario: policy defaults, no fault rules.  Running it
#: must reproduce the pre-transport engine's dataset byte-identically.
BASELINE = FaultScenario(
    name="baseline",
    description="fault-free: the paper's measured conditions",
)

#: Bundled scenarios, addressable by name from the CLI.  Windows are
#: placed in the first days of a campaign so even short smoke runs
#: cross them.
BUNDLED_SCENARIOS = {
    "baseline": BASELINE,
    "resolver-outage": FaultScenario(
        name="resolver-outage",
        description=(
            "AT&T's local resolver tier is dark for days 1-3: local "
            "lookups time out (after retries), so resolver "
            "identification stalls and Table 4 sees fewer externals"
        ),
        resolver_outages=(
            ResolverOutage(
                resolver_kind="local",
                carrier="att",
                window=Window(1 * DAY_S, 3 * DAY_S),
            ),
        ),
    ),
    "lossy-2g": FaultScenario(
        name="lossy-2g",
        description=(
            "T-Mobile devices fall back to EDGE for days 0.5-3.5 with "
            "25% packet loss: retries climb, resolution-time CDFs (Fig "
            "3/7) shift right, some lookups are lost outright"
        ),
        loss_rules=(
            LossRule(
                rate=0.25,
                carrier="tmobile",
                window=Window(0.5 * DAY_S, 3.5 * DAY_S),
            ),
        ),
        degraded_epochs=(
            DegradedEpoch(
                carrier="tmobile",
                technology="EDGE",
                window=Window(0.5 * DAY_S, 3.5 * DAY_S),
            ),
        ),
    ),
    "egress-failover": FaultScenario(
        name="egress-failover",
        description=(
            "Verizon devices' nearest-choice egress slot fails for days "
            "1-3: affected devices re-home to the next-nearest egress, "
            "so resolver/egress churn (Fig 8, Sec 5.2) accelerates"
        ),
        egress_failovers=(
            EgressFailover(
                carrier="verizon",
                egress_index=0,
                window=Window(1 * DAY_S, 3 * DAY_S),
            ),
        ),
    ),
}


def load_scenario(ref) -> FaultScenario:
    """Resolve a scenario reference: an instance, bundled name, or path."""
    if isinstance(ref, FaultScenario):
        return ref
    scenario = BUNDLED_SCENARIOS.get(ref)
    if scenario is not None:
        return scenario
    if os.path.exists(ref):
        return FaultScenario.from_file(ref)
    known = ", ".join(sorted(BUNDLED_SCENARIOS))
    raise ValueError(
        f"unknown scenario {ref!r}: not a bundled name ({known}) "
        f"and not a readable file"
    )
