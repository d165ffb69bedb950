"""Measurement records and the campaign dataset.

Everything the analysis consumes is recorded here, from the *client's*
point of view: a device knows what it resolved, what came back, how long
probes took and what its configured resolver was — but not, say, which
cache served it.  Ground truth stays inside the simulation, exactly as it
stayed inside the carriers during the original study.

Records serialise to JSON lines so campaign output can be archived and
re-analysed without re-simulation (the paper released its dataset; so do
we).

Serialisation is the archive hot path, so every record class is slotted
and the whole experiment block is serialised in **one pass**: per-class
payload builders assemble plain dicts in declaration order (pruning the
wire-optional fields) and a single reusable C-accelerated
:class:`json.JSONEncoder` emits the entire line at once — no recursive
:func:`dataclasses.asdict` deep copy, no per-fragment string stitching.
The old path survives as
:meth:`ExperimentRecord.to_json_line_reference` — the executable
specification the batch emitter is property-tested against, byte for
byte.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
import sys
from array import array
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.core.errors import DatasetError, TruncatedDatasetError

#: Resolver kinds a client resolves through.
RESOLVER_LOCAL = "local"
RESOLVER_GOOGLE = "google"
RESOLVER_OPENDNS = "opendns"
RESOLVER_KINDS = (RESOLVER_LOCAL, RESOLVER_GOOGLE, RESOLVER_OPENDNS)

#: Delivery outcomes (mirrors repro.core.transport — records must not
#: import the simulation layer, so the strings are restated here).
OUTCOME_DELIVERED = "delivered"
OUTCOME_FILTERED = "filtered"
OUTCOME_TIMED_OUT = "timed_out"
OUTCOME_LOST = "lost"

# ``outcome`` and ``retries`` are recorded only when a fault scenario
# produced them (outcome is None / retries is 0 otherwise), and the
# emitters skip default values entirely — so fault-free campaigns write
# byte-identical lines to the pre-transport engine, and old archives
# load unchanged.


# -- batched JSON emission -----------------------------------------------------
#
# ``json.dumps(asdict(record), separators=(",", ":"))`` spends most of its
# time deep-copying the record into dicts, and stitching per-record
# fragments in Python spends its time in string concatenation.  The
# builders below assemble *shallow* payload dicts (sharing the record's
# own lists — the encoders only read them) in dataclass declaration
# order, and the whole experiment block is serialised in a single
# C-level pass.
#
# Two encoders can make that pass.  The stdlib encoder (compact
# separators, default ``ensure_ascii``/``allow_nan``) is byte-identical
# to ``json.dumps(payload, separators=(",", ":"))`` — the reference — by
# construction.  When ``orjson`` is available it is ~10x faster and
# produces the *same bytes* on the canonical campaign shape, which is
# guarded three ways rather than assumed:
#
# * floats: orjson and CPython both emit the shortest round-trip
#   decimal, and their renderings agree exactly while the value is
#   finite and repr stays out of scientific notation — i.e. zero or
#   magnitude in ``[1e-4, 1e16)``.  The payload builders flag any float
#   outside that window (including NaN/Infinity, which the stdlib spells
#   out but orjson would null) and the line falls back to the stdlib
#   encoder.
# * strings: output containing any non-ASCII byte (stdlib would
#   ``\uXXXX``-escape it) or a DEL byte (``0x7f``, the one ASCII char
#   the two escape differently) is discarded in favour of the stdlib
#   encoder.  Both are single C scans of the encoded bytes.
# * anything orjson refuses outright (ints beyond 64 bits, lone
#   surrogates) raises and falls back.
#
# Every line is therefore byte-identical to the reference whether or not
# orjson is installed; the property tests drive both paths.

#: One reusable compact stdlib encoder; the single-pass C fallback.
_ENCODE = json.JSONEncoder(check_circular=False, separators=(",", ":")).encode

try:  # pragma: no cover - availability depends on the host image
    from orjson import dumps as _orjson_dumps
except Exception:  # pragma: no cover - stdlib-only fallback
    _orjson_dumps = None


def _resolution_payload(record: "ResolutionRecord", bad_floats: list) -> dict:
    value = record.resolution_ms
    if type(value) is float and not (
        1e-4 <= value < 1e16 or -1e16 < value <= -1e-4 or value == 0.0
    ):
        bad_floats.append(value)
    item = {
        "domain": record.domain,
        "resolver_kind": record.resolver_kind,
        "resolution_ms": value,
        "addresses": record.addresses,
        "cname_chain": record.cname_chain,
        "attempt": record.attempt,
        "rcode": record.rcode,
    }
    # Wire-optional tail fields (see the pruning note above): present
    # only when a fault scenario produced them.
    if record.outcome is not None:
        item["outcome"] = record.outcome
    if record.retries:
        item["retries"] = record.retries
    return item


def _ping_payload(record: "PingRecord", bad_floats: list) -> dict:
    value = record.rtt_ms
    if type(value) is float and not (
        1e-4 <= value < 1e16 or -1e16 < value <= -1e-4 or value == 0.0
    ):
        bad_floats.append(value)
    item = {
        "target_ip": record.target_ip,
        "target_kind": record.target_kind,
        "rtt_ms": value,
    }
    if record.outcome is not None:
        item["outcome"] = record.outcome
    if record.retries:
        item["retries"] = record.retries
    return item


def _traceroute_payload(record: "TracerouteRecord", bad_floats: list) -> dict:
    for hop in record.hops:
        for value in hop:
            if type(value) is float and not (
                1e-4 <= value < 1e16 or -1e16 < value <= -1e-4 or value == 0.0
            ):
                bad_floats.append(value)
    item = {
        "target_ip": record.target_ip,
        "target_kind": record.target_kind,
        "hops": record.hops,
        "reached": record.reached,
    }
    if record.outcome is not None:
        item["outcome"] = record.outcome
    return item


def _http_payload(record: "HttpRecord", bad_floats: list) -> dict:
    value = record.ttfb_ms
    if type(value) is float and not (
        1e-4 <= value < 1e16 or -1e16 < value <= -1e-4 or value == 0.0
    ):
        bad_floats.append(value)
    item = {
        "replica_ip": record.replica_ip,
        "domain": record.domain,
        "resolver_kind": record.resolver_kind,
        "ttfb_ms": value,
    }
    if record.outcome is not None:
        item["outcome"] = record.outcome
    if record.retries:
        item["retries"] = record.retries
    return item


def _resolver_id_payload(record: "ResolverIdRecord", bad_floats: list) -> dict:
    value = record.resolution_ms
    if type(value) is float and not (
        1e-4 <= value < 1e16 or -1e16 < value <= -1e-4 or value == 0.0
    ):
        bad_floats.append(value)
    return {
        "resolver_kind": record.resolver_kind,
        "configured_ip": record.configured_ip,
        "observed_external_ip": record.observed_external_ip,
        "resolution_ms": value,
    }


@dataclass(slots=True)
class ResolutionRecord:
    """One DNS resolution as observed by the device."""

    domain: str
    resolver_kind: str
    resolution_ms: float
    addresses: List[str] = field(default_factory=list)
    cname_chain: List[str] = field(default_factory=list)
    #: Which attempt in a back-to-back pair (1 or 2); Fig 7's cache probe.
    attempt: int = 1
    rcode: str = "NOERROR"
    #: Fault-induced delivery outcome; None on fault-free campaigns.
    outcome: Optional[str] = None
    #: Retransmissions the client performed before this answer/failure.
    retries: int = 0

    @property
    def delivery_outcome(self) -> str:
        """The transport outcome, inferred for legacy records.

        Records written before the transport layer (or on fault-free
        runs) carry no explicit outcome; the client-visible evidence
        stands in: an UNREACHABLE rcode meant the query never came back
        (lost), TIMEOUT meant silence until the timer fired.
        """
        if self.outcome is not None:
            return self.outcome
        if self.rcode == "UNREACHABLE":
            return OUTCOME_LOST
        if self.rcode == "TIMEOUT":
            return OUTCOME_TIMED_OUT
        return OUTCOME_DELIVERED


@dataclass(slots=True)
class PingRecord:
    """One ping probe (rtt_ms is None when nothing answered)."""

    target_ip: str
    target_kind: str
    rtt_ms: Optional[float] = None
    #: Fault-induced delivery outcome; None on fault-free campaigns.
    outcome: Optional[str] = None
    #: Retransmissions the client performed before this answer/failure.
    retries: int = 0

    @property
    def responded(self) -> bool:
        """Whether the target answered."""
        return self.rtt_ms is not None

    @property
    def delivery_outcome(self) -> str:
        """The transport outcome, inferred for legacy records.

        Without an explicit outcome, silence is all the client saw — a
        legacy unanswered ping reads as timed out (firewalled targets
        and genuinely silent hosts are indistinguishable on the wire).
        """
        if self.outcome is not None:
            return self.outcome
        if self.rtt_ms is not None:
            return OUTCOME_DELIVERED
        return OUTCOME_TIMED_OUT


@dataclass(slots=True)
class TracerouteRecord:
    """One traceroute, flattened to (ttl, ip, rtt) triples."""

    target_ip: str
    target_kind: str
    hops: List[List[object]] = field(default_factory=list)
    reached: bool = False
    #: Fault-induced delivery outcome; None on fault-free campaigns.
    outcome: Optional[str] = None

    def hop_ips(self) -> List[str]:
        """Responding hop addresses in path order."""
        return [hop[1] for hop in self.hops if hop[1] is not None]

    @property
    def delivery_outcome(self) -> str:
        """The transport outcome, inferred for legacy records."""
        if self.outcome is not None:
            return self.outcome
        if self.reached:
            return OUTCOME_DELIVERED
        return OUTCOME_TIMED_OUT


@dataclass(slots=True)
class HttpRecord:
    """One HTTP GET to a replica address (time-to-first-byte)."""

    replica_ip: str
    domain: str
    resolver_kind: str
    ttfb_ms: Optional[float] = None
    #: Fault-induced delivery outcome; None on fault-free campaigns.
    outcome: Optional[str] = None
    #: Retransmissions the client performed before this answer/failure.
    retries: int = 0

    @property
    def succeeded(self) -> bool:
        """Whether the GET completed."""
        return self.ttfb_ms is not None

    @property
    def delivery_outcome(self) -> str:
        """The transport outcome, inferred for legacy records."""
        if self.outcome is not None:
            return self.outcome
        if self.ttfb_ms is not None:
            return OUTCOME_DELIVERED
        return OUTCOME_TIMED_OUT


@dataclass(slots=True)
class ResolverIdRecord:
    """Result of the Mao et al. resolver-identification probe."""

    resolver_kind: str
    configured_ip: str
    observed_external_ip: Optional[str] = None
    resolution_ms: Optional[float] = None


@dataclass(slots=True)
class ExperimentRecord:
    """One complete experiment run (Sec 3.2's script, once)."""

    device_id: str
    carrier: str
    country: str
    sequence: int
    started_at: float
    latitude: float
    longitude: float
    technology: str
    generation: str
    client_ip: str = ""
    resolutions: List[ResolutionRecord] = field(default_factory=list)
    pings: List[PingRecord] = field(default_factory=list)
    traceroutes: List[TracerouteRecord] = field(default_factory=list)
    http_gets: List[HttpRecord] = field(default_factory=list)
    resolver_ids: List[ResolverIdRecord] = field(default_factory=list)

    def resolutions_via(self, resolver_kind: str) -> List[ResolutionRecord]:
        """Resolutions through one resolver kind."""
        return [
            record
            for record in self.resolutions
            if record.resolver_kind == resolver_kind
        ]

    def resolver_id(self, resolver_kind: str) -> Optional[ResolverIdRecord]:
        """The identification record for one resolver kind, if present."""
        for record in self.resolver_ids:
            if record.resolver_kind == resolver_kind:
                return record
        return None

    def to_json_line(self) -> str:
        """One-line JSON form via the batched single-pass emitter.

        The payload builders produce exactly the dict
        :meth:`to_json_line_reference` dumps (declaration order, wire-
        optional fields pruned), and one C-level pass serialises the
        whole experiment block — orjson when its bytes are provably the
        stdlib's (see the emitter notes above), the stdlib encoder
        otherwise.  Byte-identical to the reference either way; the
        property tests in ``tests/measure/test_records.py`` hold the
        paths together across randomised records.
        """
        bad_floats: list = []
        for value in (self.started_at, self.latitude, self.longitude):
            if type(value) is float and not (
                1e-4 <= value < 1e16
                or -1e16 < value <= -1e-4
                or value == 0.0
            ):
                bad_floats.append(value)
        payload = {
            "device_id": self.device_id,
            "carrier": self.carrier,
            "country": self.country,
            "sequence": self.sequence,
            "started_at": self.started_at,
            "latitude": self.latitude,
            "longitude": self.longitude,
            "technology": self.technology,
            "generation": self.generation,
            "client_ip": self.client_ip,
            "resolutions": [
                _resolution_payload(r, bad_floats) for r in self.resolutions
            ],
            "pings": [_ping_payload(r, bad_floats) for r in self.pings],
            "traceroutes": [
                _traceroute_payload(r, bad_floats) for r in self.traceroutes
            ],
            "http_gets": [
                _http_payload(r, bad_floats) for r in self.http_gets
            ],
            "resolver_ids": [
                _resolver_id_payload(r, bad_floats) for r in self.resolver_ids
            ],
        }
        if _orjson_dumps is not None and not bad_floats:
            try:
                encoded = _orjson_dumps(payload)
            except Exception:
                encoded = None
            if (
                encoded is not None
                and encoded.isascii()
                and b"\x7f" not in encoded
            ):
                return encoded.decode("ascii")
        return _ENCODE(payload)

    def to_json_line_reference(self) -> str:
        """The original ``asdict``-based serialisation (the oracle).

        ``outcome``/``retries`` are wire-optional — present only when a
        fault scenario set them — so the oracle prunes their default
        values before dumping, matching the conditional emitters.
        """
        payload = asdict(self)
        for item in payload["resolutions"]:
            if item["outcome"] is None:
                del item["outcome"]
            if not item["retries"]:
                del item["retries"]
        for item in payload["pings"]:
            if item["outcome"] is None:
                del item["outcome"]
            if not item["retries"]:
                del item["retries"]
        for item in payload["traceroutes"]:
            if item["outcome"] is None:
                del item["outcome"]
        for item in payload["http_gets"]:
            if item["outcome"] is None:
                del item["outcome"]
            if not item["retries"]:
                del item["retries"]
        return json.dumps(payload, separators=(",", ":"))

    def to_json(self) -> str:
        """One-line JSON form."""
        return self.to_json_line()

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        """Parse a line written by :meth:`to_json`.

        High-cardinality-but-repetitive strings (carrier, resolver kind,
        domain, technology) are interned so a loaded dataset shares one
        object per distinct value — grouping dict lookups in the
        analysis layer then hit pointer-equality fast paths.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"bad dataset line: {exc}") from exc
        intern = sys.intern
        try:
            return cls(
                device_id=intern(payload["device_id"]),
                carrier=intern(payload["carrier"]),
                country=intern(payload["country"]),
                sequence=payload["sequence"],
                started_at=payload["started_at"],
                latitude=payload["latitude"],
                longitude=payload["longitude"],
                technology=intern(payload["technology"]),
                generation=intern(payload["generation"]),
                client_ip=payload.get("client_ip", ""),
                resolutions=[
                    ResolutionRecord(**item) for item in payload.get("resolutions", [])
                ],
                pings=[PingRecord(**item) for item in payload.get("pings", [])],
                traceroutes=[
                    TracerouteRecord(**item)
                    for item in payload.get("traceroutes", [])
                ],
                http_gets=[
                    HttpRecord(**item) for item in payload.get("http_gets", [])
                ],
                resolver_ids=[
                    ResolverIdRecord(**item)
                    for item in payload.get("resolver_ids", [])
                ],
            )
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"malformed experiment record: {exc}") from exc


# -- fast JSONL ingest ---------------------------------------------------------
#
# :meth:`ExperimentRecord.from_json` builds every sub-record through the
# dataclass constructor with ``**kwargs`` — flexible, but the kwargs
# dispatch and default processing dominate load time.  The decoders below
# mirror the fast emitters above: they recognise the *canonical* shape
# every line written by :meth:`ExperimentRecord.to_json_line` has (all
# fields present, nothing extra), allocate via ``__new__`` and assign
# slots directly.  Any line that deviates from the canonical shape —
# missing fields, extra fields, hand-edited archives — falls back to
# :meth:`ExperimentRecord.from_json`, so error behaviour and defaulting
# are byte-for-byte those of the reference path.

_new = object.__new__


def _decode_resolution(item: dict) -> ResolutionRecord:
    if len(item) != 7:
        raise KeyError("non-canonical resolution")
    record: ResolutionRecord = _new(ResolutionRecord)
    record.domain = sys.intern(item["domain"])
    record.resolver_kind = sys.intern(item["resolver_kind"])
    record.resolution_ms = item["resolution_ms"]
    addresses = item["addresses"]
    addresses[:] = map(sys.intern, addresses)
    record.addresses = addresses
    record.cname_chain = item["cname_chain"]
    record.attempt = item["attempt"]
    record.rcode = sys.intern(item["rcode"])
    record.outcome = None
    record.retries = 0
    return record


def _decode_ping(item: dict) -> PingRecord:
    if len(item) != 3:
        raise KeyError("non-canonical ping")
    record: PingRecord = _new(PingRecord)
    record.target_ip = item["target_ip"]
    record.target_kind = sys.intern(item["target_kind"])
    record.rtt_ms = item["rtt_ms"]
    record.outcome = None
    record.retries = 0
    return record


def _decode_traceroute(item: dict) -> TracerouteRecord:
    if len(item) != 4:
        raise KeyError("non-canonical traceroute")
    record: TracerouteRecord = _new(TracerouteRecord)
    record.target_ip = item["target_ip"]
    record.target_kind = sys.intern(item["target_kind"])
    hops = item["hops"]
    for hop in hops:
        # Hops are ``[ttl, ip, rtt]`` when a campaign wrote them; other
        # shapes must still decode as the reference path does, so only
        # a string in the IP slot is touched.
        if len(hop) > 1 and type(hop[1]) is str:
            hop[1] = sys.intern(hop[1])
    record.hops = hops
    record.reached = item["reached"]
    record.outcome = None
    return record


def _decode_http(item: dict) -> HttpRecord:
    if len(item) != 4:
        raise KeyError("non-canonical http get")
    record: HttpRecord = _new(HttpRecord)
    record.replica_ip = sys.intern(item["replica_ip"])
    record.domain = sys.intern(item["domain"])
    record.resolver_kind = sys.intern(item["resolver_kind"])
    record.ttfb_ms = item["ttfb_ms"]
    record.outcome = None
    record.retries = 0
    return record


def _decode_resolver_id(item: dict) -> ResolverIdRecord:
    if len(item) != 4:
        raise KeyError("non-canonical resolver id")
    record: ResolverIdRecord = _new(ResolverIdRecord)
    record.resolver_kind = sys.intern(item["resolver_kind"])
    record.configured_ip = item["configured_ip"]
    record.observed_external_ip = item["observed_external_ip"]
    record.resolution_ms = item["resolution_ms"]
    return record


def _decode_experiment(payload: dict) -> Optional[ExperimentRecord]:
    """A canonical-shape experiment, or None when the shape deviates."""
    try:
        if len(payload) != 15:
            return None
        record: ExperimentRecord = _new(ExperimentRecord)
        record.device_id = sys.intern(payload["device_id"])
        record.carrier = sys.intern(payload["carrier"])
        record.country = sys.intern(payload["country"])
        record.sequence = payload["sequence"]
        record.started_at = payload["started_at"]
        record.latitude = payload["latitude"]
        record.longitude = payload["longitude"]
        record.technology = sys.intern(payload["technology"])
        record.generation = sys.intern(payload["generation"])
        record.client_ip = payload["client_ip"]
        record.resolutions = [
            _decode_resolution(item) for item in payload["resolutions"]
        ]
        record.pings = [_decode_ping(item) for item in payload["pings"]]
        record.traceroutes = [
            _decode_traceroute(item) for item in payload["traceroutes"]
        ]
        record.http_gets = [_decode_http(item) for item in payload["http_gets"]]
        record.resolver_ids = [
            _decode_resolver_id(item) for item in payload["resolver_ids"]
        ]
        return record
    except (KeyError, TypeError, AttributeError):
        return None


@dataclass(slots=True)
class DatasetColumns:
    """Flat columnar projections of a dataset (read-only, shared).

    Each nested record list is flattened into parallel columns with an
    ``*_exp`` column giving the owning experiment's index, so analyses
    can scan plain arrays instead of chasing per-record object graphs.
    Built by :meth:`Dataset.columns` via ``array``/list comprehensions
    and property-tested equal to the record walk in
    ``tests/measure/test_records.py``.
    """

    # Per-experiment columns (length == len(dataset)).
    carrier: List[str]
    device_id: List[str]
    country: List[str]
    started_at: array
    latitude: array
    longitude: array
    technology: List[str]
    # Flattened resolutions.
    res_exp: array
    res_domain: List[str]
    res_kind: List[str]
    res_ms: array
    res_attempt: array
    res_addresses: List[List[str]]
    # Flattened pings.
    ping_exp: array
    ping_kind: List[str]
    ping_rtt: List[Optional[float]]
    # Flattened HTTP gets.
    http_exp: array
    http_replica: List[str]
    http_domain: List[str]
    http_kind: List[str]
    http_ttfb: List[Optional[float]]
    # Flattened resolver identifications (raw, in record order).
    rid_exp: array
    rid_kind: List[str]
    rid_configured: List[str]
    rid_external: List[Optional[str]]
    # Flattened traceroutes.
    trace_exp: array
    trace_kind: List[str]
    trace_hops: List[List[List[object]]]

    @classmethod
    def from_experiments(
        cls, experiments: List[ExperimentRecord]
    ) -> "DatasetColumns":
        """Project a record list into flat columns."""
        return cls(
            carrier=[r.carrier for r in experiments],
            device_id=[r.device_id for r in experiments],
            country=[r.country for r in experiments],
            started_at=array("d", (r.started_at for r in experiments)),
            latitude=array("d", (r.latitude for r in experiments)),
            longitude=array("d", (r.longitude for r in experiments)),
            technology=[r.technology for r in experiments],
            res_exp=array(
                "l",
                (i for i, r in enumerate(experiments) for _ in r.resolutions),
            ),
            res_domain=[s.domain for r in experiments for s in r.resolutions],
            res_kind=[
                s.resolver_kind for r in experiments for s in r.resolutions
            ],
            res_ms=array(
                "d",
                (s.resolution_ms for r in experiments for s in r.resolutions),
            ),
            res_attempt=array(
                "l", (s.attempt for r in experiments for s in r.resolutions)
            ),
            res_addresses=[
                s.addresses for r in experiments for s in r.resolutions
            ],
            ping_exp=array(
                "l", (i for i, r in enumerate(experiments) for _ in r.pings)
            ),
            ping_kind=[p.target_kind for r in experiments for p in r.pings],
            ping_rtt=[p.rtt_ms for r in experiments for p in r.pings],
            http_exp=array(
                "l",
                (i for i, r in enumerate(experiments) for _ in r.http_gets),
            ),
            http_replica=[h.replica_ip for r in experiments for h in r.http_gets],
            http_domain=[h.domain for r in experiments for h in r.http_gets],
            http_kind=[
                h.resolver_kind for r in experiments for h in r.http_gets
            ],
            http_ttfb=[h.ttfb_ms for r in experiments for h in r.http_gets],
            rid_exp=array(
                "l",
                (i for i, r in enumerate(experiments) for _ in r.resolver_ids),
            ),
            rid_kind=[
                s.resolver_kind for r in experiments for s in r.resolver_ids
            ],
            rid_configured=[
                s.configured_ip for r in experiments for s in r.resolver_ids
            ],
            rid_external=[
                s.observed_external_ip
                for r in experiments
                for s in r.resolver_ids
            ],
            trace_exp=array(
                "l",
                (i for i, r in enumerate(experiments) for _ in r.traceroutes),
            ),
            trace_kind=[
                t.target_kind for r in experiments for t in r.traceroutes
            ],
            trace_hops=[t.hops for r in experiments for t in r.traceroutes],
        )


#: Sort key for :meth:`Dataset.by_device` groups (no per-call lambda).
_STARTED_AT = attrgetter("started_at")


# -- probe-event ordering ------------------------------------------------------
#
# Campaign executors order records by the global probe-event key
# ``(started_at, carrier, device_index, sequence)`` (see
# repro.measure.scheduler.ProbeEventQueue).  The helpers below derive
# that key from a record object or from its canonical JSON line, so
# shard outputs — in-memory record lists or spilled JSONL files — can
# be k-way merged back into exactly the serial stream.


def _device_index_of(device_id: str) -> int:
    """The numeric suffix of a campaign device id (``"att-003"`` -> 3).

    Non-campaign ids (no numeric suffix) sort first as -1; they can
    only tie with each other on an exact timestamp collision, which the
    continuous jitter makes a non-event.
    """
    try:
        return int(device_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return -1


def record_event_key(record: "ExperimentRecord") -> Tuple[float, str, int, int]:
    """The global probe-event key of one experiment record."""
    return (
        record.started_at,
        record.carrier,
        _device_index_of(record.device_id),
        record.sequence,
    )


#: Prefix matcher for the canonical line shape ``to_json_line`` emits:
#: the first five fields in declaration order, unescaped strings.  Any
#: line that deviates (exotic ids, hand-edited archives) falls back to
#: a full ``json.loads``.
_LINE_KEY = re.compile(
    r'\{"device_id":"([^"\\]*)","carrier":"([^"\\]*)","country":"[^"\\]*",'
    r'"sequence":(-?\d+),"started_at":(-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
    r'|Infinity|NaN)),'
).match


def jsonl_event_key(line: str) -> Tuple[float, str, int, int]:
    """The probe-event key of one serialised record line.

    Parses only the canonical five-field prefix — O(prefix), not
    O(line) — so the streaming shard merge never deserialises whole
    records in the parent process.
    """
    matched = _LINE_KEY(line)
    if matched is not None:
        device_id, carrier, sequence, started_at = matched.groups()
        return (
            float(started_at),
            sys.intern(carrier),
            _device_index_of(device_id),
            int(sequence),
        )
    payload = json.loads(line)
    return (
        payload["started_at"],
        payload["carrier"],
        _device_index_of(payload["device_id"]),
        payload["sequence"],
    )


def _nonblank_lines(lines: Iterator[str]) -> Iterator[str]:
    """Strip and drop blank lines (trailing newlines, spill padding).

    A partially written or hand-truncated shard spill may end with a
    trailing newline or contain blank separator lines; neither carries a
    record, so the merge must skip them rather than hand ``""`` to the
    event-key parser.  ``str.strip`` returns the original object when
    there is nothing to strip, so clean shard streams pay no copies.
    """
    for line in lines:
        line = line.strip()
        if line:
            yield line


def merged_shard_lines(
    line_streams: Iterable[Iterator[str]],
) -> Iterator[str]:
    """K-way merge shard line streams into global event-key order.

    The shared core of every archive writer (see
    :mod:`repro.measure.backends`): each stream must already be in
    event-key order; blank lines are skipped.  A line whose event-key
    prefix cannot be parsed — or that does not end in ``}`` — is the
    signature of a crash mid-write (a *truncated partial final line*),
    and raises :class:`~repro.core.errors.TruncatedDatasetError` carrying
    the clean-record count instead of surfacing a bare
    ``json.JSONDecodeError`` from deep inside the merge heap.  Resume
    and reconcile passes pre-scan shards against their manifests, so a
    healthy pipeline never reaches this error; it exists so a *direct*
    merge over a torn shard fails loud and diagnosable.
    """
    count = 0
    streams = [_nonblank_lines(stream) for stream in line_streams]

    def checked_key(line: str) -> Tuple[float, str, int, int]:
        try:
            if not line.endswith("}"):
                raise ValueError("line does not close its JSON object")
            return jsonl_event_key(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise TruncatedDatasetError(
                f"shard stream holds a truncated or corrupt record line "
                f"after {count} clean records "
                f"({line[:80]!r}...): {exc}",
                clean_records=count,
                partial_line=line,
            ) from exc

    for line in heapq.merge(*streams, key=checked_key):
        # heapq.merge stops calling the key once a single iterator
        # remains, so the torn-line guard must also ride the yield loop
        # or a one-stream merge would pass torn bytes through silently.
        if not line.endswith("}"):
            raise TruncatedDatasetError(
                f"shard stream holds a truncated partial record line "
                f"after {count} clean records ({line[:80]!r}...)",
                clean_records=count,
                partial_line=line,
            )
        count += 1
        yield line


@dataclass(slots=True)
class Dataset:
    """An ordered collection of experiment records plus campaign metadata.

    Grouping views (:meth:`by_carrier`, :meth:`by_device`, the
    resolution indices) are built lazily on first use and invalidated by
    length: appending experiments (via :meth:`add` or directly) changes
    ``len(experiments)``, which every accessor checks before serving the
    cache.  The returned structures are shared — treat them as
    read-only.
    """

    experiments: List[ExperimentRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Lazily built indices plus the experiment count they were built at.
    _carrier_index: Optional[Dict[str, List[ExperimentRecord]]] = field(
        default=None, repr=False, compare=False
    )
    _device_index: Optional[Dict[str, List[ExperimentRecord]]] = field(
        default=None, repr=False, compare=False
    )
    _resolution_index: Optional[Dict[str, list]] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily built columnar projections (see :class:`DatasetColumns`).
    _columns: Optional[DatasetColumns] = field(
        default=None, repr=False, compare=False
    )
    #: The fused analysis engine, attached by repro.analysis.engine.
    _engine: Optional[object] = field(default=None, repr=False, compare=False)
    #: The partial final line a crash mid-write left behind, when the
    #: archive was loaded with ``allow_truncated=True``; None for clean
    #: archives.  Resume/reconcile treat a dataset with a torn tail as
    #: an incomplete prefix — ``len(dataset)`` is the clean-record
    #: count — never as analysable data.
    truncated_tail: Optional[str] = field(
        default=None, repr=False, compare=False
    )
    _indexed_len: int = field(default=-1, repr=False, compare=False)

    def add(self, record: ExperimentRecord) -> None:
        """Append one experiment."""
        self.experiments.append(record)

    def _fresh(self) -> bool:
        return self._indexed_len == len(self.experiments)

    def _invalidate(self) -> None:
        self._carrier_index = None
        self._device_index = None
        self._resolution_index = None
        self._columns = None
        self._engine = None
        self._indexed_len = len(self.experiments)

    def by_carrier(self) -> Dict[str, List[ExperimentRecord]]:
        """Experiments grouped by carrier key (cached; read-only)."""
        if not self._fresh():
            self._invalidate()
        if self._carrier_index is None:
            grouped: Dict[str, List[ExperimentRecord]] = {}
            for record in self.experiments:
                grouped.setdefault(record.carrier, []).append(record)
            self._carrier_index = grouped
        return self._carrier_index

    def by_device(self) -> Dict[str, List[ExperimentRecord]]:
        """Experiments grouped by device, each group time-ordered."""
        if not self._fresh():
            self._invalidate()
        if self._device_index is None:
            grouped: Dict[str, List[ExperimentRecord]] = {}
            for record in self.experiments:
                grouped.setdefault(record.device_id, []).append(record)
            for records in grouped.values():
                # Serial campaigns append in time order; only out-of-order
                # groups (merged or shuffled archives) pay the sort.
                if any(
                    earlier.started_at > later.started_at
                    for earlier, later in zip(records, records[1:])
                ):
                    records.sort(key=_STARTED_AT)
            self._device_index = grouped
        return self._device_index

    def experiments_for(self, carrier: str) -> List[ExperimentRecord]:
        """Experiments on one carrier, campaign-ordered (cached)."""
        return self.by_carrier().get(carrier, [])

    def resolutions_by_domain(self) -> Dict[str, list]:
        """``domain -> [(experiment, resolution), ...]`` in order (cached).

        Lets per-domain analyses (replica similarity, Fig 10/14 style)
        touch only the resolutions that matter instead of re-walking
        every experiment per figure.
        """
        if not self._fresh():
            self._invalidate()
        if self._resolution_index is None:
            index: Dict[str, list] = {}
            for record in self.experiments:
                for resolution in record.resolutions:
                    index.setdefault(resolution.domain, []).append(
                        (record, resolution)
                    )
            self._resolution_index = index
        return self._resolution_index

    def columns(self) -> DatasetColumns:
        """Flat columnar projections (cached; read-only, shared).

        The projections are what the fused analysis engine scans; they
        are invalidated by length exactly like the grouping indices.
        """
        if not self._fresh():
            self._invalidate()
        if self._columns is None:
            self._columns = DatasetColumns.from_experiments(self.experiments)
        return self._columns

    def carriers(self) -> List[str]:
        """Carrier keys present, in first-seen order."""
        return list(self.by_carrier())

    def device_ids(self) -> List[str]:
        """Distinct device ids."""
        return sorted(self.by_device())

    def filter(self, predicate) -> "Dataset":
        """A new dataset with only the matching experiments."""
        return Dataset(
            experiments=[
                record for record in self.experiments if predicate(record)
            ],
            metadata=dict(self.metadata),
        )

    def content_hash(self) -> str:
        """SHA-256 over the serialised experiments, in order.

        Metadata is excluded: it describes how the campaign was *driven*
        (e.g. worker count), which must not perturb the measured content.
        Hashing the JSON text rather than the records makes the check
        NaN-safe (``resolution_ms`` can be NaN for unreachable targets,
        and ``nan != nan`` under dataclass equality) and means equality
        of hashes is exactly equality of archived ``.jsonl`` bodies.
        This is the oracle the sharded campaign — and every fast-path
        optimisation of the serial engine — is verified against.  It is
        deliberately *not* memoised: in-place record mutation must change
        the hash (the result cache computes it once per run instead).
        """
        digest = hashlib.sha256()
        for record in self.experiments:
            digest.update(record.to_json_line().encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def __len__(self) -> int:
        return len(self.experiments)

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return iter(self.experiments)

    # -- persistence -------------------------------------------------------

    #: Serialized lines buffered per write in :meth:`dump_jsonl`.  One
    #: ``write`` per block instead of per record: serialisation is the
    #: slowest single stage call, and line-at-a-time writes dominate its
    #: non-JSON overhead on buffered text streams.
    DUMP_BLOCK_LINES = 512

    def dump_jsonl(self, stream: TextIO) -> int:
        """Write one JSON line per experiment; returns the line count.

        Lines are buffered and flushed in ``"\\n".join`` blocks; the
        emitted bytes are identical to line-at-a-time writes (asserted
        against :meth:`content_hash` by the emitter oracle test).
        """
        count = 0
        if self.metadata:
            stream.write(
                json.dumps({"_metadata": self.metadata}, separators=(",", ":"))
                + "\n"
            )
        block = self.DUMP_BLOCK_LINES
        buffer: List[str] = []
        for record in self.experiments:
            buffer.append(record.to_json_line())
            count += 1
            if len(buffer) >= block:
                stream.write("\n".join(buffer) + "\n")
                buffer.clear()
        if buffer:
            stream.write("\n".join(buffer) + "\n")
        return count

    @classmethod
    def load_jsonl(
        cls, lines: Iterable[str], allow_truncated: bool = False
    ) -> "Dataset":
        """Read a dataset written by :meth:`dump_jsonl`.

        Canonical lines (the shape :meth:`ExperimentRecord.to_json_line`
        emits) decode through the slot-assigning fast decoders; anything
        else falls back to :meth:`ExperimentRecord.from_json`, keeping
        defaulting and error behaviour identical to
        :meth:`load_jsonl_reference` — the property-tested oracle.

        A *final* line that fails to decode is the signature of a crash
        mid-write (a torn partial record), and is distinguished from
        mid-archive corruption: it raises
        :class:`~repro.core.errors.TruncatedDatasetError` reporting the
        clean-record count — or, with ``allow_truncated=True``, the
        clean prefix loads and the torn tail is kept on
        :attr:`Dataset.truncated_tail` so a resume pass can treat the
        shard as incomplete instead of dying mid-parse.  A bad line
        *followed by more records* is corruption, not truncation, and
        still raises :class:`~repro.core.errors.DatasetError`.
        """
        dataset = cls()
        append = dataset.experiments.append
        loads = json.loads
        clean = 0
        pending_error: Optional[Tuple[str, json.JSONDecodeError]] = None
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if pending_error is not None:
                # The bad line was not the final one: mid-archive
                # corruption, reported exactly as before.
                bad_line, exc = pending_error
                raise DatasetError(f"bad dataset line: {exc}") from exc
            if line.startswith('{"_metadata"'):
                dataset.metadata = loads(line)["_metadata"]
                continue
            try:
                payload = loads(line)
            except json.JSONDecodeError as exc:
                pending_error = (line, exc)
                continue
            record = _decode_experiment(payload)
            if record is None:
                record = ExperimentRecord.from_json(line)
            append(record)
            clean += 1
        if pending_error is not None:
            bad_line, exc = pending_error
            if not allow_truncated:
                raise TruncatedDatasetError(
                    f"archive ends in a truncated partial record after "
                    f"{clean} clean records (crash mid-write?): {exc}",
                    clean_records=clean,
                    partial_line=bad_line,
                ) from exc
            dataset.truncated_tail = bad_line
        return dataset

    @classmethod
    def load_jsonl_reference(cls, lines: Iterable[str]) -> "Dataset":
        """The original per-line ``from_json`` ingest (the oracle)."""
        dataset = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith('{"_metadata"'):
                dataset.metadata = json.loads(line)["_metadata"]
                continue
            dataset.add(ExperimentRecord.from_json(line))
        return dataset

    @classmethod
    def loads_jsonl(cls, text: str) -> "Dataset":
        """Read a dataset from one JSONL string (single-pass splitter)."""
        return cls.load_jsonl(text.split("\n"))

    def save(self, path: str, backend: Optional[str] = None) -> int:
        """Write the dataset to a file path.

        ``backend`` selects the storage backend by name (``jsonl``,
        ``sqlite``, ``columnar``); None infers it from the path's
        extension, defaulting to JSONL — whose bytes are unchanged from
        the historical format (the reference the content hash pins).
        """
        from repro.measure.backends import resolve_backend

        resolved = resolve_backend(backend, path)
        if resolved.name == "jsonl":
            with open(path, "w", encoding="utf-8") as handle:
                return self.dump_jsonl(handle)
        return resolved.write_dataset(path, self)

    @classmethod
    def load(cls, path: str, backend: Optional[str] = None) -> "Dataset":
        """Read a dataset from a file path (any registered backend).

        With ``backend=None`` the file's own bytes decide: archives are
        sniffed by magic (SQLite header, columnar magic) with JSONL as
        the fallback, so ``repro-study report --dataset`` works on any
        backend's archive without being told which one wrote it.
        """
        from repro.measure.backends import sniff_backend

        resolved = sniff_backend(path) if backend is None else None
        if resolved is None:
            from repro.measure.backends import get_backend

            resolved = get_backend(backend or "jsonl")
        if resolved.name == "jsonl":
            with open(path, "r", encoding="utf-8") as handle:
                return cls.loads_jsonl(handle.read())
        return resolved.load(path)
