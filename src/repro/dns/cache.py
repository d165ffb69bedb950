"""Resolver cache with TTL expiry and hit/miss accounting.

The paper attributes the long tail of cellular resolution times to cache
misses caused by the short TTLs CDNs use (Fig 7: misses on ~20% of
queries even for very popular names).  The cache is therefore a
first-class, instrumented component.

Entries are keyed by the structured tuple ``(scope, subnet, qname,
qtype)``.  ``scope`` partitions the cache by an opaque label, ``subnet``
by the EDNS Client Subnet a query carried.  The campaign layer uses the
scope to enforce its *shard isolation contract*: every device carries a
``cache_scope`` naming its sub-carrier device range (``att/r0``,
``att/r1``, ...), and every executor — serial or sub-carrier
sharded — applies the same partition, so cache warmth never
flows between ranges and the dataset bytes cannot depend on how devices
were divided across workers.  Engines shared across carriers (public DNS
clusters) fall back to an operator-keyed scope for non-campaign devices.
Earlier revisions flattened scope and
subnet into the query name with sentinel substrings, which an
adversarial qname containing the sentinel could collide with; tuple keys
make collisions structurally impossible — and skip the per-lookup string
building.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dns.message import ResourceRecord, RRType, normalize_name

#: Structured cache key: (scope, subnet, qname, qtype).
CacheKey = Tuple[Optional[str], Optional[str], str, RRType]


@dataclass
class CacheStats:
    """Counters exposed by a :class:`DnsCache`."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclass(slots=True)
class _Entry:
    records: Tuple[ResourceRecord, ...]
    stored_at: float
    expires_at: float
    #: Negative entries memoise NXDOMAIN/NODATA (RFC 2308 behaviour).
    negative: bool = False


@dataclass
class DnsCache:
    """A TTL-driven record cache keyed by (scope, subnet, name, type).

    Time is supplied by the caller (virtual seconds); the cache never
    consults a wall clock.  ``scope``/``subnet`` default to None, so
    plain ``(name, type)`` callers keep working unchanged.
    """

    name: str = "cache"
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: Dict[CacheKey, _Entry] = field(default_factory=dict)

    def get(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        scope: Optional[str] = None,
        subnet: Optional[str] = None,
    ) -> Optional[List[ResourceRecord]]:
        """Cached records with TTLs aged to ``now``, or None on miss."""
        key = (scope, subnet, normalize_name(qname), qtype)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if now >= entry.expires_at:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        remaining = max(int(entry.expires_at - now), 0)
        return [record.with_ttl(remaining) for record in entry.records]

    def peek(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        scope: Optional[str] = None,
        subnet: Optional[str] = None,
    ) -> Optional[Tuple[Tuple[ResourceRecord, ...], int, bool]]:
        """(records, remaining_ttl, negative) for a live entry, else None.

        The allocation-free read used on the resolution hot path: the
        stored records are returned as-is (a shared tuple, TTLs *not*
        aged) alongside the remaining lifetime, so callers clone only at
        the boundary where an aged TTL is actually consumed.  Does not
        touch the hit/miss counters.
        """
        entry = self._entries.get((scope, subnet, qname, qtype))
        if entry is None or now >= entry.expires_at:
            return None
        remaining = int(entry.expires_at - now)
        if remaining < 0:
            remaining = 0
        return entry.records, remaining, entry.negative

    def peek_entry(
        self, key: CacheKey, now: float
    ) -> Optional[Tuple[Tuple[ResourceRecord, ...], int, bool]]:
        """:meth:`peek` by a prebuilt key (name already normalised).

        The resolution engine builds its ``(scope, subnet, qname,
        qtype)`` tuple once per lookup and reuses it for peek and store,
        instead of rebuilding it inside each cache call.
        """
        entry = self._entries.get(key)
        if entry is None or now >= entry.expires_at:
            return None
        remaining = int(entry.expires_at - now)
        if remaining < 0:
            remaining = 0
        return entry.records, remaining, entry.negative

    def put_answer_entry(
        self,
        key: CacheKey,
        records,
        now: float,
        ttl: int,
    ) -> None:
        """:meth:`put_answer` by a prebuilt key, TTL already computed."""
        self._entries[key] = _Entry(
            records=tuple(records), stored_at=now, expires_at=now + ttl
        )
        self.stats.insertions += 1

    def put(self, records: List[ResourceRecord], now: float) -> None:
        """Insert answer records, grouped by (name, type).

        The whole answer (e.g. a CNAME chain plus terminal A set) is
        stored under the query key by the caller; here each rrset is also
        indexed individually so partial reuse works.
        """
        by_key: Dict[Tuple[str, RRType], List[ResourceRecord]] = {}
        for record in records:
            by_key.setdefault((record.name, record.rtype), []).append(record)
        for (name, rtype), rrset in by_key.items():
            ttl = min(record.ttl for record in rrset)
            self._entries[(None, None, name, rtype)] = _Entry(
                records=tuple(rrset), stored_at=now, expires_at=now + ttl
            )
            self.stats.insertions += 1

    def get_entry_kind(self, qname: str, qtype: RRType, now: float):
        """(records, negative) for a live entry, or None on miss.

        Unlike :meth:`get`, distinguishes a cached *negative* answer
        (records empty, negative True) from a plain miss (None).  Does
        not touch the hit/miss counters; call :meth:`get` for stats.
        """
        peeked = self.peek(normalize_name(qname), qtype, now)
        if peeked is None:
            return None
        records, remaining, negative = peeked
        return [record.with_ttl(remaining) for record in records], negative

    def put_negative(
        self,
        qname: str,
        qtype: RRType,
        ttl: int,
        now: float,
        scope: Optional[str] = None,
        subnet: Optional[str] = None,
    ) -> None:
        """Cache a negative answer (NXDOMAIN/NODATA) for ``ttl`` seconds."""
        if ttl <= 0:
            return
        key = (scope, subnet, normalize_name(qname), qtype)
        self._entries[key] = _Entry(
            records=(), stored_at=now, expires_at=now + ttl, negative=True
        )
        self.stats.insertions += 1

    def put_answer(
        self,
        qname: str,
        qtype: RRType,
        records: List[ResourceRecord],
        now: float,
        scope: Optional[str] = None,
        subnet: Optional[str] = None,
        ttl: Optional[int] = None,
    ) -> None:
        """Cache a complete answer under the query key.

        The answer's lifetime is its minimum TTL, which is what makes the
        short CDN A-record TTLs dominate even when CNAMEs carry long ones.
        Callers that already computed that minimum pass it as ``ttl``.
        """
        if not records:
            return
        if ttl is None:
            ttl = min(record.ttl for record in records)
        key = (scope, subnet, normalize_name(qname), qtype)
        self._entries[key] = _Entry(
            records=tuple(records), stored_at=now, expires_at=now + ttl
        )
        self.stats.insertions += 1

    def flush_expired(self, now: float) -> int:
        """Drop expired entries; returns how many were removed."""
        expired = [
            key for key, entry in self._entries.items() if now >= entry.expires_at
        ]
        for key in expired:
            del self._entries[key]
        self.stats.expirations += len(expired)
        return len(expired)

    def invalidate(
        self,
        qname: str,
        qtype: RRType,
        scope: Optional[str] = None,
        subnet: Optional[str] = None,
    ) -> None:
        """Drop one entry if present."""
        self._entries.pop((scope, subnet, normalize_name(qname), qtype), None)

    def clear(self) -> None:
        """Drop everything (stats are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Membership by (name, type) or a full (scope, subnet, name, type)."""
        if len(key) == 2:
            qname, qtype = key
            return (None, None, normalize_name(qname), qtype) in self._entries
        scope, subnet, qname, qtype = key
        return (scope, subnet, normalize_name(qname), qtype) in self._entries
