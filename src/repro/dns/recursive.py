"""Recursive resolution engine.

One engine instance backs each external-facing resolver (cellular) and
each public-DNS cluster.  It owns a cache, knows which authority serves
each zone, chases CNAME chains across authorities, and accounts for the
upstream latency a cache miss costs — the mechanism behind the paper's
Fig 7 (cache misses inflate ~20% of resolutions) and the resolution-time
tails in Figs 5/6/13.

Root and TLD referrals are assumed warm (as they are on any production
resolver); the authority directory plays the role of that warm NS cache.

Resolution is the simulator's hottest path (it runs ~39 times per
experiment), so the engine keeps *compiled resolution plans*: for a
given (qname, qtype, client subnet) the authority chain walked by
:meth:`RecursiveEngine._fetch_chain` is deterministic given static zone
data, so after one generic walk the chain and its static answer
templates are memoised.  Replaying a plan samples exactly the same
upstream RTTs (the only random draws on the walk) and re-derives only
what genuinely varies per call:

* **RTT sampling** — one ``flow_rtt`` draw per authority hop, same
  arguments and order as the generic walk;
* **CDN replica selection** — memoised per mapping-rotation epoch
  (:meth:`~repro.cdn.provider.CdnAuthority.rotation_epoch`) and
  recomputed when the epoch rolls;
* **resolver-echo observations** — logged per call via
  :meth:`~repro.dns.authoritative.ResolverEchoAuthority.observe` (echo
  names are unique per experiment, so echo chains ride a per-engine
  inline fast path instead of stored plans);
* **TTL aging** — applied lazily at the cache boundary.

Plans stamp the directory and zone versions they compiled against and
are discarded on mismatch, so zone edits are never served stale.
``_fetch_chain`` itself is kept as the uncompiled reference walk; the
property tests assert plan replay is byte-identical to it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.cdn.provider import CdnAuthority
from repro.core.errors import ResolutionError
from repro.core.internet import VirtualInternet
from repro.core.node import Host, ProbeOrigin
from repro.core.rng import RandomStream
from repro.core.transport import Transport
from repro.dns.authoritative import (
    Authority,
    ResolverEchoAuthority,
    StaticAuthority,
)
from repro.dns.cache import DnsCache
from repro.dns.message import (
    RCode,
    ResourceRecord,
    RRType,
    make_query,
    normalize_name,
)
from repro.dns.zone import MAX_CNAME_CHAIN, ZoneDirectory

#: Cap on stored plans per engine (resolving unbounded unique names —
#: e.g. under an unregistered zone — must not grow memory unboundedly).
MAX_COMPILED_PLANS = 65536


class RecursiveResult:
    """Outcome of one recursive resolution.

    Warm cache hits are allocation-free: the result holds the cached
    record templates plus the remaining TTL, and the aged clones are
    built only if :attr:`records` is actually read (``addresses`` and
    ``cname_chain`` read the templates directly — aging never changes
    rdata or type).
    """

    __slots__ = (
        "qname",
        "qtype",
        "rcode",
        "upstream_ms",
        "cache_hit",
        "resolver_ip",
        "authorities",
        "min_ttl",
        "_records",
        "_raw",
        "_remaining",
        "_addresses",
        "_cnames",
    )

    def __init__(
        self,
        qname: str,
        qtype: RRType,
        records: Optional[List[ResourceRecord]] = None,
        rcode: RCode = RCode.NOERROR,
        upstream_ms: float = 0.0,
        cache_hit: bool = False,
        resolver_ip: str = "",
        authorities: Optional[List[str]] = None,
        raw_records: Optional[Tuple[ResourceRecord, ...]] = None,
        ttl_remaining: int = 0,
        min_ttl: Optional[int] = None,
        addresses: Optional[Tuple[str, ...]] = None,
        cnames: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.qname = qname
        self.qtype = qtype
        #: Time spent talking to authorities (0 for cache hits).
        self.upstream_ms = upstream_ms
        self.rcode = rcode
        self.cache_hit = cache_hit
        #: IP the authorities saw as the query source (the resolver itself).
        self.resolver_ip = resolver_ip
        #: Authorities contacted, in order (empty for cache hits).
        self.authorities = authorities if authorities is not None else ()
        #: Minimum TTL over ``records`` when the producer already knows
        #: it (compiled-plan replays); None means "compute if needed".
        self.min_ttl = min_ttl
        self._records = records
        self._raw = raw_records
        self._remaining = ttl_remaining
        #: Pre-extracted answer views (compiled-plan replays hand these
        #: in from the plan's memo); None means "scan the records".
        self._addresses = addresses
        self._cnames = cnames

    @property
    def records(self) -> List[ResourceRecord]:
        """Answer records, TTLs aged to the lookup instant."""
        records = self._records
        if records is None:
            remaining = self._remaining
            records = [record.with_ttl(remaining) for record in self._raw]
            self._records = records
        return records

    def _template_records(self):
        records = self._records
        return records if records is not None else self._raw

    def addresses(self) -> List[str]:
        """A-record addresses in the final answer."""
        pre = self._addresses
        if pre is not None:
            return list(pre)
        return [
            record.data
            for record in self._template_records()
            if record.rtype is RRType.A
        ]

    def cname_chain(self) -> List[str]:
        """CNAME targets in the answer, in chain order."""
        pre = self._cnames
        if pre is not None:
            return list(pre)
        return [
            record.data
            for record in self._template_records()
            if record.rtype is RRType.CNAME
        ]


class _Plan:
    """One compiled resolution chain for (qname, qtype, client subnet)."""

    __slots__ = (
        "hops",
        "hop_programs",
        "draw_count",
        "static_records",
        "static_min_ttl",
        "rcode",
        "terminal_kind",
        "terminal_authority",
        "terminal_qname",
        "client_subnet",
        "directory_version",
        "zone_checks",
        "cdn_memo",
        "answer_memo",
    )

    def __init__(
        self,
        hops: Tuple[str, ...],
        hop_programs: Tuple,
        static_records: Tuple[ResourceRecord, ...],
        rcode: RCode,
        terminal_kind: Optional[str],
        terminal_authority: Optional[Authority],
        terminal_qname: str,
        client_subnet: Optional[str],
        directory_version: int,
        zone_checks: Tuple[tuple, ...],
    ) -> None:
        #: Authority-host IPs in query order.
        self.hops = hops
        #: Per-hop flow programs ``(c0, terms, trail)`` in the same
        #: order (see ``VirtualInternet.flow_program``): the closures
        #: ``_hop_rtt`` would call, as data.  Storing programs instead
        #: of samplers lets a replay pre-count the whole chain's
        #: Gaussian draws and consume one contiguous pool slice.
        self.hop_programs = hop_programs
        #: Total Gaussian draws across the chain (static per plan).
        self.draw_count = sum(len(terms) for _, terms, _ in hop_programs)
        #: Accumulated answers of the static NOERROR hops (whole chain
        #: when the plan is fully static, the prefix otherwise).
        self.static_records = static_records
        #: Minimum TTL over the static records (None when there are
        #: none) — the cache-lifetime scan, hoisted out of every replay.
        self.static_min_ttl = (
            min(record.ttl for record in static_records)
            if static_records
            else None
        )
        #: Final rcode of a fully static chain.
        self.rcode = rcode
        #: None (fully static) or "cdn" — the last hop re-derives.
        self.terminal_kind = terminal_kind
        self.terminal_authority = terminal_authority
        #: Name queried at the terminal hop (post-CNAME-chase).
        self.terminal_qname = terminal_qname
        self.client_subnet = client_subnet
        self.directory_version = directory_version
        #: (authority, zone, version) per static hop.
        self.zone_checks = zone_checks
        #: ``(addresses, cnames)`` extracted from the static records once
        #: at compile time, so replays and cache hits on fully static
        #: chains never re-scan the answer tuple.
        self.answer_memo = (
            tuple(r.data for r in static_records if r.rtype is RRType.A),
            tuple(r.data for r in static_records if r.rtype is RRType.CNAME),
        )
        #: ``(epoch, rcode, records, min_ttl, addresses, cnames)`` of the
        #: last CDN answer merged with the static prefix; re-derived on
        #: rotation (the per-/24 replica windows may move).
        self.cdn_memo: Optional[tuple] = None

    def combined_memo(self, epoch, rcode, cdn_records) -> tuple:
        """Build one epoch's ``cdn_memo``: the full answer set (static
        prefix plus CDN terminal) with its TTL floor and pre-extracted
        address/CNAME views, so replays within the epoch touch nothing
        but this tuple."""
        records = self.static_records + cdn_records
        return (
            epoch,
            rcode,
            records,
            min(record.ttl for record in records) if records else None,
            tuple(r.data for r in records if r.rtype is RRType.A),
            tuple(r.data for r in records if r.rtype is RRType.CNAME),
        )


class RecursiveEngine:
    """Cache-backed recursive resolver logic bound to a resolver host."""

    def __init__(
        self,
        host: Host,
        directory: ZoneDirectory,
        internet: VirtualInternet,
        cache: Optional[DnsCache] = None,
        background_warm_prob: float = 0.0,
        background_interval_s: float = 12.0,
        transport: Optional[Transport] = None,
    ) -> None:
        self.host = host
        self.directory = directory
        self.internet = internet
        #: The delivery layer upstream query legs cross.  Engines built
        #: by the world share its transport; directly constructed ones
        #: (tests, tools) get a private fault-free layer over the same
        #: internet — identical draws either way.
        self.transport = transport if transport is not None else Transport(internet)
        self.cache = cache or DnsCache(name=f"cache@{host.ip}")
        #: Cap on the probability that, on what would be a cold lookup,
        #: some other user of this resolver has already populated the
        #: cache.  Our simulated device population is tiny compared to the
        #: millions of subscribers behind a production LDNS, so the
        #: background load is modelled instead of simulated
        #: packet-by-packet.
        self.background_warm_prob = background_warm_prob
        #: Mean inter-arrival of background queries for a popular name at
        #: this resolver.  The *effective* warm probability couples to the
        #: answer's TTL: an entry with TTL t is live a fraction
        #: ``1 - exp(-t / interval)`` of the time, which is what makes the
        #: short CDN TTLs — and only them — produce Fig 7's miss rate.
        self.background_interval_s = background_interval_s
        #: Lifetime of cached negative answers (RFC 2308 stand-in).
        self.negative_ttl_s = 60
        #: The resolver's probe origin is constant (resolvers do not
        #: move); build it once instead of per upstream query.
        self._upstream_origin: Optional[ProbeOrigin] = None
        #: Precompiled RTT samplers per authority address: the resolver's
        #: origin never moves, so each upstream leg's deterministic parts
        #: fold into one closure (see VirtualInternet.flow_sampler).
        self._hop_samplers: dict = {}
        #: Declarative flow programs per authority address (None for
        #: unreachable hops) — the plan compiler's counterpart of
        #: ``_hop_samplers``.
        self._hop_programs: dict = {}
        #: Compiled plans per (qname, qtype, client_subnet); None marks a
        #: chain that cannot be compiled (an authority of unknown type).
        self._plans: Dict[tuple, Optional[_Plan]] = {}
        #: Effective background-warm probability per (integer) TTL — a
        #: pure function of the TTL and two engine constants, so the
        #: memo cannot change any draw.
        self._warm_prob_memo: Dict[int, float] = {}

    # -- internals -------------------------------------------------------

    def _origin(self, stream: RandomStream) -> ProbeOrigin:
        """The resolver's own probe origin for upstream queries."""
        origin = self._upstream_origin
        if origin is None:
            origin = ProbeOrigin(
                source_ip=self.host.ip,
                asys=self.host.asys,
                location=self.host.location,
                access_rtt_ms=0.1,
                origin_id=f"resolver:{self.host.ip}",
            )
            self._upstream_origin = origin
        return origin

    def _hop_rtt(self, ip: str, stream: RandomStream) -> float:
        """One upstream RTT draw toward an authority address.

        The reachability verdict lives in the transport layer:
        ``authority_link`` hands back either the substrate's compiled
        RTT sampler or a callable that raises
        :class:`~repro.core.errors.ResolutionError` — the engine just
        memoises and calls whichever it got.
        """
        sampler = self._hop_samplers.get(ip)
        if sampler is None:
            sampler = self.transport.authority_link(
                self._origin(stream), ip, self.host.ip
            )
            self._hop_samplers[ip] = sampler
        return sampler(stream)

    def _hop_program(self, ip: str, stream: RandomStream):
        """The declarative flow program toward an authority address
        (None when unreachable), memoised like ``_hop_samplers``."""
        program = self._hop_programs.get(ip, False)
        if program is False:
            program = self.transport.authority_program(self._origin(stream), ip)
            self._hop_programs[ip] = program
        return program

    def _query_authority(
        self,
        authority: Authority,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        client_subnet: Optional[str] = None,
    ) -> tuple:
        """Send one query upstream; returns (response, rtt_ms)."""
        rtt = self._hop_rtt(authority.host.ip, stream)
        response = authority.answer(
            make_query(qname, qtype), self.host.ip, now, client_subnet=client_subnet
        )
        return response, rtt

    def _fetch_chain(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        timed: bool,
        client_subnet: Optional[str] = None,
    ) -> RecursiveResult:
        """Walk authorities, chasing CNAMEs, accumulating upstream time.

        The uncompiled reference walk: plan compilation and replay in
        :meth:`_resolve_upstream` must stay byte-identical to this.
        """
        answers: List[ResourceRecord] = []
        contacted: List[str] = []
        upstream_ms = 0.0
        current = normalize_name(qname)
        rcode = RCode.NOERROR
        for _ in range(MAX_CNAME_CHAIN):
            authority = self.directory.authority_for(current)
            if authority is None:
                rcode = RCode.SERVFAIL
                break
            response, rtt = self._query_authority(
                authority, current, qtype, now, stream, client_subnet=client_subnet
            )
            if timed:
                upstream_ms += rtt
            contacted.append(authority.host.ip)
            rcode = response.rcode
            if rcode is not RCode.NOERROR:
                break
            answers.extend(response.answers)
            terminal = [
                record for record in response.answers if record.rtype is qtype
            ]
            if terminal or not response.answers:
                break
            last = response.answers[-1]
            if last.rtype is not RRType.CNAME:
                break
            current = last.data
        else:
            raise ResolutionError(f"CNAME chain too long resolving {qname}")
        return RecursiveResult(
            qname=normalize_name(qname),
            qtype=qtype,
            records=answers,
            rcode=rcode,
            upstream_ms=upstream_ms,
            cache_hit=False,
            resolver_ip=self.host.ip,
            authorities=contacted,
        )

    # -- compiled plans --------------------------------------------------

    def _plan_valid(self, plan: _Plan) -> bool:
        """Whether a compiled plan still matches the zone data."""
        if plan.directory_version != self.directory.version:
            return False
        for authority, zone, version in plan.zone_checks:
            if authority.zone is not zone or zone.version != version:
                return False
        return True

    def _walk_and_compile(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        client_subnet: Optional[str],
        plan_key: tuple,
    ) -> RecursiveResult:
        """Generic chain walk that also compiles a plan when possible."""
        answers: List[ResourceRecord] = []
        contacted: List[str] = []
        upstream_ms = 0.0
        current = qname
        rcode = RCode.NOERROR
        directory_version = self.directory.version
        zone_checks: List[tuple] = []
        static_records: List[ResourceRecord] = []
        terminal_kind: Optional[str] = None
        terminal_authority: Optional[Authority] = None
        terminal_qname = current
        plannable = True
        for _ in range(MAX_CNAME_CHAIN):
            authority = self.directory.authority_for(current)
            if authority is None:
                rcode = RCode.SERVFAIL
                break
            response, rtt = self._query_authority(
                authority, current, qtype, now, stream, client_subnet=client_subnet
            )
            upstream_ms += rtt
            contacted.append(authority.host.ip)
            rcode = response.rcode
            kind = type(authority)
            if kind is StaticAuthority:
                zone_checks.append(
                    (authority, authority.zone, authority.zone.version)
                )
                if rcode is RCode.NOERROR:
                    static_records.extend(response.answers)
            elif kind is CdnAuthority:
                terminal_kind = "cdn"
                terminal_authority = authority
                terminal_qname = current
            elif kind is ResolverEchoAuthority:
                # Echo names are unique per experiment; a stored plan
                # would never be replayed.  The inline fast path in
                # _resolve_upstream covers direct echo chains, so only
                # CNAME-into-echo chains land here — walk them generically.
                plannable = False
            else:
                plannable = False
            if rcode is not RCode.NOERROR:
                break
            answers.extend(response.answers)
            terminal = [
                record for record in response.answers if record.rtype is qtype
            ]
            if terminal or not response.answers:
                break
            last = response.answers[-1]
            if last.rtype is not RRType.CNAME:
                break
            if terminal_kind is not None:
                # A dynamic authority continued the chain; its future
                # answers may redirect elsewhere, so don't compile.
                plannable = False
                terminal_kind = None
                terminal_authority = None
            current = last.data
        else:
            raise ResolutionError(f"CNAME chain too long resolving {qname}")

        if plannable:
            # Every contacted hop was reachable (the walk queried it),
            # so its flow program exists; the None check is defensive.
            programs = tuple(
                (program[0], program[1], program[2])
                for ip in contacted
                if (program := self._hop_program(ip, stream)) is not None
            )
            plannable = len(programs) == len(contacted)
        if plannable:
            plan = _Plan(
                hops=tuple(contacted),
                hop_programs=programs,
                # Static hops' answers only: a CDN terminal hop's
                # (epoch-varying) answers live in the cdn_memo instead.
                static_records=tuple(static_records),
                rcode=rcode,
                terminal_kind=terminal_kind,
                terminal_authority=terminal_authority,
                terminal_qname=terminal_qname,
                client_subnet=client_subnet,
                directory_version=directory_version,
                zone_checks=tuple(zone_checks),
            )
            if terminal_kind == "cdn":
                cdn_records = (
                    tuple(response.answers) if rcode is RCode.NOERROR else ()
                )
                plan.cdn_memo = plan.combined_memo(
                    terminal_authority.rotation_epoch(now), rcode, cdn_records
                )
            if len(self._plans) < MAX_COMPILED_PLANS or plan_key in self._plans:
                self._plans[plan_key] = plan
            # Publish the engine-independent part of the plan so sibling
            # engines (fresh shards, other resolvers) can rebuild their
            # own plan without repeating this walk.
            chain_memo = self.directory.chain_memo
            if len(chain_memo) < MAX_COMPILED_PLANS or plan_key in chain_memo:
                chain_memo[plan_key] = (
                    directory_version,
                    plan.hops,
                    plan.static_records,
                    rcode,
                    terminal_kind,
                    terminal_authority,
                    terminal_qname,
                    plan.zone_checks,
                )
        else:
            if len(self._plans) < MAX_COMPILED_PLANS or plan_key in self._plans:
                self._plans[plan_key] = None
            chain_memo = self.directory.chain_memo
            if len(chain_memo) < MAX_COMPILED_PLANS or plan_key in chain_memo:
                chain_memo[plan_key] = None

        return RecursiveResult(
            qname=qname,
            qtype=qtype,
            records=answers,
            rcode=rcode,
            upstream_ms=upstream_ms,
            cache_hit=False,
            resolver_ip=self.host.ip,
            authorities=contacted,
        )

    def _plan_from_skeleton(
        self, skeleton: tuple, plan_key: tuple, stream: RandomStream
    ) -> Optional[_Plan]:
        """Rebuild a private plan from a shared chain skeleton.

        The skeleton carries everything engine-independent (the hop
        sequence, static answers, terminal descriptor, version stamps);
        only the per-hop flow programs are looked up locally.  Returns
        None when the skeleton is stale or some hop is unreachable from
        this engine — the caller falls back to the generic walk, which
        will either refresh the shared memo or raise the same
        unreachable error the walk always raised.
        """
        (
            directory_version,
            hops,
            static_records,
            rcode,
            terminal_kind,
            terminal_authority,
            terminal_qname,
            zone_checks,
        ) = skeleton
        if directory_version != self.directory.version:
            return None
        programs = []
        for ip in hops:
            program = self._hop_program(ip, stream)
            if program is None:
                return None
            programs.append((program[0], program[1], program[2]))
        return _Plan(
            hops=hops,
            hop_programs=tuple(programs),
            static_records=static_records,
            rcode=rcode,
            terminal_kind=terminal_kind,
            terminal_authority=terminal_authority,
            terminal_qname=terminal_qname,
            client_subnet=plan_key[2],
            directory_version=directory_version,
            zone_checks=zone_checks,
        )

    def _replay_plan(
        self,
        plan: _Plan,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
    ) -> RecursiveResult:
        """Re-run a compiled chain: fresh RTT draws, memoised answers.

        The chain's Gaussian draw count is static (stored on the plan),
        so the whole chain is sampled from one contiguous
        :meth:`~repro.core.rng.RandomStream.gauss_block` slice — the
        same deviates, in the same order, the per-hop closures would
        have drawn one call at a time.
        """
        upstream_ms = 0.0
        zs = stream.gauss_block(plan.draw_count) if plan.draw_count else ()
        index = 0
        _exp = math.exp
        for c0, terms, trail in plan.hop_programs:
            value = c0
            for log_base, sigma in terms:
                value += _exp(log_base + sigma * zs[index])
                index += 1
            for const in trail:
                value += const
            upstream_ms += value
        if plan.terminal_kind is None:
            # The shared immutable tuple: every consumer (address/CNAME
            # extraction, TTL scan, cache insert) only iterates it.
            rcode = plan.rcode
            records = plan.static_records
            min_ttl = plan.static_min_ttl
            addresses, cnames = plan.answer_memo
        else:  # "cdn"
            authority = plan.terminal_authority
            epoch = authority.rotation_epoch(now)
            memo = plan.cdn_memo
            if memo is None or memo[0] != epoch:
                response = authority.answer(
                    make_query(plan.terminal_qname, qtype),
                    self.host.ip,
                    now,
                    client_subnet=plan.client_subnet,
                )
                cdn_records = (
                    tuple(response.answers)
                    if response.rcode is RCode.NOERROR
                    else ()
                )
                memo = plan.combined_memo(epoch, response.rcode, cdn_records)
                plan.cdn_memo = memo
            _, rcode, records, min_ttl, addresses, cnames = memo
        return RecursiveResult(
            qname,
            qtype,
            records,
            rcode,
            upstream_ms,
            False,
            self.host.ip,
            plan.hops,
            None,
            0,
            min_ttl,
            addresses,
            cnames,
        )

    def _resolve_upstream(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        client_subnet: Optional[str],
    ) -> RecursiveResult:
        """A cache-miss resolution: replay a plan or walk and compile."""
        plan_key = (qname, qtype, client_subnet)
        plan = self._plans.get(plan_key, False)
        if plan is not False and plan is not None:
            # _plan_valid, inlined (this is the warm-miss fast path);
            # checked before the authority lookup: a valid plan already
            # pins the chain, so replays skip the directory entirely.
            if plan.directory_version == self.directory.version:
                for authority, zone, version in plan.zone_checks:
                    if authority.zone is not zone or zone.version != version:
                        break
                else:
                    return self._replay_plan(plan, qname, qtype, now, stream)
        elif plan is False:
            # First touch on this engine: another engine resolving
            # through the same directory may already have walked this
            # chain and published its skeleton — rebuild a private plan
            # from it instead of paying the full compile walk.  Replay
            # is byte-identical to the walk (same Gaussian deviates via
            # the pooled block, same answer content), so which engine
            # compiled first can never change a record.
            skeleton = self.directory.chain_memo.get(plan_key, False)
            if skeleton is None:
                plan = None  # proven uncompilable: walk generically
            elif skeleton is not False:
                built = self._plan_from_skeleton(skeleton, plan_key, stream)
                if built is not None and self._plan_valid(built):
                    if (
                        len(self._plans) < MAX_COMPILED_PLANS
                        or plan_key in self._plans
                    ):
                        self._plans[plan_key] = built
                    return self._replay_plan(built, qname, qtype, now, stream)
        authority = self.directory.authority_for(qname)
        if type(authority) is ResolverEchoAuthority:
            # Inline echo fast path: the chain is always the single echo
            # hop (the authority answers any in-zone name with one
            # zero-TTL A record), and echo names are unique per
            # experiment so a stored plan would never be reused (they
            # never enter ``_plans``, so the lookup above always misses).
            rtt = self._hop_rtt(authority.host.ip, stream)
            record = authority.observe(qname, self.host.ip, now)
            return RecursiveResult(
                qname=qname,
                qtype=qtype,
                records=[record],
                rcode=RCode.NOERROR,
                upstream_ms=rtt,
                cache_hit=False,
                resolver_ip=self.host.ip,
                authorities=[authority.host.ip],
            )
        if plan is None:
            # Known-uncompilable chain: walk generically without
            # re-attempting compilation bookkeeping.
            return self._fetch_chain(
                qname, qtype, now, stream, timed=True, client_subnet=client_subnet
            )
        return self._walk_and_compile(
            qname, qtype, now, stream, client_subnet, plan_key
        )

    # -- public API ------------------------------------------------------------

    def resolve(
        self,
        qname: str,
        qtype: RRType,
        now: float,
        stream: RandomStream,
        client_subnet: Optional[str] = None,
        cache_scope: Optional[str] = None,
    ) -> RecursiveResult:
        """Resolve a name, serving from cache when possible.

        Zero-TTL answers (the resolver-echo zone) are never cached, which
        is exactly why the echo technique reveals the live resolver.

        With ``client_subnet`` (EDNS Client Subnet, RFC 7871) the cache
        is scoped per subnet — answers tailored to one client prefix must
        never be served to another — and the subnet is forwarded to the
        authorities.

        ``cache_scope`` partitions the cache by an opaque label.  Engines
        shared by several cellular operators (public DNS clusters) scope
        entries per operator so one carrier's queries never warm or evict
        another carrier's view — the *shard isolation contract* that lets
        campaign shards run in worker processes yet bit-identically to a
        serial run.  Cross-carrier warmth is modelled (as all other
        background population is) by ``background_warm_prob``.

        Every lookup counts exactly once in the cache statistics: as a
        hit when served from cache (including modelled background-warm
        hits) or as a miss otherwise, so ``stats.lookups`` equals the
        number of ``resolve`` calls.
        """
        qname = normalize_name(qname)
        cache = self.cache
        stats = cache.stats
        key = (cache_scope, client_subnet, qname, qtype)
        peeked = cache.peek_entry(key, now)
        if peeked is not None:
            stats.hits += 1
            records, remaining, negative = peeked
            return RecursiveResult(
                qname,
                qtype,
                None,
                RCode.NXDOMAIN if negative else RCode.NOERROR,
                0.0,
                True,
                self.host.ip,
                None,
                records,
                remaining,
            )
        result = self._resolve_upstream(qname, qtype, now, stream, client_subnet)
        if result.rcode is RCode.NXDOMAIN:
            # Negative caching (RFC 2308); stand-in for the SOA minimum.
            stats.misses += 1
            cache.put_negative(
                qname, qtype, self.negative_ttl_s, now,
                scope=cache_scope, subnet=client_subnet,
            )
            return result
        if result.rcode is not RCode.NOERROR or not result.records:
            stats.misses += 1
            return result
        ttl = result.min_ttl
        if ttl is None:
            ttl = min(record.ttl for record in result.records)
        if ttl <= 0:
            stats.misses += 1
            return result
        if client_subnet is None and self._background_warm_hit(ttl, stream):
            # Another subscriber fetched this recently: the entry is
            # already cached, randomly aged, and our query is a hit.
            age = stream.uniform(0.0, ttl * 0.95)
            cache.put_answer_entry(key, result.records, now - age, ttl)
            peeked = cache.peek_entry(key, now)
            if peeked is not None:
                stats.hits += 1
                records, remaining, negative = peeked
                return RecursiveResult(
                    qname=qname,
                    qtype=qtype,
                    rcode=RCode.NOERROR,
                    upstream_ms=0.0,
                    cache_hit=True,
                    resolver_ip=self.host.ip,
                    raw_records=records,
                    ttl_remaining=remaining,
                )
        stats.misses += 1
        cache.put_answer_entry(key, result.records, now, ttl)
        return result

    def _background_warm_hit(self, ttl: int, stream: RandomStream) -> bool:
        """Whether background traffic had this answer cached already.

        The probability couples the cap (how universally popular the
        measured names are) with the chance that, given the background
        query rate, an entry with this TTL is currently live.
        """
        if self.background_warm_prob <= 0:
            return False
        probability = self._warm_prob_memo.get(ttl)
        if probability is None:
            alive = 1.0 - math.exp(-ttl / self.background_interval_s)
            probability = self.background_warm_prob * alive
            self._warm_prob_memo[ttl] = probability
        return stream.bernoulli(probability)
