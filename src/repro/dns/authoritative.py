"""Authoritative DNS servers.

Two flavours matter to the study:

* :class:`StaticAuthority` serves ordinary zone data (the origin zones of
  the nine measured domains, before they CNAME into a CDN).
* :class:`ResolverEchoAuthority` implements the Mao et al. [16] technique
  from Sec 3.2: the authority for a controlled zone answers every query
  with an A record carrying *the address of the resolver that asked*,
  which is how devices discover their external-facing LDNS address.

CDN authorities (answers depend on the querying resolver's /24) subclass
:class:`Authority` in :mod:`repro.cdn.provider`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.node import Host
from repro.dns.message import (
    DNSMessage,
    RCode,
    ResourceRecord,
    RRType,
    make_response,
    name_within,
    normalize_name,
)
from repro.dns.zone import Zone


@dataclass
class Authority:
    """Base class: an authoritative server bound to a host."""

    host: Host
    zone_apex: str

    def __post_init__(self) -> None:
        self.zone_apex = normalize_name(self.zone_apex)

    def serves(self, qname: str) -> bool:
        """True when this authority is responsible for ``qname``."""
        return name_within(qname, self.zone_apex)

    def answer(
        self,
        query: DNSMessage,
        client_ip: str,
        now: float,
        client_subnet: Optional[str] = None,
    ) -> DNSMessage:
        """Answer a query arriving from ``client_ip`` at virtual ``now``.

        ``client_subnet`` carries an EDNS Client Subnet option (a /24 in
        presentation form) when the querying resolver forwards one; the
        base study never sends it, the ECS extension does.
        """
        raise NotImplementedError

    def __str__(self) -> str:
        return f"{type(self).__name__}({self.zone_apex or '.'} @ {self.host.ip})"


@dataclass
class StaticAuthority(Authority):
    """Serves fixed zone data."""

    zone: Optional[Zone] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zone is None:
            self.zone = Zone(self.zone_apex)

    def answer(
        self,
        query: DNSMessage,
        client_ip: str,
        now: float,
        client_subnet: Optional[str] = None,
    ) -> DNSMessage:
        question = query.question
        if question is None:
            return make_response(query, rcode=RCode.FORMERR)
        if not self.serves(question.qname):
            return make_response(query, rcode=RCode.REFUSED)
        rcode, answers = self.zone.lookup(question.qname, question.qtype)
        return make_response(query, answers=answers, rcode=rcode, authoritative=True)


@dataclass
class EchoLogEntry:
    """One observation made by the resolver-echo authority."""

    qname: str
    resolver_ip: str
    at: float


@dataclass
class ResolverEchoAuthority(Authority):
    """Answers any name under its apex with the querying resolver's IP.

    TTL is zero so responses are never cached; the paper additionally
    used unique per-experiment subdomains, which the measurement library
    reproduces (see ``repro.measure.probes``).

    The observation log is unbounded: every experiment adds unique
    names.
    """

    log: List[EchoLogEntry] = field(default_factory=list)

    def observe(self, qname: str, client_ip: str, now: float) -> ResourceRecord:
        """Record one observation and build the echoed A record.

        Shared by :meth:`answer` and the recursive engine's compiled
        echo fast path, so both maintain the same log.
        """
        self.log.append(EchoLogEntry(qname=qname, resolver_ip=client_ip, at=now))
        return ResourceRecord(qname, RRType.A, 0, client_ip)

    def answer(
        self,
        query: DNSMessage,
        client_ip: str,
        now: float,
        client_subnet: Optional[str] = None,
    ) -> DNSMessage:
        question = query.question
        if question is None:
            return make_response(query, rcode=RCode.FORMERR)
        if not self.serves(question.qname):
            return make_response(query, rcode=RCode.REFUSED)
        record = self.observe(question.qname, client_ip, now)
        return make_response(query, answers=[record], authoritative=True)

    def observations_for(self, suffix: str) -> List[EchoLogEntry]:
        """Log entries whose qname falls under ``suffix``, in log order."""
        return [entry for entry in self.log if name_within(entry.qname, suffix)]
