"""The paper's claims as a machine-checkable list.

DESIGN.md enumerates fourteen shape targets that define "reproduced".
This module encodes each as a :class:`Claim` with an executable check,
so a user can run ``repro-study verify`` (or :func:`verify_claims`)
against any study — including one with modified carriers, mappings or
scales — and see exactly which of the paper's findings survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

#: A check returns (passed, human-readable evidence).
CheckFn = Callable[["CellularDNSStudy"], Tuple[bool, str]]


@dataclass(frozen=True)
class Claim:
    """One falsifiable statement from the paper."""

    claim_id: str
    artifact: str
    statement: str
    check: CheckFn


@dataclass
class ClaimResult:
    """Outcome of checking one claim against a study."""

    claim: Claim
    passed: bool
    evidence: str

    def __str__(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.claim.claim_id} ({self.claim.artifact}): " \
               f"{self.claim.statement}\n       evidence: {self.evidence}"


def _fig2_differentials(study):
    shares = {}
    for carrier in study.world.operators:
        ecdf = study.fig2_replica_differentials(carrier).ecdf()
        if not ecdf.is_empty:
            shares[carrier] = ecdf.fraction_above(50.0)
    evidence = [
        f"{carrier}:{share * 100:.0f}%>={50}%" for carrier, share in shares.items()
    ]
    worst = max(shares.values(), default=0.0)
    if worst <= 0.15:
        evidence.append(f"worst share {worst} <= 0.15")
    return worst > 0.15, "; ".join(evidence)


def _fig3_bands(study):
    evidence = []
    ok = True
    for carrier in ("att", "verizon", "skt"):
        curves = study.fig3_resolution_by_technology(carrier)
        if "LTE" not in curves:
            ok = False
            evidence.append(f"{carrier}: no LTE curve")
            continue
        lte = curves["LTE"].median
        others = [
            (ecdf.median, name) for name, ecdf in curves.items()
            if name != "LTE" and len(ecdf) >= 10
        ]
        if others and lte >= min(others)[0]:
            ok = False
            fastest, band = min(others)
            evidence.append(
                f"{carrier}: LTE p50 {lte} >= {band} p50 {fastest}ms"
            )
        else:
            evidence.append(f"{carrier}: LTE p50 {lte:.0f}ms")
    return ok, "; ".join(evidence)


def _t3_verizon(study):
    rows = {row.carrier: row for row in study.table3_ldns_pairs()}
    row = rows.get("verizon")
    if row is None:
        return False, "no verizon identifications"
    return row.consistency_pct == 100.0, f"consistency {row.consistency_pct}%"


def _t3_indirect(study):
    rows = study.table3_ldns_pairs()
    evidence = "; ".join(
        f"{row.carrier}:{row.client_addresses}->{row.external_addresses}"
        for row in rows
    )
    return (
        all(row.external_addresses >= row.client_addresses for row in rows),
        evidence,
    )


def _fig4_hierarchy(study):
    evidence = []
    ok = True
    for carrier in ("att", "sprint", "tmobile"):
        curves = study.fig4_resolver_distance(carrier)
        absent = [name for name in ("external", "client") if name not in curves]
        if absent:
            ok = False
            evidence.append(f"{carrier}: no {' or '.join(absent)} curve")
            continue
        external, client = curves["external"].median, curves["client"].median
        if external <= client:
            ok = False
            evidence.append(
                f"{carrier}: external p50 {external} <= client p50 {client}ms"
            )
        else:
            evidence.append(f"{carrier}: +{external - client:.0f}ms")
    for carrier in ("verizon", "lgu"):
        if "external" in study.fig4_resolver_distance(carrier):
            ok = False
            evidence.append(f"{carrier}: external unexpectedly pingable")
    return ok, "; ".join(evidence)


def _fig5_medians(study):
    evidence = []
    ok = True
    for carrier, ecdf in study.fig5_us_resolution().items():
        median = ecdf.median
        if median <= 25.0:
            ok = False
            evidence.append(f"{carrier}: p50 {median} <= 25ms")
        elif median >= 120.0:
            ok = False
            evidence.append(f"{carrier}: p50 {median} >= 120ms")
        else:
            evidence.append(f"{carrier}:{median:.0f}ms")
    return ok, "; ".join(evidence)


def _fig6_bimodal(study):
    evidence = []
    ok = True
    for carrier, ecdf in study.fig6_sk_resolution().items():
        median, p90 = ecdf.median, ecdf.quantile(0.9)
        if p90 <= 3.0 * median:
            ok = False
            evidence.append(f"{carrier}: p90 {p90} <= 3 x p50 {median}ms")
        else:
            evidence.append(f"{carrier}: p50 {median:.0f} / p90 {p90:.0f}ms")
    return ok, "; ".join(evidence)


def _fig7_misses(study):
    comparison = study.fig7_cache()
    rate = comparison.miss_rate()
    if rate <= 0.10:
        return False, f"miss rate {rate} <= 0.1"
    if rate >= 0.40:
        return False, f"miss rate {rate} >= 0.4"
    return True, f"miss rate {rate * 100:.0f}%"


def _t4_opaqueness(study):
    rows = {row.carrier: row for row in study.table4_reachability()}
    traceroutes = sum(row.traceroute_responsive for row in rows.values())
    failures = [
        f"{carrier} ping fraction {rows[carrier].ping_fraction} <= 0.5"
        for carrier in ("verizon", "att")
        if rows[carrier].ping_fraction <= 0.5
    ]
    if rows["tmobile"].ping_responsive != 0:
        failures.append(
            f"tmobile answered {rows['tmobile'].ping_responsive} pings, "
            f"expected 0"
        )
    if traceroutes != 0:
        failures.append(f"{traceroutes} traceroutes complete, expected 0")
    evidence = (
        f"vz {rows['verizon'].ping_fraction * 100:.0f}% / "
        f"att {rows['att'].ping_fraction * 100:.0f}% ping; "
        f"{traceroutes} traceroutes complete"
    )
    return not failures, "; ".join([evidence, *failures])


def _busiest(study, carrier):
    timelines = [
        study.fig8_resolver_churn(device.device_id)
        for device in study.campaign.devices_of(carrier)
    ]
    return max(timelines, key=lambda t: len(t.observations))


def _fig8_churn(study):
    tmobile = _busiest(study, "tmobile")
    att = _busiest(study, "att")
    skt = _busiest(study, "skt")
    failures = []
    if tmobile.unique_ips() <= att.unique_ips():
        failures.append(
            f"tmobile {tmobile.unique_ips()} ips <= att {att.unique_ips()} ips"
        )
    if skt.unique_prefixes() > 2:
        failures.append(f"skt {skt.unique_prefixes()} /24s > 2")
    if skt.unique_ips() < 3:
        failures.append(f"skt {skt.unique_ips()} ips < 3")
    evidence = (
        f"tmobile {tmobile.unique_ips()} ips/{tmobile.unique_prefixes()} /24s; "
        f"att {att.unique_ips()}/{att.unique_prefixes()}; "
        f"skt {skt.unique_ips()}/{skt.unique_prefixes()}"
    )
    return not failures, "; ".join([evidence, *failures])


def _fig9_static(study):
    for carrier in ("tmobile", "lgu", "skt"):
        for device in study.campaign.devices_of(carrier):
            timeline = study.fig9_static_timeline(device.device_id)
            if len(timeline.observations) >= 20 and timeline.unique_ips() > 3:
                return True, (
                    f"{device.device_id}: {timeline.unique_ips()} resolvers "
                    f"while stationary"
                )
    return False, "no stationary device with churn found"


def _fig10_similarity(study):
    result = study.fig10_similarity("tmobile")
    median, disjoint = result.median_same_prefix(), result.fraction_disjoint()
    median_ok, disjoint_ok = median > 0.9, disjoint > 0.6
    if median_ok and disjoint_ok:
        return True, (
            f"same-/24 median {median:.2f}; "
            f"diff-/24 disjoint {disjoint * 100:.0f}%"
        )
    return False, (
        f"same-/24 median {median}{'' if median_ok else ' <= 0.9'}; "
        f"diff-/24 disjoint fraction {disjoint}"
        f"{'' if disjoint_ok else ' <= 0.6'}"
    )


def _egress_growth(study):
    counts = study.egress_point_counts()
    observed = max(
        counts[key].count for key in ("sprint", "tmobile", "verizon")
        if key in counts
    )
    return observed > 6, f"max observed egress {observed} (Xu et al.: 4-6)"


def _t5_structure(study):
    rows = {
        (row.carrier, row.resolver_kind): row
        for row in study.table5_resolver_counts()
    }
    verizon_ok = (
        rows[("verizon", "google")].unique_ips
        > rows[("verizon", "local")].unique_ips
    )
    sk_ok = all(
        rows[(carrier, "local")].unique_prefixes <= 2
        for carrier in ("skt", "lgu")
    )
    return verizon_ok and sk_ok, (
        f"verizon google {rows[('verizon', 'google')].unique_ips} vs local "
        f"{rows[('verizon', 'local')].unique_ips} ips; "
        f"skt local /24s {rows[('skt', 'local')].unique_prefixes}"
    )


def _fig11_13_closer_faster(study):
    evidence = []
    ok = True
    for carrier in ("att", "skt"):
        pings = study.fig11_public_distance(carrier)
        local, google = pings["local-external"].median, pings["google"].median
        if local >= google:
            ok = False
            evidence.append(
                f"{carrier} ping: local {local} >= google {google}ms"
            )
        else:
            evidence.append(
                f"{carrier} ping: local {local:.0f} vs google {google:.0f}ms"
            )
    for carrier in study.world.operators:
        curves = study.fig13_public_resolution(carrier)
        local, google = curves["local"].median, curves["google"].median
        if local >= google:
            ok = False
            evidence.append(
                f"{carrier} resolution: local {local} >= google {google}ms"
            )
    return ok, "; ".join(evidence)


def _fig12_google_churn(study):
    best = 0
    for device in study.campaign.devices[:40]:
        timeline = study.fig12_google_churn(device.device_id)
        best = max(best, timeline.unique_prefixes())
    return best >= 3, f"max google /24 clusters per device: {best}"


def _fig14_public_parity(study):
    shares = {}
    for carrier in study.world.operators:
        result = study.fig14_public_replicas(carrier)
        shares[carrier] = result.fraction_public_not_worse()
    ok = all(share > 0.7 for share in shares.values())
    evidence = "; ".join(
        f"{carrier}:{share * 100:.0f}%" if share > 0.7
        else f"{carrier}: public-not-worse share {share} <= 0.7"
        for carrier, share in shares.items()
    )
    return ok, evidence


#: The claim list, in paper order.
PAPER_CLAIMS: List[Claim] = [
    Claim("C1", "Fig 2",
          "clients are consistently handed replicas 50%+ worse than their "
          "best-seen replica", _fig2_differentials),
    Claim("C2", "Fig 3",
          "resolution times band sharply by radio technology, LTE fastest",
          _fig3_bands),
    Claim("C3", "Table 3",
          "every carrier resolves indirectly (externals >= client addrs)",
          _t3_indirect),
    Claim("C4", "Table 3",
          "Verizon's tiered pairs are 100% consistent", _t3_verizon),
    Claim("C5", "Fig 4",
          "US externals sit farther than client-facing fronts; Verizon/LG U+ "
          "externals ignore clients", _fig4_hierarchy),
    Claim("C6", "Fig 5",
          "US cellular resolution medians are broadband-class (tens of ms)",
          _fig5_medians),
    Claim("C7", "Fig 6",
          "SK resolution is bimodal above the median", _fig6_bimodal),
    Claim("C8", "Fig 7",
          "roughly a fifth of first lookups miss the cache", _fig7_misses),
    Claim("C9", "Table 4",
          "opaqueness: only Verizon/AT&T answer external pings, no "
          "traceroute completes", _t4_opaqueness),
    Claim("C10", "Fig 8",
          "resolver churn: T-Mobile worst, AT&T stable, SK confined to "
          "<=2 /24s", _fig8_churn),
    Claim("C11", "Fig 9",
          "churn persists for stationary clients", _fig9_static),
    Claim("C12", "Fig 10",
          "same-/24 resolvers share replica sets; different /24s are mostly "
          "disjoint", _fig10_similarity),
    Claim("C13", "Sec 5.2",
          "egress points grew well past Xu et al.'s 4-6", _egress_growth),
    Claim("C14", "Table 5",
          "public resolvers expose more IPs; SK locals pack into 1-2 /24s",
          _t5_structure),
    Claim("C15", "Figs 11/13",
          "cellular DNS is closer and resolves faster than public DNS",
          _fig11_13_closer_faster),
    Claim("C16", "Fig 12",
          "Google anycast steers one device across multiple /24 clusters",
          _fig12_google_churn),
    Claim("C17", "Fig 14",
          "public-DNS replicas perform equal or better a large majority of "
          "the time", _fig14_public_parity),
]


def verify_claims(study, claims: List[Claim] = PAPER_CLAIMS) -> List[ClaimResult]:
    """Check every claim against a study."""
    results = []
    for claim in claims:
        try:
            passed, evidence = claim.check(study)
        except Exception as exc:  # a broken check is a failed claim
            passed, evidence = False, f"check raised {type(exc).__name__}: {exc}"
        results.append(ClaimResult(claim=claim, passed=passed, evidence=evidence))
    return results


def render_verification(results: List[ClaimResult]) -> str:
    """Printable checklist."""
    lines = [str(result) for result in results]
    passed = sum(1 for result in results if result.passed)
    lines.append(f"\n{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
