"""The machine-checkable claim list."""

from types import SimpleNamespace

from repro.analysis.claims import (
    Claim,
    PAPER_CLAIMS,
    render_verification,
    verify_claims,
)
from repro.analysis.consistency import LdnsPairRow


def _claim(claim_id):
    return next(claim for claim in PAPER_CLAIMS if claim.claim_id == claim_id)


class _Curve:
    """An ECDF stand-in: a median and a sample count."""

    def __init__(self, median, samples=50):
        self.median = median
        self.samples = samples

    def __len__(self):
        return self.samples


class TestClaimList:
    def test_seventeen_claims(self):
        assert len(PAPER_CLAIMS) == 17

    def test_unique_ids(self):
        ids = [claim.claim_id for claim in PAPER_CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_every_artifact_covered(self):
        artifacts = {claim.artifact for claim in PAPER_CLAIMS}
        for expected in ("Fig 2", "Fig 7", "Fig 10", "Fig 14",
                         "Table 3", "Table 4", "Table 5", "Sec 5.2"):
            assert expected in artifacts


class TestVerification:
    def test_all_claims_pass_on_session_study(self, study):
        results = verify_claims(study)
        failures = [str(result) for result in results if not result.passed]
        assert not failures, "\n".join(failures)

    def test_render_includes_summary(self, study):
        results = verify_claims(study)
        text = render_verification(results)
        assert f"{len(results)}/{len(results)} claims reproduced" in text
        assert "C1" in text

    def test_broken_check_reports_failure(self, study):
        def exploding(_):
            raise RuntimeError("boom")

        claim = Claim("CX", "Fig X", "never true", exploding)
        results = verify_claims(study, claims=[claim])
        assert not results[0].passed
        assert "boom" in results[0].evidence


class TestFailingEvidence:
    """A failing check must show the unrounded value that failed it."""

    def test_c4_near_miss_fails_with_unrounded_consistency(self):
        study = SimpleNamespace(
            table3_ldns_pairs=lambda: [LdnsPairRow("verizon", 12, 3, 12, 99.848)]
        )
        (result,) = verify_claims(study, claims=[_claim("C4")])
        assert result.passed is False
        assert "99.848" in result.evidence

    def test_c15_names_the_carrier_whose_local_resolution_is_slower(self):
        def median(value):
            return SimpleNamespace(median=value)

        pings = {"local-external": median(20.0), "google": median(40.0)}
        resolution = {
            "att": {"local": median(30.25), "google": median(45.5)},
            "skt": {"local": median(51.125), "google": median(47.75)},
        }
        study = SimpleNamespace(
            world=SimpleNamespace(operators={"att": None, "skt": None}),
            fig11_public_distance=lambda carrier: pings,
            fig13_public_resolution=lambda carrier: resolution[carrier],
        )
        (result,) = verify_claims(study, claims=[_claim("C15")])
        assert result.passed is False
        assert "skt resolution: local 51.125 >= google 47.75" in result.evidence
        assert "att resolution" not in result.evidence

    def test_c2_names_a_carrier_with_no_lte_curve(self):
        curves = {
            "att": {"LTE": _Curve(40.5), "3G": _Curve(80.0)},
            "verizon": {"3G": _Curve(90.0)},
            "skt": {"LTE": _Curve(30.0)},
        }
        study = SimpleNamespace(
            fig3_resolution_by_technology=lambda carrier: curves[carrier]
        )
        (result,) = verify_claims(study, claims=[_claim("C2")])
        assert result.passed is False
        assert "verizon: no LTE curve" in result.evidence

    def test_c2_names_the_band_lte_lost_to_unrounded(self):
        curves = {
            "att": {"LTE": _Curve(40.5), "3G": _Curve(80.0)},
            "verizon": {"LTE": _Curve(45.0), "3G": _Curve(90.0)},
            "skt": {"LTE": _Curve(61.5), "HSPA": _Curve(58.25), "3G": _Curve(70.0)},
        }
        study = SimpleNamespace(
            fig3_resolution_by_technology=lambda carrier: curves[carrier]
        )
        (result,) = verify_claims(study, claims=[_claim("C2")])
        assert result.passed is False
        assert "skt: LTE p50 61.5 >= HSPA p50 58.25ms" in result.evidence

    def test_c5_names_the_missing_curve(self):
        curves = {
            "att": {"external": _Curve(30.0), "client": _Curve(10.0)},
            "sprint": {"external": _Curve(35.0)},
            "tmobile": {"external": _Curve(32.0), "client": _Curve(12.0)},
        }
        study = SimpleNamespace(
            fig4_resolver_distance=lambda carrier: curves.get(carrier, {})
        )
        (result,) = verify_claims(study, claims=[_claim("C5")])
        assert result.passed is False
        assert "sprint: no client curve" in result.evidence

    def test_c5_reports_a_negative_gap_unrounded(self):
        curves = {
            "att": {"external": _Curve(30.0), "client": _Curve(10.0)},
            "sprint": {"external": _Curve(35.0), "client": _Curve(15.0)},
            "tmobile": {"external": _Curve(40.5), "client": _Curve(43.75)},
        }
        study = SimpleNamespace(
            fig4_resolver_distance=lambda carrier: curves.get(carrier, {})
        )
        (result,) = verify_claims(study, claims=[_claim("C5")])
        assert result.passed is False
        assert "tmobile: external p50 40.5 <= client p50 43.75ms" in result.evidence
        assert "+-" not in result.evidence

    def test_c6_names_the_carrier_over_the_median_bound_unrounded(self):
        curves = {"att": _Curve(60.5), "verizon": _Curve(120.2)}
        study = SimpleNamespace(fig5_us_resolution=lambda: curves)
        (result,) = verify_claims(study, claims=[_claim("C6")])
        assert result.passed is False
        assert "verizon: p50 120.2 >= 120ms" in result.evidence
        assert "att: p50" not in result.evidence

    def test_c6_names_the_carrier_under_the_median_bound_unrounded(self):
        curves = {"att": _Curve(24.75), "verizon": _Curve(80.0)}
        study = SimpleNamespace(fig5_us_resolution=lambda: curves)
        (result,) = verify_claims(study, claims=[_claim("C6")])
        assert result.passed is False
        assert "att: p50 24.75 <= 25ms" in result.evidence

    def test_c8_reports_the_failing_miss_rate_unrounded(self):
        cache = SimpleNamespace(miss_rate=lambda: 0.401)
        study = SimpleNamespace(fig7_cache=lambda: cache)
        (result,) = verify_claims(study, claims=[_claim("C8")])
        assert result.passed is False
        assert "miss rate 0.401 >= 0.4" in result.evidence

    def test_c17_names_the_carrier_under_the_share_bound_unrounded(self):
        shares = {"att": 0.85, "tmobile": 0.696}
        study = SimpleNamespace(
            world=SimpleNamespace(operators={"att": None, "tmobile": None}),
            fig14_public_replicas=lambda carrier: SimpleNamespace(
                fraction_public_not_worse=lambda: shares[carrier]
            ),
        )
        (result,) = verify_claims(study, claims=[_claim("C17")])
        assert result.passed is False
        assert "tmobile: public-not-worse share 0.696 <= 0.7" in result.evidence
        assert "att:85%" in result.evidence

    def test_c1_reports_the_worst_share_under_the_bound_unrounded(self):
        shares = {"att": 0.12, "skt": 0.149}
        study = SimpleNamespace(
            world=SimpleNamespace(operators={"att": None, "skt": None}),
            fig2_replica_differentials=lambda carrier: SimpleNamespace(
                ecdf=lambda: SimpleNamespace(
                    is_empty=False,
                    fraction_above=lambda threshold: shares[carrier],
                )
            ),
        )
        (result,) = verify_claims(study, claims=[_claim("C1")])
        assert result.passed is False
        assert "worst share 0.149 <= 0.15" in result.evidence

    def test_c7_names_the_carrier_whose_p90_is_not_bimodal(self):
        def curve(median, p90):
            return SimpleNamespace(median=median, quantile=lambda q: p90)

        curves = {"skt": curve(30.0, 95.5), "lgu": curve(40.25, 120.5)}
        study = SimpleNamespace(fig6_sk_resolution=lambda: curves)
        (result,) = verify_claims(study, claims=[_claim("C7")])
        assert result.passed is False
        assert "lgu: p90 120.5 <= 3 x p50 40.25ms" in result.evidence
        assert "skt: p90" not in result.evidence

    def test_c9_names_the_failing_condition_unrounded(self):
        def row(carrier, fraction, responsive=0):
            return SimpleNamespace(
                carrier=carrier,
                ping_fraction=fraction,
                ping_responsive=responsive,
                traceroute_responsive=0,
            )

        rows = [row("verizon", 0.4999, 9), row("att", 0.75, 12), row("tmobile", 0.0)]
        study = SimpleNamespace(table4_reachability=lambda: rows)
        (result,) = verify_claims(study, claims=[_claim("C9")])
        assert result.passed is False
        assert "verizon ping fraction 0.4999 <= 0.5" in result.evidence
        assert "att ping fraction" not in result.evidence
        assert "expected 0" not in result.evidence

    def test_c10_names_the_failing_comparison(self):
        churn = {"tmobile": (9, 5), "att": (2, 1), "skt": (4, 3)}

        def timeline(carrier):
            ips, prefixes = churn[carrier]
            return SimpleNamespace(
                observations=[None] * 10,
                unique_ips=lambda: ips,
                unique_prefixes=lambda: prefixes,
            )

        study = SimpleNamespace(
            campaign=SimpleNamespace(
                devices_of=lambda carrier: [SimpleNamespace(device_id=carrier)]
            ),
            fig8_resolver_churn=timeline,
        )
        (result,) = verify_claims(study, claims=[_claim("C10")])
        assert result.passed is False
        assert "skt 3 /24s > 2" in result.evidence
        assert "<= att" not in result.evidence
        assert "ips < 3" not in result.evidence

    def test_c12_reports_median_and_disjoint_fraction_unrounded(self):
        similarity = SimpleNamespace(
            median_same_prefix=lambda: 0.8975,
            fraction_disjoint=lambda: 0.6125,
        )
        study = SimpleNamespace(fig10_similarity=lambda carrier: similarity)
        (result,) = verify_claims(study, claims=[_claim("C12")])
        assert result.passed is False
        assert "same-/24 median 0.8975 <= 0.9" in result.evidence
        assert "diff-/24 disjoint fraction 0.6125" in result.evidence
        assert "0.6125 <=" not in result.evidence

    def test_c15_names_the_carrier_whose_local_ping_is_not_closer(self):
        def median(value):
            return SimpleNamespace(median=value)

        pings = {
            "att": {"local-external": median(20.5), "google": median(20.25)},
            "skt": {"local-external": median(12.0), "google": median(40.0)},
        }
        resolution = {"local": median(30.0), "google": median(45.0)}
        study = SimpleNamespace(
            world=SimpleNamespace(operators={"att": None, "skt": None}),
            fig11_public_distance=lambda carrier: pings[carrier],
            fig13_public_resolution=lambda carrier: resolution,
        )
        (result,) = verify_claims(study, claims=[_claim("C15")])
        assert result.passed is False
        assert "att ping: local 20.5 >= google 20.25ms" in result.evidence
        assert "skt ping: local 12 vs google 40ms" in result.evidence
