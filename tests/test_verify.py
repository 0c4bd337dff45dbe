"""The verification aggregator behind the `verify` CLI subcommand."""

import json

import pytest

from confhom import bv, fixed_point_total_dim, run_verifications, total_dim, verify
from confhom.cli import main
from confhom.verify import verify_p2_routes, verify_regime_dichotomy, verify_serre_agreement


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_targets_pass_at_reduced_bounds(p):
    reports = run_verifications("all", p, max_n=10, max_q=2)
    assert reports and all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert any(n.startswith("delta2") for n in names)
    assert any(n.startswith("regime-dichotomy") for n in names)


def test_single_target_selects_reports():
    reports = run_verifications("bijection", 3, max_n=6, max_q=1)
    assert [r.name for r in reports] == ["bijection p=3 q=0", "bijection p=3 q=1"]


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        run_verifications("everything", 3)


def test_individual_checks():
    assert verify_regime_dichotomy(3, 12).passed
    assert verify_serre_agreement(5, 8).passed
    assert verify_p2_routes(8, (1, 2)).passed


def test_report_payload_shape():
    report = run_verifications("classify", 3, max_n=6)[0]
    payload = report.to_payload()
    assert set(payload) == {"name", "passed", "details"}
    assert payload["details"]["monomials_checked"] > 0


@pytest.mark.parametrize("p", [2, 3])
def test_series_agreement_checks_the_shifted_sign_slice(p, monkeypatch):
    assert verify.verify_series_agreement(p, 12).passed
    real = verify.shifted_weight_slice

    def off_by_one(n, prime, sphere_dim):
        return real(n, prime, sphere_dim).shift(1)

    monkeypatch.setattr(verify, "shifted_weight_slice", off_by_one)
    report = verify.verify_series_agreement(p, 12)
    assert not report.passed
    assert report.name == f"enumeration-vs-series p={p} n<=12"
    # a shift leaves an empty slice (weight 2 at odd p) unchanged
    assert {"n=0 sign slice", "n=1 sign slice", "n=12 sign slice"} <= set(report.details["failures"])


def test_cross_route_reports_a_negative_serre_page(capsys, monkeypatch):
    real = bv._delta_rank
    # a rank one above the count of nonzero images drives third-page cells negative
    monkeypatch.setattr(bv, "_delta_rank", lambda images: real(images) + 1)
    report = verify_serre_agreement(3, 8)
    assert not report.passed
    assert "n=2: negative dimension" in report.details["failures"]
    assert main(["verify", "cross-route", "--p", "3", "--max-n", "8"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["status"] == "failed"
    serre = [c for c in payload["result"]["checks"] if c["name"].startswith("serre-vs-dispatcher")]
    assert len(serre) == 1 and serre[0]["passed"] is False
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_points_read_one_list_of_plane_totals(p, monkeypatch):
    real = verify._plane_totals
    calls = []

    def counted(max_weight, prime):
        calls.append(max_weight)
        return real(max_weight, prime)

    monkeypatch.setattr(verify, "_plane_totals", counted)
    report = verify.verify_fixed_points(p, 60)
    assert calls == [60]
    cases = [n for n in range(61) if n % p in (0, 1)]
    assert report.passed and report.details == {"cases": len(cases), "failures": []}
    assert all(fixed_point_total_dim(n, p) == total_dim(n, p) for n in cases)
