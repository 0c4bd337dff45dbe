"""The verification aggregator behind the `verify` CLI subcommand."""

import json
import sys

import pytest

from confhom import FpMatrix, bv, catalog, enumeration, fixed_point_total_dim
from confhom import plane_config_generators
from confhom import signhom
from confhom import run_verifications, total_dim, verify
from confhom.algebra import ONE, Element
from confhom.catalog import MAX_BASIS
from confhom.cli import main
from confhom.identities import verify_bijection, verify_dimension_identity
from confhom.signhom import verify_q_stability
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
    assert verify_p2_routes(8).passed


def test_report_payload_shape():
    report = run_verifications("classify", 3, max_n=6)[0]
    payload = report.to_payload()
    assert set(payload) == {"name", "passed", "details"}
    assert payload["details"]["monomials_checked"] > 0


class _ShiftedTable:
    """A series table whose every weight slice sits one degree too high."""

    def __init__(self, table):
        self.weight_slice = lambda n: table.weight_slice(n).shift(1)


@pytest.mark.parametrize("p", [2, 3])
def test_series_agreement_checks_the_shifted_sign_slice(p, monkeypatch):
    assert verify.verify_series_agreement(p, 12).passed
    real = verify._shifted_table

    def off_by_one(prime, sphere_dim, max_n):
        return _ShiftedTable(real(prime, sphere_dim, max_n))

    monkeypatch.setattr(verify, "_shifted_table", off_by_one)
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


def _alone(p, max_n, max_q):
    """Each report of `all`, made by its public function on its own."""
    reports = [
        verify.verify_delta_squared(p, max_n),
        verify_dimension_identity(p, max_q),
        verify.verify_fixed_points(p, max_n),
        *(verify_bijection(p, q) for q in range(max_q + 1)),
        verify.verify_classify_total(p, max_n),
        *(verify_q_stability(n, p, list(range(max_q + 1))) for n in range(min(max_n, 12) + 1)),
        verify_regime_dichotomy(p, max_n),
        verify_serre_agreement(p, min(max_n, 16)),
        verify.verify_series_agreement(p, max_n),
    ]
    if p == 2:
        reports.append(verify_p2_routes(min(max_n, 16)))
    return [r.to_payload() for r in reports]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_check_alone_equals_its_report_in_the_sweep(p):
    # 18 is past the bound of 16 of the serre and mod-2 steps
    swept = [r.to_payload() for r in run_verifications("all", p, 18, 2)]
    assert swept == _alone(p, 18, 2)


def _nonzero_square(el):
    return Element.term(1, ONE, el.p)


def _unclassifiable(m, prime, n):
    raise RuntimeError("planted fault")


def _shifted(real):
    return lambda *args: real(*args).shift(1)


def _shifted_slices(real):
    return lambda *args: _ShiftedTable(real(*args))


def _times_t(answer):
    """`answer` one degree up: a circle answer's numerator moves, its bound stays."""
    if type(answer) is bv._CircleAnswer:
        return bv._CircleAnswer(answer.numerator.shift(1), answer.step, answer.bound)
    return answer.shift(1)


def _shifted_answers(real):
    return lambda *args: {n: _times_t(a) for n, a in real(*args).items()}


# (module attribute to replace, its replacement given the real one, the report that must fail)
_PLANTED = [
    ("delta_element", lambda real: _nonzero_square, "delta2"),
    ("classify_monomial", lambda real: _unclassifiable, "classify-total"),
    ("_coker_dims_by_rank", _shifted, "regime-dichotomy"),
    ("collapse_total_degree", _shifted, "serre-vs-dispatcher"),
    ("_complete_table", _shifted_slices, "enumeration-vs-series"),
    ("_answers_by_weight", _shifted_answers, "p2-cross-route"),
    ("_equivariant_s1_dims", _shifted_answers, "serre-vs-dispatcher"),
]
# one id per row: the report name, and for the dispatcher's series the attribute
_PLANTED_IDS = [f if a != "_equivariant_s1_dims" else "dispatcher-series" for a, _, f in _PLANTED]


@pytest.mark.parametrize("attr, fault, failing", _PLANTED, ids=_PLANTED_IDS)
def test_a_fault_in_one_step_fails_only_its_report(monkeypatch, attr, fault, failing):
    p = 2 if failing == "p2-cross-route" else 3
    clean = [r.to_payload() for r in run_verifications("all", p, 10, 1)]
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    faulty = [r.to_payload() for r in run_verifications("all", p, 10, 1)]
    changed = [f["name"] for c, f in zip(clean, faulty) if c != f]
    assert [name.split(" ")[0] for name in changed] == [failing]
    assert [f["passed"] for f in faulty if f["name"] in changed] == [False]
    assert all(c["passed"] for c in clean)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_sweep_enumerates_each_plane_weight_once(monkeypatch, p):
    max_n, max_q = 20, 3
    real = enumeration._monomial_bases
    weights, walks = [], []

    def counted(gens, span, prime, texts=False):
        # a plane catalog is the one its heaviest generator bounds
        gens = list(gens)
        plane = bool(gens) and gens == plane_config_generators(prime, gens[-1].weight)
        if plane:
            walks.append(span)
        for n, basis in zip(span, real(gens, span, prime, texts)):
            if plane:
                weights.append(n)
            yield basis

    # every module that holds the walk, as `monomial_basis` reads the enumeration's own
    for module in list(sys.modules.values()):
        if module.__name__.startswith("confhom") and getattr(module, "_monomial_bases", 0) is real:
            monkeypatch.setattr(module, "_monomial_bases", counted)
    run_verifications("bijection", p, max_n, max_q)
    # each distinct source weight once, however many q read it
    bijection = sorted({w for q in range(max_q + 1) for w in (p * q, q + 1)})
    assert sorted(weights) == bijection
    weights.clear()
    walks.clear()
    run_verifications("all", p, max_n, max_q)
    assert sorted(weights) == sorted(list(range(max_n + 1)) + bijection)
    # the sweep walks the plane once; each bijection source is a one-weight walk
    assert [span for span in walks if len(span) > 1] == [range(max_n + 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_count_table_is_built_once_per_run(monkeypatch, p):
    real = enumeration.series_table
    calls = []

    def counted(gens, max_weight, dmax, prime):
        calls.append(max_weight)
        return real(gens, max_weight, dmax, prime)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("confhom") and getattr(module, "series_table", None) is real:
            monkeypatch.setattr(module, "series_table", counted)
    run_verifications("all", p, 12, 3)
    at_12 = len(calls)
    calls.clear()
    run_verifications("all", p, 24, 3)
    # the plane and sign tables, one per q <= 3, and at p = 2 one per mod-2 sphere;
    # then the dispatcher's, which the serre and mod-2 steps share: its tensor and
    # cokernel tables, and at p = 2, where every weight is in the tensor regime,
    # its tensor table alone
    dispatcher = 1 if p == 2 else 2
    assert len(calls) == at_12 == 2 + 4 + (2 if p == 2 else 0) + dispatcher


@pytest.mark.parametrize("p", [2, 3])
def test_q_stability_reads_the_tower_up_to_each_weight(monkeypatch, p):
    real = signhom.cohen_generators

    def without_p_squared(brackets, prime, weight_bound):
        return [g for g in real(brackets, prime, weight_bound) if g.weight != p * p]

    monkeypatch.setattr(signhom, "cohen_generators", without_p_squared)
    reports = run_verifications("stability", p, 12, 2)
    assert [r.name for r in reports] == [f"q-stability n={n} p={p} q=[0, 1, 2]" for n in range(13)]
    for n, report in enumerate(reports):
        assert report.passed == (n < p * p), n
        assert report.details["mismatching_q"] == ([] if n < p * p else [0, 1, 2])


def _graded_as_itself(real):
    # each monomial's image is the monomial itself, in its own degree
    return lambda m, prime: Element.term(1, m, prime)


def _zeroed(real):
    def zero(*args):
        m = real(*args)
        return FpMatrix([[0] * m.cols for _ in range(m.rows)], m.p, (m.rows, m.cols))

    return zero


# (module attribute to replace, its replacement given the real one, the report
# that must fail, a failure it must list): the failure branches no other fault reaches
_PLANTED_BRANCHES = [
    ("delta", _graded_as_itself, "delta2", "grading broken at 1"),
    ("delta_matrix", _zeroed, "regime-dichotomy", "n=2: matrix zero=True, expected False"),
    ("KIND_U", lambda real: "no such kind", "regime-dichotomy", "n=2: u-free 2 != u-carrying 0"),
]


@pytest.mark.parametrize("attr, fault, failing, failure", _PLANTED_BRANCHES,
                         ids=["grading", "matrix-zero", "u-free-count"])
def test_a_planted_fault_fires_its_failure_branch(monkeypatch, attr, fault, failing, failure):
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    reports = run_verifications("all", 3, 10, 1)
    [report] = [r for r in reports if not r.passed]
    assert report.name.split(" ")[0] == failing
    assert failure in report.details["failures"]


def test_q_stability_lists_the_q_whose_answer_differs(monkeypatch):
    real = signhom._answers_by_weight

    def shifted_at_q1(prime, sphere_dim, ns):
        answers = real(prime, sphere_dim, ns)
        return {n: _times_t(a) for n, a in answers.items()} if sphere_dim == 3 else answers

    clean = run_verifications("stability", 3, 12, 2)
    monkeypatch.setattr(signhom, "_answers_by_weight", shifted_at_q1)
    reports = run_verifications("stability", 3, 12, 2)
    # the answers of q = 0 stay the reference; an empty answer shifts to itself
    for c, r in zip(clean, reports):
        assert r.details["dims"] == c.details["dims"]
        assert r.details["mismatching_q"] == ([1] if c.details["dims"] else [])
    assert not all(r.passed for r in reports)


def test_the_stability_bound_counts_the_listed_weight_q_pairs(monkeypatch):
    monkeypatch.setattr(verify, "_q_stability", lambda ns, prime, qs: [])
    # 13 weights at max_n >= 12: 13 * 80659 <= 2^20 < 13 * 80660
    assert run_verifications("stability", 3, 40, 80658) == []
    with pytest.raises(ValueError, match=r"^q-stability of 1048580 \(weight, q\) pairs exceeds"):
        run_verifications("stability", 3, 12, 80659)
    assert run_verifications("stability", 3, 0, MAX_BASIS - 1) == []
    with pytest.raises(ValueError, match="q-stability of 1048577 "):
        run_verifications("stability", 3, 0, MAX_BASIS)


_FIRST_TEN = [(0, "1"), (1, "i"), (2, "i^2"), (2, "u"), (3, "i^3"), (3, "i u"),
              (4, "i^4"), (4, "i^2 u"), (5, "i^5"), (5, "i^3 u")]

# Each planted fault's failing report at p = 3 (p = 2 for the mod-2 routes) and
# --max-n 33: its work counters, then the first ten failures or every one.
_FAILING_DETAILS = {
    "delta2": {
        "monomials_checked": 522,
        "failures": [f"square nonzero at {m}" for _, m in _FIRST_TEN],
    },
    "classify-total": {
        "monomials_checked": 0,
        "failures": [f"n={n} {m}: planted fault" for n, m in _FIRST_TEN],
    },
    # 10 of the 11 cokernel-regime weights 2, 5, ..., 32
    "regime-dichotomy": {
        "failures": [f"n={n}: rank cokernel != u-free counts" for n in range(2, 30, 3)],
    },
    "serre-vs-dispatcher": {"failures": [f"n={n}" for n in range(17)]},
    "enumeration-vs-series": {"failures": [f"n={n}" for n in range(34)]},
    "p2-cross-route": {"failures": [f"n={n} q={q}" for n in range(17) for q in (1, 2)]},
}


@pytest.mark.parametrize("attr, fault, failing", _PLANTED, ids=_PLANTED_IDS)
def test_a_failing_report_lists_its_counters_and_failures(monkeypatch, attr, fault, failing):
    p = 2 if failing == "p2-cross-route" else 3
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    [report] = [r for r in run_verifications("all", p, 33, 0) if r.name.split(" ")[0] == failing]
    assert not report.passed
    # the key order too, as the payload prints it
    assert list(report.details.items()) == list(_FAILING_DETAILS[failing].items())
