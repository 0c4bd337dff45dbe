"""Exhaustible cross-checks wiring the independent computation routes together.

Every check here compares two ways of getting the same numbers: the BV
operator against its square and gradings, matrix ranks against monomial
counts, the spectral-sequence page against the equivariant dispatcher,
generating functions against explicit enumeration, and the two mod-2
routes against each other.  Checks report failures instead of raising.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import KIND_U, as_prime
from .bv import (
    collapse_total_degree,
    delta,
    delta_element,
    delta_matrix,
    equivariant_s1,
    serre_e3,
)
from .catalog import _plane_basis, plane_config_generators, sphere_labelled_generators
from .enumeration import GradedDims, _by_degree, _plane_totals, monomial_basis, poincare
from .enumeration import series_coefficient
from .identities import classify_monomial, verify_bijection, verify_dimension_identity
from .reports import VerifyReport
from .signhom import shifted_weight_slice, trivial_rep_homology_p2, verify_q_stability

VERIFY_TARGETS = (
    "delta2",
    "dimension-identity",
    "bijection",
    "classify",
    "stability",
    "cross-route",
    "all",
)


def verify_delta_squared(p, max_n: int) -> VerifyReport:
    """Delta o Delta = 0 on every monomial of weight <= max_n, and Delta
    preserves weight while raising degree by exactly one."""
    prime = as_prime(p)
    checked = 0
    bad: list[str] = []
    for n in range(max_n + 1):
        for m in _plane_basis(n, prime):
            image = delta(m, prime)
            checked += 1
            for mm in image.terms:
                if mm.weight != m.weight or mm.degree != m.degree + 1:
                    bad.append(f"grading broken at {m.text()}")
            if not delta_element(image).is_zero():
                bad.append(f"square nonzero at {m.text()}")
    return VerifyReport(
        name=f"delta2 p={prime.p} n<={max_n}",
        passed=not bad,
        details={"monomials_checked": checked, "failures": bad[:10]},
    )


def _coker_dims_by_rank(by_deg: dict[int, list], mats: dict) -> GradedDims:
    """Cokernel dimensions of the operator by degree, from the ranks of its
    matrices `mats[d]` out of each nonempty degree d."""
    out: dict[int, int] = {}
    for d, basis in by_deg.items():
        rank_in = mats[d - 1].rank() if d - 1 in mats else 0
        out[d] = len(basis) - rank_in
    return GradedDims(out)


def verify_regime_dichotomy(p, max_n: int) -> VerifyReport:
    """The operator's matrix vanishes exactly when n is 0 or 1 mod p, and in
    the other regime the rank-computed cokernel equals the count of u-free
    monomials per degree (with u-free and u-carrying monomials equinumerous)."""
    prime = as_prime(p)
    bad: list[str] = []
    for n in range(max_n + 1):
        mons = _plane_basis(n, prime)
        by_deg = _by_degree(mons)
        mats = {d: delta_matrix(n, prime, d, by_deg) for d in by_deg}
        all_zero = all(mat.is_zero() for mat in mats.values())
        expect_zero = n % prime.p in (0, 1)
        if all_zero != expect_zero:
            bad.append(f"n={n}: matrix zero={all_zero}, expected {expect_zero}")
            continue
        if expect_zero:
            continue
        u_free = [m for m in mons if not m.contains_kind(KIND_U)]
        u_carrying = [m for m in mons if m.contains_kind(KIND_U)]
        if len(u_free) != len(u_carrying):
            bad.append(f"n={n}: u-free {len(u_free)} != u-carrying {len(u_carrying)}")
        if _coker_dims_by_rank(by_deg, mats) != GradedDims.of_degrees(m.degree for m in u_free):
            bad.append(f"n={n}: rank cokernel != u-free counts")
    return VerifyReport(
        name=f"regime-dichotomy p={prime.p} n<={max_n}",
        passed=not bad,
        details={"failures": bad[:10]},
    )


def verify_serre_agreement(p, max_n: int) -> VerifyReport:
    """The spectral-sequence page, collapsed by total degree, matches the
    equivariant dispatcher in both regimes.  A page with a negative cell
    (a rank above its degree's dimension) is a failure of that n."""
    prime = as_prime(p)
    bad: list[str] = []
    for n in range(max_n + 1):
        e3 = serre_e3(n, prime)
        try:
            page = collapse_total_degree(e3)
        except ValueError as exc:
            bad.append(f"n={n}: {exc}")
            continue
        answer = equivariant_s1(n, prime).dims
        if page != answer:
            bad.append(f"n={n}")
    return VerifyReport(
        name=f"serre-vs-dispatcher p={prime.p} n<={max_n}",
        passed=not bad,
        details={"failures": bad},
    )


def verify_series_agreement(p, max_n: int) -> VerifyReport:
    """Explicit enumeration equals the generating-function coefficients: on
    the plane algebra, and on the shifted weight slice over labels in the
    1-sphere behind the sign answers (other sphere dimensions are compared
    with it by the q-stability and mod-2 cross-route checks)."""
    prime = as_prime(p)
    bad: list[str] = []
    for n in range(max_n + 1):
        gens = plane_config_generators(prime, max(n, 1))
        if poincare(gens, n, prime) != series_coefficient(gens, n, None, prime):
            bad.append(f"n={n}")
        labelled = sphere_labelled_generators(prime, 1, max(n, 1))
        enumerated = GradedDims.of_degrees(
            m.degree - n for m in monomial_basis(labelled, n, prime)
        )
        if shifted_weight_slice(n, prime, 1) != enumerated:
            bad.append(f"n={n} sign slice")
    return VerifyReport(
        name=f"enumeration-vs-series p={prime.p} n<={max_n}",
        passed=not bad,
        details={"failures": bad},
    )


def verify_classify_total(p, max_n: int) -> VerifyReport:
    """The trichotomy classifies every basis monomial without violations."""
    prime = as_prime(p)
    checked = 0
    bad: list[str] = []
    for n in range(max_n + 1):
        for m in _plane_basis(n, prime):
            try:
                classify_monomial(m, prime, n)
                checked += 1
            except Exception as exc:  # noqa: BLE001 - report, don't raise
                bad.append(f"n={n} {m.text()}: {exc}")
    return VerifyReport(
        name=f"classify-total p={prime.p} n<={max_n}",
        passed=not bad,
        details={"monomials_checked": checked, "failures": bad[:10]},
    )


def verify_fixed_points(p, max_n: int) -> VerifyReport:
    """Fixed-point total dimension equals the ambient total dimension for
    every n = 0, 1 mod p up to max_n: the plane total d(n) against the
    punctured-plane total d(0) + ... + d(n // p), both read from one list
    of plane totals (`fixed_point_total_dim` reads the same sum)."""
    prime = as_prime(p)
    totals = _plane_totals(max(max_n, 0), prime)
    prefix = list(accumulate(totals[: len(totals) // prime.p + 1]))
    bad: list[str] = []
    count = 0
    for n in range(max_n + 1):
        if n % prime.p not in (0, 1):
            continue
        count += 1
        if prefix[n // prime.p] != totals[n]:
            bad.append(f"n={n}")
    return VerifyReport(
        name=f"fixed-points p={prime.p} n<={max_n}",
        passed=not bad,
        details={"cases": count, "failures": bad},
    )


def verify_p2_routes(max_n: int, q_list=(1, 2)) -> VerifyReport:
    """At p = 2 the labelled-configuration route equals the equivariant one."""
    bad: list[str] = []
    for n in range(max_n + 1):
        expected = equivariant_s1(n, 2).dims
        for q in q_list:
            if trivial_rep_homology_p2(n, q) != expected:
                bad.append(f"n={n} q={q}")
    return VerifyReport(
        name=f"p2-cross-route n<={max_n}",
        passed=not bad,
        details={"failures": bad},
    )


def run_verifications(target: str, p, max_n: int = 24, max_q: int = 4) -> list[VerifyReport]:
    """Run one named verification target (or `all`) and collect its reports."""
    prime = as_prime(p)
    if target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verify target {target!r}")
    if max_n < 0 or max_q < 0:
        raise ValueError(f"max_n and max_q must be >= 0, got {max_n} and {max_q}")
    reports: list[VerifyReport] = []
    want = lambda name: target in (name, "all")
    if want("delta2"):
        reports.append(verify_delta_squared(prime, max_n))
    if want("dimension-identity"):
        reports.append(verify_dimension_identity(prime, max_q))
        reports.append(verify_fixed_points(prime, max_n))
    if want("bijection"):
        for q in range(max_q + 1):
            reports.append(verify_bijection(prime, q))
    if want("classify"):
        reports.append(verify_classify_total(prime, max_n))
    if want("stability"):
        for n in range(min(max_n, 12) + 1):
            reports.append(verify_q_stability(n, prime, list(range(max_q + 1))))
    if want("cross-route"):
        reports.append(verify_regime_dichotomy(prime, max_n))
        reports.append(verify_serre_agreement(prime, min(max_n, 16)))
        reports.append(verify_series_agreement(prime, max_n))
        if prime.p == 2:
            reports.append(verify_p2_routes(min(max_n, 16)))
    return reports
