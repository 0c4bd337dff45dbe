"""Exhaustible cross-checks wiring the independent computation routes together.

Every check here compares two ways of getting the same numbers: the BV
operator against its square and gradings, matrix ranks against monomial
counts, the spectral-sequence page against the equivariant dispatcher's
series (the dims the `equivariant` command prints), generating functions
against explicit enumeration, and the two mod-2 routes against each other.
Checks report failures instead of raising.

The checks that read the weight-n plane basis are steps of one sweep:
`run_verifications` walks n = 0..max_n once, takes each weight's basis,
grouped by degree, from one enumeration walk over the weights
(`_monomial_bases`, which builds the products of the heavier generators
once and keeps only those), hands it to every step that reads weight n,
then drops it, so no basis outlives its weight.  Sharing it merges no
oracle: each step still compares its own two routes (the matrix rank
against the u-free count, the page against the dispatcher's series, the
enumerated degrees against the series; the sign slices that check counts
come from a walk of its own over the 1-sphere catalog, which files only
texts, as counting reads no more).  Each step
carries its own report (name, work counters and failure list), and one
method, `_Step.report`, writes every swept report.
Each public `verify_*` function of a swept check is a sweep with that one
step.  Outside the sweep, the bijection enumerates each distinct source
weight (p * q or q + 1) once and hands that list to every q that reads it.
The sizes of every basis a run will enumerate are checked once, before any
check runs.

The count side is built once per run too: each Hilbert-series table (the
plane, each sphere dimension of the sign and mod-2 routes, each q of the
q-stability check, the dispatcher's tensor and cokernel tables) is expanded
once up to its step's largest weight, and weight n reads row n.  Every
table lives as long as the run; each oracle still builds its own, so no
route reads another's numbers (at p = 2 the serre and mod-2 steps share
the dispatcher's, the one answer both compare their routes with).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable

from .algebra import KIND_U, as_prime
from .bv import (
    _CircleAnswer,
    _equivariant_s1_dims,
    _serre_e3,
    collapse_total_degree,
    delta,
    delta_element,
    delta_matrix,
)
from .catalog import MAX_BASIS, _refuse_large_bases
from .catalog import plane_config_generators, sphere_labelled_generators
from .enumeration import GradedDims, _check_total_weight, _complete_table
from .enumeration import _monomial_bases, _plane_totals, monomial_basis
from .identities import _bijection, classify_monomial, verify_dimension_identity
from .reports import VerifyReport
from .signhom import _answers_by_weight, _q_stability, _shifted_table

VERIFY_TARGETS = (
    "delta2",
    "dimension-identity",
    "bijection",
    "classify",
    "stability",
    "cross-route",
    "all",
)


@dataclass
class _Step:
    """One swept check and its report.  `visit(step, n, by_deg)` is fed the
    weight-n plane basis, grouped by degree as the walk hands it out, for
    each n <= bound; it appends to `failures` and adds to the work
    `counters`.  The report lists the counters, then the first `listed`
    failures (all of them when None)."""

    name: str
    bound: int
    visit: Callable[["_Step", int, dict], None]
    listed: int | None = None
    counters: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def report(self) -> VerifyReport:
        details = {**self.counters, "failures": self.failures[: self.listed]}
        return VerifyReport(self.name, not self.failures, details)


def _sweep(prime, steps: list[_Step]) -> None:
    """Feed each weight's plane basis, from one walk over the weights, to
    every step bounded at or above it, and drop it before the next weight
    is built; the caller has sized every swept basis."""
    top = max((s.bound for s in steps), default=-1)
    gens = plane_config_generators(prime, max(top, 1))
    bases = _monomial_bases(gens, range(top + 1), prime)
    for n in range(top + 1):
        by_deg = next(bases)
        for s in steps:
            if n <= s.bound:
                s.visit(s, n, by_deg)
        del by_deg


def _sweep_one(p, check: Callable[..., _Step], max_n: int) -> VerifyReport:
    """One swept check on its own: the bases of weights 0..max_n are sized
    before its step is made, then swept."""
    prime = as_prime(p)
    _refuse_large_bases([range(max_n + 1)], prime)
    step = check(prime, max_n)
    _sweep(prime, [step])
    return step.report()


def _delta_squared(prime, max_n: int) -> _Step:
    def visit(step, n, by_deg):
        step.counters["monomials_checked"] += sum(map(len, by_deg.values()))
        for m in chain.from_iterable(by_deg.values()):
            image = delta(m, prime)
            for mm in image.terms:
                if mm.weight != m.weight or mm.degree != m.degree + 1:
                    step.failures.append(f"grading broken at {m.text()}")
            if not delta_element(image).is_zero():
                step.failures.append(f"square nonzero at {m.text()}")

    return _Step(f"delta2 p={prime.p} n<={max_n}", max_n, visit, 10, {"monomials_checked": 0})


def verify_delta_squared(p, max_n: int) -> VerifyReport:
    """Delta o Delta = 0 on every monomial of weight <= max_n, and Delta
    preserves weight while raising degree by exactly one."""
    return _sweep_one(p, _delta_squared, max_n)


def _coker_dims_by_rank(by_deg: dict[int, list], mats: dict) -> GradedDims:
    """Cokernel dimensions of the operator by degree, from the ranks of its
    matrices `mats[d]` out of each nonempty degree d."""
    out: dict[int, int] = {}
    for d, basis in by_deg.items():
        rank_in = mats[d - 1].rank() if d - 1 in mats else 0
        out[d] = len(basis) - rank_in
    return GradedDims(out)


def _regime_dichotomy(prime, max_n: int) -> _Step:
    def visit(step, n, by_deg):
        mats = {d: delta_matrix(n, prime, d, by_deg) for d in by_deg}
        all_zero = all(mat.is_zero() for mat in mats.values())
        expect_zero = n % prime.p in (0, 1)
        if all_zero != expect_zero:
            step.failures.append(f"n={n}: matrix zero={all_zero}, expected {expect_zero}")
            return
        if expect_zero:
            return
        u_free = {d: sum(not m.contains_kind(KIND_U) for m in ms) for d, ms in by_deg.items()}
        free, total = sum(u_free.values()), sum(map(len, by_deg.values()))
        if 2 * free != total:
            step.failures.append(f"n={n}: u-free {free} != u-carrying {total - free}")
        if _coker_dims_by_rank(by_deg, mats) != GradedDims(u_free):
            step.failures.append(f"n={n}: rank cokernel != u-free counts")

    return _Step(f"regime-dichotomy p={prime.p} n<={max_n}", max_n, visit, 10)


def verify_regime_dichotomy(p, max_n: int) -> VerifyReport:
    """The operator's matrix vanishes exactly when n is 0 or 1 mod p, and in
    the other regime the rank-computed cokernel equals the count of u-free
    monomials per degree (with u-free and u-carrying monomials equinumerous)."""
    return _sweep_one(p, _regime_dichotomy, max_n)


def _serre_agreement(prime, max_n: int, dispatcher: dict | None = None) -> _Step:
    # the dispatcher's dims of each n <= max_n, read here unless the run shares them
    dispatcher = dispatcher or _equivariant_s1_dims(range(max_n + 1), prime, None)

    def visit(step, n, by_deg):
        e3 = _serre_e3(n, prime, by_deg, None)
        try:
            page = collapse_total_degree(e3)
        except ValueError as exc:
            step.failures.append(f"n={n}: {exc}")
            return
        want = dispatcher[n]
        if page != (want.expand() if type(want) is _CircleAnswer else want):
            step.failures.append(f"n={n}")

    return _Step(f"serre-vs-dispatcher p={prime.p} n<={max_n}", max_n, visit)


def verify_serre_agreement(p, max_n: int) -> VerifyReport:
    """The spectral-sequence page, collapsed by total degree, matches the
    dispatcher's series in both regimes.  A page with a negative cell (a
    rank above its degree's dimension) is a failure of that n."""
    return _sweep_one(p, _serre_agreement, max_n)


def _series_agreement(prime, max_n: int) -> _Step:
    top = max(max_n, 0)
    plane = _complete_table(plane_config_generators(prime, max(top, 1)), range(top + 1), prime)
    sign = _shifted_table(prime, 1, range(top + 1))
    # the sweep visits n = 0..max_n in turn, each reading the walk's next basis
    labelled = sphere_labelled_generators(prime, 1, max(top, 1))
    labelled_bases = _monomial_bases(labelled, range(top + 1), prime, texts=True)

    def visit(step, n, by_deg):
        counted = GradedDims({d: len(ms) for d, ms in by_deg.items()})
        if counted != plane[n]:
            step.failures.append(f"n={n}")
        enumerated = GradedDims({d - n: len(ms) for d, ms in next(labelled_bases).items()})
        if sign[n] != enumerated:
            step.failures.append(f"n={n} sign slice")

    return _Step(f"enumeration-vs-series p={prime.p} n<={max_n}", max_n, visit)


def verify_series_agreement(p, max_n: int) -> VerifyReport:
    """Explicit enumeration equals the generating-function coefficients: on
    the plane algebra (the swept basis counted by degree), and on the
    shifted weight slice over labels in the 1-sphere behind the sign answers
    (other sphere dimensions are compared with it by the q-stability and
    mod-2 cross-route checks)."""
    return _sweep_one(p, _series_agreement, max_n)


def _classify_total(prime, max_n: int) -> _Step:
    def visit(step, n, by_deg):
        for m in chain.from_iterable(by_deg.values()):
            try:
                classify_monomial(m, prime, n)
                step.counters["monomials_checked"] += 1
            except Exception as exc:  # noqa: BLE001 - report, don't raise
                step.failures.append(f"n={n} {m.text()}: {exc}")

    name = f"classify-total p={prime.p} n<={max_n}"
    return _Step(name, max_n, visit, 10, {"monomials_checked": 0})


def verify_classify_total(p, max_n: int) -> VerifyReport:
    """The trichotomy classifies every basis monomial without violations."""
    return _sweep_one(p, _classify_total, max_n)


def verify_fixed_points(p, max_n: int) -> VerifyReport:
    """Fixed-point total dimension equals the ambient total dimension for
    every n = 0, 1 mod p up to max_n: the plane total d(n) against the
    punctured-plane total d(0) + ... + d(n // p), both read from one list
    of plane totals (`fixed_point_total_dim` reads the same sum)."""
    prime = as_prime(p)
    totals = _plane_totals(max(max_n, 0), prime)
    prefix = list(accumulate(totals[: len(totals) // prime.p + 1]))
    cases = [n for n in range(max_n + 1) if n % prime.p in (0, 1)]
    bad = [f"n={n}" for n in cases if prefix[n // prime.p] != totals[n]]
    return VerifyReport(
        name=f"fixed-points p={prime.p} n<={max_n}",
        passed=not bad,
        details={"cases": len(cases), "failures": bad},
    )


def _p2_routes(prime, max_n: int, dispatcher: dict | None = None) -> _Step:
    # `trivial_rep_homology_p2(n, q)` for every n, over sphere labels of dimension 2q
    routes = {q: _answers_by_weight(prime, 2 * q, range(max(max_n, 0) + 1)) for q in (1, 2)}
    dispatcher = dispatcher or _equivariant_s1_dims(range(max_n + 1), prime, None)

    def visit(step, n, by_deg):
        for q, answers in routes.items():
            if answers[n] != dispatcher[n]:
                step.failures.append(f"n={n} q={q}")

    return _Step(f"p2-cross-route n<={max_n}", max_n, visit)


def verify_p2_routes(max_n: int) -> VerifyReport:
    """At p = 2 the labelled-configuration route (2- and 4-spheres) equals the dispatcher's series."""
    return _sweep_one(2, _p2_routes, max_n)


def run_verifications(target: str, p, max_n: int = 24, max_q: int = 4) -> list[VerifyReport]:
    """Run one named verification target (or `all`) and collect its reports.

    The checks that read the plane basis share one sweep over n = 0..max_n;
    the spectral-sequence and mod-2 checks stop at min(max_n, 16), the
    q-stability reports at min(max_n, 12).  Each of these raises ValueError
    before any check runs, in this order: a bijection target weight
    p * (max_q + 1) past the plane totals' limit; a plane basis above
    MAX_BASIS that the target would enumerate, naming the weight where the
    run would stop; more than MAX_BASIS (weight, q) pairs of q-stability."""
    prime = as_prime(p)
    if target not in VERIFY_TARGETS:
        raise ValueError(f"unknown verify target {target!r}")
    if max_n < 0 or max_q < 0:
        raise ValueError(f"max_n and max_q must be >= 0, got {max_n} and {max_q}")
    want = lambda name: target in (name, "all")
    if want("bijection"):
        _check_total_weight(prime.p * (max_q + 1))
    # The bijection's weight-pq sources (its q + 1 sources are never heavier)
    # come first, then the sweep's weights.
    sweeps = any(map(want, ("delta2", "classify", "cross-route")))
    _refuse_large_bases([
        range(0, prime.p * max_q + 1, prime.p) if want("bijection") else range(0),
        range(max_n + 1) if sweeps else range(0),
    ], prime)
    stable_ns = range(min(max_n, 12) + 1)
    pairs = len(stable_ns) * (max_q + 1)
    if want("stability") and pairs > MAX_BASIS:
        raise ValueError(
            f"q-stability of {pairs} (weight, q) pairs exceeds the limit of {MAX_BASIS}"
        )
    # Reports in their final order, with each swept check's step standing in
    # for its report until the sweep has filled it.
    plan: list = []
    if want("delta2"):
        plan.append(_delta_squared(prime, max_n))
    if want("dimension-identity"):
        plan.append(verify_dimension_identity(prime, max_q))
        plan.append(verify_fixed_points(prime, max_n))
    if want("bijection"):
        # every target dimension is read from one list of totals
        totals = _plane_totals(prime.p * (max_q + 1), prime)
        # one catalog serves every source: none is heavier than weight p * max_q
        plane = plane_config_generators(prime, max(prime.p * max_q, 1))
        # each source weight is enumerated once, and dropped after the last q that reads it
        last_reader = {w: q for q in range(max_q + 1) for w in (prime.p * q, q + 1)}
        sources: dict[int, list] = {}
        for q in range(max_q + 1):
            weights = (prime.p * q, q + 1)
            for w in weights:
                if w not in sources:
                    sources[w] = monomial_basis(plane, w, prime)
            src_pq, src_q1 = map(sources.get, weights)
            plan.append(_bijection(prime, q, src_pq, src_q1, totals[prime.p * (q + 1)]))
            for w in weights:
                if last_reader[w] == q:
                    sources.pop(w, None)
    if want("classify"):
        plan.append(_classify_total(prime, max_n))
    if want("stability"):
        plan += _q_stability(stable_ns, prime, list(range(max_q + 1)))
    if want("cross-route"):
        low = min(max_n, 16)
        dispatcher = _equivariant_s1_dims(range(low + 1), prime, None)
        plan.append(_regime_dichotomy(prime, max_n))
        plan.append(_serre_agreement(prime, low, dispatcher))
        plan.append(_series_agreement(prime, max_n))
        if prime.p == 2:
            plan.append(_p2_routes(prime, low, dispatcher))
    _sweep(prime, [s for s in plan if isinstance(s, _Step)])
    return [s.report() if isinstance(s, _Step) else s for s in plan]
