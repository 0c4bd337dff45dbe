"""Combinatorial identities between the weight-graded monomial bases.

The heart is an explicit substitution of variables turning the bases of
weights p*q and q+1 into the basis of weight p(q+1), a vector-space (not
graded) bijection.  With it come the trichotomy classifying every monomial
of a fixed weight, and the resulting dimension identity

    d(p*q) = d(q) + d(q-1) + ... + d(0),    d(p*q + 1) = d(p*q).

All of these are verified by exhaustive enumeration over the stated
ranges rather than trusted.
"""

from __future__ import annotations

from enum import Enum

from .algebra import (
    KIND_ALPHA,
    KIND_BETA,
    Monomial,
    alpha_gen,
    as_prime,
    beta_gen,
    iota,
    q_iota,
    u_class,
)
from .catalog import _plane_basis, _split_plane_monomial
from .enumeration import _plane_totals, total_dim
from .reports import VerifyReport


class MonomialForm(Enum):
    DIVISIBLE_BY_IOTA_P = "divisible_by_iota_p"
    IOTA_POWER_TIMES_ALPHA_BETA = "iota_power_times_alpha_beta"
    IOTA_POWER_U_TIMES_ALPHA_BETA = "iota_power_u_times_alpha_beta"


SOURCE_WEIGHT_PQ = "weight_pq"
SOURCE_WEIGHT_Q_PLUS_1 = "weight_q_plus_1"


class InvariantViolation(RuntimeError):
    """A structural fact the classification proof guarantees failed to hold."""


def bijection_image(m: Monomial, source: str, p, q: int) -> Monomial:
    """Image of a basis monomial under the weight-shifting substitution.

    From weight p*q the monomial is multiplied by the p-th power of the
    point class.  From weight q+1 the substitution raises every tower
    letter by one level, sends the weight-2 odd class to the first
    exterior tower letter, and expands the point-class power k as
    b1^l (k = 2l) or b1^l u i^(p-2) (k = 2l + 1); at p = 2 the point class
    maps to the first tower letter instead.  No signs are tracked: the map
    is a bijection of basis monomials, not a graded algebra map.
    """
    prime = as_prime(p)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if source not in (SOURCE_WEIGHT_PQ, SOURCE_WEIGHT_Q_PLUS_1):
        raise ValueError(f"unknown source {source!r}")
    weight = prime.p * q if source == SOURCE_WEIGHT_PQ else q + 1
    if m.weight != weight:
        raise ValueError(f"expected weight {weight}, got {m.weight}")
    k, eps, head = _split_plane_monomial(m, prime)
    if source == SOURCE_WEIGHT_PQ:
        return Monomial(m.factors + ((iota(), prime.p),))
    factors: list[tuple] = [(alpha_gen(1, prime), eps)] if eps else []
    for g, e in m.factors[head:]:
        if g.kind == KIND_ALPHA:
            factors.append((alpha_gen(g.index + 1, prime), e))
        elif g.kind == KIND_BETA:
            factors.append((beta_gen(g.index + 1, prime), e))
        else:
            factors.append((q_iota(g.index + 1), e))
    if prime.p == 2:
        if k:
            factors.append((q_iota(1), k))
    else:
        l, r = divmod(k, 2)
        if l:
            factors.append((beta_gen(1, prime), l))
        if r:
            factors.append((u_class(prime), 1))
            factors.append((iota(), prime.p - 2))
    image = Monomial(factors)
    if image.weight != prime.p * (q + 1):
        raise InvariantViolation(
            f"substitution image of {m.text()} has weight {image.weight}, "
            f"expected {prime.p * (q + 1)}"
        )
    return image


def verify_bijection(p, q: int) -> VerifyReport:
    """Apply the substitution to both source bases and check it is a bijection
    onto the weight-p(q+1) basis.  A source monomial whose image breaks an
    invariant of the substitution is a failure of this q, listed under
    `failures` (a key only a failed report has)."""
    prime = as_prime(p)
    src_pq = [m for ms in _plane_basis(prime.p * q, prime).values() for m in ms]
    src_q1 = [m for ms in _plane_basis(q + 1, prime).values() for m in ms]
    return _bijection(prime, q, src_pq, src_q1, total_dim(prime.p * (q + 1), prime))


def _bijection(prime, q: int, src_pq: list, src_q1: list, expected: int) -> VerifyReport:
    """`verify_bijection` from the two source bases and the dimension
    `expected` of the target weight p(q+1)."""
    target_weight = prime.p * (q + 1)
    images: list[Monomial] = []
    bad: list[str] = []
    for source, basis in ((SOURCE_WEIGHT_PQ, src_pq), (SOURCE_WEIGHT_Q_PLUS_1, src_q1)):
        for m in basis:
            try:
                images.append(bijection_image(m, source, prime, q))
            except InvariantViolation as exc:
                bad.append(f"{m.text()}: {exc}")
    weights_ok = all(im.weight == target_weight for im in images)
    injective = len(set(images)) == len(images)
    surjective = injective and weights_ok and len(images) == expected
    details = {
        "injective": injective,
        "surjective": surjective,
        "counts": {
            "weight_pq_source": len(src_pq),
            "weight_q_plus_1_source": len(src_q1),
            "images": len(images),
            "target_dim": expected,
        },
    }
    if bad:
        details["failures"] = bad[:10]
    return VerifyReport(
        name=f"bijection p={prime.p} q={q}",
        passed=injective and surjective and weights_ok and not bad,
        details=details,
    )


def classify_monomial(m: Monomial, p, n: int) -> MonomialForm:
    """Classify a weight-n basis monomial into the trichotomy.

    Priority: divisible by the p-th power of the point class; else u-free
    with point-class exponent n mod p; else carrying u with point-class
    exponent (n - 2) mod p.  The classification is total; a monomial
    fitting no form raises InvariantViolation (which must never happen).
    """
    prime = as_prime(p)
    if m.weight != n:
        raise ValueError(f"monomial has weight {m.weight}, expected {n}")
    k, eps, _ = _split_plane_monomial(m, prime)
    if k >= prime.p:
        return MonomialForm.DIVISIBLE_BY_IOTA_P
    if eps == 0:
        if k != n % prime.p:
            raise InvariantViolation(
                f"u-free monomial {m.text()} has point-class exponent {k}, expected {n % prime.p}"
            )
        return MonomialForm.IOTA_POWER_TIMES_ALPHA_BETA
    if k != (n - 2) % prime.p:
        raise InvariantViolation(
            f"monomial {m.text()} has point-class exponent {k}, expected {(n - 2) % prime.p}"
        )
    return MonomialForm.IOTA_POWER_U_TIMES_ALPHA_BETA


def verify_dimension_identity(p, q_max: int) -> VerifyReport:
    """Check d(p*q) = d(q) + ... + d(0) and d(p*q + 1) = d(p*q) for q <= q_max."""
    prime = as_prime(p)
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    totals = _plane_totals(prime.p * q_max + 1, prime)
    rows = []
    ok = True
    partial = 0
    for q in range(q_max + 1):
        partial += totals[q]
        d_pq, d_pq1 = totals[prime.p * q], totals[prime.p * q + 1]
        good = d_pq == partial and d_pq1 == d_pq
        ok = ok and good
        rows.append(
            {"q": q, "d_pq": d_pq, "partial_sum": partial, "d_pq_plus_1": d_pq1, "ok": good}
        )
    return VerifyReport(
        name=f"dimension-identity p={prime.p} q<={q_max}",
        passed=ok,
        details={"rows": rows},
    )
