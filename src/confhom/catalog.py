"""Generator sets and bases for the specific spaces the package computes.

Covered: unordered configurations of the plane, plane configurations with
labels in a sphere, configurations of the punctured plane, and the fixed
points of the rotation of order p.  `_plane_basis` is the plane basis, by
degree, every module uses (sized first; the verification suite sizes its
weights once and enumerates them over this catalog itself), and
`_split_plane_monomial` the one reader that knows which
generator kinds a plane monomial may hold at p: it splits a monomial into
its point-class power, its odd-class exponent and the index where the
other factors start.  Other modules build plane monomials from that split,
slicing off the other factors only where they use them (`bv.delta` its
nonzero images, through `Monomial._canonical`; `identities.bijection_image`,
through `Monomial`),
and a caller that needs only whether the odd class is present reads it with
`Monomial.contains_kind` (`verify._regime_dichotomy`); `bv._equivariant_s1`
lists the u-free monomials, as texts for the S1 JSON, by walking the
generators without the odd class.
Sphere catalogs come from closed forms, which
`signhom.verify_q_stability` checks against the bracket tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .algebra import KIND_ALPHA, KIND_BETA, KIND_IOTA, KIND_Q_IOTA, KIND_U, Prime
from .algebra import (
    Generator,
    Monomial,
    alpha_gen,
    as_prime,
    beta_gen,
    iota,
    q_iota,
    sphere_bq,
    sphere_q,
    u_class,
)
from .brackets import LabelClass, bracket_as_generator, bracket_of, leaf
from .enumeration import _monomial_bases, _plane_totals


class UnsupportedCaseError(ValueError):
    """A mathematically out-of-scope request (not an invalid argument)."""


SPACE_PLANE = "plane"
SPACE_SPHERE_LABELLED = "sphere_labelled"

_PLANE_KINDS_ODD = {KIND_IOTA, KIND_U, KIND_ALPHA, KIND_BETA}
_PLANE_KINDS_TWO = {KIND_IOTA, KIND_Q_IOTA}

# Largest plane basis enumerated before refusing: 2^20 monomials (at p = 2
# the basis passes it at weight 278).
MAX_BASIS = 1 << 20


@dataclass(frozen=True)
class SpaceSpec:
    """A space with a generator catalog: the plane, or the plane with labels
    in an m-sphere."""

    kind: str
    m: Optional[int] = None

    def validate(self, p) -> None:
        prime = as_prime(p)
        if self.kind == SPACE_SPHERE_LABELLED:
            if self.m is None or self.m < 1:
                raise ValueError("sphere dimension m >= 1 required")
            if self.m % 2 == 0 and prime.p != 2:
                raise UnsupportedCaseError(
                    f"even sphere labels (m={self.m}) are only supported at p = 2; "
                    "for odd p the labelled homology does not stabilize injectively"
                )
        elif self.kind != SPACE_PLANE:
            raise ValueError(f"unknown space kind: {self.kind}")


def plane_config_generators(p, weight_bound: int) -> list[Generator]:
    """Generators of the plane configuration algebra up to the weight bound.

    Odd p: the point class, the weight-2 odd class, and the weight-2p^i
    pairs (polynomial of degree 2p^i - 2, exterior of degree 2p^i - 1).
    p = 2: the point class and its degree-raising tower.
    """
    prime = as_prime(p)
    if weight_bound < 1:
        raise ValueError(f"weight_bound must be >= 1, got {weight_bound}")
    gens = [iota()]
    if prime.p == 2:
        i = 1
        while 2**i <= weight_bound:
            gens.append(q_iota(i))
            i += 1
    else:
        if 2 <= weight_bound:
            gens.append(u_class(prime))
        i = 1
        while 2 * prime.p**i <= weight_bound:
            gens.append(beta_gen(i, prime))
            gens.append(alpha_gen(i, prime))
            i += 1
    return gens


def _plane_basis(n: int, p, texts: bool = False) -> dict[int, list]:
    """The weight-n plane monomial basis as the enumeration walk groups it:
    {degree: monomials sorted by text}, degrees ascending, each monomial
    its text if `texts`.  Its size is read from the series first, and a
    basis of more than MAX_BASIS monomials raises ValueError instead of
    being built."""
    if n >= 0:
        _refuse_large_bases([range(n, n + 1)], p)
    gens = plane_config_generators(p, max(n, 1))
    return next(_monomial_bases(gens, range(n, n + 1), p, texts))


def _refuse_large_bases(spans: list[range], p) -> None:
    """Raise ValueError at the first weight, reading the ascending ranges
    `spans` in turn, whose plane basis has more than MAX_BASIS monomials.
    Plane totals never decrease with weight, so the list of totals grows,
    at least doubling, only while its last total is within MAX_BASIS: a
    weight past its end is then refused, and only that weight's own total
    is still to be read."""
    top = max((s[-1] for s in spans if s), default=0)
    totals = [1]
    for n in chain.from_iterable(spans):
        while n >= len(totals) and totals[-1] <= MAX_BASIS:
            totals = _plane_totals(min(max(n, 2 * len(totals)), top), p)
        total = totals[n] if n < len(totals) else _plane_totals(n, p)[n]
        if total > MAX_BASIS:
            raise ValueError(
                f"weight-{n} basis of {total} monomials exceeds the limit of {MAX_BASIS}"
            )


def _split_plane_monomial(m: Monomial, prime: Prime) -> tuple[int, int, int]:
    """Read a plane monomial as (point-class exponent k, odd-class exponent
    eps, head), the other factors being `m.factors[head:]`, unsliced; a
    generator the plane algebra at p lacks raises ValueError.  After one
    pass over the kinds, k and eps are read off the head of the factors,
    which the point class and then the odd class lead in the rank order."""
    allowed = _PLANE_KINDS_TWO if prime.p == 2 else _PLANE_KINDS_ODD
    factors = m.factors
    for g, _ in factors:
        if g.kind not in allowed:
            raise ValueError(f"not a plane-configuration monomial: {m.text()}")
    k = eps = head = 0
    if factors and factors[0][0].kind == KIND_IOTA:
        k, head = factors[0][1], 1
    if head < len(factors) and factors[head][0].kind == KIND_U:
        eps = factors[head][1]
        head += 1
    return k, eps, head


def sphere_labelled_generators(p, m: int, weight_bound: int) -> list[Generator]:
    """Generators for plane configurations with labels in an m-sphere.

    Odd p (m odd): the tower over the fundamental class, weight p^i and
    degree p^i(m+1) - 1, plus its Bockstein (degree one lower) for i >= 1.
    p = 2 (any m >= 1): the tower alone, weight 2^i and degree 2^i(m+1) - 1.
    Even m with odd p is out of scope.
    """
    prime = as_prime(p)
    SpaceSpec(SPACE_SPHERE_LABELLED, m).validate(prime)
    if weight_bound < 1:
        raise ValueError(f"weight_bound must be >= 1, got {weight_bound}")
    gens: list[Generator] = []
    i = 0
    while prime.p**i <= weight_bound:
        gens.append(sphere_q(i, m, prime))
        if prime.p != 2 and i >= 1:
            gens.append(sphere_bq(i, m, prime))
        i += 1
    gens.sort(key=lambda g: g.rank)
    return gens


def _white_bracket(j: int, p) -> Generator:
    """The iterated bracket with j black leaves and one white leaf (weight j + 1, degree j)."""
    black = leaf(LabelClass("a", 0))
    expr = leaf(LabelClass("b", 0))
    for _ in range(j):
        expr = bracket_of(black, expr)
    return bracket_as_generator(expr, p)


def punctured_plane_basis(q: int, p) -> list[Monomial]:
    """Basis of the homology of configurations of q points in the punctured plane.

    The basis is the union over j = 0..q of the iterated one-white-leaf
    bracket of degree j times the weight-(q - j) plane monomials; the
    bracket factor is kept symbolic.  Total dimension is the sum of the
    plane dimensions d(0) + ... + d(q).
    """
    prime = as_prime(p)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    out: list[Monomial] = []
    for j in range(q + 1):
        w = _white_bracket(j, prime)
        for m in chain.from_iterable(_plane_basis(q - j, prime).values()):
            out.append(Monomial(m.factors + ((w, 1),)))
    out.sort(key=Monomial.sort_key)
    return out


def fixed_point_total_dim(n: int, p) -> int:
    """Total homology dimension of the order-p rotation fixed points in
    weight n; defined when n is 0 or 1 mod p, where the fixed-point space
    is a punctured-plane configuration space of q = floor(n/p) points.
    It is read from the plane totals d(0) + ... + d(q), whose enumerated
    oracle is `punctured_plane_basis`."""
    prime = as_prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n % prime.p not in (0, 1):
        raise UnsupportedCaseError(
            f"fixed points computed only for n = 0, 1 mod p (got n={n}, p={prime.p})"
        )
    q = n // prime.p
    return sum(_plane_totals(q, prime)[: q + 1])


def generators_for(space: SpaceSpec, p, weight_bound: int) -> list[Generator]:
    """Dispatch to the generator catalog of a space."""
    space.validate(p)
    if space.kind == SPACE_PLANE:
        return plane_config_generators(p, weight_bound)
    return sphere_labelled_generators(p, space.m, weight_bound)
