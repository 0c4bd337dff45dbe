"""Homology of braid-group central quotients with sign (or mod-2 trivial) coefficients.

The computation goes through fiberwise labelled configuration spaces: the
weight-n piece of the sphere-labelled configuration algebra, with every
degree shifted down by n times the sphere dimension, computes the local
homology of the braid quotient, and the line-bundle fibration contributes
a polynomial circle-classifying-space factor.  The shifted generator
degrees are p^i - 1 and p^i - 2, independent of the sphere parameter q;
`verify_q_stability` checks that independence on the computed answers, and
checks the closed-form generators against the tower built from basic
brackets, a route that does not know the closed forms.

A weight-n monomial's degree drops by n * sphere_dim exactly when each
generator's degree drops by sphere_dim times its weight, so the slice is
read off the Hilbert series of the shifted generators without enumerating
the basis; `verify_series_agreement` compares it with the enumerated basis.
Squaring rules in the shifted slice follow the unshifted degrees (the
generators keep their exterior flags): the shift is bookkeeping, not an
algebra map.
"""

from __future__ import annotations

from dataclasses import replace

from .algebra import as_prime
from .brackets import LabelClass, cohen_generators, enumerate_basic_brackets
from .bv import _degree_bound
from .catalog import sphere_labelled_generators
from .enumeration import GradedDims, series_coefficient
from .reports import VerifyReport


def shifted_weight_slice(n: int, p, sphere_dim: int) -> GradedDims:
    """Weight-n slice of the algebra over labels in a sphere of dimension
    sphere_dim (2q+1 for sign coefficients, 2q for the mod-2 trivial route),
    degrees shifted down by n * sphere_dim."""
    prime = as_prime(p)
    shifted = [
        replace(g, degree=g.degree - sphere_dim * g.weight)
        for g in sphere_labelled_generators(prime, sphere_dim, max(n, 1))
    ]
    return series_coefficient(shifted, n, None, prime)


def sign_rep_homology(n: int, p, q: int, degree_bound: int | None = None) -> GradedDims:
    """Homology of the weight-n braid central quotient with sign coefficients.

    Computed from odd-dimensional sphere labels (dimension 2q + 1) as the
    shifted weight-n slice tensored with the circle-classifying-space
    series, truncated at degree_bound.  Any q >= 0 gives the same answer;
    at p = 2 the sign representation is the trivial one.  A degree_bound
    above MAX_BASIS raises ValueError.
    """
    prime = as_prime(p)
    if n < 0 or q < 0:
        raise ValueError("n and q must be >= 0")
    degree_bound = _degree_bound(n, degree_bound)
    return shifted_weight_slice(n, prime, 2 * q + 1).convolve_geometric(2, degree_bound)


def trivial_rep_homology_p2(n: int, q: int, degree_bound: int | None = None) -> GradedDims:
    """Mod-2 homology of the weight-n braid central quotient, via
    even-dimensional sphere labels (dimension 2q, q >= 1).

    This is the labelled-configuration route to the same answer as the
    circle-equivariant dispatcher at p = 2; the two are compared in the
    verification suite.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if q < 1:
        raise ValueError(f"q must be >= 1 for even sphere labels, got {q}")
    degree_bound = _degree_bound(n, degree_bound)
    return shifted_weight_slice(n, 2, 2 * q).convolve_geometric(2, degree_bound)


def _closed_forms_match_tower(n: int, p, sphere_dim: int) -> bool:
    """Closed-form sphere generators up to weight max(n, 1) against the tower
    built from basic brackets, compared as (weight, degree, exterior)
    multisets."""
    labels = enumerate_basic_brackets([LabelClass("s", sphere_dim)], 1, p)
    tower = cohen_generators(labels, p, max(n, 1))
    closed = sphere_labelled_generators(p, sphere_dim, max(n, 1))
    return sorted((g.weight, g.degree, g.exterior) for g in closed) == sorted(
        (g.weight, g.degree, g.exterior) for g in tower
    )


def verify_q_stability(n: int, p, q_list) -> VerifyReport:
    """Check the sign-coefficient answer is the same for every q in q_list,
    and that the closed-form generators behind each q match the bracket tower.

    A q is mismatching when its answer differs from the first q's, or when
    its closed forms disagree with the tower.
    """
    qs = list(q_list)
    if not qs:
        raise ValueError("q_list must be nonempty")
    prime = as_prime(p)
    answers = {q: sign_rep_homology(n, prime, q) for q in qs}
    first = answers[qs[0]]
    mismatching = [
        q
        for q, a in answers.items()
        if a != first or not _closed_forms_match_tower(n, prime, 2 * q + 1)
    ]
    return VerifyReport(
        name=f"q-stability n={n} p={prime.p} q={qs}",
        passed=not mismatching,
        details={"dims": first.to_pairs(), "mismatching_q": mismatching},
    )
