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

One series table holds the slice of each weight n it is read at as its
row n, built by `bv._rows_times_circle` (shared with S1 and Zp) only
through the highest degree bound read.  Each answer is that row times the
circle, a `bv._CircleAnswer`: the public functions return its expansion,
the CLI writes its pairs from the row in every format, and the q-stability
and mod-2 checks compare rows through the bound, an exact test of them.
So the verification suite builds one table per sphere dimension and run,
and the q-stability check builds one table, one closed-form catalog and
one bracket tower per q for all its weights (`_q_stability`).
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

from .algebra import _shared, as_prime
from .brackets import LabelClass, cohen_generators, enumerate_basic_brackets
from .bv import _CircleAnswer, _rows_times_circle
from .catalog import sphere_labelled_generators
from .enumeration import GradedDims, _complete_table
from .reports import VerifyReport

# What the closed forms and the bracket tower must agree on, generator by generator.
_CATALOG_KEY = attrgetter("weight", "degree", "exterior")


def _shifted_generators(prime, sphere_dim: int, max_n: int) -> list:
    """The generators over labels in a sphere of dimension sphere_dim, to
    weight max(max_n, 1), each degree shifted down by sphere_dim * weight."""
    gens = sphere_labelled_generators(prime, sphere_dim, max(max_n, 1))
    return [_shifted(g, sphere_dim) for g in gens]


@_shared
def _shifted(g, sphere_dim: int):
    """g with its degree down by sphere_dim * weight, shared as g is."""
    return replace(g, degree=g.degree - sphere_dim * g.weight)


def _shifted_table(prime, sphere_dim: int, ns: range) -> dict[int, GradedDims]:
    """The slices ns of their series: slice n is `shifted_weight_slice(n, prime, sphere_dim)`."""
    return _complete_table(_shifted_generators(prime, sphere_dim, ns[-1]), ns, prime)


def shifted_weight_slice(n: int, p, sphere_dim: int) -> GradedDims:
    """Weight-n slice of the algebra over labels in a sphere of dimension
    sphere_dim (2q+1 for sign coefficients, 2q for the mod-2 trivial route),
    degrees shifted down by n * sphere_dim."""
    return _shifted_table(as_prime(p), sphere_dim, range(n, n + 1))[n]


def _answers_by_weight(
    prime, sphere_dim: int, ns: range, degree_bound: int | None = None
) -> dict[int, _CircleAnswer]:
    """The answer of each weight n in ns at degree_bound (the default for
    None) over labels in a sphere of dimension sphere_dim (odd: sign, even:
    mod-2 trivial): row n of the shifted series tensored with the
    circle-classifying-space series, through `_rows_times_circle`."""
    gens = _shifted_generators(prime, sphere_dim, ns[-1])
    return _rows_times_circle(gens, ns, prime, degree_bound, 2)


def sign_rep_homology(n: int, p, q: int, degree_bound: int | None = None) -> GradedDims:
    """Homology of the weight-n braid central quotient with sign coefficients.

    Computed from odd-dimensional sphere labels (dimension 2q + 1) as the
    shifted weight-n slice tensored with the circle-classifying-space
    series, truncated at degree_bound.  Any q >= 0 gives the same answer;
    at p = 2 the sign representation is the trivial one.  A degree_bound
    above MAX_BASIS raises ValueError.
    """
    return _sign_answer(n, as_prime(p), q, degree_bound).expand()


def _sign_answer(n: int, prime, q: int, degree_bound: int | None) -> _CircleAnswer:
    """`sign_rep_homology` as the shifted slice times the circle, with its refusals."""
    if n < 0 or q < 0:
        raise ValueError("n and q must be >= 0")
    return _answers_by_weight(prime, 2 * q + 1, range(n, n + 1), degree_bound)[n]


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
    return _answers_by_weight(as_prime(2), 2 * q, range(n, n + 1), degree_bound)[n].expand()


def _q_stability(ns: range, p, qs: list) -> list[VerifyReport]:
    """`verify_q_stability(n, p, qs)` for each n in the nonempty range ns,
    in one pass over q: each q's shifted table, closed-form generators and
    bracket tower are built once, at the weight max(ns[-1], 1), compared at
    every weight with the first q's answers (rows through the bound; only
    the first q's are expanded, for the report), and dropped.  Weight n
    reads their weight <= max(n, 1) parts, compared as (weight, degree,
    exterior) multisets: the same answer and multisets as at bound
    max(n, 1)."""
    if not qs:
        raise ValueError("q_list must be nonempty")
    prime = as_prime(p)
    if ns[0] < 0 or min(qs) < 0:
        raise ValueError("n and q must be >= 0")
    top = max(ns[-1], 1)
    first: dict[int, _CircleAnswer] = {}
    mismatching: dict[int, list] = {n: [] for n in ns}
    for q in dict.fromkeys(qs):
        m = 2 * q + 1
        answers = _answers_by_weight(prime, m, ns)
        first = first or answers
        labels = enumerate_basic_brackets([LabelClass("s", m)], 1, prime)
        tower = sorted(map(_CATALOG_KEY, cohen_generators(labels, prime, top)))
        closed = sorted(map(_CATALOG_KEY, sphere_labelled_generators(prime, m, top)))
        for n in ns:
            # Both catalogs are prefixes in weight: their weight <= w parts
            # are the catalogs at bound w.
            w = max(n, 1)
            agree = [k for k in closed if k[0] <= w] == [k for k in tower if k[0] <= w]
            if answers[n] != first[n] or not agree:
                mismatching[n].append(q)
    return [
        VerifyReport(
            name=f"q-stability n={n} p={prime.p} q={qs}",
            passed=not mismatching[n],
            details={"dims": first[n].expand(), "mismatching_q": mismatching[n]},
        )
        for n in ns
    ]


def verify_q_stability(n: int, p, q_list) -> VerifyReport:
    """Check the sign-coefficient answer is the same for every q in q_list,
    and that the closed-form generators behind each q match the bracket tower.

    A q is mismatching when its answer differs from the first q's, or when
    its closed forms disagree with the tower.
    """
    return _q_stability(range(n, n + 1), p, list(q_list))[0]
