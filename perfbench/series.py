"""Expected dimensions from the Hilbert series, independent of `confhom`.

The plane configuration algebra is free graded-commutative on closed-form
generators (F. R. Cohen, *The homology of C_{n+1}-spaces*, LNM 533, 1976):

- p = 2: the point class `i` (weight 1, degree 0) and `Qi_k` (weight 2^k,
  degree 2^k - 1), all polynomial;
- p odd: `i`, the exterior class `u` (weight 2, degree 1), and for k >= 1
  the polynomial `b_k` (weight 2p^k, degree 2p^k - 2) and the exterior
  `a_k` (weight 2p^k, degree 2p^k - 1).

Over sphere labels of dimension m the tower `Qs_i` has weight p^i and
degree p^i(m + 1) - 1 (exterior when p is odd), with its Bockstein `bQs_i`
one degree lower for i >= 1 and p odd; after the shift by n*m that the
sign-coefficient answer uses, the degrees are p^i - 1 and p^i - 2.

Nothing here imports `confhom`: the benchmark checks every dimension it
reads against these series, so a later fast path inside the program is
still checked against an independent route.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# (weight, degree, exterior)
Gen = tuple[int, int, bool]


def plane_generators(p: int, n: int, *, with_i: bool = True, with_u: bool = True) -> list[Gen]:
    """Generators of weight <= max(n, 1) of the plane algebra."""
    bound = max(n, 1)
    gens: list[Gen] = [(1, 0, False)] if with_i else []
    if p == 2:
        k = 1
        while 2**k <= bound:
            gens.append((2**k, 2**k - 1, False))
            k += 1
        return gens
    if with_u and bound >= 2:
        gens.append((2, 1, True))
    k = 1
    while 2 * p**k <= bound:
        w = 2 * p**k
        gens += [(w, w - 2, False), (w, w - 1, True)]
        k += 1
    return gens


def shifted_sphere_generators(p: int, n: int) -> list[Gen]:
    """Sphere-labelled generators with degrees shifted down by weight * m."""
    gens: list[Gen] = []
    i = 0
    while p**i <= max(n, 1):
        w = p**i
        gens.append((w, w - 1, p != 2))
        if p != 2 and i >= 1:
            gens.append((w, w - 2, False))
        i += 1
    return gens


def weight_table(gens: list[Gen], n: int) -> np.ndarray:
    """table[w, d]: the number of monomials of weight w <= n and degree d.

    Every generator here has degree below its weight, so degree <= n.
    """
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[0, 0] = 1
    for w0, d0, exterior in gens:
        if w0 > n or d0 > n:
            continue
        # Exterior: each monomial gains the generator at most once, so read
        # the rows before they change (descending weight).  Polynomial: any
        # power, so read rows that already include it (ascending weight).
        weights = range(n, w0 - 1, -1) if exterior else range(w0, n + 1)
        for w in weights:
            table[w, d0:] += table[w - w0, : n + 1 - d0]
    if (table < 0).any():
        raise OverflowError("series coefficient overflowed int64")
    return table


def _as_dims(row) -> dict[int, int]:
    return {d: int(c) for d, c in enumerate(row) if c}


@lru_cache(maxsize=64)
def plane_dims(p: int, n: int) -> dict[int, int]:
    """Degree -> dimension of the weight-n plane homology."""
    return _as_dims(weight_table(plane_generators(p, n), n)[n])


@lru_cache(maxsize=64)
def u_free_dims(p: int, n: int) -> dict[int, int]:
    """Degree -> number of weight-n monomials without the class u."""
    return _as_dims(weight_table(plane_generators(p, n, with_u=False), n)[n])


@lru_cache(maxsize=64)
def delta_ranks(p: int, n: int) -> dict[int, int]:
    """Degree -> rank of the BV operator out of that degree, in weight n.

    The operator sends i^k x (x free of i and u) to k(k-1) i^(k-2) u x and
    kills everything carrying u, distinct sources going to distinct
    targets; so the rank in degree d counts the u-free monomials of degree
    d whose point-class exponent k has k(k-1) != 0 mod p.  At p = 2 the
    operator is zero.
    """
    if p == 2:
        return {}
    rest = weight_table(plane_generators(p, n, with_i=False, with_u=False), n)
    out: dict[int, int] = {}
    for k in range(n + 1):
        if k * (k - 1) % p:
            for d, c in _as_dims(rest[n - k]).items():
                out[d] = out.get(d, 0) + c
    return out


@lru_cache(maxsize=64)
def sign_dims(p: int, n: int) -> dict[int, int]:
    """Degree -> dimension of the shifted weight-n sphere-labelled slice."""
    return _as_dims(weight_table(shifted_sphere_generators(p, n), n)[n])


def times_geometric(dims: dict[int, int], step: int, dmax: int) -> dict[int, int]:
    """Multiply by 1/(1 - t^step) and truncate at degree dmax."""
    out: dict[int, int] = {}
    for d, c in dims.items():
        for k in range(d, dmax + 1, step):
            out[k] = out.get(k, 0) + c
    return out


def default_degree_bound(n: int) -> int:
    """The CLI's truncation when --dmax is not given."""
    return 2 * n + 16
