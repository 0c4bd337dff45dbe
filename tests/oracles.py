"""Independent oracles used by the test suite.

Everything in this file recomputes expected values from first principles,
without calling into the package internals it is checking: Koszul signs by
explicit bubble sort, bracket admissibility by brute force over all binary
trees, tower degrees by naive iteration, monomial bases by filtering every
exponent vector, group homology of cyclic groups and their free
products from the 2-periodic resolution, braid-group homology from the
Salvetti complex, with its own sparse elimination mod p, and the homology of
the braid group modulo its center from that by the split Gysin sequence,
and Hilbert series by multiplying out their factors term by term, with the
plane's total dimensions from a partition recurrence at p = 2 and a plain
convolution of closed-form factors at odd p.
"""

from __future__ import annotations

import itertools

from confhom.algebra import Monomial


# ---------------------------------------------------------------------------
# Koszul sign by bubble sort on the concatenated factor sequence.

def bubble_sign(factors1, factors2):
    """Sign of sorting the concatenation of two canonical factor lists.

    Each factor is (rank, parity, exterior).  Returns (sign, sorted ranks)
    or None when two exterior factors collide.  Adjacent swaps of two
    odd-parity factors contribute -1 each; everything else commutes freely.
    """
    seq = list(factors1) + list(factors2)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            a, b = seq[i], seq[i + 1]
            if b[0] < a[0]:
                if a[1] and b[1]:
                    sign = -sign
                seq[i], seq[i + 1] = b, a
                changed = True
    for i in range(len(seq) - 1):
        if seq[i][0] == seq[i + 1][0] and seq[i][2]:
            return None
    return sign, [f[0] for f in seq]


# ---------------------------------------------------------------------------
# Brute-force basic brackets: generate every binary tree, filter by the
# definition, written here from scratch.  Trees are nested tuples with
# (name, degree) leaves.

def all_trees(leaves, weight):
    if weight == 1:
        return [lf for lf in leaves]
    out = []
    for i in range(1, weight):
        for left in all_trees(leaves, i):
            for right in all_trees(leaves, weight - i):
                out.append((left, right))
    return out


def tree_weight(t):
    if isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str):
        return tree_weight(t[0]) + tree_weight(t[1])
    return 1


def tree_degree(t):
    if isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str):
        return tree_degree(t[0]) + tree_degree(t[1]) + 1
    return t[1]


def _enc(t):
    if isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str):
        return (1,) + _enc(t[0]) + _enc(t[1])
    return (0, t[1], t[0])


def tree_key(t):
    return (tree_weight(t), tree_degree(t), _enc(t))


def is_hall_tree(t):
    if not (isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str)):
        return True
    x, y = t
    if not (is_hall_tree(x) and is_hall_tree(y)):
        return False
    if not tree_key(x) < tree_key(y):
        return False
    if isinstance(y, tuple) and len(y) == 2 and not isinstance(y[0], str):
        if not tree_key(y[0]) <= tree_key(x):
            return False
    return True


def is_basic_tree(t, p):
    if is_hall_tree(t):
        return True
    if p == 2:
        return False
    if not (isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str)):
        return False
    x, y = t
    return x == y and is_hall_tree(x) and tree_degree(x) % 2 == 0


def tree_text(t):
    if isinstance(t, tuple) and len(t) == 2 and not isinstance(t[0], str):
        return f"[{tree_text(t[0])},{tree_text(t[1])}]"
    return t[0]


def basic_brackets_bruteforce(leaves, max_weight, p):
    """All basic brackets of weight <= max_weight as text, sorted by key."""
    found = []
    for w in range(1, max_weight + 1):
        for t in all_trees(leaves, w):
            if is_basic_tree(t, p):
                found.append(t)
    found.sort(key=tree_key)
    return [tree_text(t) for t in found]


# ---------------------------------------------------------------------------
# Monomial bases by brute force: every exponent vector in the box, kept when
# its weight is n, built by the validating constructor.

def monomial_basis_bruteforce(gens, n):
    """All monomials of weight exactly n over `gens` (exterior exponents 0..1),
    sorted by (degree, text)."""
    ranges = [range(2 if g.exterior else n // g.weight + 1) for g in gens]
    out = [
        Monomial(zip(gens, exps))
        for exps in itertools.product(*ranges)
        if sum(g.weight * e for g, e in zip(gens, exps)) == n
    ]
    out.sort(key=Monomial.sort_key)
    return out


def group_by_degree(monomials):
    """A flat basis as {degree: its monomials of that degree, in the order
    given}, degrees ascending: the grouping a test compares the package's
    own with."""
    out = {}
    for m in sorted(monomials, key=lambda m: m.degree):
        out.setdefault(m.degree, []).append(m)
    return out


# ---------------------------------------------------------------------------
# Tower degrees by naive iteration of d -> p*d + p - 1.

def iterated_q_degree(start_degree, p, iterations):
    d = start_degree
    for _ in range(iterations):
        d = p * d + p - 1
    return d


# ---------------------------------------------------------------------------
# Group homology of cyclic groups from the 2-periodic resolution, and of
# free products of cyclic groups; coefficients are F_p with each cyclic
# generator acting by a fixed scalar.

def cyclic_homology_dims(order, scalar, p, dmax):
    """dim H_i(Z/order; F_p(scalar)) for 0 <= i <= dmax.

    The 2-periodic free resolution has differentials alternating between
    multiplication by (1 - c) and by the norm 1 + c + ... + c^(order-1),
    where c is the scalar through which the generator acts.
    """
    one_minus = (1 - scalar) % p
    norm = sum(pow(scalar, k, p) for k in range(order)) % p
    dims = []
    for i in range(dmax + 1):
        if i == 0:
            dims.append(1 if one_minus == 0 else 0)
        elif i % 2 == 1:
            dims.append(1 if (one_minus == 0 and norm == 0) else 0)
        else:
            dims.append(1 if (norm == 0 and one_minus == 0) else 0)
    return dims


def free_product_homology_dims(factors, p, dmax):
    """dim H_i(G1 * ... * Gk; F_p) with Gj = Z/order_j acting by scalar_j.

    For i >= 1 the homology of a free product is the direct sum of the
    factors'; in degree 0 it is the coinvariants, which vanish as soon as
    one factor acts nontrivially.
    """
    per_factor = [cyclic_homology_dims(o, s, p, dmax) for o, s in factors]
    dims = []
    for i in range(dmax + 1):
        if i == 0:
            trivial = all((1 - s) % p == 0 for _, s in factors)
            dims.append(1 if trivial else 0)
        else:
            dims.append(sum(col[i] for col in per_factor))
    return dims


# ---------------------------------------------------------------------------
# Braid-group homology from the Salvetti (Fox-Neuwirth) complex of the Artin
# group of type A_{n-1}, which knows nothing of Cohen's generators.  The cells
# are the subsets G of {1..n-1}, in dimension |G|; a maximal run of r
# consecutive elements of G joins r + 1 points into a block, so G is a
# composition of n.  Removing s from G splits a block of m points into a
# and m - a, and
#
#     d e_G = sum over s in G of (-1)^#{t in G : t < s} [m choose a]_q e_{G-s}.
#
# q = -1 gives trivial coefficients, q = 1 the sign representation.

def gaussian_binomial(m, a, q):
    """[m choose a]_q evaluated at the integer q, by the q-Pascal rule."""
    row = [1]
    for k in range(1, m + 1):
        row = [
            (row[j - 1] if j >= 1 else 0) + (q**j * row[j] if j < k else 0)
            for j in range(k + 1)
        ]
    return row[a]


def salvetti_boundary(cell, q):
    """The boundary of a cell (a frozenset of generators) as (face, coefficient) pairs."""
    out = []
    for pos, s in enumerate(sorted(cell)):
        left = s
        while left - 1 in cell:
            left -= 1
        right = s
        while right + 1 in cell:
            right += 1
        m, a = right - left + 2, s - left + 1
        coeff = (-1) ** pos * gaussian_binomial(m, a, q)
        if coeff:
            out.append((cell - {s}, coeff))
    return out


def rank_mod_p(rows, p):
    """Rank over F_p of sparse rows ({column: value}), by elimination against
    a table of reduced rows keyed by their leading column."""
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivots[lead].items():
                w = (row.get(c, 0) - factor * v) % p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def braid_homology_dims(n, p, q):
    """dim H_i(B_n; F_p) for i = 0..max(n-1, 0), with the standard generators
    acting by 1 (q = -1, trivial coefficients) or by -1 (q = 1, sign)."""
    gens = range(1, n)
    cells = [
        [frozenset(c) for c in itertools.combinations(gens, k)] for k in range(max(n, 1))
    ]
    index = [{c: i for i, c in enumerate(cs)} for cs in cells]
    ranks = [0] * (len(cells) + 1)  # ranks[k]: rank of d from dimension k to k - 1
    for k in range(1, len(cells)):
        rows = [
            {index[k - 1][face]: coeff for face, coeff in salvetti_boundary(c, q)}
            for c in cells[k]
        ]
        ranks[k] = rank_mod_p(rows, p)
    return [len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(len(cells))]


# ---------------------------------------------------------------------------
# The braid group modulo its center, Q = B_n/Z(B_n), with trivial coefficients.
# The center is generated by the full twist, which the abelianization B_n -> Z
# sends to n(n - 1), so n(n - 1) kills the class of the central extension
# Z -> B_n -> Q.  When p divides neither n nor n - 1 the class vanishes mod p,
# and the Gysin sequence of the extension splits (Brown, Cohomology of Groups):
#
#     0 -> H_{k-1}(Q; F_p) -> H_k(B_n; F_p) -> H_k(Q; F_p) -> 0.

def braid_quotient_homology_dims(n, p):
    """dim H_k(B_n/Z(B_n); F_p) for k = 0..n-1, the alternating partial sums
    of the Salvetti Betti numbers; only for n not 0 or 1 mod p."""
    if n % p in (0, 1):
        raise ValueError(f"the extension class need not vanish mod p at n={n}, p={p}")
    dims = []
    for h in braid_homology_dims(n, p, -1):
        dims.append(h - (dims[-1] if dims else 0))
    return dims


# ---------------------------------------------------------------------------
# The p = 2 root of the full twist.  G_2 = <B_n, t | t central, t^2 = Delta^2>
# is B_n x| Z/2, with s = t Delta^-1 acting by sigma_i -> sigma_(n-i): the
# Garside flip, which sends a Salvetti cell S to {n - i : i in S} and fixes
# the one vertex.  So H_*(G_2; F_2) is the homology of the total complex
# Tot_k = sum over a + b = k of C_a, with D = d + (1 + flip) (the periodic
# resolution of Z/2 is 1 + s in every degree mod 2, and no sign survives).
# Pulling back along BZ/2 -> BS^1 kills the Euler class mod 2, so this is
# h_k + h_(k-1) for the circle-equivariant answer h.

def garside_flip_homology_dims(n, dmax):
    """dim H_k(B_n x| Z/2; F_2) for k = 0..dmax, the flip acting as above."""
    flip = lambda cell: frozenset(n - i for i in cell)
    cells = [
        [frozenset(c) for c in itertools.combinations(range(1, n), a)] for a in range(max(n, 1))
    ]
    # Tot_k: each cell c of dimension a <= k, in resolution degree k - a
    index = [
        {(a, c): j for j, (a, c) in enumerate((a, c) for a in range(min(k, n - 1) + 1)
                                               for c in cells[a])}
        for k in range(dmax + 2)
    ]
    ranks = [0] * (dmax + 2)  # ranks[k]: rank of D from Tot_k to Tot_(k-1)
    for k in range(1, dmax + 2):
        rows = []
        for a, c in index[k]:
            faces = salvetti_boundary(c, -1) if a else ()
            row = {index[k - 1][a - 1, face]: 1 for face, coeff in faces if coeff % 2}
            if a < k:
                for image in (c, flip(c)):
                    col = index[k - 1][a, image]
                    row[col] = row.get(col, 0) + 1
            rows.append(row)
        ranks[k] = rank_mod_p(rows, 2)
    return [len(index[k]) - ranks[k] - ranks[k + 1] for k in range(dmax + 1)]


# ---------------------------------------------------------------------------
# Misc small helpers.

def dims_to_pairs(dims_list):
    return [[d, v] for d, v in enumerate(dims_list) if v]


def multiset(pairs):
    return sorted(pairs)


# ---------------------------------------------------------------------------
# Hilbert series by explicit products.  A factor is (weight, degree,
# exterior); the free graded-commutative algebra's series is the product of
# 1 + t^d s^w over the exterior factors and sum_e t^(e d) s^(e w) over the
# polynomial ones, multiplied out term by term in a dict.

def product_expansion(factors, max_weight, dmax=None):
    """{(weight, degree): count} of the monomials of weight <= max_weight
    (and degree <= dmax, when given) over `factors`, zeros omitted."""
    cells = {(0, 0): 1}
    for w, d, exterior in factors:
        top = 1 if exterior else max_weight // w
        out = {}
        for (w0, d0), count in cells.items():
            for e in range(top + 1):
                key = (w0 + e * w, d0 + e * d)
                if key[0] > max_weight or (dmax is not None and key[1] > dmax):
                    break
                out[key] = out.get(key, 0) + count
        cells = out
    return cells


def binary_partition_counts(max_weight):
    """b(0..max_weight) for b(0) = 1, b(2m+1) = b(2m), b(2m) = b(2m-1) + b(m):
    the partitions of each weight into powers of two (OEIS A018819)."""
    b = [1] * (max_weight + 1)
    for k in range(1, max_weight + 1):
        b[k] = b[k - 1] + (b[k // 2] if k % 2 == 0 else 0)
    return b


def truncated_product(series, max_weight):
    """The product of power series given as coefficient lists, truncated
    after s^max_weight, by plain convolution over each factor's nonzero terms."""
    out = [1] + [0] * max_weight
    for factor in series:
        acc = [0] * (max_weight + 1)
        for j, c in enumerate(factor[: max_weight + 1]):
            if c:
                for w in range(j, max_weight + 1):
                    acc[w] += c * out[w - j]
        out = acc
    return out


def odd_plane_totals(p, max_weight):
    """Total dimensions by weight of the plane algebra at odd p:
    (1 + s^2)/(1 - s) * prod_{i >= 1} (1 + s^(2p^i))/(1 - s^(2p^i))."""
    def geometric(k):
        return [1 if w % k == 0 else 0 for w in range(max_weight + 1)]

    def exterior(k):
        return [1] + [0] * (k - 1) + [1]

    series = [geometric(1), exterior(2)]
    k = 2 * p
    while k <= max_weight:
        series += [geometric(k), exterior(k)]
        k *= p
    return truncated_product(series, max_weight)
