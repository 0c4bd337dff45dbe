"""The BV operator on plane configuration homology and the circle-equivariant answers.

The operator acts on a canonical monomial written as (point class)^k *
(odd class)^eps * x, with x a product of the weight-2p^i letters, by

    iota^k x        ->  k(k-1) iota^(k-2) u x
    iota^k u x      ->  0

and is identically zero at p = 2 (k(k-1) is even).  The coefficient is the
closed form taken verbatim; it differs from the normalization fixed by
Delta(iota^2) = u by the invertible scalar 2, so every rank, kernel and
cokernel computed here is normalization-independent.

The operator's rank in each degree is the count of nonzero images
(`_delta_rank`, used by `serre_e3` and the `delta` command); its matrix is
int rows (`_image_rows`), which only `delta_matrix` reads, wrapping them in
the `FpMatrix` whose rank is the oracle in `verify` (the `delta` command
writes its matrix rows from the images' texts).

`delta` validates its input once, through `_split_plane_monomial`, and
builds its output with the trusted constructors: the image monomial with
`Monomial._canonical` (factors canonical by construction, weight and
degree summed from them, text written on first use) and the image with
`Element._trusted` (one coefficient, already reduced and nonzero).
`delta_matrix` hands its rows, ints already in [0, p), to
`FpMatrix._trusted`.  The validating constructors serve every input from
outside.
Zeros (every image at p = 2 and in the tensor regime) cost little: `delta`
slices its source's other factors only for a nonzero image and returns
one shared zero `Element` per prime, `delta_element` returns a zero
combination itself, and a matrix's zero rows share one list,
copied when an image lands in it (`FpMatrix.rref` copies rows anyway).

The equivariant dispatcher returns the tensor answer with the circle
classifying space when n is 0 or 1 mod p, and the cokernel of the operator
otherwise, from `_equivariant_s1`, whose basis is the walk's degree groups:
texts for the S1 JSON listing, plane monomials for `equivariant_s1`.  An
independently computed spectral-sequence page (`serre_e3`), a table of
Python-int counts, serves as the oracle for both regimes.

Every dimension of these answers comes from the Hilbert series; only the
JSON listings enumerate a basis and share its limits.
`_equivariant_s1_dims` gives the S1 dims of a range of weights to every
format and to `verify`.  Every "row n of a series table times
1/(1 - t^step)" answer (the S1 tensor and Zp here, sign and mod-2 in
`signhom`) is one `_CircleAnswer` of the row, the step and the bound,
made by `_rows_times_circle`: the public functions return its `expand()`,
the CLI writes its JSON pairs from the row, and `verify` compares two by
their rows.  `_delta_counts`
reads the plane slice and the rank in each degree off rows n - 2 and n of
one table over the plane generators without the odd class, as the
operator is injective on the sources it does not kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add

from .algebra import KIND_U, Element, Monomial, as_prime, iota, u_class
from .catalog import MAX_BASIS, UnsupportedCaseError, _plane_basis, _refuse_large_bases
from .catalog import _split_plane_monomial
from .catalog import plane_config_generators
from .enumeration import BigradedDims, GradedDims, _cells, _complete_table, _monomial_bases
from .linalg import FpMatrix

# The point class and the odd class: one generator each, the same at every odd p.
_POINT, _ODD = iota(), u_class(3)

# One zero image per prime, which every zero `delta` returns: no code writes to an Element's terms.
_ZEROS: dict[int, Element] = {}

REGIME_TENSOR_BS1 = "tensor_bs1"
REGIME_COKER_DELTA = "coker_delta"


def default_degree_bound(n: int) -> int:
    """Truncation for the infinite tensor factors: eight periods past 2n."""
    return 2 * n + 16


def _degree_bound(n: int, dmax: int | None) -> int:
    """The truncation of a tensor answer: dmax, or the default for n.  A
    bound above MAX_BASIS raises ValueError, before any array of that
    length is built."""
    if dmax is None:
        dmax = default_degree_bound(n)
    if dmax > MAX_BASIS:
        raise ValueError(f"degree bound {dmax} exceeds the limit of {MAX_BASIS}")
    return dmax


class _CircleAnswer:
    """A finite slice times 1/(1 - t^step), truncated at degree `bound`: the
    numerator is a series row, and the step is 1 for the order-p subgroup, 2
    for the circle.  Two answers at one step and bound are equal when their
    numerators are equal through the bound, since multiplying by 1 - t^step
    undoes the expansion.  A plain class: a dataclass costs its module
    about half a millisecond at import."""

    __slots__ = ("numerator", "step", "bound")

    def __init__(self, numerator: GradedDims, step: int, bound: int):
        self.numerator = numerator
        self.step = step
        self.bound = bound

    def expand(self) -> GradedDims:
        return self.numerator.convolve_geometric(self.step, self.bound)

    def total(self) -> int:
        """`expand().total()`: a cell of degree d <= bound counts once in
        every step-th degree from d through the bound."""
        step, bound = self.step, self.bound
        cells = self.numerator.dims.items()
        return sum(c * ((bound - d) // step + 1) for d, c in cells if d <= bound)

    def __eq__(self, other) -> bool:
        if type(other) is not _CircleAnswer:
            return NotImplemented
        bound = self.bound
        return (self.step, bound) == (other.step, other.bound) and (
            self.numerator.truncate(bound) == other.numerator.truncate(bound))


@dataclass
class EquivariantAnswer:
    """Circle-equivariant homology of weight-n plane configurations.

    `basis` holds plane monomials: in the tensor regime those of degree up
    to the truncation, unpaired with the circle degrees; in the cokernel
    regime the u-free coset representatives (a finite, exact answer).
    """

    regime: str
    dims: GradedDims
    basis: list


def delta(m: Monomial, p) -> Element:
    """Apply the BV operator to a canonical plane-configuration monomial."""
    prime = as_prime(p)
    k, eps, head = _split_plane_monomial(m, prime)
    coeff = 0 if prime.p == 2 or eps else k * (k - 1) % prime.p
    if not coeff:
        return _ZEROS.get(prime.p) or _ZEROS.setdefault(prime.p, Element._trusted({}, prime))
    # coeff != 0 needs k >= 2; the point class leaves the image at k = 2
    factors = (((_POINT, k - 2),) if k > 2 else ()) + ((_ODD, 1),) + m.factors[head:]
    weight = degree = 0
    for g, e in factors:
        weight += g.weight * e
        degree += g.degree * e
    image = Monomial._canonical(factors, weight, degree, None)
    return Element._trusted({image: coeff}, prime)


def _delta_rank(images) -> int:
    """Rank of the operator on a span of source monomials, given their
    images: each source goes to zero or to a scalar times a monomial, and
    distinct sources have distinct images, so the rank is the count of
    nonzero images."""
    return sum(not im.is_zero() for im in images)


def delta_element(el: Element) -> Element:
    """Linear extension of the operator to F_p combinations; zero is its own image."""
    return el.map_monomials(lambda m: delta(m, el.p)) if el.terms else el


def delta_matrix(n: int, p, degree: int, by_deg=None) -> FpMatrix:
    """Matrix of the BV operator from the weight-n, degree-`degree` monomial
    basis to the degree+1 basis, columns in monomial_basis order.  `by_deg`
    is the `_plane_basis` of weight n; it is enumerated when omitted."""
    prime = as_prime(p)
    if by_deg is None:
        by_deg = _plane_basis(n, prime)
    source = by_deg.get(degree, [])
    target = by_deg.get(degree + 1, [])
    rows = _image_rows([delta(m, prime) for m in source], target)
    return FpMatrix._trusted(rows, prime, len(source))


def _image_rows(images, target) -> list[list[int]]:
    """The operator's matrix as one int row per `target` monomial: column j
    holds the image of the j-th source monomial.  The rows share one zero
    list until an image lands in one, and the index of `target` is built
    only when some image is nonzero (never at p = 2)."""
    zero = [0] * len(images)
    rows = [zero] * len(target)
    columns = [(j, image.terms) for j, image in enumerate(images) if image.terms]
    if columns:
        index = {m: i for i, m in enumerate(target)}
        for j, terms in columns:
            for m, c in terms.items():
                i = index[m]
                if rows[i] is zero:
                    rows[i] = zero[:]
                rows[i][j] = c
    return rows


def _delta_counts(n: int, p, degree: int | None) -> list[tuple[int, int, int, int]]:
    """(degree, source dim, target dim, rank) of the operator in weight n,
    from rows n - 2 and n of one series table, S, over the plane generators
    without the odd class, for `degree` or else every degree of the basis.
    The plane slice is S(n) + t S(n - 2), the monomials without and with u.
    At odd p the operator is injective on the sources it does not kill,
    iota^k x with x free of the point and odd classes and k(k-1) != 0 mod p;
    every generator in x has weight divisible by 2p, so k = n mod p, and
    when n mod p > 1 these sources are iota^2 times the monomials S(n - 2)
    counts, so the rank in degree d is S(n - 2, d).  Otherwise, and at
    p = 2, it is 0."""
    prime = as_prime(p)
    gens = [g for g in plane_config_generators(prime, max(n, 1)) if g.kind != KIND_U]
    ns = [n - 2, n] if prime.p != 2 and n >= 2 else [n]
    table = _complete_table(gens, ns, prime)
    plane = dict(table.weight_slice(n).dims)
    ranks: dict[int, int] = {}
    if len(ns) == 2:
        below = table.weight_slice(n - 2).dims
        for d, c in below.items():
            plane[d + 1] = plane.get(d + 1, 0) + c
        if n % prime.p > 1:
            ranks = below
    degrees = sorted(plane) if degree is None else [degree]
    return [(d, plane.get(d, 0), plane.get(d + 1, 0), ranks.get(d, 0)) for d in degrees]


def equivariant_s1(n: int, p, dmax: int | None = None) -> EquivariantAnswer:
    """Circle-equivariant homology of weight-n plane configurations.

    n = 0, 1 mod p: the plane homology tensored with the homology of the
    circle classifying space, truncated at dmax, with the plane monomials of
    degree <= dmax as basis.  Otherwise: the cokernel of the BV operator,
    whose basis is the u-free monomials, and dmax is not read.  The answer
    and its refusals are `_equivariant_s1`'s, its degree groups joined.
    """
    regime, dims, groups = _equivariant_s1(n, as_prime(p), dmax)
    dims = dims.expand() if regime == REGIME_TENSOR_BS1 else dims
    return EquivariantAnswer(regime, dims, list(chain.from_iterable(groups.values())))


def _equivariant_s1(n: int, prime, dmax: int | None, texts: bool = False):
    """(regime, dims, basis) of `equivariant_s1`: the dims
    `_equivariant_s1_dims`'s (a `_CircleAnswer` in the tensor regime), the
    basis the walk's degree groups of weight n, texts if `texts`, in the
    tensor regime those of degree <= the dims' bound, in the cokernel regime
    over the generators without the odd class.  ValueError is raised before
    any monomial is built, in this order, for a negative n, a plane basis of
    more than MAX_BASIS monomials and, in the tensor regime, a dmax above
    MAX_BASIS or more than MAX_BASIS (monomial, circle degree) pairs
    (`dims.total()`), counted from the weight-n slice of the series.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _refuse_large_bases([range(n, n + 1)], prime)
    dims = _equivariant_s1_dims([n], prime, dmax)[n]
    gens = plane_config_generators(prime, max(n, 1))
    if n % prime.p > 1:
        gens = [g for g in gens if g.kind != KIND_U]
        (groups,) = _monomial_bases(gens, range(n, n + 1), prime, texts)
        return REGIME_COKER_DELTA, dims, groups
    # a plane degree d <= dmax pairs with the circle degrees that keep the total within dmax
    if (pairs := dims.total()) > MAX_BASIS:
        raise ValueError(f"tensor basis of {pairs} pairs exceeds the limit of {MAX_BASIS}")
    dmax = dims.bound
    (groups,) = _monomial_bases(gens, range(n, n + 1), prime, texts, dmax)
    groups = {d: same for d, same in groups.items() if d <= dmax}
    return REGIME_TENSOR_BS1, dims, groups


def _equivariant_s1_dims(ns, p, dmax: int | None) -> dict:
    """`equivariant_s1(n, p, dmax).dims` for each n of the ascending ns, from
    one table per regime and no basis: the plane slice times the circle, as
    a `_CircleAnswer`, or row n of the series over the plane generators
    without the odd class.
    Besides the series' own size limit, only a negative n and, in the tensor
    regime, a dmax above MAX_BASIS are refused: the basis and pair-count
    limits belong to the listing."""
    prime = as_prime(p)
    if ns and ns[0] < 0:
        raise ValueError(f"n must be >= 0, got {ns[0]}")
    tensor = [n for n in ns if n % prime.p < 2]
    coker = [n for n in ns if n % prime.p > 1]
    dims = {}
    if tensor:
        gens = plane_config_generators(prime, max(tensor[-1], 1))
        dims = _rows_times_circle(gens, tensor, prime, dmax, 2)
    if coker:
        gens = [g for g in plane_config_generators(prime, coker[-1]) if g.kind != KIND_U]
        table = _complete_table(gens, coker, prime)
        dims.update((n, table.weight_slice(n)) for n in coker)
    return dims


def equivariant_zp(n: int, p, dmax: int | None = None) -> GradedDims:
    """Equivariant homology for the order-p rotation subgroup, computed as
    the plane homology tensored with the cyclic-group classifying space.
    Only defined for n = 0, 1 mod p; a dmax above MAX_BASIS raises
    ValueError."""
    return _equivariant_zp(n, as_prime(p), dmax).expand()


def _equivariant_zp(n: int, prime, dmax: int | None) -> _CircleAnswer:
    """`equivariant_zp` as the plane slice times 1/(1 - t), with its refusals."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n % prime.p not in (0, 1):
        raise UnsupportedCaseError(
            f"rotation-equivariant homology is computed only for n = 0, 1 mod p "
            f"(got n={n}, p={prime.p})"
        )
    return _rows_times_circle(plane_config_generators(prime, max(n, 1)), [n], prime, dmax, 1)[n]


def _rows_times_circle(gens, ns, prime, dmax: int | None, step: int) -> dict[int, _CircleAnswer]:
    """Row n of the series over `gens`, truncated at `_degree_bound(n, dmax)`,
    times 1/(1 - t^step), for each n of the nonempty ascending ns: a slice
    tensored with a classifying space with a class every `step` degrees (1
    for the order-p subgroup, 2 for the circle), from one table expanded
    through the largest bound, built after every bound is checked."""
    bounds = {n: _degree_bound(n, dmax) for n in ns}
    # a negative bound reads no degree, and the table's least bound is 0
    table = _complete_table(gens, ns, prime, max(0, *bounds.values()))
    return {n: _CircleAnswer(table.weight_slice(n), step, bounds[n]) for n in ns}


def serre_e3(n: int, p, degree_bound: int | None = None) -> BigradedDims:
    """Third page of the circle-fibration spectral sequence, computed from
    the ranks of its second-page differential.

    Cells are indexed (fiber degree i, base column j) with the generator of
    the base in degree 2j; the differential maps column j >= 1 to column
    j - 1 raising i by one, and is the BV operator on the fiber, whose rank
    in each degree is the count of nonzero images; `verify` checks ranks
    against the matrix rank.  Cells are kept while i + 2j <= degree_bound,
    in a table of Python ints indexed [i][j], one row per fiber degree; a
    negative cell is kept, for `collapse_total_degree` to refuse.
    A degree_bound above MAX_BASIS raises ValueError.
    """
    prime = as_prime(p)
    return _serre_e3(n, prime, _plane_basis(n, prime), degree_bound)


def _serre_e3(n: int, prime, by_deg: dict, degree_bound: int | None) -> BigradedDims:
    """`serre_e3` from the weight-n plane basis grouped by degree."""
    degree_bound = _degree_bound(n, degree_bound)
    ranks = {d: _delta_rank(delta(m, prime) for m in mons) for d, mons in by_deg.items()}
    top = min(max(by_deg, default=0), degree_bound)
    page = []
    for i in range(top + 1):
        h_i = len(by_deg.get(i, []))
        kept = h_i - ranks.get(i - 1, 0)
        page.append([kept] + [kept - ranks.get(i, 0)] * ((degree_bound - i) // 2) if h_i else [])
    return BigradedDims(page)


def collapse_total_degree(page: BigradedDims) -> GradedDims:
    """Total-degree dimensions of a spectral-sequence page, cell (i, j) in
    degree i + 2j, each row added by one strided slice (a dict row made a
    list first).  Any negative cell raises ValueError, even one its total
    degree's other cells would cover."""
    acc: list[int] = []
    for i, row in enumerate(page._rows):
        if type(row) is not list:
            cells = _cells(row)
            row = [cells.get(j, 0) for j in range(max(cells, default=-1) + 1)]
        if min(row, default=0) < 0:
            raise ValueError("negative dimension")
        end = i + 2 * len(row) - 1
        acc.extend([0] * (end - len(acc)))
        acc[i:end:2] = map(add, acc[i:end:2], row)
    return GradedDims._trusted({d: v for d, v in enumerate(acc) if v})


def gravity_op_degree(op_degree: int, arity: int, input_degree: int, parity: str) -> int:
    """Output degree of an induced n-ary operation: m -> m*n + |Q| + 1.

    `parity` names the coefficient system the operation class lives in:
    "even" (plain coefficients, acts on even-degree classes) or "odd"
    (sign coefficients, acts on odd-degree ones); the input degree must
    match it.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if op_degree < 0 or arity < 1 or input_degree < 0:
        raise ValueError("op_degree, arity, input_degree must be sensible")
    if input_degree % 2 != (0 if parity == "even" else 1):
        raise ValueError(
            f"a {parity}-parity operation acts on {parity}-degree classes "
            f"(got input degree {input_degree})"
        )
    return input_degree * arity + op_degree + 1
