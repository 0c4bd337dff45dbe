"""Monomial bases by weight, and their dimension counts two independent ways.

Counts come from the Hilbert series: the two-variable series of the free
graded-commutative algebra (a geometric factor per polynomial generator,
`1 + t^d s^w` per exterior one), on a weight x degree table whose rows
are Python ints, one per weight, holding that weight's counts at a fixed
number of bits per degree.  Every dimension-only command reads its answer
from the weight slices `_complete_table` hands out, {n: GradedDims} for
exactly the weights asked (`series_coefficient` reads one).  For one or
two, the table of every generator but the two lightest is expanded in
place on its own stride, and those two are folded in only at the weights
read, a polynomial one as running sums or a recurrence along a residue
class of the table's rows, an exterior one as two terms, so a one-row read
costs about n / (the stride) steps where a sweep of every weight costs n
per generator; no other row is kept.  For a range, `series_table` sweeps
every factor over every weight into a table whose rows are decoded as they
are read (`_PackedRows`); it is also the fold's oracle.  Every row is
decoded by halving into its nonzero cells alone (`_decode`).  `total_dim`
reads the one-variable series in weight alone.
Both take the generators heaviest first, each sweep strided by the gcd of
the weights so far: rows off the stride stay 0, and the table is the same
in any order.
The monomials themselves come from one walk, `_monomial_bases`, which
hands out the basis of each weight of a range in turn, grouped by degree:
{degree: monomials sorted by text}, degrees ascending, the shape every
reader that goes by degree takes a basis in.  One loop takes the generators
down by rank over partial products grouped by the weight they use, built
once up to the top weight; for each weight the two lowest-rank generators
close the groups without storing another level, from a table of their
products by the weight they fill (each power of the second that fits, then
the one exponent of the lowest that fills the rest), filled as the walk
meets each weight left; a product's text is one concatenation.  Given a
degree bound (the S1 tensor listing), the loop keeps no partial product
above it.  The last step files each product in a list per degree, sorted
by text, as one of two things: a reader that needs factors
(`monomial_basis`, `bv`, the verification sweep) takes Monomials, built
through the trusted `Monomial._canonical` with that text, so no `text()`
is called; a reader that only prints or counts (the `basis` listing, the
S1 JSON through `bv._equivariant_s1`, `poincare`, the sign-slice check)
takes the texts themselves, and the walk then joins no factors and builds
no Monomial.  `monomial_basis`, the public one-weight case, flattens its
groups in that order, and `poincare` counts them, the enumeration side of
the series in the demos and tests; the verification suite counts the plane
basis it has already swept.

Every count is a Python int, so the series is exact at any size or it is
refused: the size in bits of the rows built and read is worked out before
anything is built, and more than `MAX_SERIES_BITS` raises ValueError
instead of exhausting memory; `total_dim` refuses weights past 2^20.  The
weight totals of the table give its width, and so a bound on its size, the
rows times their width times the degrees kept; only a table whose bound
passes the limit is sized exactly, from the highest degree of each row, in
a second sweep, and that exact size alone decides a refusal.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain, repeat
from math import gcd
from operator import attrgetter

from .algebra import Generator, Monomial, as_prime

# Largest series table built before refusing: 2^30 bits, 128 MiB.
MAX_SERIES_BITS = 1 << 30
# The least a series row is counted at, even with no cells: one 64-bit word.
# A table of at most 2^24 cells of 64 bits each therefore always fits.
_WORD_BITS = 64
# Largest weight of `total_dim`: 2^20 Python ints, 50 MiB at p = 2 (the widest).
_MAX_TOTAL_WEIGHT = 1 << 20
# The text in a monomial's slot: the sort key within one degree of a basis.
_TEXT = attrgetter("_text")
_RANK = attrgetter("rank")


class GradedDims:
    """A finite map degree -> dimension; the universal answer format."""

    __slots__ = ("dims",)
    __iter__ = None  # `__getitem__` reads every degree, 0 off the map: iterating would never end

    def __init__(self, dims: dict[int, int] | None = None):
        self.dims = {d: n for d, n in (dims or {}).items() if n}
        if any(n < 0 for n in self.dims.values()):
            raise ValueError("negative dimension")

    @classmethod
    def _trusted(cls, dims: dict[int, int]) -> "GradedDims":
        """Wrap a dict already free of zeros and negatives, unchecked: the
        output of this class's own methods."""
        g = object.__new__(cls)
        g.dims = dims
        return g

    def total(self) -> int:
        return sum(self.dims.values())

    def to_pairs(self) -> list[list[int]]:
        return list(map(list, sorted(self.dims.items())))

    def truncate(self, dmax: int) -> "GradedDims":
        return GradedDims._trusted({d: n for d, n in self.dims.items() if d <= dmax})

    def shift(self, offset: int) -> "GradedDims":
        return GradedDims._trusted({d + offset: n for d, n in self.dims.items()})

    def convolve_geometric(self, step: int, dmax: int) -> "GradedDims":
        """Multiply by the series 1/(1 - t^step), truncated at degree dmax;
        exact at any size, in Python ints."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        lo = min(self.dims, default=dmax + 1)
        if lo > dmax:
            return GradedDims()
        acc = self._running_sums(lo, step, dmax)
        dims = dict(zip(range(lo, dmax + 1), acc))
        return GradedDims._trusted({d: n for d, n in dims.items() if n} if 0 in acc else dims)

    def _running_sums(self, lo: int, step: int, top: int) -> list[int]:
        """Degrees lo..top of the product with 1/(1 - t^step), zeros kept, for
        lo the least degree: each residue class mod step is its running sum."""
        acc = [0] * (top - lo + 1)
        for d, n in self.dims.items():
            if d <= top:
                acc[d - lo] = n
        for r in range(step):
            acc[r::step] = accumulate(acc[r::step])
        return acc

    def __getitem__(self, d: int) -> int:
        return self.dims.get(d, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(frozenset(self.dims.items()))

    def __repr__(self) -> str:
        return f"GradedDims({self.dims!r})"


class BigradedDims:
    """A finite map (weight, degree) -> dimension over a table of Python
    ints indexed [weight][degree] (the spectral-sequence page indexes it
    [fiber degree][base column]): any sequence of int rows, ragged or lazy,
    or of dicts of their nonzero cells (`_PackedRows`, the rows of
    `series_table`); `dims` is the dict of its nonzero cells, made when
    first read, and `weight_slice` reads one row of a series table, whose
    cells are never negative, unchecked."""

    __slots__ = ("_dims", "_rows")
    __iter__ = None  # as for `GradedDims`

    def __init__(self, rows):
        self._dims = None
        self._rows = rows

    @property
    def dims(self) -> dict[tuple[int, int], int]:
        if self._dims is None:
            rows = enumerate(self._rows)
            self._dims = {(w, d): n for w, row in rows if row for d, n in _cells(row).items()}
        return self._dims

    def weight_slice(self, w: int) -> GradedDims:
        rows = self._rows
        return GradedDims._trusted(_cells(rows[w]) if 0 <= w < len(rows) else {})

    def total(self) -> int:
        return sum(self.dims.values())

    def to_pairs(self) -> list[list[int]]:
        return [[w, d, self.dims[(w, d)]] for (w, d) in sorted(self.dims)]

    def __getitem__(self, wd: tuple[int, int]) -> int:
        return self.dims.get(wd, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BigradedDims) and self.dims == other.dims

    def __repr__(self) -> str:
        return f"BigradedDims({self.dims!r})"


def _cells(row) -> dict[int, int]:
    """A row's nonzero cells {degree: count}, degrees ascending."""
    return row if type(row) is dict else {d: n for d, n in enumerate(row) if n}


class _PackedRows:
    """The rows of `series_table` by weight, each one Python int holding its
    counts at `width` bits per degree (degree d at bit d * width), decoded
    to its nonzero cells {degree: count} when indexed (`_decode`)."""

    __slots__ = ("_ints", "_width")

    def __init__(self, ints: list[int], width: int):
        self._ints = ints
        self._width = width

    def __len__(self) -> int:
        return len(self._ints)

    def __getitem__(self, w: int) -> dict[int, int]:
        return _decode(self._ints[w], self._width)


def _decode(row: int, width: int) -> dict[int, int]:
    """A packed row's nonzero cells {degree: count}, degrees ascending, by
    halving: each level splits every nonzero chunk of cells by one mask and
    one shift, so k cells cost about log2 k levels of int operations and no
    step per zero cell."""
    cells = {0: row} if row else {}
    # the largest power of 2 below the row's cell count
    half = 1 << (-(-row.bit_length() // width) - 1).bit_length() >> 1
    while half:
        shift = half * width
        mask = (1 << shift) - 1
        split = {}
        for d, chunk in cells.items():
            if low := chunk & mask:
                split[d] = low
            if high := chunk >> shift:
                split[d + half] = high
        cells = split
        half >>= 1
    return cells


def monomial_basis(gens, n: int, p) -> list[Monomial]:
    """All canonical monomials of total weight exactly n over `gens`.

    Exterior generators contribute exponent at most one.  The result is
    sorted by (degree, canonical text).  A generator of weight < 1 is
    refused: the basis would not be finite.  This is the one-weight case of
    the walk `_monomial_bases`, its degree groups joined in order; a
    reader in the package that goes by degree takes the groups instead.
    """
    (groups,) = _monomial_bases(gens, range(n, n + 1), p)
    return list(chain.from_iterable(groups.values()))


def _monomial_bases(gens, weights: range, p, texts: bool = False, dmax: int | None = None):
    """Yield the weight-n basis over `gens` for each n of the ascending
    range `weights` in turn, from one walk, grouped by degree: {degree:
    monomials sorted by text}, degrees ascending, with no empty group.
    With `texts`, each monomial is its canonical text instead ("1" for the
    empty product), in the same groups and order: a listing (`basis`, and
    the S1 JSON through `bv._equivariant_s1`) or a count reads no more, and
    no Monomial is built.  With `dmax`, no partial product of degree above
    it is kept, as degrees never fall when factors are added (the closing
    step checks no product, so a basis may still hold degrees above dmax).

    One loop takes the generators from the highest rank down to the third
    lowest and keeps the partial products grouped by the weight they use:
    weight used -> list of (degree, text, factors), or (degree, text) with
    `texts`, each text with a leading space, up to the top weight.  Each
    generator's powers that fit are written once; each group, heaviest
    first, stays as it is (exponent 0) and appends its products with every
    power that fits to the group of the weight then used, which is above its
    own and so already passed.  The two lowest-rank generators (the point
    class and the next one on the plane) close the groups for each weight n
    without storing another level (`_close`, from the walk's closing table).
    The groups are kept for the weights still to come, and dropped, each
    once it is closed, at the top weight; each basis is handed out and kept
    by the walk no longer.
    """
    as_prime(p)
    if weights and weights[0] < 0:
        raise ValueError(f"weight must be >= 0, got {weights[0]}")
    ordered: list[Generator] = sorted(gens, key=_RANK)
    if len(set(map(_RANK, ordered))) != len(ordered):
        raise ValueError("duplicate generators")
    for g in ordered:
        if g.weight < 1:
            raise ValueError(f"generator {g.name} needs weight >= 1, got {g.weight}")
    if not weights:
        return
    top = weights[-1]
    groups: dict[int, list] = {0: [(0, "")] if texts else [(0, "", ())]}
    for g in ordered[:1:-1]:
        powers = _powers(g, top)
        for used in sorted(groups, reverse=True):
            parents, room = groups[used], top - used
            for w, factor, dd, name in powers:
                if w > room:
                    break
                if dmax is not None:
                    # the powers' degrees ascend, so each keeps fewer parents
                    parents = [q for q in parents if q[0] <= dmax - dd]
                    if not parents:
                        break
                group = groups.get(used + w)
                if group is None:
                    group = groups[used + w] = []
                append = group.append
                if texts:
                    for degree, text in parents:
                        append((degree + dd, name + text))
                else:
                    for degree, text, tail in parents:
                        append((degree + dd, name + text, factor + tail))
    second_powers = [(0, (), 0, "")]
    for g in ordered[1:2]:
        second_powers += [q for q in _powers(g, top) if dmax is None or q[2] <= dmax]
    closing: dict[int, list] = {}
    for n in weights:
        if n == 0 or not ordered:
            # the empty product alone at weight 0, and nothing above it without generators
            yield {0: ["1" if texts else Monomial()]} if n == 0 else {}
            continue
        pending = list(groups.items())
        if n == top:
            groups.clear()
        yield _close(pending, n, ordered[0], second_powers, closing, texts)


def _close(
    pending: list, n: int, low: Generator, second_powers: list, closing: dict, texts: bool
) -> dict[int, list]:
    """The weight-n basis by degree from the groups `pending` (weight used, partial
    products) of the walk, popped last-inserted first, and emptied: in that
    order each degree's list arrives closer to sorted than in the order of
    insertion, which leaves its sort more work.

    A group heavier than n closes nothing, the one of weight n the empty
    product alone, and any other every product in `closing[n - used]`: the
    walk's table, filled as each weight left is first met, of the (factors,
    degree, text) products of `low` and the second-lowest generator (its
    powers `second_powers`, exponent 0 first) that fill it.  Factors are
    prepended as the rank falls, so they arrive in canonical order, and a
    product's text is the closer's followed by the partial one's, which
    starts with a space.  Each product is filed in a list for its degree as
    that text if `texts` (a listing or a count), and otherwise as a Monomial
    built with it by the trusted `Monomial._canonical`; each list is sorted
    by the text, which is distinct within a weight, and the degrees are
    handed out in ascending order.
    """
    canonical = Monomial._canonical
    # texts come many to a degree, Monomials one or two: each filed the cheaper way
    by_degree: dict[int, list] = defaultdict(list) if texts else {}
    while pending:
        # rebinding `group` drops this frame's reference to a popped group
        used, group = pending.pop()
        left = n - used
        if left < 0:
            continue
        if not left:
            # the group of weight n, closed by the empty product: its texts lose their space
            for q in group:
                same = by_degree.get(q[0])
                if same is None:
                    same = by_degree[q[0]] = []
                same.append(q[1][1:] if texts else canonical(q[2], n, q[0], q[1][1:]))
            continue
        if (closers := closing.get(left)) is None:
            closers = closing[left] = []
            for w, factor, dd, name in second_powers:
                if w > left:
                    break
                e, rest = divmod(left - w, low.weight)
                if rest or (e > 1 and low.exterior):
                    continue
                if e:
                    factor, dd = ((low, e),) + factor, e * low.degree + dd
                    name = _power(low, e, "") + name
                else:
                    name = name[1:]  # the second's power alone
                closers.append((factor, dd, name))
        if texts:
            for _, dd, name in closers:
                for degree, text in group:
                    by_degree[degree + dd].append(name + text)
            continue
        for factor, dd, name in closers:
            for degree, text, tail in group:
                degree += dd
                same = by_degree.get(degree)
                if same is None:
                    same = by_degree[degree] = []
                same.append(canonical(factor + tail, n, degree, name + text))
    key = None if texts else _TEXT
    for same in by_degree.values():
        same.sort(key=key)
    return dict(sorted(by_degree.items()))


def _powers(g: Generator, n: int) -> list[tuple]:
    """(weight, factors, degree, text) of g^e for every e >= 1 that fits in
    weight n, at most 1 if g is exterior."""
    w, d = g.weight, g.degree
    top = min(n // w, 1) if g.exterior else n // w
    return [(e * w, ((g, e),), e * d, _power(g, e)) for e in range(1, top + 1)]


def _power(g: Generator, e: int, sep: str = " ") -> str:
    """The canonical text of g^e, e >= 1, after `sep`."""
    return sep + g.name if e == 1 else f"{sep}{g.name}^{e}"


def poincare(gens, n: int, p) -> GradedDims:
    """Degree-indexed dimensions of the weight-n monomial basis, by
    enumeration, over the walk's texts; the oracle for `series_coefficient`."""
    (groups,) = _monomial_bases(gens, range(n, n + 1), p, texts=True)
    return GradedDims({d: len(same) for d, same in groups.items()})


def total_dim(n: int, p) -> int:
    """Total dimension of the weight-n homology of planar configurations."""
    return _plane_totals(n, p)[n]


def _plane_totals(max_weight: int, p) -> list[int]:
    """Plane total dimensions of the weights <= max_weight from the
    one-variable series, which resolves no degree and builds no table."""
    from .catalog import plane_config_generators

    _check_total_weight(max_weight)
    return _weight_totals(plane_config_generators(p, max(max_weight, 1)), max_weight)


def _check_total_weight(max_weight: int) -> None:
    """Refuse a weight `_plane_totals` cannot reach, before anything is built."""
    if not 0 <= max_weight <= _MAX_TOTAL_WEIGHT:
        raise ValueError(f"weight must be in 0..{_MAX_TOTAL_WEIGHT}, got {max_weight}")


def _sweep(g: Generator, max_weight: int) -> range:
    """The weights that multiplying by `g`'s factor updates in place, in
    order: descending for an exterior factor 1 + x, which reads each weight
    below before it changes, and ascending for a geometric 1/(1 - x), which
    reads weights that already hold every power; `_strided_sweeps` strides it."""
    w0 = g.weight
    return range(max_weight, w0 - 1, -1) if g.exterior else range(w0, max_weight + 1)


def _strided_sweeps(gens, max_weight: int):
    """Each generator, heaviest first (a stable sort), with the weights its
    factor can change: only multiples of the gcd of the weights already
    expanded are nonzero, so with g_k the gcd of those and its own, the
    sweep steps by g_k, and a row off the stride stays 0.  The product of
    the factors does not depend on their order."""
    step = 0
    for g in sorted(gens, key=attrgetter("weight"), reverse=True):
        step = gcd(step, g.weight)
        sweep = _sweep(g, max_weight)
        yield g, sweep[sweep.start % step :: step]


def _weight_totals(gens, max_weight: int) -> list[int]:
    """Each weight's exact total dimension over all degrees, the
    one-variable series in Python ints, for the weights <= max_weight.  It
    bounds every cell of the two-variable table at every stage of its
    expansion.  `_strided_sweeps` visits no row that must stay 0, and the
    result does not depend on the order of `gens`."""
    totals = [0] * (max_weight + 1)
    totals[0] = 1
    for g, sweep in _strided_sweeps(gens, max_weight):
        w0 = g.weight
        for w in sweep:
            below = totals[w - w0]
            if below:
                totals[w] += below
    return totals


def _weight_tops(gens, max_weight: int) -> list[int]:
    """Each weight's highest degree of a monomial, -1 where there is none,
    for the weights <= max_weight: the sweep of `_weight_totals` in (max, +).
    It bounds every row's degrees at every stage of the expansion."""
    tops = [-1] * (max_weight + 1)
    tops[0] = 0
    for g, sweep in _strided_sweeps(gens, max_weight):
        w0, d0 = g.weight, g.degree
        for w in sweep:
            below = tops[w - w0]
            if below >= 0 and below + d0 > tops[w]:
                tops[w] = below + d0
    return tops


def series_table(gens, max_weight: int, dmax: int, p) -> BigradedDims:
    """The two-variable Hilbert series of the free algebra on `gens`,
    truncated to weight <= max_weight and degree <= dmax, every factor
    expanded over every weight: what a reader of many rows takes, and the
    oracle of the fold a reader of one or two takes (`_complete_table`).

    Each weight's row is one Python int holding its degrees at B bits each,
    B the bit length of the largest weight total: that total bounds every
    cell at every stage, so the shifted adds that expand the factors never
    carry from one cell into the next.  The rows' size is known before any
    is built: one sweep gives the totals, so B and a bound of B * (dmax + 1)
    bits a row, and only when the rows at that bound would pass
    MAX_SERIES_BITS does a second sweep give each weight's highest degree,
    for the exact size (`_check_series_size`).  A table of more than
    MAX_SERIES_BITS bits, counting each row as at least _WORD_BITS, raises
    ValueError.  When every generator of degree 0 is
    exterior, the table stops at the heaviest weight a monomial of degree
    <= dmax reaches, each generator taken once if exterior and dmax //
    degree times if not; the empty weights above it are not built.
    The factors are expanded by the same strided sweeps, so the table, its
    width and its size do not depend on the order of `gens`.
    """
    as_prime(p)
    if max_weight < 0 or dmax < 0:
        raise ValueError("bounds must be >= 0")
    _check_series_generators(gens)
    gens = [g for g in gens if g.weight <= max_weight and g.degree <= dmax]
    max_weight = _reach(gens, max_weight, dmax)
    _check_series_bits(_WORD_BITS * (max_weight + 1))
    width = max(_weight_totals(gens, max_weight)).bit_length()
    _check_series_size(
        max_weight + 1, width, dmax, lambda: _rows_bits(_weight_tops(gens, max_weight), width, dmax)
    )
    keep = (1 << (dmax + 1) * width) - 1
    return BigradedDims(_PackedRows(_expand(gens, max_weight, width, keep), width))


def _reach(gens, max_weight: int, dmax: int) -> int:
    """max_weight, or if lower, when every generator of degree 0 is
    exterior, the heaviest weight a monomial of degree <= dmax reaches:
    none holds a polynomial g more than dmax // g.degree times."""
    if any(not (g.degree or g.exterior) for g in gens):
        return max_weight
    return min(max_weight, sum(g.weight * (1 if g.exterior else dmax // g.degree) for g in gens))


def _check_series_size(rows: int, width: int, dmax: int, exact) -> None:
    """Refuse a table of `rows` rows at `width` bits per degree, truncated
    at dmax, whose exact size `exact()` passes MAX_SERIES_BITS.  No row takes
    more than max(width * (dmax + 1), _WORD_BITS) bits, so `exact`, which
    reads the highest degree of every row, runs only when `rows` times that
    passes the limit: a table far below it is sized by its width alone."""
    if rows * max(width * (dmax + 1), _WORD_BITS) > MAX_SERIES_BITS:
        _check_series_bits(exact())


def _rows_bits(tops: list[int], width: int, dmax: int) -> int:
    """The exact size of rows with the highest degrees `tops` (-1: empty),
    truncated at dmax: `width` bits per degree, each row at least
    _WORD_BITS; read only near MAX_SERIES_BITS (`_check_series_size`)."""
    least = -(-_WORD_BITS // width) - 1  # a row whose top is below it takes one word
    if dmax < least:
        return _WORD_BITS * len(tops)
    short = [t for t in tops if t < least]
    cells = sum(map(min, tops, repeat(dmax))) - sum(short) + len(tops) - len(short)
    return width * cells + _WORD_BITS * len(short)


def _check_series_bits(bits: int) -> None:
    if bits > MAX_SERIES_BITS:
        raise ValueError(
            f"series table of at least {bits} bits exceeds the limit of {MAX_SERIES_BITS}"
        )


def _expand(gens, max_weight: int, width: int, keep: int) -> list[int]:
    """The rows 0..max_weight of the series over `gens` at `width` bits per
    degree, masked by `keep`, each factor expanded in place by its strided
    sweep."""
    cap = keep.bit_length()
    rows = [0] * (max_weight + 1)
    rows[0] = 1
    for g, sweep in _strided_sweeps(gens, max_weight):
        w0, shift = g.weight, g.degree * width
        for w in sweep:
            below = rows[w - w0]
            if below:
                row = rows[w] + (below << shift)
                rows[w] = row & keep if row.bit_length() > cap else row
    return rows


def series_coefficient(gens, n: int, dmax: int | None, p) -> GradedDims:
    """Weight-n slice of the truncated Hilbert series; degree <= dmax.

    With dmax None the bound is n times the largest degree-to-weight ratio
    of the generators, which no weight-n monomial exceeds, so the slice is
    complete: the dimensions `poincare` counts by enumeration.  It is the
    one slice `_complete_table` hands out for [n], from the fold, which
    takes in the two lightest generators only at the weights row n reads.
    """
    return _complete_table(gens, [n], p, dmax)[n]


def _complete_table(gens, ns, p, dmax: int | None = None) -> dict[int, GradedDims]:
    """The weight slices {n: GradedDims} of the series for exactly the
    weights ns (ascending, nonempty), truncated at dmax or, if lower, at
    ns[-1] times the largest degree-to-weight ratio of the generators: no
    monomial of weight n <= ns[-1] passes n times that ratio, and generators
    heavier than n never reach row n, so slice n is
    `series_coefficient(gens, n, dmax, p)`.

    One or two slices (`poincare`, `sign`, Zp, the S1 and `delta` counts)
    come from the fold, `_folded_rows`, which builds no other row.  A reader
    of more, a range of weights (the verification tables,
    `bv._equivariant_s1_dims` over a range), reads most rows of the table
    anyway, and its slices are read off `series_table`, which sweeps every
    factor over every weight in one tight loop each."""
    if ns[0] < 0:
        raise ValueError(f"weight must be >= 0, got {ns[0]}")
    _check_series_generators(gens)
    bound = _top_degree(_steepest(gens), ns[-1])
    dmax = bound if dmax is None else min(dmax, bound)
    if len(ns) > 2:
        table = series_table(gens, ns[-1], dmax, p)
        return {n: table.weight_slice(n) for n in ns}
    return _folded_rows(gens, ns, dmax, p)


def _steepest(gens) -> Generator | None:
    """The first generator of largest degree-to-weight ratio, None for none."""
    steepest = None
    for g in gens:
        if steepest is None or g.degree * steepest.weight > steepest.degree * g.weight:
            steepest = g
    return steepest


def _top_degree(steepest: Generator | None, n: int) -> int:
    """n times the steepest generator's degree-to-weight ratio, rounded
    down: no weight-n monomial has a higher degree."""
    return steepest.degree * n // steepest.weight if steepest else 0


class _Factor:
    """A generator's factor with its weight counted in a table's stride."""

    __slots__ = ("weight", "degree", "exterior")

    def __init__(self, g: Generator, stride: int):
        self.weight, self.degree, self.exterior = g.weight // stride, g.degree, g.exterior


def _folded_rows(gens, ns, dmax: int, p) -> dict[int, GradedDims]:
    """The slices {n: GradedDims} of the series over `gens` for the weights
    ns, truncated at dmax, each decoded from its one packed row (`_decode`):
    the table H of every generator but the two lightest, times one of those
    two (the inner one) on H's rows, times the other (the outer one) at each
    row read.

    H is expanded by the strided sweeps on its own stride, the gcd of its
    weights, and, when its generators of degree 0 are all exterior, only up
    to the heaviest weight a monomial of degree <= dmax reaches (`_reach`):
    past it row n is a sum of the rows below, homological stability.  The
    inner generator is a polynomial one if either is, of degree 0 if either
    is, so that it is a running sum over H's rows (`_inner_rows`), and the
    outer one adds the terms below each row read (`_outer_rows`).

    Every int built is a row, at a weight <= ns[-1], of a product of these
    factors, and a monomial counted in one of its cells is its H part times
    powers of the light generators, which the cell's weight and degree fix
    unless their degree-to-weight ratios are equal (`_fillings`).  So the
    count of H's monomials of weight <= ns[-1] times `_fillings` bounds
    every cell, and its bit length is the width.  H, the inner generator's
    rows on H's stride and the rows read are sized, each row at least
    _WORD_BITS, before anything is built, and more than MAX_SERIES_BITS
    bits raises ValueError.  The width comes from the totals sweep alone,
    and the highest degree of each row is read only when the rows at the
    width times dmax + 1 bits each would pass the limit
    (`_check_series_size`).
    """
    as_prime(p)
    if dmax < 0:
        raise ValueError("bounds must be >= 0")
    top_weight = ns[-1]
    gens = [g for g in gens if g.weight <= top_weight and g.degree <= dmax]
    gens.sort(key=attrgetter("weight"))
    light, heavy = gens[:2], gens[2:]
    # polynomial before exterior, degree 0 first among them: inner, then outer
    light.sort(key=lambda g: (g.exterior, g.degree > 0))
    step = 0
    for g in heavy:
        step = gcd(step, g.weight)
    # H's row k is its weight k * step; with no heavy generator, weight 0 alone
    last = _reach(heavy, top_weight, dmax) // step if step else 0
    step = step or 1
    scaled = [_Factor(g, step) for g in heavy]
    inner_rows = last + 1 if light and not light[0].exterior else 0
    rows = last + 1 + inner_rows + len(ns)
    _check_series_bits(_WORD_BITS * rows)
    width = (sum(_weight_totals(scaled, last)) * _fillings(light, top_weight)).bit_length()

    def exact() -> int:
        # no weight-x row of a product passes x times its steepest factor's ratio
        steepest = _steepest(heavy + light[:1])
        inner_tops = [_top_degree(steepest, k * step) for k in range(inner_rows)]
        steepest = _steepest(gens)
        read_tops = [_top_degree(steepest, n) for n in ns]
        tops = (_weight_tops(scaled, last), inner_tops, read_tops)
        return sum(_rows_bits(t, width, dmax) for t in tops)

    _check_series_size(rows, width, dmax, exact)
    keep = (1 << (dmax + 1) * width) - 1
    hrows = _expand(scaled, last, width, keep)
    rows_at = _inner_rows(hrows, step, light[:1], width, keep)
    del hrows
    rows = _outer_rows(rows_at, ns, light[1:], width, dmax, keep)
    return {n: GradedDims._trusted(_decode(row, width)) for n, row in rows.items()}


def _fillings(light, max_weight: int) -> int:
    """The most ways powers of the light generators fill one weight <=
    max_weight at one degree: one, unless their degree-to-weight ratios are
    equal; then two if either is exterior, as its exponent fixes the other's,
    and otherwise one per exponent of the heavier one."""
    if len(light) < 2 or light[0].weight * light[1].degree != light[1].weight * light[0].degree:
        return 1
    if light[0].exterior or light[1].exterior:
        return 2
    return max_weight // max(g.weight for g in light) + 1


def _forward(row: int, bits: int, keep: int) -> int:
    """row times t^j, `bits` the shift j * width, masked by keep."""
    if not bits:
        return row
    return (row << bits) & keep if bits < keep.bit_length() else 0


def _inner_rows(hrows: list, step: int, inner: list, width: int, keep: int):
    """The function taking a range of weights to the rows there of H times
    the inner generator's factor, H given by its rows `hrows` on the
    multiples of `step`; H itself with no inner generator.

    With w and d the generator's weight and degree, an exterior factor adds
    two of H's rows, F(x) = H(x) + t^d H(x - w).  A polynomial one is T(x) =
    H(x) + t^d T(x - w): the rows of H that reach weight x are those at k *
    step = x - j w, j >= 0, one residue class of k modulo c = w / gcd(step,
    w), each j = step / gcd(step, w) past the one before.  So T is kept on
    H's rows, each class its running sum (in C, for d = 0) or its
    recurrence, and T(x) is the class's last row below x times t^(j d).
    """
    last = len(hrows) - 1

    def h(x: int) -> int:
        k, off = divmod(x, step)
        return hrows[k] if not off and 0 <= k <= last else 0

    if not inner:
        return lambda xs: [h(x) for x in xs]
    (g,) = inner
    w, shift = g.weight, g.degree * width
    if g.exterior:
        return lambda xs: [h(x) + _forward(h(x - w), shift, keep) for x in xs]
    f = gcd(step, w)
    c, advance, cap = w // f, shift * (step // f), keep.bit_length()
    classes = []
    for r in range(min(c, last + 1)):
        if not shift:
            classes.append(list(accumulate(hrows[r::c])))
            continue
        acc, running = 0, []
        for row in hrows[r::c]:
            acc = (acc << advance & keep if advance < cap else 0) + row
            running.append(acc)
        classes.append(running)
    if c == 1 and not shift:
        # the point class: T(x) is the running sum of H's rows up to x
        (running,) = classes
        return lambda xs: [running[min(x // step, last)] if not x % f else 0 for x in xs]
    # k * step = x (mod w) for k in the class of (x / f) / (step / f) mod c
    inverse = pow(step // f, -1, c)

    def t(x: int) -> int:
        if x % f:
            return 0
        r = x // f * inverse % c
        k = min(x // step, last)
        if k < r:
            return 0
        i = (k - r) // c
        return _forward(classes[r][i], shift * ((x - (r + i * c) * step) // w), keep)

    return lambda xs: [t(x) for x in xs]


def _outer_rows(rows_at, ns, outer: list, width: int, dmax: int, keep: int) -> dict[int, int]:
    """Row n of F times the outer generator's factor for each n of ns, F's
    rows at a range of weights given by `rows_at`; F's own rows with none.

    With w and d its weight and degree, row n is the sum of t^(j d) F(n - j
    w) over j <= 1 for an exterior factor and every j for a polynomial one,
    but the terms with j d > dmax pass the mask: Horner's rule along n's
    residue class mod w, from the lowest term that reaches row n.
    """
    if not outer:
        steps, w, shift = 0, 1, 0
    else:
        (g,) = outer
        w, shift = g.weight, g.degree * width
        steps = 1 if g.exterior else dmax // g.degree if g.degree else None
    cap = keep.bit_length()
    rows = {}
    for n in ns:
        acc = 0
        for row in rows_at(range(n % w if steps is None else max(n % w, n - steps * w), n + 1, w)):
            if shift:
                acc = acc << shift & keep if shift < cap else 0
            acc += row
        rows[n] = acc
    return rows


def _check_series_generators(gens) -> None:
    """Refuse a generator the series cannot expand, before anything is built."""
    if any(g.weight < 1 or g.degree < 0 for g in gens):
        raise ValueError("series generators need weight >= 1 and degree >= 0")
