"""Monomial bases by weight, and their dimension counts two independent ways.

Counts come from the Hilbert series: `series_coefficient` expands the
two-variable series of the free graded-commutative algebra (a geometric
factor per polynomial generator, `1 + t^d s^w` per exterior one) in place
on an int64 weight x degree table, and every dimension-only command reads
its answer from it; `total_dim` reads the one-variable series in weight
alone.  `monomial_basis` enumerates the canonical monomials of a fixed
weight, for callers that need the monomials themselves: it walks the
generators down by rank, closes the lowest-rank one in one step, writes
each monomial's text in the walk, and builds through the trusted
`Monomial._canonical`, so the final sort calls no `text()`.  `poincare`
counts the monomials by degree, the enumeration side of the series in the
demos and tests; the verification suite counts the plane basis it has
already swept.

The series is exact or refused: every cell is bounded by the weight's total
dimension, computed first with Python ints, and a table whose totals reach
2^63 or whose size exceeds `MAX_SERIES_CELLS` raises ValueError instead of
wrapping or exhausting memory; `total_dim` refuses weights past 2^20.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter

import numpy as np

from .algebra import Generator, Monomial, as_prime

# Largest series table built before refusing: 2^24 int64 cells, 128 MiB.
MAX_SERIES_CELLS = 1 << 24
# Largest weight of `total_dim`: 2^20 Python ints, 50 MiB at p = 2 (the widest).
_MAX_TOTAL_WEIGHT = 1 << 20
_INT64_LIMIT = 1 << 63
# `Monomial.sort_key` read from the slots, for monomials built with their text.
_DEGREE_TEXT = attrgetter("degree", "_text")


class GradedDims:
    """A finite map degree -> dimension; the universal answer format."""

    __slots__ = ("dims",)

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

    @classmethod
    def of_degrees(cls, degrees) -> "GradedDims":
        out: dict[int, int] = {}
        for d in degrees:
            out[d] = out.get(d, 0) + 1
        return cls(out)

    def total(self) -> int:
        return sum(self.dims.values())

    def to_pairs(self) -> list[list[int]]:
        return [[d, self.dims[d]] for d in sorted(self.dims)]

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
        # Degrees lo..dmax; each residue class mod step becomes its running sum.
        acc = [0] * (dmax - lo + 1)
        for d, n in self.dims.items():
            if d <= dmax:
                acc[d - lo] = n
        for r in range(step):
            acc[r::step] = accumulate(acc[r::step])
        return GradedDims._trusted({lo + i: n for i, n in enumerate(acc) if n})

    def __getitem__(self, d: int) -> int:
        return self.dims.get(d, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(frozenset(self.dims.items()))

    def __repr__(self) -> str:
        return f"GradedDims({self.dims!r})"


class BigradedDims:
    """A finite map (weight, degree) -> dimension over a dense int64 count
    table indexed [weight, degree] (the spectral-sequence page indexes it
    [fiber degree, base column]); `dims` is the dict of its nonzero cells,
    made when first read, and `weight_slice` reads one row."""

    __slots__ = ("_dims", "_table")

    def __init__(self, table: np.ndarray):
        self._dims = None
        self._table = table

    @property
    def dims(self) -> dict[tuple[int, int], int]:
        if self._dims is None:
            ws, ds = np.nonzero(self._table)
            self._dims = {
                (int(w), int(d)): int(n) for w, d, n in zip(ws, ds, self._table[ws, ds])
            }
        return self._dims

    def weight_slice(self, w: int) -> GradedDims:
        if not 0 <= w < len(self._table):
            return GradedDims()
        return GradedDims({d: n for d, n in enumerate(self._table[w].tolist()) if n})

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


def monomial_basis(gens, n: int, p) -> list[Monomial]:
    """All canonical monomials of total weight exactly n over `gens`.

    Exterior generators contribute exponent at most one.  The result is
    sorted by (degree, canonical text).

    The recursion chooses exponents from the highest rank down, carrying
    the weight still to fill and the degree so far, and emits a monomial as
    soon as nothing remains.  The lowest-rank generator (the point class on
    the plane) is closed in one step: its exponent is the remaining weight
    over its own, and the branch is dropped only when that leaves a
    remainder or gives an exterior generator exponent above one.  Factors
    are prepended as the rank falls, so they arrive in canonical order, and
    each node carries its canonical text: the new factor's text, a space,
    then the parent's text.  Each monomial is built with that text by the
    trusted `Monomial._canonical`, and the sort reads it from the slot.
    """
    as_prime(p)
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")
    ordered: list[Generator] = sorted(gens, key=lambda g: g.rank)
    if len({g.rank for g in ordered}) != len(ordered):
        raise ValueError("duplicate generators")
    if not ordered:
        return [Monomial()] if n == 0 else []
    canonical = Monomial._canonical
    out: list[Monomial] = []
    low = ordered[0]
    descending = ordered[:0:-1]
    depth = len(descending)

    # `text` is the node's canonical text, "" at the root.
    def extend(idx: int, remaining: int, degree: int, tail: tuple, text: str) -> None:
        if remaining == 0:
            out.append(canonical(tail, n, degree, text or "1"))
            return
        sep = " " + text if text else ""
        if idx == depth:
            e, r = divmod(remaining, low.weight)
            if not r and (e == 1 or not low.exterior):
                name = low.name if e == 1 else f"{low.name}^{e}"
                out.append(canonical(((low, e),) + tail, n, degree + e * low.degree, name + sep))
            return
        g = descending[idx]
        extend(idx + 1, remaining, degree, tail, text)
        top = remaining // g.weight
        if g.exterior:
            top = min(top, 1)
        for e in range(1, top + 1):
            name = g.name if e == 1 else f"{g.name}^{e}"
            extend(
                idx + 1,
                remaining - e * g.weight,
                degree + e * g.degree,
                ((g, e),) + tail,
                name + sep,
            )

    extend(0, n, 0, (), "")
    out.sort(key=_DEGREE_TEXT)
    return out


def _by_degree(monomials) -> dict[int, list[Monomial]]:
    out: dict[int, list[Monomial]] = {}
    for m in monomials:
        out.setdefault(m.degree, []).append(m)
    return out


def poincare(gens, n: int, p) -> GradedDims:
    """Degree-indexed dimensions of the weight-n monomial basis, by
    enumeration; the oracle for `series_coefficient`."""
    return GradedDims.of_degrees(m.degree for m in monomial_basis(gens, n, p))


def total_dim(n: int, p) -> int:
    """Total dimension of the weight-n homology of planar configurations."""
    return _plane_totals(n, p)[n]


def _plane_totals(max_weight: int, p) -> list[int]:
    """Plane total dimensions of the weights <= max_weight from the
    one-variable series, which resolves no degree and builds no table."""
    from .catalog import plane_config_generators

    if not 0 <= max_weight <= _MAX_TOTAL_WEIGHT:
        raise ValueError(f"weight must be in 0..{_MAX_TOTAL_WEIGHT}, got {max_weight}")
    return _weight_totals(plane_config_generators(p, max(max_weight, 1)), max_weight)


def _weight_totals(gens, max_weight: int) -> list[int]:
    """Exact total dimension of each weight <= max_weight over all degrees:
    the one-variable series, in Python ints.  It bounds every cell of the
    two-variable table at every stage of its expansion."""
    totals = [1] + [0] * max_weight
    for g in gens:
        w0 = g.weight
        sweep = range(max_weight, w0 - 1, -1) if g.exterior else range(w0, max_weight + 1)
        for w in sweep:
            totals[w] += totals[w - w0]
    return totals


def series_table(gens, max_weight: int, dmax: int, p) -> BigradedDims:
    """The two-variable Hilbert series of the free algebra on `gens`,
    truncated to weight <= max_weight and degree <= dmax.

    Raises ValueError rather than build more than MAX_SERIES_CELLS cells or
    let a coefficient reach 2^63.
    """
    as_prime(p)
    if max_weight < 0 or dmax < 0:
        raise ValueError("bounds must be >= 0")
    if any(g.weight < 1 or g.degree < 0 for g in gens):
        raise ValueError("series generators need weight >= 1 and degree >= 0")
    cells = (max_weight + 1) * (dmax + 1)
    if cells > MAX_SERIES_CELLS:
        raise ValueError(
            f"series table of {cells} cells exceeds the limit of {MAX_SERIES_CELLS}"
        )
    gens = [g for g in gens if g.weight <= max_weight]
    largest = max(_weight_totals(gens, max_weight))
    if largest >= _INT64_LIMIT:
        raise ValueError(f"series coefficients reach {largest}, beyond exact int64 range")
    table = np.zeros((max_weight + 1, dmax + 1), dtype=np.int64)
    table[0, 0] = 1
    for g in gens:
        w0, d0 = g.weight, g.degree
        if d0 > dmax:
            continue
        if g.exterior:
            # Overlapping in-place add reads the old values: the factor 1 + t^d0 s^w0.
            table[w0:, d0:] += table[: max_weight + 1 - w0, : dmax + 1 - d0]
        else:
            # In-place forward sweep realizes the geometric factor 1/(1 - t^d0 s^w0),
            # w0 rows at a time: each block reads only the finished block below it.
            for start in range(w0, max_weight + 1, w0):
                stop = min(start + w0, max_weight + 1)
                table[start:stop, d0:] += table[start - w0 : stop - w0, : dmax + 1 - d0]
    return BigradedDims(table)


def series_coefficient(gens, n: int, dmax: int | None, p) -> GradedDims:
    """Weight-n slice of the truncated Hilbert series; degree <= dmax.

    With dmax None the bound is n times the largest degree-to-weight ratio
    of the generators, which no weight-n monomial exceeds, so the slice is
    complete: the dimensions `poincare` counts by enumeration.
    """
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")
    if dmax is None:
        dmax = max((g.degree * n // g.weight for g in gens), default=0)
    return series_table(gens, n, dmax, p).weight_slice(n)
