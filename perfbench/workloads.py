"""Seeded operation streams for the three benchmark workloads.

An operation is one `confhom` command line, given to `confhom.cli.main` as
an argv list.  Each workload is a fixed list of *cells* (a command template
with its parameter range); the range of each cell is split into three
strata.  A run is a sequence of rounds: round r issues one operation per
cell c, from stratum (c + c // 3 + r) mod 3.  Cells come in groups of three
(one command at three primes, or one template in three formats), so the
strata form a Latin square: every round holds each stratum equally often,
and any three consecutive rounds cover every stratum of every cell.
Inside a stratum, values are visited in bit-reversal order of their
positions, so that any number of visits is spread evenly over the
stratum, and repeat only after the stratum is exhausted.  A cell's free
choice (sign's q, verify's --max-q) cycles with the round, as
(r // 3 + phase) mod 3, so every choice meets every stratum once in nine
rounds.

The seed draws each cell's phase and moves every position of a stratum
up by 0 or 1 (its shift).  Runs with different seeds therefore visit
different inputs, each one the same command as another seed runs at the
same point of the stream, on the same or a neighbouring value: the same
kind and amount of work, which keeps run-to-run spread low.  Verify
cells take no shift: each step of --max-n costs about 17% more at p = 2,
and their strata hold three values, so a shift would move the tail
latency with the seed; their seed-drawn part is the --max-q phase, which
moves the cost by a few percent.  (Starting the order at a random
position, and drawing the free choice at random, made the median and
tail latency of a 30-second run depend on the seed by about 10%.)
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import count

STRATA = 3
SHIFTS = 2
WORKLOADS = ("count-queries", "basis-listings", "verify-suite")
# The percentile `latency_tail_s` reports: the highest that leaves at least
# ten operations beyond it in a 30-second run on a host at half the
# reference speed.  It is fixed per workload, not worked out from each
# run's operation count, because that count follows the host's speed, and
# the costs near the top of a stratified stream are far apart: with fixed
# per-operation costs, verify-suite's highest percentile with ten
# operations beyond it moved by 45% between 300 and 520 operations.
TAIL_PERCENTILE = {"count-queries": 90, "basis-listings": 96, "verify-suite": 95}
FORMATS = ("json", "table", "csv")
VERIFY_TARGETS = (
    "delta2",
    "dimension-identity",
    "bijection",
    "classify",
    "stability",
    "cross-route",
    "all",
)


@dataclass(frozen=True)
class Op:
    """One operation: its position in the stream and its argv."""

    index: int
    round: int
    argv: tuple[str, ...]

    def text(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Cell:
    """A command template over a parameter range.

    `values` is the ordered list of admissible values of the ranged
    parameter; `build(value, choice)` returns the argv, with `choice` in
    0..2 for any further free parameter.  `shift` says whether the seed
    may move the visited values up by one.
    """

    values: tuple
    build: object
    shift: bool = True


def _ns(lo: int, hi: int, p: int | None = None) -> tuple[int, ...]:
    """n in [lo, hi]; with p, only n = 0, 1 mod p (where Zp / the tensor
    regime is defined)."""
    return tuple(n for n in range(lo, hi + 1) if p is None or n % p in (0, 1))


def _coker_ns(lo: int, hi: int, p: int) -> tuple[int, ...]:
    """n in [lo, hi] outside 0, 1 mod p: the cokernel regime."""
    return tuple(n for n in range(lo, hi + 1) if n % p not in (0, 1))


def _count_cells() -> list[Cell]:
    # Dimension-only answers at large n.  Ranges are set so that one
    # operation takes about 0.1-0.3 s on the seed commit (sign at p = 5:
    # about 0.01 s), and a round about 1.5 s.  A narrow spread of costs
    # keeps the median and the tail latency of a run steady.
    cells = []
    for p, lo, hi in ((2, 78, 104), (3, 150, 195), (5, 290, 400)):
        cells.append(Cell(_ns(lo, hi),
                          lambda n, k, p=p: ("poincare", "--p", str(p), "--n", str(n))))
    # At odd p the sign answer vanishes unless n = 0, 1 mod p.
    for p, lo, hi in ((2, 78, 104), (3, 230, 280), (5, 200, 400)):
        cells.append(Cell(_ns(lo, hi, p),
                          lambda n, k, p=p: ("sign", "--p", str(p), "--n", str(n),
                                             "--q", str(k))))
    for p, lo, hi in ((2, 78, 104), (3, 150, 195), (5, 280, 400)):
        cells.append(Cell(_ns(lo, hi, p),
                          lambda n, k, p=p: ("equivariant", "--group", "Zp",
                                               "--p", str(p), "--n", str(n))))
    return cells


def _listing_cells() -> list[Cell]:
    # Answers that are the monomials or matrices themselves, at moderate n.
    # Every template appears once per output format, so rendering work is
    # part of every round.
    templates = [
        (_ns(60, 90), lambda n: ("basis", "--p", "2", "--n", str(n))),
        (_ns(110, 170), lambda n: ("basis", "--p", "3", "--n", str(n))),
        # the tensor regime (n = 0, 1 mod 3) and the cokernel regime
        (_ns(42, 66, 3), lambda n: ("equivariant", "--group", "S1", "--p", "3", "--n", str(n))),
        (_coker_ns(80, 143, 3),
         lambda n: ("equivariant", "--group", "S1", "--p", "3", "--n", str(n))),
        (_ns(60, 120), lambda n: ("delta", "--p", "3", "--n", str(n))),
        (_ns(120, 200), lambda n: ("delta", "--p", "5", "--n", str(n))),
    ]
    cells = []
    for values, argv in templates:
        for fmt in FORMATS:
            cells.append(Cell(values,
                              lambda n, k, argv=argv, fmt=fmt: argv(n) + ("--format", fmt)))
    return cells


def _verify_cells() -> list[Cell]:
    # Every verify target at every p, with --max-n in 25..33 (25..29 at
    # p = 2) and --max-q in 5..7, above the defaults of 24 and 4.  At p = 2,
    # `all` and `cross-route` cost 0.2-0.4 s up to --max-n 29 and 0.7 s at
    # 33; the lower cap keeps the top of the cost range, where the tail
    # latency falls, dense.
    cells = []
    for target in VERIFY_TARGETS:
        for p, hi in ((2, 29), (3, 33), (5, 33)):
            cells.append(Cell(_ns(25, hi),
                              lambda n, k, t=target, p=p: (
                                  "verify", t, "--p", str(p), "--max-n", str(n),
                                  "--max-q", str(5 + k)), shift=False))
    return cells


_CELLS = {
    "count-queries": _count_cells,
    "basis-listings": _listing_cells,
    "verify-suite": _verify_cells,
}


def cells_of(workload: str) -> list[Cell]:
    if workload not in _CELLS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _CELLS[workload]()


def _strata(values: tuple) -> list[tuple]:
    k, extra = divmod(len(values), STRATA)
    out, start = [], 0
    for s in range(STRATA):
        end = start + k + (1 if s < extra else 0)
        out.append(values[start:end])
        start = end
    return out


def _spread_order(values: tuple, shifts: int, shift: int) -> list:
    """Positions 0 .. m-1 in bit-reversal order, each moved up by `shift`;
    m is as large as leaves every shift below `shifts` inside `values`."""
    m = max(1, len(values) - shifts + 1)
    shift = min(shift, len(values) - m)
    bits = max(1, (m - 1).bit_length())
    order = []
    for k in range(1 << bits):
        j = int(format(k, f"0{bits}b")[::-1], 2)
        if j < m:
            order.append(values[j + shift])
    return order


def operations(workload: str, seed: int):
    """The infinite operation stream of a workload for a seed."""
    cells = cells_of(workload)
    rng = random.Random(f"{workload}:{seed}")
    pools, phases = [], []
    for cell in cells:
        shifts = SHIFTS if cell.shift else 1
        pools.append([_spread_order(values, shifts, rng.randrange(shifts))
                      for values in _strata(cell.values)])
        phases.append(rng.randrange(3))
    visits = [[0] * STRATA for _ in cells]
    index = count()
    for r in count():
        for c, cell in enumerate(cells):
            s = (c + c // STRATA + r) % STRATA
            order = pools[c][s]
            value = order[visits[c][s] % len(order)]
            visits[c][s] += 1
            yield Op(next(index), r, cell.build(value, (r // STRATA + phases[c]) % 3))


def ops_digest(ops) -> str:
    """A short digest of an operation list, to reproduce a run from its seed."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.text().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
