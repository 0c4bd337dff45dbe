"""Time the weight slices the count answers read from the Hilbert series,
on the shapes the count-queries workload reads, and optionally against
another tree.

    python tools/series_timings.py                          # this tree
    python tools/series_timings.py --parent OTHER/src --out BENCH_series.json

A shape is one command at one prime: the slices of three of the weights
the workload draws for it, read back to back, each decoded into its cells,
through `confhom.enumeration.series_coefficient` with no degree bound for
`poincare`, and through `confhom.bv._rows_times_circle` with the default
circle bound for `sign` (step 2) and Zp (step 1).  The generators are made
once, outside the timed runs.  Rounds, runs and the figures reported are
those of `walk_timings.py`, whose loader and round timing this reuses.
Standard library only.
"""

from __future__ import annotations

import sys

from walk_timings import _modules, run


def _shapes(pkg) -> dict:
    """Each shape as a function that reads its slices once."""
    algebra, bv, catalog, enumeration, signhom = _modules(
        pkg, "algebra", "bv", "catalog", "enumeration", "signhom")

    def poincare(p, ns):
        prime = algebra.as_prime(p)
        args = [(catalog.plane_config_generators(prime, n), n) for n in ns]

        def read_all():
            for gens, n in args:
                enumeration.series_coefficient(gens, n, None, prime)
        return read_all

    def circle(prime, args, step):
        def read_all():
            for gens, n in args:
                bv._rows_times_circle(gens, [n], prime, None, step)
        return read_all

    def sign(p, ns):
        # q cycles with the workload's rounds: the weights at q = 0, 1, 2 in turn
        prime = algebra.as_prime(p)
        args = [(signhom._shifted_generators(prime, 2 * q + 1, n), n) for q, n in enumerate(ns)]
        return circle(prime, args, 2)

    def zp(p, ns):
        prime = algebra.as_prime(p)
        return circle(prime, [(catalog.plane_config_generators(prime, n), n) for n in ns], 1)

    # the workload's weights for each command and prime: its least, one inside, its largest
    return {
        "poincare p=2 n=78,91,104": poincare(2, (78, 91, 104)),
        "poincare p=3 n=150,172,195": poincare(3, (150, 172, 195)),
        "poincare p=5 n=290,350,400": poincare(5, (290, 350, 400)),
        "sign p=2 n=78,91,104": sign(2, (78, 91, 104)),
        "sign p=3 n=231,256,280": sign(3, (231, 256, 280)),
        "sign p=5 n=200,301,400": sign(5, (200, 301, 400)),
        "zp p=2 n=78,91,104": zp(2, (78, 91, 104)),
        "zp p=3 n=150,172,195": zp(3, (150, 172, 195)),
        "zp p=5 n=280,341,400": zp(5, (280, 341, 400)),
    }


if __name__ == "__main__":
    sys.exit(run(None, __doc__, _shapes, "series slice shape"))
