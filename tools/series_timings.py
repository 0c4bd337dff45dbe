"""Time the count answers' series tables, `confhom.enumeration._complete_table`,
on the shapes the count-queries workload reads, and optionally against
another tree.

    python tools/series_timings.py                          # this tree
    python tools/series_timings.py --parent OTHER/src --out BENCH_series.json

A shape is one command at one prime: the one-row tables of three of the
weights the workload draws for it, built back to back, with the degree
bound the command passes (none for `poincare`, the default circle bound for
`sign` and Zp).  The generators are made once, outside the timed runs.
Rounds, runs and the figures reported are those of `walk_timings.py`,
whose loader and round timing this reuses.  Standard library only.
"""

from __future__ import annotations

import sys

from walk_timings import _modules, run


def _shapes(pkg) -> dict:
    """Each shape as a function that builds its tables once."""
    algebra, bv, catalog, enumeration, signhom = _modules(
        pkg, "algebra", "bv", "catalog", "enumeration", "signhom")

    def plane(p, ns, circle):
        prime = algebra.as_prime(p)
        return [(catalog.plane_config_generators(prime, n), [n], prime,
                 bv._degree_bound(n, None) if circle else None) for n in ns]

    def sign(p, ns):
        # q cycles with the workload's rounds: the weights at q = 0, 1, 2 in turn
        prime = algebra.as_prime(p)
        return [(signhom._shifted_generators(prime, 2 * q + 1, n), [n], prime,
                 bv._degree_bound(n, None)) for q, n in enumerate(ns)]

    # the workload's weights for each command and prime: its least, one inside, its largest
    shapes = {
        "poincare p=2 n=78,91,104": plane(2, (78, 91, 104), False),
        "poincare p=3 n=150,172,195": plane(3, (150, 172, 195), False),
        "poincare p=5 n=290,350,400": plane(5, (290, 350, 400), False),
        "sign p=2 n=78,91,104": sign(2, (78, 91, 104)),
        "sign p=3 n=231,256,280": sign(3, (231, 256, 280)),
        "sign p=5 n=200,301,400": sign(5, (200, 301, 400)),
        "zp p=2 n=78,91,104": plane(2, (78, 91, 104), True),
        "zp p=3 n=150,172,195": plane(3, (150, 172, 195), True),
        "zp p=5 n=280,341,400": plane(5, (280, 341, 400), True),
    }

    def tables(args):
        def build_all():
            for gens, ns, prime, dmax in args:
                enumeration._complete_table(gens, ns, prime, dmax)
        return build_all

    return {name: tables(args) for name, args in shapes.items()}


if __name__ == "__main__":
    sys.exit(run(None, __doc__, _shapes, "series table shape"))
