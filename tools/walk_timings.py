"""Time the enumeration walk, `confhom.enumeration._monomial_bases`, on the
shapes the benchmark workloads walk, and optionally against another tree.

    python tools/walk_timings.py                          # this tree
    python tools/walk_timings.py --parent OTHER/src --out BENCH_walk.json

A shape is a few walks run back to back.  Each round times every shape
`--runs` times and keeps the least; the figure reported is the least over
the rounds, with the median and interquartile range of the rounds' least
times as the spread.  With `--parent`, the other tree's package is loaded
in the same interpreter under another name, every run times both trees
back to back, in turns, so that both see the same load on the host, and
each round also gives the ratio of the two trees' least times.  Standard
library only; `series_timings.py` runs its shapes through the same loader,
rounds and command line (`run`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _package(src: Path, name: str):
    """The `confhom` package under `src`, imported as `name`."""
    root = src / "confhom"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _modules(pkg, *names):
    """The submodules `names` of the package `pkg`, which is already imported."""
    return [sys.modules[f"{pkg.__name__}.{name}"] for name in names]


def _shapes(pkg) -> dict:
    """Each shape as a function that runs its walks once."""
    bv, algebra, catalog, enumeration = _modules(pkg, "bv", "algebra", "catalog", "enumeration")

    def one_weight(p, ns, texts):
        prime = algebra.as_prime(p)
        return [(catalog.plane_config_generators(prime, n), range(n, n + 1), prime, texts, None)
                for n in ns]

    def sweep(p, top, labelled=False):
        prime = algebra.as_prime(p)
        gens = (catalog.sphere_labelled_generators(prime, 1, top) if labelled
                else catalog.plane_config_generators(prime, top))
        return [(gens, range(top + 1), prime, labelled, None)]

    def s1_tensor(p, ns):
        prime = algebra.as_prime(p)
        return [(catalog.plane_config_generators(prime, n), range(n, n + 1), prime, True,
                 bv._equivariant_s1_dims([n], prime, None)[n].bound) for n in ns]

    shapes = {
        # the `basis` listing's walks, as texts
        "basis p=2 n=60,75,90 texts": one_weight(2, (60, 75, 90), True),
        "basis p=2 n=80 texts": one_weight(2, (80,), True),
        "basis p=3 n=110,140,170 texts": one_weight(3, (110, 140, 170), True),
        # `delta`'s one-weight walks, as Monomials
        "delta p=3 n=60,90,120 monomials": one_weight(3, (60, 90, 120), False),
        "delta p=5 n=120,160,200 monomials": one_weight(5, (120, 160, 200), False),
        # the bijection check's sources, small one-weight walks, as Monomials
        "bijection p=2 n=1..14 monomials": one_weight(2, range(1, 15), False),
        "bijection p=5 n=1..35 monomials": one_weight(5, range(1, 36), False),
        # the verify sweep over weights 0..max-n, as Monomials
        "verify sweep p=2 n<=29 monomials": sweep(2, 29),
        "verify sweep p=3 n<=33 monomials": sweep(3, 33),
        "verify sweep p=5 n<=33 monomials": sweep(5, 33),
        # the sign-slice check's sweep over the 1-sphere labelled generators
        "labelled sweep p=2 n<=29 texts": sweep(2, 29, labelled=True),
        "labelled sweep p=3 n<=33 texts": sweep(3, 33, labelled=True),
        "labelled sweep p=5 n<=33 texts": sweep(5, 33, labelled=True),
        # the S1 listing in the tensor regime, bounded by its degree bound
        "s1 tensor p=3 n=42,54,66 texts dmax": s1_tensor(3, (42, 54, 66)),
    }

    def walks(args):
        def walk_all():
            for gens, weights, prime, texts, dmax in args:
                for _ in enumeration._monomial_bases(gens, weights, prime, texts, dmax):
                    pass
        return walk_all

    return {name: walks(args) for name, args in shapes.items()}


def _once(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def measure(trees: dict, rounds: int, runs: int) -> dict:
    """{shape: {tree: [least ms of each round]}}, trees given as {tree:
    {shape: a function that runs it once}}, every tree with the same shapes."""
    names = list(next(iter(trees.values())))
    result = {name: {side: [] for side in trees} for name in names}
    for r in range(rounds):
        for name in names:
            best = dict.fromkeys(trees, float("inf"))
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for i in range(runs + 1):
                for side in order:
                    elapsed = _once(trees[side][name])
                    if i:  # the first run warms up
                        best[side] = min(best[side], elapsed)
            for side in trees:
                result[name][side].append(round(best[side] * 1e3, 4))
    return result


def _iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [0.0, 0.0, 0.0]
    return round(q[2] - q[0], 4)


def main(argv=None) -> int:
    return run(argv, __doc__, _shapes, "walk shape")


def run(argv, doc: str, shapes_of, kind: str) -> int:
    """The command line of a timing tool: `shapes_of(package)` gives each
    shape's function, run in rounds on this tree and on `--parent`'s."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--runs", type=int, default=40, help="runs per shape and round (least kept)")
    ap.add_argument("--rounds", type=int, default=5, help="rounds (each keeps its least time)")
    ap.add_argument("--parent", type=Path, help="the src directory of the tree to compare with")
    ap.add_argument("--out", type=Path, help="write the figures here as JSON")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    packages = {"change": _package(SRC, "confhom")}
    if args.parent is not None:
        packages = {"parent": _package(args.parent.resolve(), "confhom_parent"), **packages}
    shapes = {}
    trees = {side: shapes_of(pkg) for side, pkg in packages.items()}
    for name, by_side in measure(trees, args.rounds, args.runs).items():
        row = {side: {"min_ms": min(t), "median_ms": round(statistics.median(t), 4),
                      "iqr_ms": _iqr(t)} for side, t in by_side.items()}
        line = "  ".join(f"{side} {r['min_ms']:8.3f} ms (IQR {r['iqr_ms']:.3f})"
                         for side, r in row.items())
        if "parent" in row:
            # both trees ran in the same rounds, so each round gives one ratio
            ratios = [c / p for c, p in zip(by_side["change"], by_side["parent"])]
            row["change_over_parent"] = round(row["change"]["min_ms"] / row["parent"]["min_ms"], 4)
            row["round_ratios"] = [round(r, 4) for r in ratios]
            row["rounds_change_faster"] = sum(r < 1 for r in ratios)
            line += (f"  x{row['change_over_parent']:.3f}"
                     f" (faster in {row['rounds_change_faster']}/{len(ratios)} rounds)")
        shapes[name] = row
        print(f"{line}  {name}")
    if args.out:
        args.out.write_text(json.dumps({
            "what": f"wall time of each {kind} in ms: the least of each round's runs, "
                    "then their least, median and interquartile range over the rounds",
            "rounds": args.rounds,
            "runs_per_round": args.runs,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "shapes": shapes,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
