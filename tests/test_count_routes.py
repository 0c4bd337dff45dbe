"""Dimension-only answers come from the Hilbert series; enumeration checks them.

`poincare`, `sign` and `equivariant --group Zp` read their dimensions off
the series, and so do the table and csv forms of `delta` and
`equivariant --group S1`.  These tests compare each with the enumerated
basis at small weights, and check that the commands no longer enumerate at
all.
"""

import csv
import io
import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from confhom import (
    GradedDims,
    bv,
    cli,
    default_degree_bound,
    enumeration,
    equivariant_zp,
    monomial_basis,
    plane_config_generators,
    poincare,
    series_coefficient,
    sign_rep_homology,
    sphere_labelled_generators,
)
from confhom.algebra import KIND_U
from confhom.catalog import MAX_BASIS
from confhom.cli import main

from oracles import group_by_degree

WEIGHTS = range(41)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poincare_series_matches_enumeration(p):
    for n in WEIGHTS:
        gens = plane_config_generators(p, max(n, 1))
        assert series_coefficient(gens, n, None, p) == poincare(gens, n, p)


def _enumerated_shifted_slice(n, p, q):
    m = 2 * q + 1
    gens = sphere_labelled_generators(p, m, max(n, 1))
    return GradedDims(Counter(mono.degree - n * m for mono in monomial_basis(gens, n, p)))


def _bounds(n):
    """Degree bounds below and at the default: a bounded answer expands its
    series only through its bound."""
    return (0, 3, default_degree_bound(n))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_sign_series_matches_enumeration(p, q):
    for n in WEIGHTS:
        shifted = _enumerated_shifted_slice(n, p, q)
        for bound in _bounds(n):
            assert sign_rep_homology(n, p, q, bound) == shifted.convolve_geometric(2, bound)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zp_series_matches_enumeration(p):
    for n in WEIGHTS:
        if n % p not in (0, 1):
            continue
        plane = poincare(plane_config_generators(p, max(n, 1)), n, p)
        for bound in _bounds(n):
            assert equivariant_zp(n, p, bound) == plane.convolve_geometric(1, bound)


def _stable_plane_slice(p, bound):
    """The degree <= bound part of the weight-n plane slice for every
    n >= 2 * bound, enumerated at the least multiple of p past 2 * bound.
    Every plane generator but the point class has weight at most twice its
    degree, so past that weight each monomial of degree <= bound is one of
    weight <= 2 * bound times a power of the point class: homological
    stability, a route that never reads the series at weight n."""
    m = -(-2 * bound // p) * p
    return poincare(plane_config_generators(p, m), m, p).truncate(bound)


@pytest.mark.parametrize("p, n, bound", [(2, 100000, 10), (3, 30000, 9), (5, 50001, 12)])
def test_zp_at_large_weight_matches_the_stable_slice(p, n, bound):
    stable = _stable_plane_slice(p, bound).convolve_geometric(1, bound)
    assert equivariant_zp(n, p, bound) == stable


# Each answers only because its series is expanded no further than --dmax:
# expanded to the complete degree first, each table passes the 2^30-bit limit
# and the command exits 2.  At p = 10^9 + 7 every shifted generator of degree
# <= 10 is the exterior point class, so no weight above 1 has a monomial; at
# p = 3 each non-point one of degree <= 8 has weight at most three times its
# degree, and the point class is exterior, so a weight-300001 monomial has
# degree > 8.
LARGE_WEIGHT_SMALL_BOUND = [
    (["sign", "--p", "1000000007", "--n", "1000000007", "--q", "0", "--dmax", "10"], []),
    (["sign", "--p", "3", "--n", "300001", "--q", "0", "--dmax", "8"], []),
    # the same at degree <= 200, past the 2^30-bit limit even when truncated
    # there: these answer only because the table stops at the heaviest weight
    # a degree <= 200 monomial reaches
    (["sign", "--p", "3", "--n", "300001", "--q", "0", "--dmax", "200"], []),
    (["sign", "--p", "3", "--n", "300001", "--q", "1", "--dmax", "200"], []),
    (["equivariant", "--group", "Zp", "--p", "2", "--n", "100000", "--dmax", "10"],
     _stable_plane_slice(2, 10).convolve_geometric(1, 10).to_pairs()),
]


@pytest.mark.parametrize("argv, dims", LARGE_WEIGHT_SMALL_BOUND,
                         ids=["sign-p1000000007", "sign-p3", "sign-p3-q0-dmax200",
                              "sign-p3-q1-dmax200", "zp-p2"])
def test_large_weight_with_small_degree_bound_answers(argv, dims):
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == dims


# Each exited 2 while the series swept every weight 0..n: the two lightest
# generators, the point and odd classes, are now folded in at the rows read,
# over a table of the others that holds a row per multiple of 2p (none past
# weight 0 at p = 10^9 + 7) and, truncated at degree 10, stops at weight 18.
LARGE_WEIGHT_FOLDED = [
    (["poincare", "--p", "1000000007", "--n", "16000000"], [[0, 1], [1, 1]]),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "20000001", "--dmax", "10"],
     _stable_plane_slice(3, 10).convolve_geometric(1, 10).to_pairs()),
    # a row of about 14M cells, 23 of them nonzero: only those are decoded
    (["poincare", "--p", "1000003", "--n", "16000000"],
     [[0, 1], [1, 1]] + [[k * 2000004 + e, 1 + e % 2] for k in range(1, 8) for e in range(3)]),
]


@pytest.mark.parametrize("argv, dims", LARGE_WEIGHT_FOLDED,
                         ids=["poincare-p1000000007", "zp-p3", "poincare-p1000003"])
def test_large_weight_answers_from_the_fold(argv, dims):
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == dims


def _past_the_degree_cap(p, q, n, bound):
    """The least weight in n's class mod p above every weight a monomial of
    degree <= bound reaches over the shifted generators: each exterior one
    taken once and each polynomial one bound // degree times, over those of
    degree <= bound (all of weight <= bound + 2, as a shifted degree is the
    weight less 1 or 2).  The point class, of degree 0, is exterior at odd
    p, so this weight is finite."""
    m = 2 * q + 1
    heaviest = 0
    for g in sphere_labelled_generators(p, m, bound + 2):
        d = g.degree - m * g.weight
        if d <= bound:
            heaviest += g.weight * (1 if g.exterior else bound // d)
    w = heaviest + 1
    return w + (n - w) % p


# Both exit 2 when the table runs over the weights 0..n (64 bits each, at least).
@pytest.mark.parametrize("p, n, q, bound", [(3, 20000001, 0, 10), (5, 100000000, 2, 40)])
def test_sign_at_any_weight_matches_enumeration_past_the_degree_cap(p, n, q, bound):
    w = _past_the_degree_cap(p, q, n, bound)
    assert w < 200
    want = _enumerated_shifted_slice(w, p, q).convolve_geometric(2, bound)
    argv = ["sign", "--p", str(p), "--n", str(n), "--q", str(q), "--dmax", str(bound)]
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == want.to_pairs()


COUNT_COMMANDS = [
    ["poincare", "--p", "2", "--n", "30"],
    ["poincare", "--p", "3", "--n", "40", "--format", "table"],
    ["sign", "--p", "2", "--n", "20", "--q", "0"],
    ["sign", "--p", "3", "--n", "31", "--q", "1", "--format", "csv"],
    ["equivariant", "--group", "Zp", "--p", "5", "--n", "26"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "0", "--dmax", "4"],
]


def _refuse_enumeration(monkeypatch, refuse):
    """Replace the enumeration walk in every module that holds it;
    `monomial_basis` reads the enumeration module's own."""
    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("confhom") and hasattr(module, "_monomial_bases"):
            monkeypatch.setattr(module, "_monomial_bases", refuse)
            patched.add(name)
    assert {"confhom.enumeration", "confhom.catalog", "confhom.bv"} <= patched


def test_count_commands_do_not_enumerate(capsys, monkeypatch):
    expected = []
    for argv in COUNT_COMMANDS:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a count-only command enumerated a basis")

    _refuse_enumeration(monkeypatch, refuse)
    for argv, out in zip(COUNT_COMMANDS, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def _listing_counts() -> list[list[str]]:
    """`equivariant --group S1` in both regimes (only the tensor one at
    p = 2), with and without --dmax, and `delta` with and without
    --degree, in table and csv."""
    argvs = []
    for p in (2, 3, 5):
        for n in (4 * p, 4 * p + 2):
            s1 = ["equivariant", "--group", "S1", "--p", str(p), "--n", str(n)]
            argvs += [s1, s1 + ["--dmax", "7"]]
        d = ["delta", "--p", str(p), "--n", str(4 * p + 3)]
        argvs += [d, d + ["--degree", "3"]]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("table", "csv")]


LISTING_COUNTS = _listing_counts()


def test_listing_counts_do_not_enumerate(capsys, monkeypatch):
    expected = []
    for argv in LISTING_COUNTS:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a table or csv listing enumerated a basis")

    _refuse_enumeration(monkeypatch, refuse)
    monkeypatch.setattr(bv, "delta", refuse)
    monkeypatch.setattr(cli, "delta", refuse)
    for argv, out in zip(LISTING_COUNTS, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_json_s1_pair_count_refused_before_enumerating(capsys, monkeypatch):
    argv = ["equivariant", "--group", "S1", "--p", "2", "--n", "270"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    message = "error: tensor basis of 169664888 pairs exceeds the limit of 1048576\n"
    assert (captured.out, captured.err) == ("", message)

    def refuse(*args, **kwargs):
        raise AssertionError("the pair count was read from an enumerated basis")

    _refuse_enumeration(monkeypatch, refuse)
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == message


def _csv_rows(capsys, argv) -> list[list[int]]:
    assert main(argv + ["--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    return [[int(c) for c in row] for row in rows]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_listing_counts_match_enumeration(capsys, p):
    # beyond the weights 0..20 where the csv rows are checked against the JSON listing
    for n in [*range(41), 66, 143]:
        basis = monomial_basis(plane_config_generators(p, max(n, 1)), n, p)
        by_deg = group_by_degree(basis)
        want = {d: [d, len(mons), len(by_deg.get(d + 1, [])),
                    bv._delta_rank(bv.delta(m, p) for m in mons)]
                for d, mons in by_deg.items()}
        argv = ["delta", "--p", str(p), "--n", str(n)]
        assert _csv_rows(capsys, argv) == [want[d] for d in sorted(want)]
        for d in (-1, 1, max(want) + 1):
            empty = [d, 0, len(by_deg.get(d + 1, [])), 0]
            assert _csv_rows(capsys, argv + ["--degree", str(d)]) == [want.get(d, empty)]
        # every format prints the series; the S1 dims counted here from the basis
        u_free = group_by_degree([m for m in basis if not m.contains_kind(KIND_U)])
        for bound, flag in ((default_degree_bound(n), []), (5, ["--dmax", "5"])):
            if n % p in (0, 1):
                plane = [[d, len(by_deg[d])] for d in sorted(by_deg) if d <= bound]
                counted = _times_circle(plane, bound)
            else:
                counted = [[d, len(u_free[d])] for d in sorted(u_free)]
            argv = ["equivariant", "--group", "S1", "--p", str(p), "--n", str(n), *flag]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["result"]["dims"] == counted
            assert _csv_rows(capsys, argv) == counted


def _times_circle(dims: list[list[int]], dmax: int) -> list[list[int]]:
    """Degree-indexed dims times 1/(1 - t^2) through dmax, one term at a time."""
    out: dict[int, int] = {}
    for d, c in dims:
        for k in range(d, dmax + 1, 2):
            out[k] = out.get(k, 0) + c
    return [[k, out[k]] for k in sorted(out)]


# Each exited 2 before the table and csv forms read the series: the weight-n
# basis passes MAX_BASIS (p = 2, n = 300 and 400), or its (monomial, circle
# degree) pairs do (the others; n = 270 took 3.5 s to refuse).
NOW_ANSWERED = [
    ["equivariant", "--group", "S1", "--p", "2", "--n", "270", "--format", "table"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "300", "--format", "table"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "143", "--format", "csv"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "399", "--format", "csv"],
    ["delta", "--p", "2", "--n", "400", "--format", "csv"],
]


@pytest.mark.parametrize("argv", NOW_ANSWERED,
                         ids=lambda argv: "-".join(a for a in argv if a[0] != "-"))
def test_listing_counts_answer_past_the_basis_limits(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out
    p, n = argv[argv.index("--p") + 1], argv[argv.index("--n") + 1]
    assert main(["poincare", "--p", p, "--n", n]) == 0
    plane = json.loads(capsys.readouterr().out)["result"]["dims"]
    if argv[0] == "delta":
        # the operator is zero at p = 2
        dims = dict(map(tuple, plane))
        header = ["degree", "source_dim", "target_dim", "rank"]
        want = [[d, c, dims.get(d + 1, 0), 0] for d, c in plane]
    else:
        header = ["degree", "dim"]
        want = _times_circle(plane, default_degree_bound(int(n)))
    cells = [header] + [list(map(str, row)) for row in want]
    if argv[-1] == "csv":
        assert list(csv.reader(io.StringIO(out))) == cells
    else:
        lines = out.splitlines()
        assert [line.split() for line in lines[:1] + lines[2:]] == cells


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_listing_degree_bound_past_the_limit_refused(capsys, fmt):
    argv = ["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS + 1)]
    assert main(argv + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degree bound") and str(MAX_BASIS) in captured.err


def test_huge_weight_refused_quickly(capsys):
    started = time.perf_counter()
    assert main(["poincare", "--p", "2", "--n", "20000"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_huge_prime_answers_quickly(capsys):
    started = time.perf_counter()
    assert main(["poincare", "--p", "1000000000000000003", "--n", "3"]) == 0
    assert time.perf_counter() - started < 1.0
    assert json.loads(capsys.readouterr().out)["result"] == {"dims": [[0, 1], [1, 1]], "total": 2}


def test_prime_beyond_certified_range_exits_2(capsys):
    assert main(["poincare", "--p", str(2**89 - 1), "--n", "3"]) == 2
    assert capsys.readouterr().out == ""


def test_delta_counts_read_only_the_rows_the_table_holds(monkeypatch):
    # the plane slice and the ranks are rows n and n - 2 of one table over the
    # plane generators without the odd class, and no other weight is read
    real = enumeration.BigradedDims.weight_slice
    rows = []

    def counted(self, w):
        rows.append(w)
        return real(self, w)

    monkeypatch.setattr(enumeration.BigradedDims, "weight_slice", counted)
    n, p = 100000, 1000000007
    # i^n and i^(n-2) u, with Delta(i^n) = n(n-1) i^(n-2) u != 0 mod p
    assert bv._delta_counts(n, p, None) == [(0, 1, 1, 1), (1, 1, 0, 0)]
    assert sorted(rows) == [n - 2, n]
