"""Dimension-only answers come from the Hilbert series; enumeration checks them.

`poincare`, `sign` and `equivariant --group Zp` read their dimensions off
the series.  These tests compare each with the enumerated basis at small
weights, and check that the commands no longer enumerate at all.
"""

import json
import sys
import time

import pytest

from confhom import (
    GradedDims,
    default_degree_bound,
    equivariant_zp,
    monomial_basis,
    plane_config_generators,
    poincare,
    series_coefficient,
    sign_rep_homology,
    sphere_labelled_generators,
)
from confhom.cli import main

WEIGHTS = range(41)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poincare_series_matches_enumeration(p):
    for n in WEIGHTS:
        gens = plane_config_generators(p, max(n, 1))
        assert series_coefficient(gens, n, None, p) == poincare(gens, n, p)


def _enumerated_sign(n, p, q, bound):
    m = 2 * q + 1
    gens = sphere_labelled_generators(p, m, max(n, 1))
    shifted = GradedDims.of_degrees(mono.degree - n * m for mono in monomial_basis(gens, n, p))
    return shifted.convolve_geometric(2, bound)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_sign_series_matches_enumeration(p, q):
    for n in WEIGHTS:
        bound = default_degree_bound(n)
        assert sign_rep_homology(n, p, q, bound) == _enumerated_sign(n, p, q, bound)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zp_series_matches_enumeration(p):
    for n in WEIGHTS:
        if n % p not in (0, 1):
            continue
        bound = default_degree_bound(n)
        gens = plane_config_generators(p, max(n, 1))
        assert equivariant_zp(n, p, bound) == poincare(gens, n, p).convolve_geometric(1, bound)


COUNT_COMMANDS = [
    ["poincare", "--p", "2", "--n", "30"],
    ["poincare", "--p", "3", "--n", "40", "--format", "table"],
    ["sign", "--p", "2", "--n", "20", "--q", "0"],
    ["sign", "--p", "3", "--n", "31", "--q", "1", "--format", "csv"],
    ["equivariant", "--group", "Zp", "--p", "5", "--n", "26"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "0", "--dmax", "4"],
]


def test_count_commands_do_not_enumerate(capsys, monkeypatch):
    expected = []
    for argv in COUNT_COMMANDS:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a count-only command enumerated a basis")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("confhom") and hasattr(module, "monomial_basis"):
            monkeypatch.setattr(module, "monomial_basis", refuse)
            patched.add(name)
    assert {"confhom.enumeration", "confhom.catalog"} <= patched
    for argv, out in zip(COUNT_COMMANDS, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


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
