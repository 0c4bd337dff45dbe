"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (dimension counts over F_p); there are no
tolerances to tune.  Target runtime for the whole module is a few seconds.
"""

import json
from collections import Counter
from contextlib import contextmanager

import pytest

from confhom import (
    GradedDims,
    LabelClass,
    cohen_generators,
    collapse_total_degree,
    default_degree_bound,
    delta,
    delta_element,
    delta_matrix,
    enumerate_basic_brackets,
    equivariant_s1,
    equivariant_zp,
    fixed_point_total_dim,
    monomial_basis,
    plane_config_generators,
    poincare,
    serre_e3,
    series_coefficient,
    sign_rep_homology,
    total_dim,
    trivial_rep_homology_p2,
    verify_bijection,
    verify_q_stability,
)
from confhom.cli import main as cli_main
from confhom.identities import classify_monomial
from confhom.signhom import shifted_weight_slice
from oracles import braid_homology_dims, braid_quotient_homology_dims
from oracles import cyclic_homology_dims, dims_to_pairs
from oracles import free_product_homology_dims, garside_flip_homology_dims, multiset

PRIMES = (2, 3, 5)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def test_criterion_01_basis_tables(capsys):
    with criterion(1, "weight-9 and weight-6 tables and d(3, 3) = 2"):
        assert cli_main(["basis", "--p", "3", "--n", "9"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert [r["monomial"] for r in rows] == [
            "i^9", "i^7 u", "i^3 b1", "i u b1", "i^3 a1", "i u a1",
        ]
        assert [r["degree"] for r in rows] == [0, 1, 4, 5, 5, 6]
        assert cli_main(["basis", "--p", "3", "--n", "6"]) == 0
        rows6 = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert [r["degree"] for r in rows6] == [0, 1, 4, 5]
        assert total_dim(3, 3) == 2


def test_criterion_02_dimension_identity():
    with criterion(2, "d(pq) equals the partial sums, and d(pq+1) = d(pq), q <= 5"):
        for p in PRIMES:
            partial = 0
            for q in range(6):
                partial += total_dim(q, p)
                assert total_dim(p * q, p) == partial
                assert total_dim(p * q + 1, p) == total_dim(p * q, p)


def test_criterion_03_delta_squares_to_zero():
    with criterion(3, "operator squares to zero and shifts the grading by one"):
        for p in PRIMES:
            for n in range(25):
                gens = plane_config_generators(p, max(n, 1))
                for m in monomial_basis(gens, n, p):
                    image = delta(m, p)
                    for mm in image.terms:
                        assert mm.weight == m.weight and mm.degree == m.degree + 1
                    assert delta_element(image).is_zero()


def test_criterion_04_regime_dichotomy():
    with criterion(4, "matrix vanishes exactly in the tensor regime; cokernel = u-free counts"):
        for p in PRIMES:
            for n in range(25):
                gens = plane_config_generators(p, max(n, 1))
                mons = monomial_basis(gens, n, p)
                top = max((m.degree for m in mons), default=0)
                zero = all(delta_matrix(n, p, d).is_zero() for d in range(top + 1))
                assert zero == (n % p in (0, 1))
                if zero:
                    continue
                by_deg = {}
                for m in mons:
                    by_deg.setdefault(m.degree, []).append(m)
                coker = {}
                for d, basis in by_deg.items():
                    rank_in = delta_matrix(n, p, d - 1).rank()
                    if len(basis) - rank_in:
                        coker[d] = len(basis) - rank_in
                u_free = GradedDims(Counter(
                    m.degree for m in mons if not m.contains_kind("u")
                ))
                assert GradedDims(coker) == u_free


def test_criterion_05_spectral_sequence_oracle():
    with criterion(5, "spectral-sequence page agrees with the dispatcher, n <= 16"):
        for p in PRIMES:
            for n in range(17):
                bound = default_degree_bound(n)
                page = collapse_total_degree(serre_e3(n, p, bound))
                assert page == equivariant_s1(n, p, bound).dims


def test_criterion_06_bijection_and_classification():
    with criterion(6, "substitution bijective, q <= 4; classification total, weight <= 30"):
        for p in PRIMES:
            for q in range(5):
                report = verify_bijection(p, q)
                assert report.passed, report.details
            for n in range(31):
                gens = plane_config_generators(p, max(n, 1))
                for m in monomial_basis(gens, n, p):
                    classify_monomial(m, p, n)


def test_criterion_07_fixed_point_dimensions():
    with criterion(7, "fixed-point total dimension equals the ambient one, n <= 40"):
        for p in PRIMES:
            for n in range(41):
                if n % p in (0, 1):
                    assert fixed_point_total_dim(n, p) == total_dim(n, p)


def test_criterion_08_enumeration_vs_series():
    with criterion(8, "enumeration equals generating-function coefficients, n <= 30"):
        for p in PRIMES:
            for n in range(31):
                gens = plane_config_generators(p, max(n, 1))
                assert poincare(gens, n, p) == series_coefficient(gens, n, 64, p)


def test_criterion_09_group_homology_oracles():
    with criterion(9, "weight-2 and weight-3 sign answers match the resolution oracles"):
        for p in (3, 5):
            oracle2 = cyclic_homology_dims(2, p - 1, p, 12)
            assert oracle2 == [0] * 13
            for q in (0, 1, 2):
                assert sign_rep_homology(2, p, q, 12) == GradedDims({})
        oracle3 = free_product_homology_dims([(2, 2), (3, 1)], 3, 14)
        assert oracle3 == [0] + [1] * 14
        for q in (0, 1, 2):
            assert sign_rep_homology(3, 3, q, 14).to_pairs() == dims_to_pairs(oracle3)


def test_criterion_10_p2_cross_route_and_stability():
    with criterion(10, "mod-2 labelled route equals the equivariant one; q-stable"):
        for n in range(17):
            bound = default_degree_bound(n)
            expected = equivariant_s1(n, 2, bound).dims
            for q in (1, 2):
                assert trivial_rep_homology_p2(n, q, bound) == expected
        for p in PRIMES:
            for n in (1, 2, 3, 6, 9):
                assert verify_q_stability(n, p, [0, 1, 2, 3, 4]).passed


def test_criterion_11_bracket_oracles():
    with criterion(11, "one white-leaf bracket per weight; plane table from one even class"):
        labels = [LabelClass("a", 0), LabelClass("b", 0)]
        one_white = [
            b for b in enumerate_basic_brackets(labels, 8, 3) if b.text().count("b") == 1
        ]
        assert [b.weight for b in one_white] == list(range(1, 9))
        expected = "b"
        for b in one_white:
            assert b.text() == expected
            expected = f"[a,{expected}]"
        for p in (3, 5, 7):
            brackets = enumerate_basic_brackets([LabelClass("a", 0)], 2, p)
            gens = cohen_generators(brackets, p, 2 * p**2)
            assert multiset((g.weight, g.degree) for g in gens) == multiset(
                (g.weight, g.degree) for g in plane_config_generators(p, 2 * p**2)
            )


def test_criterion_12_cellular_oracle():
    with criterion(12, "plane series and sign slices equal the Salvetti complex, n <= 10 and 12"):
        for p in (2, 3, 5, 7):
            for n in [*range(11), 12]:
                trivial = dims_to_pairs(braid_homology_dims(n, p, -1))
                series = series_coefficient(plane_config_generators(p, max(n, 1)), n, None, p)
                assert series.to_pairs() == trivial, (p, n)
                sign = dims_to_pairs(braid_homology_dims(n, p, 1))
                assert shifted_weight_slice(n, p, 1).to_pairs() == sign, (p, n)
                if p == 2:
                    assert shifted_weight_slice(n, 2, 2).to_pairs() == trivial, n


def test_criterion_13_braid_quotient_oracles():
    with criterion(13, "trivial-coefficient answer equals H_*(B_n/Z): Gysin sums, n = 2, 3"):
        # the cokernel regime, n not 0 or 1 mod p
        cases = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, 15) if n % p not in (0, 1)]
        assert len(cases) == 46
        for p, n in cases:
            oracle = braid_quotient_homology_dims(n, p)
            assert min(oracle) >= 0 and oracle[-1] == 0, (p, n)
            assert equivariant_s1(n, p).dims.to_pairs() == dims_to_pairs(oracle), (p, n)
        # both regimes: B_2/Z = Z/2 and B_3/Z = PSL(2, Z) = Z/2 * Z/3, acting trivially
        for p in (2, 3, 5, 7):
            z2 = cyclic_homology_dims(2, 1, p, 20)
            psl2z = free_product_homology_dims([(2, 1), (3, 1)], p, 20)
            for n, oracle in ((2, z2), (3, psl2z)):
                assert equivariant_s1(n, p, 20).dims.to_pairs() == dims_to_pairs(oracle), (p, n)


def test_criterion_14_garside_flip_oracle():
    with criterion(14, "p = 2 answers equal the Salvetti complex with the Garside flip, n <= 12"):
        # what this checks is the tensor formula at p = 2 against a complex that
        # shares no code with the package: the identity in place of the flip
        # gives the same numbers at these n
        for n in range(2, 13):
            oracle = garside_flip_homology_dims(n, 20)
            assert equivariant_zp(n, 2, 20).to_pairs() == dims_to_pairs(oracle), n
            # the split Gysin sequence: oracle_k = h_k + h_(k-1) for the S1 answer h
            h = []
            for dim in oracle:
                h.append(dim - (h[-1] if h else 0))
            assert min(h) >= 0, n
            assert equivariant_s1(n, 2, 20).dims.to_pairs() == dims_to_pairs(h), n


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
