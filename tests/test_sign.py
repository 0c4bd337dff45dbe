"""Sign-coefficient homology of braid central quotients, against group-homology oracles.

The expected values for small braid quotients come from the independent
periodic-resolution computations in oracles.py: the weight-2 quotient is
the cyclic group of order 2 with the generator acting by -1, and the
weight-3 quotient is the free product of cyclic groups of orders 2 and 3,
where only the order-2 factor sees the sign.
"""

from collections import Counter
from dataclasses import replace

import pytest

from confhom import (
    GradedDims,
    default_degree_bound,
    equivariant_s1,
    monomial_basis,
    series_table,
    sign_rep_homology,
    sphere_labelled_generators,
    trivial_rep_homology_p2,
    verify_q_stability,
)
from confhom import signhom

from oracles import cyclic_homology_dims, dims_to_pairs, free_product_homology_dims


def test_weight2_matches_cyclic_oracle():
    for p in (3, 5):
        oracle = cyclic_homology_dims(2, p - 1, p, 12)  # generator acts by -1
        assert oracle == [0] * 13
        for q in (0, 1, 2):
            assert sign_rep_homology(2, p, q, 12) == GradedDims({})


def test_weight3_matches_free_product_oracle():
    # order-2 factor acts by -1, order-3 factor by +1
    oracle = free_product_homology_dims([(2, 2), (3, 1)], 3, 14)
    assert oracle == [0] + [1] * 14
    got = sign_rep_homology(3, 3, 0, 14)
    assert got.to_pairs() == dims_to_pairs(oracle)
    assert got == sign_rep_homology(3, 3, 2, 14)


def test_weight1_single_point():
    assert sign_rep_homology(1, 3, 0, 8) == GradedDims({0: 1, 2: 1, 4: 1, 6: 1, 8: 1})


def test_shifted_generator_degrees_are_q_free():
    for p in (3, 5):
        for q in (0, 1, 3):
            m = 2 * q + 1
            for g in sphere_labelled_generators(p, m, p**2):
                shifted = g.degree - m * g.weight
                expected = p**g.index - 1 if g.kind == "sphere_q" else p**g.index - 2
                assert shifted == expected
                assert shifted >= 0


def test_shifted_slice_is_nonnegative_and_truncated():
    dims = sign_rep_homology(6, 3, 1, 20)
    assert all(0 <= d <= 20 for d, _ in dims.to_pairs())


def test_shifted_weight_slice_record():
    from confhom import shifted_weight_slice

    assert shifted_weight_slice(3, 3, 3) == GradedDims({1: 1, 2: 1})


def test_negative_shifted_degree_is_refused(monkeypatch):
    real = signhom.sphere_labelled_generators

    def lowered(p, m, weight_bound):
        gens = real(p, m, weight_bound)
        # one degree below the shift, so the shifted generator has degree -1
        return [replace(gens[0], degree=m * gens[0].weight - 1)] + gens[1:]

    monkeypatch.setattr(signhom, "sphere_labelled_generators", lowered)
    with pytest.raises(ValueError, match="degree >= 0"):
        signhom.shifted_weight_slice(3, 3, 3)


@pytest.mark.parametrize("n,p,qs", [(3, 3, (0, 1, 2)), (1, 3, (0, 4)), (6, 5, (0, 3)), (8, 2, (0, 1, 2))])
def test_q_stability(n, p, qs):
    rep = verify_q_stability(n, p, qs)
    assert rep.passed and not rep.details["mismatching_q"]


def test_trivial_rep_p2_small_cases():
    assert trivial_rep_homology_p2(2, 1, 6) == GradedDims({d: 1 for d in range(7)})
    # q-stability of the even-sphere route
    assert trivial_rep_homology_p2(2, 1, 10) == trivial_rep_homology_p2(2, 2, 10)
    with pytest.raises(ValueError):
        trivial_rep_homology_p2(2, 0)


def test_p2_sign_is_the_trivial_representation():
    # at p = 2 the sign and trivial routes compute the same homology
    for n in (0, 2, 5, 8):
        bound = default_degree_bound(n)
        assert sign_rep_homology(n, 2, 1, bound) == trivial_rep_homology_p2(n, 1, bound)


@pytest.mark.parametrize("q", [1, 2])
def test_p2_route_equals_equivariant(q):
    for n in range(17):
        bound = default_degree_bound(n)
        assert trivial_rep_homology_p2(n, q, bound) == equivariant_s1(n, 2, bound).dims


def test_splitting_consistency():
    # summing the unshifted weight slices over n <= 16 recovers the
    # weight-truncated series of the labelled algebra tensored with the
    # polynomial circle factor
    p, q, nmax = 3, 1, 16
    m = 2 * q + 1
    dmax = nmax * (m + 1) + 8
    gens = sphere_labelled_generators(p, m, nmax)
    table = series_table(gens, nmax, dmax, p)
    total_from_slices: dict[int, int] = {}
    for n in range(nmax + 1):
        slice_dims = GradedDims(Counter(
            mm.degree for mm in monomial_basis(gens, n, p)
        )).convolve_geometric(2, dmax)
        for d, v in slice_dims.dims.items():
            total_from_slices[d] = total_from_slices.get(d, 0) + v
    series_total: dict[int, int] = {}
    for n in range(nmax + 1):
        for d, v in table.weight_slice(n).convolve_geometric(2, dmax).dims.items():
            series_total[d] = series_total.get(d, 0) + v
    assert total_from_slices == series_total


def test_degree_zero_only_from_bottom_generators():
    # the degree-0 shifted slice appears only when the weight is a power of
    # the bottom generator's weight (all shifted degree 0 factors)
    for n in range(1, 9):
        dims = sign_rep_homology(n, 3, 0, 0)
        expected = 1 if n in (1,) else 0  # the bottom class is exterior, weight 1
        assert dims.total() == expected


def test_q_stability_checks_closed_forms_against_bracket_tower(capsys, monkeypatch):
    from dataclasses import replace

    from confhom import catalog
    from confhom.cli import main

    real = catalog.sphere_q
    # one degree too high: the answer moves alike for every q, so only the
    # comparison with the bracket tower can see it
    monkeypatch.setattr(catalog, "sphere_q",
                        lambda i, m, p: replace(real(i, m, p), degree=real(i, m, p).degree + 1))
    report = verify_q_stability(4, 3, [0, 1, 2])
    assert not report.passed
    assert report.details["mismatching_q"] == [0, 1, 2]
    assert main(["verify", "stability", "--p", "3", "--max-n", "4", "--max-q", "2"]) == 1
    captured = capsys.readouterr()
    assert '"status": "failed"' in captured.out
    assert "Traceback" not in captured.err


def test_q_stability_checks_exterior_flags_against_bracket_tower(capsys, monkeypatch):
    from dataclasses import replace

    from confhom import signhom
    from confhom.cli import main

    real = signhom.sphere_labelled_generators

    def flipped(p, m, weight_bound):
        # Qs1 (weight 3) made polynomial for q = 1 only: its square has weight
        # 6, so below weight 6 the answers stay equal and only the comparison
        # with the bracket tower sees the flag
        gens = real(p, m, weight_bound)
        return [replace(g, exterior=not g.exterior) if m == 3 and g.name == "Qs1" else g
                for g in gens]

    expected = verify_q_stability(4, 3, [0, 1, 2])
    monkeypatch.setattr(signhom, "sphere_labelled_generators", flipped)
    report = verify_q_stability(4, 3, [0, 1, 2])
    assert not report.passed
    assert report.details["mismatching_q"] == [1]
    assert report.details["dims"] == expected.details["dims"]
    assert main(["verify", "stability", "--p", "3", "--max-n", "4", "--max-q", "2"]) == 1
    captured = capsys.readouterr()
    assert '"status": "failed"' in captured.out
    assert "Traceback" not in captured.err


def test_shifted_generators_are_shared():
    # one shifted instance per catalog generator and sphere dimension
    prime = signhom.as_prime(3)
    small = signhom._shifted_generators(prime, 3, 100)
    large = signhom._shifted_generators(prime, 3, 270)
    assert all(a is b for a, b in zip(small, large)) and len(small) < len(large)
    catalog = sphere_labelled_generators(3, 3, 270)
    assert [(g.weight, g.degree, g.exterior) for g in large] == [
        (g.weight, g.degree - 3 * g.weight, g.exterior) for g in catalog]
    assert signhom._shifted_generators(prime, 5, 270)[0] is not large[0]


def test_q_stability_compares_each_q_answer_with_the_first(monkeypatch):
    real = signhom._shifted_generators

    def planted(prime, sphere_dim, max_n):
        # bQs1 (weight 3, shifted degree 1) two degrees up for q = 1 only; the
        # closed forms and the tower do not read these generators, so only the
        # comparison of the answers, numerators through the bound, can see it
        gens = real(prime, sphere_dim, max_n)
        return [replace(g, degree=g.degree + 2) if sphere_dim == 3 and g.name == "bQs1" else g
                for g in gens]

    expected = verify_q_stability(4, 3, [0, 1, 2])
    assert expected.passed and [1, 1] in expected.details["dims"]
    monkeypatch.setattr(signhom, "_shifted_generators", planted)
    report = verify_q_stability(4, 3, [0, 1, 2])
    assert not report.passed
    assert report.details["mismatching_q"] == [1]
    assert report.details["dims"] == expected.details["dims"]
    # every nonempty answer from n = 3 on holds bQs1; n = 2 mod 3 has none
    reports = signhom._q_stability(range(13), 3, [0, 1, 2])
    assert [r.details["mismatching_q"] for r in reports] == [
        [1] if n >= 3 and n % 3 != 2 else [] for n in range(13)]
