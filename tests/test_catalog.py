"""Catalogs for the concrete spaces: plane, sphere labels, punctured plane, fixed points."""

import pytest

from confhom import (
    Monomial,
    SpaceSpec,
    UnsupportedCaseError,
    bijection_image,
    classify_monomial,
    delta,
    fixed_point_total_dim,
    generators_for,
    plane_config_generators,
    punctured_plane_basis,
    sphere_labelled_generators,
    total_dim,
)
from confhom.algebra import iota, q_iota, u_class
from confhom.catalog import SPACE_PLANE, SPACE_SPHERE_LABELLED
from confhom.identities import SOURCE_WEIGHT_PQ, SOURCE_WEIGHT_Q_PLUS_1

from oracles import iterated_q_degree, multiset


def table(gens):
    return [(g.name, g.weight, g.degree) for g in gens]


def test_plane_generators_p3():
    assert table(plane_config_generators(3, 9)) == [
        ("i", 1, 0),
        ("u", 2, 1),
        ("b1", 6, 4),
        ("a1", 6, 5),
    ]


def test_plane_generators_p2():
    assert table(plane_config_generators(2, 4)) == [
        ("i", 1, 0),
        ("Qi1", 2, 1),
        ("Qi2", 4, 3),
    ]


def test_plane_generators_weight_filter():
    assert table(plane_config_generators(5, 9)) == [("i", 1, 0), ("u", 2, 1)]
    assert table(plane_config_generators(5, 1)) == [("i", 1, 0)]
    with pytest.raises(ValueError):
        plane_config_generators(5, 0)


def test_sphere_generators_p3_m1():
    got = multiset((g.weight, g.degree) for g in sphere_labelled_generators(3, 1, 9))
    assert got == multiset([(1, 1), (3, 4), (3, 5), (9, 16), (9, 17)])


def test_sphere_generators_p2_m2():
    got = multiset((g.weight, g.degree) for g in sphere_labelled_generators(2, 2, 8))
    assert got == multiset([(1, 2), (2, 5), (4, 11), (8, 23)])


def test_sphere_generators_closed_form_matches_iteration():
    for p, m in ((3, 1), (3, 3), (5, 1), (7, 3), (2, 1), (2, 2), (2, 4)):
        bound = p**2
        for g in sphere_labelled_generators(p, m, bound):
            i = g.index
            expected_top = iterated_q_degree(m, p, i)
            if g.kind == "sphere_q":
                assert g.degree == expected_top
            else:
                assert g.degree == expected_top - 1
            assert g.weight == p**i


def test_sphere_even_m_odd_p_rejected():
    with pytest.raises(UnsupportedCaseError):
        sphere_labelled_generators(3, 2, 9)
    with pytest.raises(UnsupportedCaseError):
        SpaceSpec(SPACE_SPHERE_LABELLED, 4).validate(5)


def test_sphere_exterior_pattern():
    for g in sphere_labelled_generators(3, 1, 27):
        assert g.exterior == (g.kind == "sphere_q")
    for g in sphere_labelled_generators(2, 1, 8):
        assert not g.exterior


def test_punctured_plane_small_cases():
    assert [(m.text(), m.degree) for m in punctured_plane_basis(0, 3)] == [("b", 0)]
    got = [(m.text(), m.degree) for m in punctured_plane_basis(1, 3)]
    assert got == [("i b", 0), ("[a,b]", 1)]
    assert len(punctured_plane_basis(3, 3)) == 2 + 2 + 1 + 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_punctured_plane_total_dims(p):
    for q in range(11):
        expected = sum(total_dim(i, p) for i in range(q + 1))
        assert len(punctured_plane_basis(q, p)) == expected


def test_punctured_plane_bracket_degrees():
    # the one-white-leaf bracket factor of j black leaves has degree j
    for m in punctured_plane_basis(4, 3):
        bracket = [g for g, _ in m.factors if g.kind == "bracket"]
        assert len(bracket) == 1
        assert bracket[0].degree == bracket[0].weight - 1


def test_punctured_plane_brackets_match_enumeration():
    # the symbolic bracket factors are exactly the one-white-leaf sector
    # of the two-label bracket enumeration
    from confhom import LabelClass, enumerate_basic_brackets

    q, p = 5, 3
    labels = [LabelClass("a", 0), LabelClass("b", 0)]
    sector = [
        b.text()
        for b in enumerate_basic_brackets(labels, q + 1, p)
        if b.text().count("b") == 1
    ]
    used = sorted(
        {g.name for m in punctured_plane_basis(q, p) for g, _ in m.factors if g.kind == "bracket"},
        key=len,
    )
    assert used == sector


def test_fixed_point_dims():
    assert fixed_point_total_dim(9, 3) == 6
    assert fixed_point_total_dim(0, 3) == 1
    assert fixed_point_total_dim(10, 3) == 6
    with pytest.raises(UnsupportedCaseError):
        fixed_point_total_dim(5, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_point_total_dim_counts_the_punctured_plane_basis(p):
    # the totals route against the enumerated basis
    for n in range(31):
        if n % p in (0, 1):
            assert len(punctured_plane_basis(n // p, p)) == fixed_point_total_dim(n, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_point_dimension_equality(p):
    # total fixed-point homology equals total ambient homology, n <= 40
    for n in range(41):
        if n % p in (0, 1):
            assert fixed_point_total_dim(n, p) == total_dim(n, p)


def test_generators_for_dispatch():
    plane = generators_for(SpaceSpec(SPACE_PLANE), 3, 9)
    assert table(plane) == table(plane_config_generators(3, 9))
    sphere = generators_for(SpaceSpec(SPACE_SPHERE_LABELLED, 1), 3, 9)
    assert table(sphere) == table(sphere_labelled_generators(3, 1, 9))
    # the punctured plane and the fixed points have bases, not generator catalogs
    for kind in ("punctured_plane", "fixed_points", "torus"):
        with pytest.raises(ValueError, match="unknown space kind"):
            generators_for(SpaceSpec(kind), 3, 9)


@pytest.mark.parametrize("p, foreign", [(3, q_iota(1)), (2, u_class(3))], ids=["p3-Qi1", "p2-u"])
def test_foreign_generator_refused_by_every_plane_reader(p, foreign):
    # i^2 times a weight-2 generator the plane algebra at p lacks: weight 4 = q + 1
    m = Monomial([(iota(), 2), (foreign, 1)])
    # i^(2p-2) times the same generator: weight 2p = p * q
    m_pq = Monomial([(iota(), 2 * p - 2), (foreign, 1)])
    readers = [
        lambda: delta(m, p),
        lambda: classify_monomial(m, p, 4),
        lambda: bijection_image(m, SOURCE_WEIGHT_Q_PLUS_1, p, 3),
        lambda: bijection_image(m_pq, SOURCE_WEIGHT_PQ, p, 2),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="not a plane-configuration monomial"):
            read()
