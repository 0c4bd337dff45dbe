"""The BV operator, its matrix, the spectral-sequence page, and the dispatcher."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confhom import (
    Element,
    FpMatrix,
    GradedDims,
    Monomial,
    REGIME_COKER_DELTA,
    REGIME_TENSOR_BS1,
    UnsupportedCaseError,
    collapse_total_degree,
    default_degree_bound,
    delta,
    delta_element,
    delta_matrix,
    equivariant_s1,
    equivariant_zp,
    gravity_op_degree,
    monomial_basis,
    plane_config_generators,
    serre_e3,
)
from confhom.algebra import alpha_gen, as_prime, beta_gen, iota, q_iota, u_class
from confhom.bv import _delta_rank
from confhom.catalog import _split_plane_monomial
from confhom.enumeration import BigradedDims

from oracles import group_by_degree


def _flat_basis(n, p):
    """The weight-n plane basis as the public `monomial_basis` lists it."""
    return monomial_basis(plane_config_generators(p, max(n, 1)), n, p)


def mono(*pairs):
    return Monomial(pairs)


def test_delta_closed_form_small_cases():
    i, u = iota(), u_class(3)
    # Delta(i^2) = 2u with the k(k-1) coefficient taken verbatim; the image
    # is a nonzero multiple of u in any normalization
    image = delta(mono((i, 2)), 3)
    assert image.terms == {mono((u, 1)): 2}
    # Delta(i^5) at p = 3: coefficient 5*4 = 20 = 2 mod 3
    assert delta(mono((i, 5)), 3).terms == {mono((i, 3), (u, 1)): 2}
    # u kills everything
    a1 = alpha_gen(1, 3)
    assert delta(mono((i, 4), (u, 1), (a1, 1)), 3).is_zero()
    # k < 2 or k(k-1) = 0 mod p
    assert delta(mono((i, 1)), 3).is_zero()
    assert delta(mono((i, 3), (beta_gen(1, 3), 1)), 3).is_zero()
    assert delta(Monomial(), 3).is_zero()


def test_delta_identically_zero_at_p2():
    gens = plane_config_generators(2, 12)
    for n in range(13):
        for m in monomial_basis(gens, n, 2):
            assert delta(m, 2).is_zero()


def test_delta_rejects_foreign_monomials():
    with pytest.raises(ValueError):
        delta(mono((q_iota(1), 1)), 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_squares_to_zero_and_grades(p):
    for n in range(25):
        gens = plane_config_generators(p, max(n, 1))
        for m in monomial_basis(gens, n, p):
            image = delta(m, p)
            for mm in image.terms:
                assert mm.weight == m.weight
                assert mm.degree == m.degree + 1
            assert delta_element(image).is_zero()


def test_delta_matrix_small_cases():
    m = delta_matrix(2, 3, 0)
    assert m.a == [[2]]
    m5 = delta_matrix(5, 3, 0)
    assert m5.a == [[2]]
    # n = 0, 1 mod p: zero in every degree
    for n in (3, 6, 7, 9):
        gens = plane_config_generators(3, n)
        top = max(m.degree for m in monomial_basis(gens, n, 3))
        assert all(delta_matrix(n, 3, d).is_zero() for d in range(top + 1))


@pytest.mark.parametrize("p", [3, 5])
def test_regime_dichotomy_and_ufree_counts(p):
    for n in range(25):
        gens = plane_config_generators(p, max(n, 1))
        mons = monomial_basis(gens, n, p)
        top = max((m.degree for m in mons), default=0)
        zero = all(delta_matrix(n, p, d).is_zero() for d in range(top + 1))
        assert zero == (n % p in (0, 1))
        if zero:
            continue
        u_free = [m for m in mons if not m.contains_kind("u")]
        u_carrying = [m for m in mons if m.contains_kind("u")]
        assert len(u_free) == len(u_carrying)
        # rank route: the operator is injective on u-free monomials and its
        # image is the span of the u-carrying ones, degree by degree
        for d in range(top + 1):
            mat = delta_matrix(n, p, d)
            src_ufree = sum(1 for m in mons if m.degree == d and not m.contains_kind("u"))
            tgt_ucarry = sum(1 for m in mons if m.degree == d + 1 and m.contains_kind("u"))
            assert mat.rank() == src_ufree == tgt_ucarry


def test_equivariant_s1_tensor_regime():
    ans = equivariant_s1(2, 2, 8)
    assert ans.regime == REGIME_TENSOR_BS1
    assert ans.dims == GradedDims({d: 1 for d in range(9)})
    # weight-9 series from the frozen degree table {0,1,4,5,5,6}
    table = {0: 1, 1: 1, 4: 1, 5: 2, 6: 1}
    bound = default_degree_bound(9)
    expected = {}
    for d, k in table.items():
        for dd in range(d, bound + 1, 2):
            expected[dd] = expected.get(dd, 0) + k
    ans9 = equivariant_s1(9, 3)
    assert ans9.regime == REGIME_TENSOR_BS1
    assert ans9.dims == GradedDims(expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_basis_is_the_plane_monomials_through_the_bound(p):
    for n in range(25):
        if n % p not in (0, 1):
            continue
        mons = _flat_basis(n, p)
        for dmax in (0, 3, 7, default_degree_bound(n)):
            ans = equivariant_s1(n, p, dmax)
            assert ans.regime == REGIME_TENSOR_BS1
            assert ans.basis == [m for m in mons if m.degree <= dmax]
            assert ans.dims.total() == sum((dmax - m.degree) // 2 + 1 for m in ans.basis)


def test_equivariant_s1_coker_regime():
    ans = equivariant_s1(2, 3)
    assert ans.regime == REGIME_COKER_DELTA
    assert ans.dims == GradedDims({0: 1})
    assert [m.text() for m in ans.basis] == ["i^2"]
    # coker basis never contains the weight-2 odd class
    for n in (5, 8, 11):
        for m in equivariant_s1(n, 3).basis:
            assert not m.contains_kind("u")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_equivariant_s1_coker_basis_is_the_filtered_plane_basis(p):
    # the listing walks the generators without the odd class; the oracle filters the plane basis
    for n in range(2, 60):
        if n % p > 1:
            mons = monomial_basis(plane_config_generators(p, n), n, p)
            u_free = [m for m in mons if not m.contains_kind("u")]
            basis = equivariant_s1(n, p).basis
            assert [m.factors for m in basis] == [m.factors for m in u_free]
            assert [(m.text(), m.degree, m.weight) for m in basis] == [
                (m.text(), m.degree, m.weight) for m in u_free
            ]


def test_equivariant_zp():
    assert equivariant_zp(3, 3, 6) == GradedDims({0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2})
    assert equivariant_zp(0, 5, 5) == GradedDims({d: 1 for d in range(6)})
    assert equivariant_zp(2, 2, 4) == GradedDims({0: 1, 1: 2, 2: 2, 3: 2, 4: 2})
    with pytest.raises(UnsupportedCaseError):
        equivariant_zp(5, 3)
    with pytest.raises(UnsupportedCaseError):
        equivariant_zp(7, 5)


def test_serre_e3_examples():
    # n = 5, p = 3: everything collapses to the base column
    page = serre_e3(5, 3, 12)
    assert all(j == 0 for (_, j) in page.dims)
    gens = plane_config_generators(3, 5)
    u_free = GradedDims(Counter(
        m.degree for m in monomial_basis(gens, 5, 3) if not m.contains_kind("u")
    ))
    assert GradedDims({i: v for (i, _), v in page.dims.items()}) == u_free
    # n = 6, p = 3: the differential vanishes and the page is the product
    page6 = serre_e3(6, 3, 10)
    dims6 = poincare6 = GradedDims(Counter(
        m.degree for m in monomial_basis(plane_config_generators(3, 6), 6, 3)
    ))
    for (i, j), v in page6.dims.items():
        assert v == dims6[i] and i + 2 * j <= 10
    # n = 1: a point's homology, nothing to differentiate
    page1 = serre_e3(1, 3, 6)
    assert page1.dims == {(0, j): 1 for j in range(4)}


def test_serre_e3_refuses_an_oversized_degree_bound():
    # the same rule as every truncated answer: refused before the page is allocated
    with pytest.raises(ValueError, match="exceeds the limit"):
        serre_e3(2, 3, 2**40)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_serre_agrees_with_dispatcher(p):
    for n in range(17):
        bound = default_degree_bound(n)
        collapsed = collapse_total_degree(serre_e3(n, p, bound))
        assert collapsed == equivariant_s1(n, p, bound).dims


@pytest.mark.parametrize("p", [3, 5])
def test_serre_e3_closed_form_oracle(p):
    # the rank computation must land on the closed form: the full product
    # page when n is 0 or 1 mod p, and otherwise everything pushed into
    # the base column with the u-free counts
    for n in range(13):
        bound = default_degree_bound(n)
        page = serre_e3(n, p, bound)
        gens = plane_config_generators(p, max(n, 1))
        mons = monomial_basis(gens, n, p)
        fiber = GradedDims(Counter(m.degree for m in mons))
        if n % p in (0, 1):
            expected = {
                (i, j): v
                for i, v in fiber.dims.items()
                for j in range((bound - i) // 2 + 1)
            }
            assert page.dims == expected
        else:
            u_free = GradedDims(Counter(
                m.degree for m in mons if not m.contains_kind("u")
            ))
            assert page.dims == {(i, 0): v for i, v in u_free.dims.items()}


def test_gravity_op_degree():
    assert gravity_op_degree(0, 2, 0, "even") == 1
    assert gravity_op_degree(0, 3, 1, "odd") == 4
    assert gravity_op_degree(4, 3, 0, "even") == 5
    with pytest.raises(ValueError):
        gravity_op_degree(0, 2, 1, "even")
    with pytest.raises(ValueError):
        gravity_op_degree(0, 2, 2, "odd")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_rank_is_count_of_nonzero_images(p):
    # the closed-form rank behind serre_e3, against the matrix rank
    for n in range(31):
        by_deg = group_by_degree(_flat_basis(n, p))
        for d in range(max(by_deg) + 2):
            nonzero = sum(not delta(m, p).is_zero() for m in by_deg.get(d, []))
            rank = delta_matrix(n, p, d, by_deg).rank()
            assert rank == nonzero
            assert _delta_rank(delta(m, p) for m in by_deg.get(d, [])) == rank


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_matrix_from_grouped_basis_matches_enumerated(p):
    for n in range(16):
        by_deg = group_by_degree(_flat_basis(n, p))
        for d in range(-1, max(by_deg) + 2):
            grouped = delta_matrix(n, p, d, by_deg)
            enumerated = delta_matrix(n, p, d)
            assert (grouped.rows, grouped.cols) == (enumerated.rows, enumerated.cols)
            assert grouped.a == enumerated.a


def _scanned(m):
    # every factor read by kind, wherever it stands
    k = eps = 0
    rest = []
    for g, e in m.factors:
        if g.kind == "iota":
            k = e
        elif g.kind == "u":
            eps = e
        else:
            rest.append((g, e))
    return k, eps, rest


def _validated_delta(m, p):
    # the closed form through the validating constructors
    k, eps, rest = _scanned(m)
    if p == 2 or eps or k < 2:
        return Element.zero(p)
    return Element.term(k * (k - 1), Monomial([(iota(), k - 2), (u_class(p), 1)] + rest), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta_matches_the_validating_construction(p):
    prime = as_prime(p)
    for n in range(31):
        for m in _flat_basis(n, p):
            k, eps, rest = _scanned(m)
            split_k, split_eps, head = _split_plane_monomial(m, prime)
            assert (split_k, split_eps, m.factors[head:]) == (k, eps, tuple(rest))
            image, expected = delta(m, p), _validated_delta(m, p)
            assert image == expected and hash(image) == hash(expected)
            assert image.terms == expected.terms and image.text() == expected.text()
            for (mm, c), (ee, ce) in zip(image.terms.items(), expected.terms.items()):
                assert c == ce and 0 < c < p
                assert mm.factors == ee.factors
                assert (mm.weight, mm.degree) == (ee.weight, ee.degree)
                assert mm.text() == ee.text() and mm == ee and hash(mm) == hash(ee)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta_rejects_a_foreign_factor_anywhere(p):
    foreign = q_iota(1) if p != 2 else u_class(3)
    tail = q_iota(3) if p == 2 else alpha_gen(1, p)
    # alone, after the point class, and between the point class and a plane letter
    for factors in ([(foreign, 1)], [(iota(), 3), (foreign, 1)],
                    [(iota(), 2), (foreign, 1), (tail, 1)]):
        m = Monomial(factors)
        with pytest.raises(ValueError, match="not a plane-configuration monomial"):
            delta(m, p)
        with pytest.raises(ValueError, match="not a plane-configuration monomial"):
            _split_plane_monomial(m, as_prime(p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_matrix_matches_the_validating_constructor(p):
    for n in range(31):
        by_deg = group_by_degree(_flat_basis(n, p))
        for d in range(-1, max(by_deg) + 2):
            source, target = by_deg.get(d, []), by_deg.get(d + 1, [])
            rows = [[_validated_delta(m, p).terms.get(t, 0) for m in source] for t in target]
            expected = FpMatrix(rows, p, (len(target), len(source)))
            got = delta_matrix(n, p, d, by_deg)
            assert got.p == expected.p and (got.rows, got.cols) == (expected.rows, expected.cols)
            assert (got.rows, got.cols) == (len(target), len(source))
            assert got.a == expected.a
            assert got.rank() == expected.rank()
            assert all(type(v) is int and 0 <= v < p for row in got.a for v in row)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_delta_matrix_rows_are_dense_and_survive_the_rank(p):
    # a row with an entry is a list of its own; the zero rows may share one
    for n in range(31):
        by_deg = group_by_degree(_flat_basis(n, p))
        for d in range(-1, max(by_deg) + 2):
            images = [_validated_delta(m, p).terms for m in by_deg.get(d, [])]
            dense = [[image.get(t, 0) for image in images] for t in by_deg.get(d + 1, [])]
            got = delta_matrix(n, p, d, by_deg)
            assert got.a == dense
            got.rank()
            assert got.a == dense
            held = [row for row in got.a if any(row)]
            assert len({id(row) for row in held}) == len(held)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta_element_of_zero_is_zero_over_the_same_prime(p):
    image = delta_element(Element.zero(p))
    assert image.is_zero() and image.p == as_prime(p) and image == Element.zero(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_images_of_one_prime_are_one_element(p):
    # `delta` makes a fresh Prime from the int p on each call, and still
    # returns its prime's one zero
    mons = [m for n in range(13) for m in _flat_basis(n, p)]
    zeros = [im for m in mons if (im := delta(m, p)).is_zero()]
    assert len(zeros) > 1 and all(z is zeros[0] for z in zeros)
    assert zeros[0] == Element.zero(p) and zeros[0].is_zero()
    other = 3 if p == 2 else 2
    assert delta(_flat_basis(0, other)[0], other) is not zeros[0]


# the plane monomials of weight <= 12 at each prime, every regime included
_SMALL_PLANE = {p: [m for n in range(13) for m in _flat_basis(n, p)] for p in (2, 3, 5, 7)}


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(sorted(_SMALL_PLANE)), data=st.data())
def test_delta_element_is_delta_on_each_monomial(p, data):
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(_SMALL_PLANE[p]), st.integers(0, 2 * p)), max_size=6))
    terms = Counter()
    for m, c in picks:
        terms[m] += c
    el = Element(terms, p)
    assert delta_element(el) == el.map_monomials(lambda m: delta(m, el.p))


# a page row: a ragged list of cells, possibly empty, or a dict of its nonzero cells
_CELL = st.integers(-1, 30)
_PAGE_ROW = st.one_of(
    st.lists(_CELL, max_size=6),
    st.dictionaries(st.integers(0, 8), _CELL.filter(bool), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_PAGE_ROW, max_size=7))
@example(rows=[])
# the -1 at (2, 0) is refused though the 1 at (0, 1) covers its total degree
@example(rows=[[1, 1], [], [-1]])
@example(rows=[[], {}, [0, 0]])
def test_collapse_is_the_sum_of_cells_by_total_degree(rows):
    cells = [(i, j, v) for i, row in enumerate(rows)
             for j, v in (row.items() if isinstance(row, dict) else enumerate(row))]
    page = BigradedDims(rows)
    if any(v < 0 for _, _, v in cells):
        with pytest.raises(ValueError, match="^negative dimension$"):
            collapse_total_degree(page)
        return
    totals = Counter()
    for i, j, v in cells:
        totals[i + 2 * j] += v
    collapsed = collapse_total_degree(page)
    assert collapsed == GradedDims(dict(totals))
    assert 0 not in collapsed.dims.values()
