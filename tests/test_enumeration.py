"""Monomial bases by weight and the two dimension-counting routes."""

import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from confhom import (
    BigradedDims,
    GradedDims,
    enumeration,
    monomial_basis,
    plane_config_generators,
    poincare,
    series_coefficient,
    series_table,
    total_dim,
)
from confhom import bv, signhom
from confhom.algebra import Generator, Monomial, alpha_gen, as_prime, iota, u_class
from confhom.catalog import sphere_labelled_generators
from confhom.enumeration import (
    _MAX_TOTAL_WEIGHT,
    MAX_SERIES_BITS,
    _monomial_bases,
    _plane_totals,
    _weight_sizes,
)

from oracles import (
    binary_partition_counts,
    monomial_basis_bruteforce,
    odd_plane_totals,
    product_expansion,
)


def test_weight9_table_p3():
    gens = plane_config_generators(3, 9)
    mons = monomial_basis(gens, 9, 3)
    assert [(m.text(), m.degree) for m in mons] == [
        ("i^9", 0),
        ("i^7 u", 1),
        ("i^3 b1", 4),
        ("i u b1", 5),
        ("i^3 a1", 5),
        ("i u a1", 6),
    ]


def test_weight6_table_p3():
    gens = plane_config_generators(3, 6)
    mons = monomial_basis(gens, 6, 3)
    assert [(m.text(), m.degree) for m in mons] == [
        ("i^6", 0),
        ("i^4 u", 1),
        ("b1", 4),
        ("a1", 5),
    ]


def test_weight0_and_validation():
    gens = plane_config_generators(3, 1)
    basis = monomial_basis(gens, 0, 3)
    assert len(basis) == 1 and basis[0].text() == "1" and basis[0].degree == 0
    with pytest.raises(ValueError):
        monomial_basis(gens, -1, 3)


def test_total_dims_match_hand_values():
    assert total_dim(3, 3) == 2
    assert total_dim(9, 3) == 6
    assert total_dim(2, 2) == 2  # i^2 and Qi1
    assert poincare(plane_config_generators(3, 9), 9, 3) == GradedDims(
        {0: 1, 1: 1, 4: 1, 5: 2, 6: 1}
    )


def test_series_single_generators():
    # one even weight-1 generator: weight-n slice is one class in degree 0
    even = [iota()]
    for n in (0, 1, 5):
        assert series_coefficient(even, n, 4, 3) == GradedDims({0: 1})
    # one exterior weight-2 generator: the square vanishes
    odd = [u_class(3)]
    assert series_coefficient(odd, 2, 4, 3) == GradedDims({1: 1})
    assert series_coefficient(odd, 4, 4, 3) == GradedDims({})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_equals_series(p):
    for n in range(31):
        gens = plane_config_generators(p, max(n, 1))
        assert poincare(gens, n, p) == series_coefficient(gens, n, 64, p)


@pytest.mark.parametrize("p", [2, 3])
def test_series_table_slices_agree_with_poincare(p):
    gens = plane_config_generators(p, 12)
    tab = series_table(gens, 12, 24, p)
    for n in range(13):
        assert tab.weight_slice(n) == poincare(gens, n, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iota_multiplication_injection(p):
    # multiplying by the point class embeds weight-n monomials in weight n+1;
    # when p divides n it is onto, so the dimensions agree
    for n in range(41):
        assert total_dim(n + 1, p) >= total_dim(n, p)
        if n % p == 0:
            assert total_dim(n + 1, p) == total_dim(n, p)


def test_monomial_basis_exterior_constraint():
    gens = plane_config_generators(3, 4)
    for n in range(9):
        for m in monomial_basis(gens, n, 3):
            for g, e in m.factors:
                if g.exterior:
                    assert e == 1


def _plane_gens(p):
    return lambda n: plane_config_generators(p, max(n, 1))


def _sphere_gens(p, m):
    return lambda n: sphere_labelled_generators(p, m, max(n, 1))


def _plane_gens_without_point_class(p):
    return lambda n: plane_config_generators(p, max(n, 1))[1:]


@pytest.mark.parametrize("make_gens, p, max_n", [
    # to weight 30: the two closing levels well past the small weights
    (_plane_gens(2), 2, 30),
    (_plane_gens(3), 3, 30),
    (_plane_gens(5), 5, 24),
    (_plane_gens(7), 7, 24),
    # the lowest-rank generator is the weight-1 exterior class at odd p
    (_sphere_gens(3, 1), 3, 18),
    (_sphere_gens(3, 3), 3, 18),
    (_sphere_gens(5, 1), 5, 18),
    (_sphere_gens(2, 2), 2, 18),
    # the lowest-rank generator has weight 2: u (exterior) at p = 3, Qi1 at p = 2
    (_plane_gens_without_point_class(3), 3, 24),
    (_plane_gens_without_point_class(2), 2, 24),
    # one generator, which is also the one that closes: polynomial of weight
    # 1, exterior of weight 2, exterior of weight 10 and degree 9
    (lambda n: [iota()], 3, 24),
    (lambda n: [u_class(3)], 3, 24),
    (lambda n: [alpha_gen(1, 5)], 5, 40),
], ids=["plane2", "plane3", "plane5", "plane7", "sphere3m1", "sphere3m3", "sphere5m1",
        "sphere2m2", "no-point-class3", "no-point-class2", "iota", "u3", "a1p5"])
def test_monomial_basis_matches_bruteforce(make_gens, p, max_n):
    for n in range(max_n + 1):
        gens = make_gens(n)
        got = monomial_basis(gens, n, p)
        want = monomial_basis_bruteforce(gens, n)
        assert [m.factors for m in got] == [m.factors for m in want]
        for a, b in zip(got, want):
            assert a == b and hash(a) == hash(b) and a.text() == b.text()
            assert (a.weight, a.degree) == (b.weight, b.degree)



def _basis_digest(make_gens, p, max_n):
    """sha256 over every monomial of weights 0..max_n, in the order listed:
    factor names and exponents, text, weight and degree."""
    h = hashlib.sha256()
    for n in range(max_n + 1):
        h.update(f"weight {n}\n".encode())
        for m in monomial_basis(make_gens(n), n, p):
            factors = " ".join(f"{g.name}^{e}" for g, e in m.factors)
            h.update(f"{factors}|{m.text()}|{m.weight}|{m.degree}\n".encode())
    return h.hexdigest()


# Digests recorded from the walk before its last two levels were merged.
_GOLDEN_BASES = [
    ("plane2", _plane_gens(2), 2, 64,
     "a8a8df463c58015dd4876caef3f037956ee199d6b6079228a90d94c4c888e6d0"),
    ("plane3", _plane_gens(3), 3, 90,
     "4830700a3f0ebba12aa76605288914fb6dbc2f3cb8c9eb36670211665ff178e1"),
    ("plane5", _plane_gens(5), 5, 90,
     "27f0cfce023d470b92877c491854a824380027874d2c03c4ce7d5a577762ad2d"),
    ("plane7", _plane_gens(7), 7, 90,
     "bd6d9a1362d3df20a7e169438d3d2f387d8ee8e9aa115ac48d49e74654c3fbf3"),
    ("no-point-class2", _plane_gens_without_point_class(2), 2, 48,
     "658f49b86d6a8bc1b965e5d06219bb4812339aa169f2f04fdc45d4231496b4fa"),
    ("no-point-class3", _plane_gens_without_point_class(3), 3, 60,
     "83f8330abbd8ee868cca8295e694f5fb63a0127a9fd19bf4fc023bebdb687938"),
    # the lowest-rank generator is the weight-1 exterior class at odd p
    ("sphere3m1", _sphere_gens(3, 1), 3, 40,
     "d0a71c975dcb17c56479c051062f111d631eb37f70ce2879b1daabeb1b6fdfc9"),
    ("sphere5m3", _sphere_gens(5, 3), 5, 40,
     "2d4517e7ee07e406763fbc1d77f865b6e55ae24d62cb86fe165628b7c19d9355"),
    ("sphere7m1", _sphere_gens(7, 1), 7, 40,
     "c6d85125e6f4bf573d36adcf82c815a78433ae053cd8af519419df369f3b921f"),
    ("sphere2m1", _sphere_gens(2, 1), 2, 40,
     "d47bbddb29d17dff3b3df0f559bed9902615c6b5383b1405bb6ffcc9493300e5"),
    ("sphere2m2", _sphere_gens(2, 2), 2, 40,
     "01aa49039d112ef0577937fcf45e8bdb704e92230fd18f2dfecb5c67ddccbd04"),
    # one generator, which is also the one that closes
    ("iota", lambda n: [iota()], 3, 24,
     "21479213dd223c6dcac71e74355923716f30d3f906bb254b8f5f579fd59d31e6"),
    ("u3", lambda n: [u_class(3)], 3, 24,
     "95393a8a3311876009d2ca0a517724190a5223b07d81f4f113e5cae782941eae"),
    ("a1p5", lambda n: [alpha_gen(1, 5)], 5, 40,
     "c2d33c1d3bace5d5ec710306f40ec3238664794924a57af710ebf46e2fc29124"),
    ("Qi2", lambda n: [plane_config_generators(2, 4)[2]], 2, 24,
     "4b9ab377023a3807aded4ec78e817a7854fa460e68478a42f9a3e06cf9af89ab"),
    ("Qs0p3", lambda n: [sphere_labelled_generators(3, 1, 1)[0]], 3, 24,
     "c03120f04d7f607cb9c0f9f6e064ebdf33868151a94f8f17937dfc9bcc2a69ab"),
    ("bQs1p3", lambda n: [sphere_labelled_generators(3, 1, 3)[1]], 3, 24,
     "a173aea99a8639a023b7a58bcb5ae7659fe1a3c40cf70d495f3b29de02ee3f90"),
]


@pytest.mark.parametrize("make_gens, p, max_n, digest", [c[1:] for c in _GOLDEN_BASES],
                         ids=[c[0] for c in _GOLDEN_BASES])
def test_monomial_basis_golden_digest(make_gens, p, max_n, digest):
    assert _basis_digest(make_gens, p, max_n) == digest


@settings(max_examples=200, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(1, 6), st.integers(0, 6), st.booleans()), max_size=5
    ),
    n=st.integers(0, 14),
    seed=st.randoms(use_true_random=False),
)
def test_monomial_basis_matches_bruteforce_on_random_catalogs(factors, n, seed):
    # several generators often share a weight, so groups meet at one weight
    # left from different exponents; the input order is shuffled
    gens = [Generator("tower", k, f"g{k}", *f, (9, k)) for k, f in enumerate(factors)]
    seed.shuffle(gens)
    got = monomial_basis(gens, n, 3)
    want = monomial_basis_bruteforce(gens, n)
    assert [m.factors for m in got] == [m.factors for m in want]
    assert [(m.text(), m.weight, m.degree) for m in got] == [
        (m.text(), m.weight, m.degree) for m in want
    ]


def _basis_fields(basis):
    return [(m.factors, m.text(), m.degree, m.weight) for m in basis]


@settings(max_examples=150, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 6), st.booleans()), max_size=5
    ),
    max_n=st.integers(0, 40),
    seed=st.randoms(use_true_random=False),
)
# the empty set; an exterior lowest generator; a lowest generator of weight > 1
@example(factors=[], max_n=7, seed=random.Random(0))
@example(factors=[(1, 1, True), (2, 2, False), (3, 1, True)], max_n=40,
         seed=random.Random(0))
@example(factors=[(3, 2, False), (5, 1, True), (4, 0, False)], max_n=40,
         seed=random.Random(0))
def test_the_walk_yields_each_one_weight_basis(factors, max_n, seed):
    # generator k has rank (9, k): the first listed is the lowest
    gens = [Generator("tower", k, f"g{k}", *f, (9, k)) for k, f in enumerate(factors)]
    assume(sum(_weight_sizes(gens, max_n)[0]) <= 20000)
    seed.shuffle(gens)
    walked = list(_monomial_bases(gens, range(max_n + 1), 3))
    assert len(walked) == max_n + 1
    for n, groups in enumerate(walked):
        # degrees ascend, and each nonempty group holds only its own degree
        assert list(groups) == sorted(groups)
        assert all(ms and {m.degree for m in ms} == {d} for d, ms in groups.items())
        basis = [m for ms in groups.values() for m in ms]
        assert _basis_fields(basis) == _basis_fields(monomial_basis(gens, n, 3))
        if n <= 12:
            assert _basis_fields(basis) == _basis_fields(monomial_basis_bruteforce(gens, n))
    texts = _monomial_bases(gens, range(max_n + 1), 3, texts=True)
    assert list(texts) == [_texts_of(groups) for groups in walked]


def _texts_of(groups: dict) -> dict:
    """The walk's Monomial groups as the texts of each monomial."""
    return {d: [m.text() for m in ms] for d, ms in groups.items()}


@pytest.mark.parametrize(("p", "gens", "max_n"), [
    *((p, plane_config_generators(p, 40), 40) for p in (2, 3, 5, 7)),
    (3, sphere_labelled_generators(3, 1, 30), 30),
    (5, sphere_labelled_generators(5, 3, 30), 30),
    (2, sphere_labelled_generators(2, 2, 30), 30),
    (3, [], 0),
], ids=["plane-2", "plane-3", "plane-5", "plane-7", "sphere-3-1", "sphere-5-3", "sphere-2-2",
        "empty"])
def test_the_walk_files_texts_as_the_monomials_it_builds(p, gens, max_n):
    walked = list(_monomial_bases(gens, range(max_n + 1), p))
    texts = list(_monomial_bases(gens, range(max_n + 1), p, texts=True))
    assert len(texts) == max_n + 1
    for n, (groups, text_groups) in enumerate(zip(walked, texts)):
        assert text_groups == _texts_of(groups)
        assert list(text_groups) == list(groups)
        if n <= 12:
            brute = [m.text() for m in monomial_basis_bruteforce(gens, n)]
            assert [t for ts in text_groups.values() for t in ts] == brute
    if not gens:
        assert texts == [{0: ["1"]}]


def test_the_walk_refuses_as_monomial_basis_does():
    bad = [
        ([iota()], range(-1, 3), "weight must be >= 0, got -1"),
        ([iota(), iota()], range(3), "duplicate generators"),
        ([Generator("tower", 0, "g", 0, 2, False, (9, 0))], range(3), "needs weight >= 1"),
    ]
    for gens, weights, message in bad:
        with pytest.raises(ValueError, match=message):
            next(_monomial_bases(gens, weights, 3))
    # a sweep with no steps walks no weight
    assert list(_monomial_bases([iota()], range(0), 3)) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_walk_below_dmax_drops_only_higher_degrees(p):
    n = 40
    for gens in (plane_config_generators(p, n), sphere_labelled_generators(p, 1, n)):
        (full,) = _monomial_bases(gens, range(n, n + 1), p, texts=True)
        for dmax in (-1, 0, 1, 5, 17, 100):
            (cut,) = _monomial_bases(gens, range(n, n + 1), p, texts=True, dmax=dmax)
            assert {d: ts for d, ts in cut.items() if d <= dmax} == {
                d: ts for d, ts in full.items() if d <= dmax
            }


def test_the_s1_listing_below_dmax_closes_only_the_products_below_it(monkeypatch):
    # the weight-276 basis at p = 2 holds about 1.04M monomials; below degree 0
    # the walk keeps the empty product alone, and the point class closes it
    real = enumeration._close
    parents = []

    def close(pending, n, low, second_powers, texts):
        parents.append(sum(len(group) for _, group in pending))
        return real(pending, n, low, second_powers, texts)

    monkeypatch.setattr(enumeration, "_close", close)
    regime, dims, groups = bv._equivariant_s1(276, as_prime(2), 0, texts=True)
    assert (dims.expand(), groups) == (GradedDims({0: 1}), {0: ["i^276"]})
    assert parents == [1]


def test_monomial_basis_over_no_generators():
    assert [m.text() for m in monomial_basis([], 0, 3)] == ["1"]
    assert monomial_basis_bruteforce([], 0) == monomial_basis([], 0, 3)
    for n in (1, 5):
        assert monomial_basis([], n, 3) == monomial_basis_bruteforce([], n) == []


def test_monomial_basis_deterministic_order():
    gens = plane_config_generators(3, 9)
    mons = monomial_basis(gens, 9, 3)
    assert [(m.degree, m.text()) for m in mons] == sorted((m.degree, m.text()) for m in mons)


def test_series_table_cells_match_enumeration():
    gens = plane_config_generators(3, 12)
    tab = series_table(gens, 12, 24, 3)
    counts = [[0] * 25 for _ in range(13)]
    for n in range(13):
        for d, c in poincare(gens, n, 3).dims.items():
            if d <= 24:
                counts[n][d] = c
    expected = BigradedDims(counts)
    assert tab == expected
    assert tab.to_pairs() == expected.to_pairs() and tab.total() == expected.total()
    assert tab[(9, 5)] == 2 and tab.weight_slice(13) == GradedDims({})


def _decode_by_text(row: int, width: int) -> list[int]:
    """Every cell of a packed row, zero or not, parsed from one binary
    string: the per-cell reference of the halving decoder."""
    if not row:
        return []
    bits = format(row, "b")
    bits = bits.zfill(-(-len(bits) // width) * width)
    return [int(bits[i - width : i], 2) for i in range(len(bits), 0, -width)]


def _nonzero(cells: list[int]) -> dict[int, int]:
    return {d: n for d, n in enumerate(cells) if n}


def _packed(cells: list[int], width: int) -> int:
    return sum(c << d * width for d, c in enumerate(cells))


def _assert_decodes(cells: list[int], width: int) -> None:
    row = _packed(cells, width)
    got = enumeration._PackedRows({0: row}, 1, width)[0]
    assert got == _nonzero(_decode_by_text(row, width)) == _nonzero(cells)
    assert list(got) == sorted(got)


# 1, 2, 2^j and 2^j +- 1 cells
_EDGE_LENGTHS = sorted({1, 2} | {2**j + e for j in range(1, 11) for e in (-1, 0, 1)})


@st.composite
def _packed_cells(draw):
    width = draw(st.integers(1, 70))
    cell = st.integers(1, 2**width - 1)
    if draw(st.booleans()):
        # a few nonzero cells between long zero runs
        length = draw(st.sampled_from(_EDGE_LENGTHS))
        spots = draw(st.dictionaries(st.integers(0, length - 1), cell, max_size=6))
        return width, [spots.get(d, 0) for d in range(length)]
    length = draw(st.one_of(st.integers(0, 40), st.sampled_from(_EDGE_LENGTHS[:20])))
    return width, draw(st.lists(st.one_of(st.just(0), cell), min_size=length, max_size=length))


@settings(max_examples=300, deadline=None)
@given(_packed_cells())
@example((1, []))  # the empty row
@example((70, [0] * 1024 + [2**70 - 1]))  # a lone top cell past a power of two
@example((3, [0] * 4095 + [5]))  # a lone top cell at 2^12
def test_halving_decoder_matches_the_per_cell_decoder(packed):
    width, cells = packed
    _assert_decodes(cells, width)


@pytest.mark.parametrize("width", range(1, 71))
def test_halving_decoder_at_every_width_and_edge_length(width):
    top = 2**width - 1
    for length in _EDGE_LENGTHS:
        # every cell full, so no mask may take a bit from the next cell
        _assert_decodes([top] * length, width)
        _assert_decodes([0] * (length - 1) + [top], width)
        _assert_decodes([1] + [0] * (length - 2) + [top] * (length > 1), width)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_series_table_rows_read_as_the_per_cell_decoder(p):
    for gens in (plane_config_generators(p, 60),
                 sphere_labelled_generators(p, 1, 60),
                 signhom._shifted_generators(as_prime(p), 1, 60)):
        table = series_table(gens, 60, 90, p)
        packed = table._rows
        want = {w: _nonzero(_decode_by_text(packed._ints.get(w, 0), packed._width))
                for w in range(len(packed))}
        for w, cells in want.items():
            assert table.weight_slice(w).dims == cells
        assert table.dims == {(w, d): n for w, cells in want.items() for d, n in cells.items()}


def test_series_without_degree_bound_is_complete():
    for p in (2, 3, 5):
        gens = plane_config_generators(p, 40)
        for n in (0, 1, 17, 40):
            complete = series_coefficient(gens, n, None, p)
            assert complete == series_coefficient(gens, n, 4 * n, p)
            # below the complete bound, the slice is the complete one truncated
            for d in (0, 3, n // 2):
                assert series_coefficient(gens, n, d, p) == complete.truncate(d)


def test_series_table_sizes_its_rows_in_one_sweep(monkeypatch):
    # one sweep per generator gives the totals and the highest degrees that
    # size the rows, and one more builds them
    calls = []
    real = enumeration._sweep
    monkeypatch.setattr(enumeration, "_sweep", lambda g, w: calls.append(g) or real(g, w))
    gens = plane_config_generators(3, 50)
    series_table(gens, 50, 60, 3)
    assert len(calls) == 2 * len(gens)


def _weight_one_exterior(count):
    return [Generator("tower", k, f"e{k}", 1, 1, True, (9, k)) for k in range(count)]


def test_series_exact_beyond_int64():
    # C(66, 33) ~ 7.2e18 fits in 63 bits and C(70, 35) ~ 1.1e20 does not;
    # both come back exact, and so does a weight of both degrees
    for k in (66, 70):
        gens = _weight_one_exterior(k)
        assert series_coefficient(gens, k // 2, None, 3) == GradedDims(
            {k // 2: math.comb(k, k // 2)}
        )
    assert series_table(_weight_one_exterior(70), 36, 35, 3)[(36, 35)] == 0
    assert series_table(_weight_one_exterior(70), 36, 36, 3)[(36, 36)] == math.comb(70, 36)


def test_exterior_series_stops_at_the_sum_of_the_weights():
    # five weight-1 exterior generators reach weight 5 at most: a weight bound
    # whose rows alone would pass the bit budget still answers, and every
    # weight above 5 is empty
    gens = _weight_one_exterior(5)
    table = series_table(gens, MAX_SERIES_BITS, 5, 3)
    assert table.dims == series_table(gens, 5, 5, 3).dims
    assert table.dims == {(k, k): math.comb(5, k) for k in range(6)}
    assert table.weight_slice(6) == GradedDims() == table.weight_slice(MAX_SERIES_BITS)
    assert series_coefficient(gens, 10**9, 5, 3) == GradedDims()
    # one polynomial generator lifts the cap
    with pytest.raises(ValueError, match="bits exceeds the limit"):
        series_table(gens + [iota()], MAX_SERIES_BITS, 5, 3)


def test_series_refuses_oversized_tables():
    # p = 2 up to weight and degree 20000: about 1.4e10 bits, refused before
    # any row is built; the message names the size
    gens = plane_config_generators(2, 20000)
    with pytest.raises(ValueError, match="series table of at least") as err:
        series_table(gens, 20000, 20000, 2)
    assert 10**10 < int(str(err.value).split()[5]) and MAX_SERIES_BITS < 10**10
    # a weight bound alone past the budget is refused before the pre-pass
    with pytest.raises(ValueError, match="bits exceeds the limit"):
        series_table([iota()], MAX_SERIES_BITS, 0, 2)
    # the total reads the one-variable series, which has no table to refuse
    assert total_dim(20000, 2) == _binary_partitions(20000)


@st.composite
def _factor_lists(draw):
    # weights 1-12, or all even, or all multiples of 3, so that the rows off
    # the stride of every sweep must stay empty
    unit = draw(st.sampled_from([1, 2, 3]))
    weight = st.integers(1, 12 // unit).map(unit.__mul__)
    factor = st.tuples(weight, st.integers(0, 6), st.booleans())
    # degree 0, exterior or polynomial, at the lightest weight of the set
    point = st.tuples(st.just(unit), st.just(0), st.booleans())
    return draw(st.lists(st.one_of(factor, point), max_size=7))


@settings(max_examples=300, deadline=None)
@given(factors=_factor_lists(), max_weight=st.integers(0, 40), dmax=st.integers(0, 30),
       seed=st.randoms(use_true_random=False))
def test_strided_expansion_matches_product_expansion(factors, max_weight, dmax, seed):
    # heaviest first and strided by the gcd so far, in any input order, the
    # sweeps give the table, totals and tops of the multiplied-out product
    gens = [Generator("tower", k, f"g{k}", *f, (9, k)) for k, f in enumerate(factors)]
    table = series_table(gens, max_weight, dmax, 3)
    assert table.dims == product_expansion(factors, max_weight, dmax)
    shuffled = gens[:]
    seed.shuffle(shuffled)
    assert series_table(shuffled, max_weight, dmax, 3).dims == table.dims
    cells = product_expansion(factors, max_weight)
    totals, tops = [0] * (max_weight + 1), [-1] * (max_weight + 1)
    for (w, d), count in cells.items():
        totals[w] += count
        tops[w] = max(tops[w], d)
    assert _weight_sizes(gens, max_weight) == (totals, tops)
    assert _weight_sizes(shuffled, max_weight) == (totals, tops)


@settings(max_examples=300, deadline=None)
@given(factors=_factor_lists(), n=st.integers(0, 40), offset=st.integers(-25, 8),
       more=st.sets(st.integers(0, 40), max_size=6))
# no weight-1 generator; a weight-1 exterior one; weight-1 polynomials of degree 0 and > 0
@example(factors=[(2, 1, True), (3, 2, False), (4, 0, True), (6, 5, False)], n=40, offset=0,
         more=set())
@example(factors=[(1, 0, True), (3, 1, False), (3, 2, True), (9, 7, False)], n=40, offset=0,
         more=set())
@example(factors=[(1, 0, False), (2, 1, True), (6, 4, False), (6, 5, True)], n=40, offset=0,
         more=set())
@example(factors=[(1, 2, False), (3, 1, True), (5, 0, True)], n=40, offset=0, more=set())
# two weight-1 generators, also of one degree-to-weight ratio
@example(factors=[(1, 0, False), (1, 0, False), (4, 3, False)], n=40, offset=0, more=set())
@example(factors=[(1, 1, False), (1, 1, True), (2, 2, False)], n=40, offset=0, more=set())
# an exterior second-lightest (above) and a polynomial one, below, at and above the bound
@example(factors=[(1, 0, False), (2, 1, False), (4, 3, False), (8, 7, False)], n=40,
         offset=-25, more=set())
@example(factors=[(1, 0, False), (2, 1, False), (4, 3, False), (8, 7, False)], n=40,
         offset=0, more={0, 1, 17, 39})
@example(factors=[(1, 0, False), (2, 1, False), (4, 3, False), (8, 7, False)], n=40,
         offset=8, more=set())
def test_the_fold_reads_the_rows_of_the_swept_table(factors, n, offset, more):
    # the table of all but the two lightest, with those two folded in at the
    # rows read, against the table that expands every factor over every weight
    gens = [Generator("tower", k, f"g{k}", *f, (9, k)) for k, f in enumerate(factors)]
    bound = max((g.degree * n // g.weight for g in gens), default=0)
    dmax = max(bound + offset, 0)
    swept = series_table(gens, n, dmax, 3)
    assert series_coefficient(gens, n, dmax, 3) == swept.weight_slice(n)
    if offset >= 0:
        assert series_coefficient(gens, n, None, 3) == swept.weight_slice(n)
    # the fold reads any rows at once; `_complete_table` sweeps for more than two
    ns = sorted({n} | {m for m in more if m <= n})
    table = enumeration._folded_rows(gens, ns, dmax, 3)
    for m in ns:
        assert table.weight_slice(m) == swept.weight_slice(m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_one_row_read_at_odd_p_touches_n_over_2p_rows(monkeypatch, p):
    # the table without the point and odd classes has a row per multiple of
    # 2p; the point class makes its running sums, and the odd class reads two
    touched = []
    real_expand, real_inner = enumeration._expand, enumeration._inner_rows

    def expand(gens, max_weight, width, keep):
        rows = real_expand(gens, max_weight, width, keep)
        touched.append(len(rows))
        return rows

    def inner_rows(hrows, step, inner, width, keep):
        rows_at = real_inner(hrows, step, inner, width, keep)

        def counted(xs):
            touched.append(len(xs))
            return rows_at(xs)

        return counted

    monkeypatch.setattr(enumeration, "_expand", expand)
    monkeypatch.setattr(enumeration, "_inner_rows", inner_rows)
    n = 3000
    dims = series_coefficient(plane_config_generators(p, n), n, None, p)
    assert dims.total() == odd_plane_totals(p, n)[n]
    assert touched == [n // (2 * p) + 1, 2]


def test_plane_totals_match_outside_recurrences():
    # p = 2: partitions into powers of two (OEIS A018819), at 2^16 weights;
    # odd p: the closed-form product, convolved plainly
    assert _plane_totals(2**16, 2) == binary_partition_counts(2**16)
    for p in (3, 5):
        assert _plane_totals(3000, p) == odd_plane_totals(p, 3000)


def test_every_prime_slice_deconvolves_to_simple_torsion():
    # H_*(B_n; Q) is Q in degrees 0 and 1 for n >= 2 (Arnold), and all torsion
    # of H_*(B_n; Z) has prime order (Vainshtein 1978; F. Cohen, LNM 533).  So
    # the mod-p slice is b_k = r_k + t_k + t_(k-1), with r the rational Betti
    # numbers and t_k the count of Z/p summands in degree k: the deconvolution
    # t_k = b_k - r_k - t_(k-1) stays >= 0 and ends at 0, at every prime at
    # once, and a prime above n/2 gives no torsion
    pairs = 0
    for n in range(2, 151):
        for p in range(2, n + 1):
            if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                continue
            b = series_coefficient(plane_config_generators(p, n), n, None, p)
            t = 0
            for k in range(max(b.dims) + 1):
                t = b[k] - (k < 2) - t
                assert t >= 0, (n, p, k)
            assert t == 0, (n, p)
            if 2 * p > n:
                assert b.dims == {0: 1, 1: 1}, (n, p)
            pairs += 1
    assert pairs == 3009


def _binary_partitions(n):
    """b(0) = 1, b(2m+1) = b(2m), b(2m) = b(2m-1) + b(m): the p = 2 plane
    algebra is polynomial on generators of weight 1, 2, 4, ..."""
    b = [1] * (n + 1)
    for k in range(1, n + 1):
        b[k] = b[k - 1] + (b[k // 2] if k % 2 == 0 else 0)
    return b[n]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_total_dim_matches_series_and_enumeration(p):
    for n in range(41):
        gens = plane_config_generators(p, max(n, 1))
        expected = len(monomial_basis(gens, n, p))
        assert total_dim(n, p) == series_coefficient(gens, n, None, p).total() == expected
    for refused in (-1, _MAX_TOTAL_WEIGHT + 1):
        with pytest.raises(ValueError, match="weight must be in"):
            total_dim(refused, p)


def _convolve_geometric_loop(dims, step, dmax):
    """The loop that `GradedDims.convolve_geometric` replaced."""
    out = {}
    for d, n in dims.items():
        k = d
        while k <= dmax:
            out[k] = out.get(k, 0) + n
            k += step
    return GradedDims(out)


@settings(max_examples=200, deadline=None)
@given(
    dims=st.dictionaries(
        st.integers(-12, 70),
        st.one_of(st.integers(0, 10**6), st.integers(0, 2**80)),
        max_size=12,
    ),
    step=st.integers(1, 7),
    dmax=st.integers(-16, 90),
)
def test_convolve_geometric_matches_loop(dims, step, dmax):
    g = GradedDims(dims)
    assert g.convolve_geometric(step, dmax) == _convolve_geometric_loop(g.dims, step, dmax)


def test_convolve_geometric_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        GradedDims({0: 1}).convolve_geometric(0, 4)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_walk_writes_each_text_and_sorts_by_degree_and_text(p):
    # the text the walk writes is the one `text()` derives from the factors,
    # and the order is (degree, text) as `Monomial.sort_key` gives it
    for n in range(41):
        for gens in (
            plane_config_generators(p, max(n, 1)),
            sphere_labelled_generators(p, 1, max(n, 1)),
        ):
            mons = monomial_basis(gens, n, p)
            derived = [Monomial(m.factors).text() for m in mons]
            assert [m.text() for m in mons] == derived
            assert mons == sorted(mons, key=lambda m: (m.degree, Monomial(m.factors).text()))
    assert [m.text() for m in monomial_basis(plane_config_generators(p, 1), 0, p)] == ["1"]


@settings(max_examples=200, deadline=None)
@given(
    dims=st.dictionaries(
        st.integers(-12, 70),
        st.one_of(st.integers(0, 10**6), st.integers(0, 2**80)),
        max_size=12,
    ),
    step=st.integers(1, 7),
    dmax=st.integers(-16, 90),
    offset=st.integers(-20, 20),
)
def test_unchecked_method_outputs_equal_validated_construction(dims, step, dmax, offset):
    # truncate, shift and convolve_geometric skip the constructor's check;
    # their dicts must already hold no zero and no negative
    g = GradedDims(dims)
    for out in (g.truncate(dmax), g.shift(offset), g.convolve_geometric(step, dmax)):
        assert out.dims == GradedDims(dict(out.dims)).dims
    with pytest.raises(ValueError, match="negative dimension"):
        GradedDims({1: -1})
