"""Core algebra: primes, generators, canonical monomials, Koszul products."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import (
    Element,
    Monomial,
    ONE,
    Prime,
    alpha_gen,
    beta_gen,
    iota,
    monomial_mul,
    plane_config_generators,
    q_iota,
    u_class,
)
from confhom.algebra import sphere_bq, sphere_q
from confhom.catalog import sphere_labelled_generators
from confhom.enumeration import monomial_basis

from oracles import bubble_sign


def test_prime_validation():
    assert Prime(2).p == 2
    assert int(Prime(13)) == 13
    for bad in (0, 1, 4, 9, 15, -3):
        with pytest.raises(ValueError):
            Prime(bad)


def test_prime_agrees_with_trial_division():
    for n in range(-2, 5000):
        if n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)):
            assert Prime(n).p == n
        else:
            with pytest.raises(ValueError):
                Prime(n)


def test_prime_rejects_pseudoprimes_and_accepts_large_primes():
    # Carmichael numbers, and strong pseudoprimes to the bases 2..7 and 2..23
    for bad in (561, 1105, 1729, 3215031751, 3825123056546413051, (2**61 - 1) * 3):
        with pytest.raises(ValueError, match="not a prime"):
            Prime(bad)
    for good in (1000000000000000003, 2**61 - 1, 2**64 - 59):
        assert Prime(good).p == good


def test_prime_refuses_numbers_beyond_the_certified_range():
    # the bound is itself a strong pseudoprime to all twelve bases
    for big in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            Prime(big)


def test_generator_tables():
    assert (iota().weight, iota().degree) == (1, 0)
    assert (u_class(3).weight, u_class(3).degree) == (2, 1)
    for p in (3, 5, 7):
        for i in (1, 2, 3):
            a, b = alpha_gen(i, p), beta_gen(i, p)
            assert (a.weight, a.degree) == (2 * p**i, 2 * p**i - 1)
            assert (b.weight, b.degree) == (2 * p**i, 2 * p**i - 2)
            assert a.exterior and not b.exterior
    for i in (1, 2, 3):
        g = q_iota(i)
        assert (g.weight, g.degree) == (2**i, 2**i - 1)
        assert not g.exterior  # odd degree but polynomial at p = 2


def test_generators_are_shared_values():
    made = [
        (lambda p: iota(), 3),
        (u_class, 5),
        (lambda p: beta_gen(2, p), 3),
        (lambda p: alpha_gen(1, p), 7),
        (lambda p: q_iota(3), 2),
        (lambda p: sphere_q(2, 3, p), 5),
        (lambda p: sphere_bq(1, 1, p), 3),
    ]
    for make, p in made:
        assert make(p) is make(p)
        # an int p and the equal Prime give equal generators, of one hash
        assert make(p) == make(Prime(p)) and hash(make(p)) == hash(make(Prime(p)))
    assert beta_gen(1, 3) == beta_gen(1, Prime(3))
    assert beta_gen(1, 3) != beta_gen(1, 5) and sphere_q(1, 1, 3) != sphere_q(1, 3, 3)


def test_a_generator_hashes_as_its_rank():
    # equal generators share a rank; sphere generators over different
    # dimensions share one too, and so collide, but still compare unequal
    for p in (2, 3, 5):
        for g in plane_config_generators(p, 60) + sphere_labelled_generators(p, 1, 30):
            assert hash(g) == hash(g.rank)
    one, three = sphere_q(1, 1, 3), sphere_q(1, 3, 3)
    assert hash(one) == hash(three) and one != three and len({one, three}) == 2


def test_shared_generators_still_refuse_invalid_arguments():
    for _ in range(2):
        for call in (lambda: u_class(2), lambda: beta_gen(0, 3), lambda: alpha_gen(1, 4),
                     lambda: q_iota(0), lambda: sphere_q(0, 0, 3), lambda: sphere_bq(1, 1, 2)):
            with pytest.raises(ValueError):
                call()


def test_catalogs_return_a_new_list_each_call():
    for catalog in (lambda: plane_config_generators(3, 18),
                    lambda: sphere_labelled_generators(3, 1, 27)):
        first = catalog()
        want = list(first)
        first.append(q_iota(9))
        first.pop(0)
        again = catalog()
        assert again is not first and again == want
        assert all(g is h for g, h in zip(again, want))


def test_global_generator_order():
    gens = plane_config_generators(3, 18)
    assert [g.name for g in gens] == ["i", "u", "b1", "a1", "b2", "a2"]
    assert sorted(gens, key=lambda g: g.rank) == gens


def test_monomial_canonical_form():
    i, u, b1 = iota(), u_class(3), beta_gen(1, 3)
    m = Monomial([(b1, 1), (i, 2), (u, 1), (i, 1)])
    assert [g.name for g, _ in m.factors] == ["i", "u", "b1"]
    assert dict(m.factors)[i] == 3
    assert (m.weight, m.degree) == (3 + 2 + 6, 0 + 1 + 4)
    assert m.text() == "i^3 u b1"
    # re-canonicalizing a canonical monomial is the identity
    assert Monomial(m.factors) == m
    assert ONE.text() == "1" and ONE.weight == 0


def test_exterior_exponent_rejected():
    with pytest.raises(ValueError):
        Monomial([(u_class(3), 2)])
    # polynomial generators square freely, including odd-degree ones at p = 2
    Monomial([(q_iota(1), 5)])


def test_monomial_mul_trivial_cases():
    i = iota()
    r = monomial_mul(Monomial([(i, 2)]), Monomial([(i, 3)]), 3)
    assert r is not None and r[0] == 1 and r[1].text() == "i^5"
    u = u_class(3)
    assert monomial_mul(Monomial([(u, 1)]), Monomial([(u, 1)]), 3) is None


def test_monomial_mul_sign_against_bubble_oracle():
    # alpha1 * (u b1) at p = 3: the odd factor a1 moves past the odd u.
    a1, u, b1 = alpha_gen(1, 3), u_class(3), beta_gen(1, 3)
    m1 = Monomial([(a1, 1)])
    m2 = Monomial([(u, 1), (b1, 1)])
    result = monomial_mul(m1, m2, 3)
    assert result is not None
    sign, prod = result
    oracle = bubble_sign(
        [(g.rank, g.parity, g.exterior) for g, _ in m1.factors],
        [(g.rank, g.parity, g.exterior) for g, _ in m2.factors],
    )
    assert oracle is not None and sign == oracle[0] == -1
    assert prod.text() == "u b1 a1"


def _all_monomials_up_to(p, max_weight):
    gens = plane_config_generators(p, max_weight)
    out = []
    for n in range(max_weight + 1):
        out.extend(monomial_basis(gens, n, p))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_graded_commutativity_exhaustive(p):
    mons = _all_monomials_up_to(p, 12)
    for m1, m2 in itertools.product(mons, mons):
        r12 = monomial_mul(m1, m2, p)
        r21 = monomial_mul(m2, m1, p)
        if r12 is None:
            assert r21 is None
            continue
        expected_sign = -1 if (m1.degree * m2.degree) % 2 else 1
        assert r21 is not None
        assert r12[1] == r21[1]
        # coefficients live in F_p, so signs compare mod p
        assert r12[0] % p == (expected_sign * r21[0]) % p


@pytest.mark.parametrize("p", [2, 3])
def test_associativity_exhaustive(p):
    def mul3(a, b, c):
        ab = monomial_mul(a, b, p)
        if ab is None:
            return None
        abc = monomial_mul(ab[1], c, p)
        if abc is None:
            return None
        return (ab[0] * abc[0], abc[1])

    def mul3r(a, b, c):
        bc = monomial_mul(b, c, p)
        if bc is None:
            return None
        abc = monomial_mul(a, bc[1], p)
        if abc is None:
            return None
        return (bc[0] * abc[0], abc[1])

    mons = _all_monomials_up_to(p, 6)
    for a, b, c in itertools.product(mons, mons, mons):
        left, right = mul3(a, b, c), mul3r(a, b, c)
        if left is None:
            assert right is None
        else:
            assert right is not None
            assert left[1] == right[1] and left[0] % p == right[0] % p


@settings(max_examples=200, deadline=None)
@given(
    exps1=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    exps2=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
)
def test_monomial_mul_matches_bubble_oracle(exps1, exps2):
    gens = [iota(), u_class(5), beta_gen(1, 5), alpha_gen(1, 5)]

    def build(exps):
        pairs = []
        for g, e in zip(gens, exps):
            e = min(e, 1) if g.exterior else e
            if e:
                pairs.append((g, e))
        return Monomial(pairs)

    m1, m2 = build(exps1), build(exps2)
    got = monomial_mul(m1, m2, 5)
    expanded1 = [(g.rank, g.parity, g.exterior) for g, e in m1.factors for _ in range(e)]
    expanded2 = [(g.rank, g.parity, g.exterior) for g, e in m2.factors for _ in range(e)]
    expected = bubble_sign(expanded1, expanded2)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        sign, prod = got
        assert sign == expected[0]
        assert [g.rank for g, e in prod.factors for _ in range(e)] == expected[1]


def test_element_arithmetic_and_text():
    i, u = iota(), u_class(3)
    e = Element({Monomial([(i, 2)]): 2, Monomial([(u, 1)]): 3}, 3)
    assert e.terms == {Monomial([(i, 2)]): 2}  # 3 = 0 mod 3 dropped
    total = e.add(Element.term(1, Monomial([(i, 2)]), 3))
    assert total.is_zero()
    assert Element.zero(3).text() == "0"
    assert Element({Monomial([(u, 1)]): 2, Monomial([(i, 2)]): 1}, 3).text() == "i^2 + 2*u"


def _map_by_fold(el, f):
    """The fold `Element.map_monomials` replaced: one `add` and one `scale`
    per term."""
    out = Element.zero(el.p)
    for m, c in el.terms.items():
        out = out.add(f(m).scale(c))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_map_monomials_matches_the_fold(p):
    # many-to-one: every monomial of a weight goes to a combination of the
    # same three monomials, and the summed coefficients cancel mod p for
    # some of them
    gens = plane_config_generators(p, 12)
    basis = [m for n in range(1, 13) for m in monomial_basis(gens, n, p)]
    targets = basis[:3]

    def f(m):
        k = sum(e for _, e in m.factors)
        return Element({targets[0]: 1, targets[1]: k, targets[2]: p - 1 if k % 2 else 1}, p)

    for size in (0, 1, 2, p, len(basis)):
        el = Element({m: 1 + k % (p - 1 or 1) for k, m in enumerate(basis[:size])}, p)
        assert el.map_monomials(f) == _map_by_fold(el, f)
    cancelling = Element({basis[0]: 1, basis[1]: p - 1}, p)
    assert cancelling.map_monomials(lambda m: Element({targets[0]: 1}, p)).is_zero()
    assert _map_by_fold(cancelling, lambda m: Element({targets[0]: 1}, p)).is_zero()
    other = 3 if p != 3 else 5
    with pytest.raises(ValueError, match="mixed primes"):
        el.map_monomials(lambda m: Element({targets[0]: 1}, other))
