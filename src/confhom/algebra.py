"""Exact arithmetic in free graded-commutative algebras over a prime field.

Values here are the common currency of the whole package: a verified
``Prime``, named algebra ``Generator`` objects carrying a weight (number of
configuration points) and a homological degree, canonical ``Monomial``
products of generators, and ``Element`` linear combinations with
coefficients in F_p.

Monomials are kept in a canonical form: factors strictly increasing in a
fixed global generator order, with exterior generators (odd degree, odd p)
appearing with exponent exactly one.  Products of canonical monomials pick
up the Koszul sign counting transpositions of odd-degree factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional


# Miller-Rabin with the first twelve primes as bases is deterministic below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact primality test for 0 <= n < _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A prime number, verified at construction by deterministic
    Miller-Rabin; primes of 3.18e23 and above are refused."""

    p: int

    def __post_init__(self) -> None:
        n = self.p
        if n >= _MR_LIMIT:
            raise ValueError(f"prime too large to certify (must be < {_MR_LIMIT}): {n}")
        if not _is_prime(n):
            raise ValueError(f"not a prime: {n}")

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


def as_prime(p) -> Prime:
    """Coerce an int (or Prime) to a verified Prime."""
    return p if isinstance(p, Prime) else Prime(int(p))


# Generator kinds.  The global generator order is encoded in the `rank`
# tuples below; ranks compare lexicographically and the leading entry
# separates the kind families.
KIND_IOTA = "iota"
KIND_U = "u"
KIND_ALPHA = "alpha"
KIND_BETA = "beta"
KIND_Q_IOTA = "q_iota"
KIND_SPHERE_Q = "sphere_q"
KIND_SPHERE_BQ = "sphere_bq"
KIND_BRACKET = "bracket"
KIND_TOWER = "tower"

_RANK_BRACKET = 5
_RANK_TOWER = 6


@dataclass(frozen=True)
class Generator:
    """A named algebra generator.

    `weight` is the number of configuration points the class carries and
    `degree` its homological degree.  `exterior` records whether the
    generator squares to zero (odd degree and p odd); commutation signs
    always use the degree parity, also at p = 2 where they are invisible.
    """

    kind: str
    index: int
    name: str
    weight: int
    degree: int
    exterior: bool
    rank: tuple = field(repr=False)

    @property
    def parity(self) -> int:
        return self.degree % 2

    def __hash__(self) -> int:
        # equal generators share their rank; the generated hash would cover every field
        return hash(self.rank)

    def __str__(self) -> str:
        return self.name


# Generators are frozen values, so each named family's constructor hands out
# one instance per argument tuple: catalogs rebuilt at every call share their
# generators, and comparing factors stops at identity.  An int p and the equal
# Prime are distinct keys, giving equal generators; invalid arguments raise
# on every call, as nothing is stored for them.  The bound caps the memo over
# a long run through many sphere dimensions.
_shared = lru_cache(maxsize=1024, typed=True)


@_shared
def iota() -> Generator:
    """The class of a single point, weight 1 and degree 0."""
    return Generator(KIND_IOTA, 0, "i", 1, 0, False, (0,))


@_shared
def u_class(p) -> Generator:
    """The weight-2 odd class (the bracket of the point class with itself), p odd."""
    q = as_prime(p)
    if q.p == 2:
        raise ValueError("the weight-2 odd generator exists only for odd p")
    return Generator(KIND_U, 0, "u", 2, 1, True, (1,))


@_shared
def beta_gen(i: int, p) -> Generator:
    """The weight 2p^i, degree 2p^i - 2 polynomial generator, i >= 1, p odd."""
    q = as_prime(p)
    if q.p == 2 or i < 1:
        raise ValueError("beta generators require odd p and index >= 1")
    w = 2 * q.p**i
    return Generator(KIND_BETA, i, f"b{i}", w, w - 2, False, (2, i, 0))


@_shared
def alpha_gen(i: int, p) -> Generator:
    """The weight 2p^i, degree 2p^i - 1 exterior generator, i >= 1, p odd."""
    q = as_prime(p)
    if q.p == 2 or i < 1:
        raise ValueError("alpha generators require odd p and index >= 1")
    w = 2 * q.p**i
    return Generator(KIND_ALPHA, i, f"a{i}", w, w - 1, True, (2, i, 1))


@_shared
def q_iota(i: int) -> Generator:
    """The weight 2^i, degree 2^i - 1 generator of the mod-2 algebra, i >= 1."""
    if i < 1:
        raise ValueError("q_iota index must be >= 1")
    w = 2**i
    return Generator(KIND_Q_IOTA, i, f"Qi{i}", w, w - 1, False, (3, i))


@_shared
def sphere_q(i: int, m: int, p) -> Generator:
    """Iterated degree-raising generator over a sphere label of dimension m.

    Weight p^i; degree p^i * (m + 1) - 1 (iterate d -> p*d + p - 1 from m).
    Exterior exactly when p is odd (the degree is then odd for every i).
    """
    q = as_prime(p)
    if i < 0 or m < 1:
        raise ValueError("sphere_q requires i >= 0 and m >= 1")
    w = q.p**i
    d = w * (m + 1) - 1
    return Generator(KIND_SPHERE_Q, i, f"Qs{i}", w, d, q.p != 2, (4, i, 1))


@_shared
def sphere_bq(i: int, m: int, p) -> Generator:
    """Bockstein of sphere_q(i): weight p^i, degree p^i * (m + 1) - 2, i >= 1, p odd."""
    q = as_prime(p)
    if q.p == 2 or i < 1 or m < 1:
        raise ValueError("sphere_bq requires odd p, i >= 1 and m >= 1")
    w = q.p**i
    return Generator(KIND_SPHERE_BQ, i, f"bQs{i}", w, w * (m + 1) - 2, False, (4, i, 0))


def bracket_generator(name: str, weight: int, degree: int, enc: tuple, p) -> Generator:
    """A generator standing for a fixed bracket expression, kept unexpanded.

    `enc` is the structural encoding of the expression; it only enters the
    global order, which sorts bracket generators after the named families.
    """
    q = as_prime(p)
    exterior = degree % 2 == 1 and q.p != 2
    rank = (_RANK_BRACKET, weight, degree) + tuple(enc)
    return Generator(KIND_BRACKET, 0, name, weight, degree, exterior, rank)


def tower_generator(
    name: str, weight: int, degree: int, enc: tuple, q_power: int, bockstein: bool, p
) -> Generator:
    """An iterated degree-raising (optionally Bockstein) generator over a bracket."""
    q = as_prime(p)
    exterior = degree % 2 == 1 and q.p != 2
    rank = (_RANK_TOWER, weight, degree) + tuple(enc) + (q_power, int(bockstein))
    return Generator(KIND_TOWER, q_power, name, weight, degree, exterior, rank)


class Monomial:
    """A canonical product of generators with positive exponents.

    Factors are stored strictly increasing in the global generator order;
    exterior generators carry exponent exactly one.  Weight and degree are
    the exponent-weighted sums over the factors.  The constructor merges
    repeated generators and validates the exterior constraint; it does not
    track Koszul signs, which belong to `monomial_mul`.  Code whose factors
    are canonical by construction builds through the trusted `_canonical`
    instead: enumeration, handing over the text it wrote on the way, and
    the BV operator's images, without a text.  The hash, and a text not
    handed over, are computed on first use and kept.
    """

    __slots__ = ("factors", "weight", "degree", "_hash", "_text")

    @classmethod
    def _canonical(
        cls, factors: tuple, weight: int, degree: int, text: str | None
    ) -> "Monomial":
        """A monomial from factors already canonical (strictly increasing
        rank, positive exponents, exterior exponents 1), their weight and
        degree sums and their canonical text; nothing is merged, sorted or
        checked.  A `text` of None is written by `text()` on first use."""
        m = object.__new__(cls)
        m.factors, m.weight, m.degree, m._hash, m._text = factors, weight, degree, None, text
        return m

    def __init__(self, factors: Iterable[tuple[Generator, int]] = ()):
        merged: dict[Generator, int] = {}
        for gen, exp in factors:
            if exp < 0:
                raise ValueError(f"negative exponent for {gen.name}")
            if exp:
                merged[gen] = merged.get(gen, 0) + exp
        items = sorted(merged.items(), key=lambda ge: ge[0].rank)
        for gen, exp in items:
            if gen.exterior and exp > 1:
                raise ValueError(f"exterior generator {gen.name} with exponent {exp}")
        self.factors = tuple(items)
        self.weight = sum(g.weight * e for g, e in items)
        self.degree = sum(g.degree * e for g, e in items)
        self._hash = self._text = None

    def contains_kind(self, kind: str) -> bool:
        return any(g.kind == kind for g, _ in self.factors)

    def text(self) -> str:
        """Canonical text: factors space-separated, `^e` only when e > 1."""
        if self._text is None:
            self._text = (
                " ".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in self.factors)
                if self.factors
                else "1"
            )
        return self._text

    def sort_key(self) -> tuple[int, str]:
        return (self.degree, self.text())

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.factors)
        return self._hash

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Monomial({self.text()!r})"


ONE = Monomial()


def monomial_mul(m1: Monomial, m2: Monomial, p) -> Optional[tuple[int, Monomial]]:
    """Product of two canonical monomials.

    Returns ``(sign, product)`` with sign in {+1, -1}, or ``None`` when the
    product vanishes because an exterior generator would acquire exponent
    two.  The sign is (-1)^t where t counts the transpositions of
    odd-degree factors needed to sort the concatenation of the two factor
    sequences into canonical order.
    """
    as_prime(p)
    odd1 = [g for g, _ in m1.factors if g.parity]
    odd2 = [g for g, _ in m2.factors if g.parity]
    shared = {g for g, _ in m1.factors} & {g for g, _ in m2.factors}
    if any(g.exterior for g in shared):
        return None
    inversions = sum(1 for g1 in odd1 for g2 in odd2 if g2.rank < g1.rank)
    sign = -1 if inversions % 2 else 1
    return sign, Monomial(m1.factors + m2.factors)


class Element:
    """A finite F_p-linear combination of monomials; zero coefficients dropped.

    The constructor reduces every coefficient mod p and drops the zeros;
    `_trusted` wraps terms already reduced and nonzero, unchecked.
    """

    __slots__ = ("terms", "p")

    def __init__(self, terms: dict[Monomial, int], p):
        prime = as_prime(p)
        self.p = prime
        self.terms = {m: c % prime.p for m, c in terms.items() if c % prime.p}

    @classmethod
    def _trusted(cls, terms: dict[Monomial, int], prime: Prime) -> "Element":
        """Wrap a dict whose coefficients are already in 1..p-1, over a
        verified Prime, unchecked: `zero` and the BV operator's images."""
        el = object.__new__(cls)
        el.terms, el.p = terms, prime
        return el

    @classmethod
    def zero(cls, p) -> "Element":
        return cls._trusted({}, as_prime(p))

    @classmethod
    def term(cls, coeff: int, m: Monomial, p) -> "Element":
        return cls({m: coeff}, p)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Element") -> "Element":
        if self.p != other.p:
            raise ValueError("mixed primes")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Element(out, self.p)

    def scale(self, c: int) -> "Element":
        return Element({m: c * v for m, v in self.terms.items()}, self.p)

    def map_monomials(self, f) -> "Element":
        """Apply a linear map given on monomials (f returns an Element over
        the same prime): the images' coefficients are summed in one dict,
        reduced once."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            image = f(m)
            if image.p != self.p:
                raise ValueError("mixed primes")
            for t, v in image.terms.items():
                out[t] = out.get(t, 0) + c * v
        return Element(out, self.p)

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=Monomial.sort_key):
            c = self.terms[m]
            parts.append(m.text() if c == 1 else f"{c}*{m.text()}")
        return " + ".join(parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element) and self.p == other.p and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Element({self.text()!r} mod {self.p})"
